import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import wnd
from wnd import cli, engine, fock, gaussian, liouville


def run_cli(argv):
    return cli.main(argv)


CHEAP_LINEAR = ["T=3.141592653589793", "n_out=9", "cutoff=24"]


class TestConfigResolution:
    def test_defaults_plus_assignments(self):
        params = cli.resolve_params("linear-constant", assignments=["g0=0.7", "T=3"])
        assert params["g0"] == 0.7
        assert params["T"] == 3.0
        assert params["cutoff"] == 40

    def test_flags_win_over_assignments(self):
        params = cli.resolve_params(
            "linear-constant", assignments=["cutoff=32"],
            overrides={"cutoff": 48},
        )
        assert params["cutoff"] == 48

    def test_config_file_then_assignments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n g0 = 0.9 \nT = 2.0\n")
        params = cli.resolve_params(
            "linear-constant", config_path=str(cfg), assignments=["g0=0.4"]
        )
        assert params["g0"] == 0.4
        assert params["T"] == 2.0

    def test_unknown_scenario_and_key(self):
        with pytest.raises(cli.ConfigError):
            cli.resolve_params("no-such-scenario")
        with pytest.raises(cli.ConfigError):
            cli.resolve_params("linear-constant", assignments=["bogus=1"])

    def test_complex_alpha(self):
        params = cli.resolve_params("linear-constant", assignments=["alpha=0.5+0.5j"])
        assert params["alpha"] == 0.5 + 0.5j

    def test_row_bound_is_inclusive(self):
        params = cli.resolve_params("linear-constant",
                                    assignments=[f"n_out={cli.MAX_ROWS}"])
        assert params["n_out"] == cli.MAX_ROWS
        params = cli.resolve_params("linear-constant", assignments=["T=1"],
                                    dt_out=1 / (cli.MAX_ROWS - 1))
        assert params["n_out"] == cli.MAX_ROWS

    def test_row_elements_bounded(self):
        # A density row holds (cutoff+1)^2 numbers: 100001 rows at cutoff
        # 512 would ask for a (100001, 263169) array.  Checked before the
        # run; the oversized run is never started.
        with pytest.raises(cli.ConfigError, match="cli.MAX_ROW_ELEMENTS") as err:
            cli.resolve_params("open-damped",
                               assignments=["cutoff=512", f"n_out={cli.MAX_ROWS}"])
        assert f"{cli.MAX_ROWS * 513 ** 2}, over {2 ** 26}" in str(err.value)
        assert cli.MAX_ROW_ELEMENTS == 2 ** 26
        # Every state run within the row and cutoff bounds stays accepted,
        # and open-damped at its default n_out takes any cutoff.
        for scenario in sorted(cli.SCENARIOS):
            n_out = 101 if scenario == "open-damped" else cli.MAX_ROWS
            params = cli.resolve_params(
                scenario, assignments=[f"cutoff={fock.MAX_CUTOFF}", f"n_out={n_out}"])
            assert params["n_out"] == n_out
        # The bound is inclusive: floor(2**26 / 31**2) rows at cutoff 30 pass.
        rows = cli.MAX_ROW_ELEMENTS // 31 ** 2
        cli.resolve_params("open-damped", assignments=[f"n_out={rows}"])
        with pytest.raises(cli.ConfigError, match="MAX_ROW_ELEMENTS"):
            cli.resolve_params("open-damped", assignments=[f"n_out={rows + 1}"])

    def test_non_utf8_config_is_one_line_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# r\xe9glage\ng0 = 0.7\n".encode("latin-1"))
        with pytest.raises(cli.ConfigError, match="not UTF-8"):
            cli.resolve_params("linear-constant", config_path=str(cfg))
        out = tmp_path / "never.csv"
        assert run_cli(["run", "linear-constant", "--config", str(cfg),
                        "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert not out.exists()


# Small grids on which every scenario runs in well under a second.
CHEAP_RUNS = {
    "linear-constant": CHEAP_LINEAR,
    "linear-resonant": ["T=3.0", "n_out=7", "cutoff=24"],
    "quadratic-constant": ["T=1.0", "n_out=5", "cutoff=32"],
    "quadratic-parametric": ["T=1.5", "n_out=5", "cutoff=24"],
    "gaussian-combined": ["T=1.0", "n_out=5", "cutoff=24"],
    "open-damped": ["T=2.0", "n_out=5", "cutoff=16"],
}


class TestRunCommand:
    def test_linear_constant_csv(self, tmp_path, capsys):
        out = tmp_path / "lc.csv"
        code = run_cli(["run", "linear-constant", *CHEAP_LINEAR,
                        "--out", str(out)])
        assert code == 0
        summary = capsys.readouterr().out
        assert "min_fidelity" in summary
        text = out.read_text()
        lines = text.split("\n")
        assert lines[0] == "t,ReF0,ReF+,ImF+,ReF-,ImF-,X,P,fidelity,detXi"
        assert len(lines) == 9 + 2  # header + rows + trailing newline
        assert "\r" not in text
        fid = [float(row.split(",")[8]) for row in lines[1:-1]]
        assert min(fid) >= 1 - 1e-8

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["run", "linear-constant", *CHEAP_LINEAR]
        assert run_cli(argv + ["--out", str(out1)]) == 0
        assert run_cli(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_out_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WND_OUT_DIR", str(tmp_path / "outputs"))
        code = run_cli(["run", "linear-constant", *CHEAP_LINEAR])
        assert code == 0
        assert (tmp_path / "outputs" / "linear-constant.csv").exists()

    def test_config_error_exit_code(self, capsys):
        assert run_cli(["run", "linear-constant", "bogus=1"]) == 2
        assert run_cli(["run", "unknown-scenario"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # lm is validated as conj(lp) instead of being ignored or
            # escaping as a traceback.
            ["quadratic-constant", "lm=0.35"],
            ["gaussian-combined", "lp=0.1", "lm=0.05"],
            # Degenerate truncations and grids.
            ["linear-constant", "cutoff=0"],
            ["linear-constant", "--cutoff", "1"],
            # Past fock.MAX_CUTOFF the dense oracle's memory, which grows
            # as cutoff^2, would end the run in an out-of-memory kill.
            ["linear-constant", "cutoff=513"],
            ["linear-constant", "n_out=1"],
            ["linear-constant", "T=2.0", "--dt-out", "5.0"],
            ["linear-constant", "--dt-out", "-1"],
            # Tolerances and rates that would be ignored or misreported.
            ["linear-constant", "rtol=-1"],
            ["linear-constant", "--atol", "-1"],
            ["linear-constant", "rtol=0", "atol=0"],
            ["open-damped", "kappa=-1"],
        ],
        ids=["quadratic-lm", "combined-lm", "cutoff-0", "cutoff-1",
             "cutoff-513", "n-out-1", "dt-out-beyond-T", "dt-out-negative", "rtol-negative",
             "atol-negative", "tolerances-zero", "kappa-negative"],
    )
    def test_rejected_parameters_exit_code(self, argv, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert run_cli(["run", *argv, "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["n_out=100002"],
        ["n_out=1000000000000"],
        ["n_out=1" + "0" * 400],
        ["--dt-out", "1e-12"],
        ["--dt-out", "1e-320"],
    ], ids=["n-out-past-bound", "n-out-1e12", "n-out-huge-int", "dt-out-1e-12",
            "dt-out-infinite-count"])
    def test_row_bound_exit_code(self, argv, tmp_path, capsys):
        # Past cli.MAX_ROWS the grid would end in numpy's out-of-memory
        # traceback; an integer past int64 or a count that overflows to inf
        # must not escape as one either.
        out = tmp_path / "never.csv"
        assert run_cli(["run", "linear-constant", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert str(cli.MAX_ROWS) in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing-dir", "out-is-dir",
                                       "env-is-file", "env-under-file"])
    def test_output_path_errors_exit_2_before_the_engine(
            self, where, tmp_path, capsys, monkeypatch):
        # A CSV that could not be written fails before the run is paid for.
        calls = []
        real = engine.integrate
        monkeypatch.setattr(engine, "integrate",
                            lambda *a, **k: calls.append(k) or real(*a, **k))
        regular = tmp_path / "regular"
        regular.write_text("")
        argv = ["run", "linear-constant", *CHEAP_LINEAR]
        if where == "missing-dir":
            argv += ["--out", str(tmp_path / "missing" / "x.csv")]
        elif where == "out-is-dir":
            argv += ["--out", str(tmp_path)]
        else:
            env = regular if where == "env-is-file" else regular / "sub"
            monkeypatch.setenv("WND_OUT_DIR", str(env))
        before = sorted(tmp_path.rglob("*"))
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == before
        assert regular.read_text() == ""

    def test_solver_error_exit_code(self, tmp_path, capsys):
        # Strong constant squeezing makes the transfer matrix singular
        # inside the span; the CLI reports the failure time and exits 3.
        code = run_cli([
            "run", "quadratic-constant", "lp=1.0", "lm=1.0", "T=30",
            "n_out=61", "cutoff=24", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "solver error" in err
        assert "t=" in err

    def test_chart_overflow_is_one_line_exit_3(self, tmp_path, capsys):
        # kappa=1e9 throws F out of the chart in the first step: the factor
        # exponentials in Xi overflow and |det Xi| reads 0.  The run ends
        # with the typed error alone, with no numpy warning before it.
        out = tmp_path / "never.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(["run", "open-damped", "kappa=1e9", "n_out=5", "T=1",
                            "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["quadratic-parametric", "cutoff=12"],
            ["quadratic-parametric", "l0=0.6", "T=3", "n_out=31"],
            ["quadratic-constant", "lp=0.6", "lm=0.6", "n_out=41"],
            ["linear-resonant", "cutoff=20", "T=19", "n_out=39"],
        ],
        ids=["parametric-cutoff-12", "parametric-l0", "constant-lp",
             "resonant-cutoff-20"],
    )
    def test_leakage_exit_code(self, argv, tmp_path, capsys):
        # Population in the top two levels passes 1e-8 mid-run and peaks at
        # 5e-7 to 1e-2, so the fidelity column would rest on a truncation
        # artefact.  Spans and grids are cut to where the leak is clear.
        out = tmp_path / "never.csv"
        assert run_cli(["run", *argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "top two levels" in err
        assert "t=" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["linear-resonant", "--rtol", "1e-2", "--atol", "1e-2"],
        ["quadratic-parametric", "--rtol", "1e-1", "--atol", "1e-1"],
    ], ids=["resonant-loose", "parametric-loose"])
    def test_fidelity_floor_is_one_line_exit_3(self, argv, tmp_path, capsys):
        # Loose engine tolerances leave the decoupled rows 1.5e-3 and 1.3e-5
        # from the oracle.  The parametric run's first bad row has fidelity
        # above 1, which the two-sided floor catches as well.
        out = tmp_path / "never.csv"
        assert run_cli(["run", *argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: fidelity") and err.count("\n") == 1
        assert "t=" in err
        assert not out.exists()

    def test_ansatz_leak_stops_before_oracle(self, tmp_path, capsys,
                                             monkeypatch):
        # The ansatz of the full-span parametric run leaks at t=1.65.  The
        # huge drives collapse the replayed ansatz to norm 0, which holds no
        # population in the top levels either; leakage is measured relative
        # to the norm, so those rows fail too.  In every case the oracle,
        # which costs most of a run (minutes for g0=1e8), must not start.
        calls = []
        real = cli._oracle_states
        monkeypatch.setattr(cli, "_oracle_states",
                            lambda *args: calls.append(args) or real(*args))
        out = tmp_path / "never.csv"
        for argv in (["quadratic-parametric", "l0=0.6"],
                     ["linear-constant", "g0=1e3", "n_out=5", "T=1"],
                     ["linear-resonant", "g0=1e8", "n_out=5", "T=1"]):
            assert run_cli(["run", *argv, "--out", str(out)]) == 3
            assert "ansatz state" in capsys.readouterr().err
            assert calls == []
            assert not out.exists()
        assert run_cli(["run", "quadratic-parametric", "T=1.5", "n_out=5",
                        "cutoff=24", "--out", str(out)]) == 0
        assert len(calls) == 1

    def test_open_damped_one_liouville_run(self, tmp_path, monkeypatch):
        # The Liouville propagation is the oracle and runs once; the
        # reference is the Wei-Norman replay, not a finer-step re-run.
        calls = []
        real = liouville.propagate_density
        monkeypatch.setattr(liouville, "propagate_density",
                            lambda *a, **k: calls.append(k) or real(*a, **k))
        out = tmp_path / "open.csv"
        assert run_cli(["run", "open-damped", "T=2.0", "n_out=5", "cutoff=16",
                        "--out", str(out)]) == 0
        assert len(calls) == 1
        assert out.read_text().split("\n")[0] == "t,X,P,fidelity"

    def test_open_damped_honours_tolerances(self, tmp_path, monkeypatch):
        seen = []
        real = engine.integrate
        monkeypatch.setattr(engine, "integrate",
                            lambda *a, **k: seen.append(k) or real(*a, **k))
        assert run_cli(["run", "open-damped", "rtol=1e-8", "atol=1e-10",
                        "T=2.0", "n_out=5", "cutoff=16",
                        "--out", str(tmp_path / "open.csv")]) == 0
        assert [(k["rtol"], k["atol"]) for k in seen] == [(1e-8, 1e-10)]

    def test_open_damped_oracle_leak_is_one_line_exit_3(self, tmp_path,
                                                        capsys, monkeypatch):
        # Density rows meet the unitary rows' leakage rule, judged on the
        # diagonal of rho.  Population put on the top level of one oracle
        # row leaves the fidelity column within 1e-12 of 1, so only the
        # leakage check can stop the run.
        real = liouville.propagate_density

        def leaky(*args, **kwargs):
            density = real(*args, **kwargs)
            density.matrices[2, -1, -1] += 1e-6
            return density

        monkeypatch.setattr(liouville, "propagate_density", leaky)
        out = tmp_path / "never.csv"
        assert run_cli(["run", "open-damped", "T=2.0", "n_out=5", "cutoff=16",
                        "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: oracle density") and err.count("\n") == 1
        assert "top two levels" in err and "t=1;" in err
        assert not out.exists()

    def test_open_damped_replay_leak_stops_before_oracle(self, tmp_path,
                                                         capsys, monkeypatch):
        # A replayed row that leaks fails before the Liouville oracle runs,
        # as a leaking ansatz does on the unitary rows.
        calls = []
        real_oracle = liouville.propagate_density
        monkeypatch.setattr(liouville, "propagate_density",
                            lambda *a, **k: calls.append(k) or real_oracle(*a, **k))
        real_replay = cli._ansatz_states

        def leaky(*args):
            rows = real_replay(*args)
            rows[3, -1] += 1e-6  # rho_cc, the top level, at t = 1.5
            return rows

        monkeypatch.setattr(cli, "_ansatz_states", leaky)
        out = tmp_path / "never.csv"
        assert run_cli(["run", "open-damped", "T=2.0", "n_out=5", "cutoff=16",
                        "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: replayed density")
        assert err.count("\n") == 1
        assert "top two levels" in err and "t=1.5;" in err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("scenario", sorted(cli.SCENARIOS))
    def test_replay_leak_stops_before_either_oracle(self, scenario, tmp_path,
                                                    capsys, monkeypatch):
        # One pipeline checks the replayed rows of every scenario, state or
        # density, before its oracle starts.  1e-3 on the top level of row 2
        # is a population share of at least 1e-6 for a state and 1e-3 for a
        # density, well past fock.LEAKAGE_TOL.
        calls = []
        for module, name in ((fock, "propagate_state"),
                             (liouville, "propagate_density")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, **k:
                                calls.append(a) or real(*a, **k))
        real_replay = cli._ansatz_states

        def leaky(*args):
            rows = real_replay(*args)
            rows[2, -1] += 1e-3
            return rows

        monkeypatch.setattr(cli, "_ansatz_states", leaky)
        out = tmp_path / "never.csv"
        assert run_cli(["run", scenario, *CHEAP_RUNS[scenario],
                        "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: ") and err.count("\n") == 1
        assert ("ansatz state" in err) != ("replayed density" in err)
        assert "top two levels" in err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("alpha,hint", [
        ("3", f"try cutoff {fock.choose_cutoff(3.0)}"),
        # Every amplitude underflows at cutoff 16; this used to pass the
        # leakage check and end in a LinAlgError traceback.
        ("30", "exceeds supported ceiling"),
    ])
    def test_leaky_initial_state_names_cutoff(self, alpha, hint, tmp_path,
                                              capsys):
        out = tmp_path / "never.csv"
        assert run_cli(["run", "open-damped", f"alpha={alpha}", "cutoff=16",
                        "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "top two levels at cutoff 16" in err
        assert hint in err
        assert not out.exists()

    def test_unitary_run_builds_factor_images_once(self, tmp_path, monkeypatch):
        # Each factor image is built once per run, not again for every
        # replayed row, and the oracle's H is summed from the same images.
        calls = []
        real = fock._image_bands
        monkeypatch.setattr(fock, "_image_bands",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        n_factors = len(gaussian.linear_basis())
        for n_out in (5, 17):
            calls.clear()
            assert run_cli(["run", "linear-constant", "T=3.0", f"n_out={n_out}",
                            "cutoff=24", "--out", str(tmp_path / "lc.csv")]) == 0
            assert len(calls) == n_factors

    @pytest.mark.parametrize("scenario,levels,blocks", [
        ("linear-constant", 41, 1),
        ("open-damped", 31 ** 2, 3),
    ])
    def test_replay_is_one_call_per_block(self, scenario, levels, blocks,
                                          tmp_path, monkeypatch):
        # A default run replays its rows in blocks of
        # fock._REPLAY_BLOCK // dim columns, each one call of apply_ansatz:
        # one call for the 201 state rows of dimension 41, and three for the
        # 101 density rows of dimension 961.
        calls = []
        real = fock.apply_ansatz
        monkeypatch.setattr(fock, "apply_ansatz",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        assert run_cli(["run", scenario, "--out", str(tmp_path / "d.csv")]) == 0
        rows = cli.SCENARIOS[scenario][0]["n_out"]
        assert blocks == -(-rows // (fock._REPLAY_BLOCK // levels))
        assert len(calls) == blocks
        assert np.shape(calls[0][0]) == (len(calls[0][1]), rows)

    def test_dt_out_controls_grid(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run_cli(["run", "linear-constant", "T=2.0", "cutoff=24",
                        "--dt-out", "0.5", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 1 + 5  # header + t = 0, 0.5, 1.0, 1.5, 2.0

    def test_closed_orbit_example(self, tmp_path, capsys):
        # A full 2-pi multiple closes the phase-space orbit: X(T) = X(0)
        # within 1e-6, with the whole fidelity column above 1 - 1e-8.
        out = tmp_path / "orbit.csv"
        code = run_cli(["run", "linear-constant", "g0=0.5", "alpha=1",
                        "T=12.566", "n_out=41", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().split("\n")
        header = rows[0].split(",")
        x_col = header.index("X")
        fid_col = header.index("fidelity")
        first = rows[1].split(",")
        last = rows[-1].split(",")
        assert abs(float(last[x_col]) - float(first[x_col])) <= 1e-6
        assert min(float(r.split(",")[fid_col]) for r in rows[1:]) >= 1 - 1e-8

    @pytest.mark.parametrize(
        "scenario,assignments",
        [
            ("linear-resonant", ["T=3.0", "n_out=7", "cutoff=24"]),
            ("quadratic-constant", ["T=1.0", "n_out=5", "cutoff=32"]),
            ("quadratic-parametric", ["T=1.5", "n_out=5", "cutoff=24"]),
            ("gaussian-combined", ["T=1.0", "n_out=5", "cutoff=24"]),
            ("open-damped", ["T=2.0", "n_out=5", "cutoff=16"]),
        ],
    )
    def test_every_scenario_runs(self, scenario, assignments, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = run_cli(["run", scenario, *assignments, "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0].startswith("t,")
        assert "fidelity" in rows[0]
        summary = capsys.readouterr().out
        assert "min_fidelity" in summary
        fid_col = rows[0].split(",").index("fidelity")
        assert min(float(r.split(",")[fid_col]) for r in rows[1:]) >= 1 - 1e-6


class TestClosureCommand:
    def test_linear_generators(self, capsys):
        assert run_cli(["closure", "ad*a", "a", "ad"]) == 0
        out = capsys.readouterr().out
        assert "dimension = 4" in out
        assert "central=yes" in out  # the identity element

    def test_su11_generators(self, capsys):
        assert run_cli(["closure", "0.5*ad^2", "0.25*(2*ad*a+I)", "0.5*a^2"]) == 0
        out = capsys.readouterr().out
        assert "dimension = 3" in out

    def test_optomechanical_generators(self, capsys):
        assert run_cli(["closure", "bd*b", "ad*a*(bd+b)"]) == 0
        out = capsys.readouterr().out
        assert "dimension = 4" in out
        kerr_line = [l for l in out.splitlines()
                     if l.startswith("element") and "ad^2*a^2" in l]
        assert kerr_line and "central=yes" in kerr_line[0]
        # The structure constant on the Casimir element is exactly 2.
        assert "c[1][2][3] = 2,0" in out

    def test_mixed_scale_generators(self, capsys):
        assert run_cli(["closure", "1e11*ad*a", "ad", "a"]) == 0
        assert capsys.readouterr().out.startswith("dimension = 4\n")

    def test_parse_error_exit_code(self, capsys):
        assert run_cli(["closure", "ad**a"]) == 2
        assert "error" in capsys.readouterr().err

    def test_overflow_exit_code(self, capsys):
        assert run_cli(["closure", "ad^3", "a^2", "--max-dim", "6"]) == 2

    @pytest.mark.parametrize("argv", [
        ["a", "--max-dim", "0"],
        ["a", "--max-dim", "-3"],
        ["0"],
        ["1e400*a"],
    ], ids=["max-dim-0", "max-dim-negative", "zero-generator", "inf-coefficient"])
    def test_bad_input_is_one_line_exit_2(self, argv, capsys):
        assert run_cli(["closure"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["(ad*a)^200"],
        ["ad^200*a^200", "ad"],
        ["(" * 2000 + "a" + ")" * 2000],
        ["a^513"],
        ["a^1000000000"],
    ], ids=["power-overflow", "commutator-overflow", "nesting-2000",
            "exponent-513", "exponent-1e9"])
    def test_overflow_and_deep_nesting_are_one_line_exit_2(self, argv, capsys):
        # Normal ordering past the float range, parentheses past
        # ladder.MAX_NESTING and exponents past ladder.MAX_EXPONENT (refused
        # before any product is formed) are typed errors, not tracebacks.
        assert run_cli(["closure"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestStartup:
    def test_cli_import_skips_scipy_integrate(self):
        # Only the generic quadrature fallback of Signal needs it.
        src = os.path.dirname(os.path.dirname(wnd.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, wnd.cli; print('scipy.integrate' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_unitary_runs_load_no_scipy(self, tmp_path):
        # Only the dense replay exponential and the quadrature fallback
        # import scipy; no run at its defaults, open-damped included, takes
        # either of them.
        src = os.path.dirname(os.path.dirname(wnd.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys, wnd.cli\n"
            "for name in wnd.cli.SCENARIOS:\n"
            f"    out = {str(tmp_path)!r} + '/' + name + '.csv'\n"
            "    assert wnd.cli.main(['run', name, '--out', out]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip().splitlines()[-1] == "[]"


class TestListCommand:
    def test_lists_all_scenarios(self, capsys):
        assert run_cli(["list"]) == 0
        out = capsys.readouterr().out
        for name in cli.SCENARIOS:
            assert name in out


class TestCsvFormat:
    def test_seventeen_significant_digits(self):
        text = cli.format_csv({"t": [1 / 3], "X": [np.pi]})
        row = text.split("\n")[1]
        assert row == "0.33333333333333331,3.1415926535897931"
