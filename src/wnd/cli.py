"""Scenario runner and closure-report command-line tool.

Usage:

    wnd run SCENARIO [key=value ...] [--config PATH] [--out PATH]
            [--cutoff N] [--rtol X] [--atol X] [--dt-out X]
    wnd closure GENERATOR [GENERATOR ...] [--max-dim N]
    wnd list

``run`` writes a CSV trajectory with oracle-fidelity columns and prints a
one-line summary with the minimum fidelity.  Parameter precedence: scenario
defaults < config file (flat ``key = value`` lines) < inline key=value
arguments < explicit flags.  The default output directory is taken from the
WND_OUT_DIR environment variable; an output path that cannot take the CSV
is a configuration error, found before the run.  Exit codes: 0 success, 2
configuration error, 3 solver failure (the failure time is printed when
available), including leakage (``fock.check_leakage``): a row, of
``open-damped`` too, where a mode keeps more than 1e-8 of the population
(|psi|^2 or diag rho) in its top two Fock levels, or with none left.  The
decoupled rows are checked before the oracle runs.  A run whose fidelity
column is off 1 by more than 1e-6 on any row exits 3 too, naming the first
such row, and writes no CSV.

Each scenario is one row of ``SCENARIOS``, and every row runs through one
pipeline.  A row describes its dynamics once: an engine problem for a state
run, or the (H, jumps, rates) polynomials of ``open-damped``, a density run
solved over its closed superalgebra (``liouville.lindblad_problem``).  The
oracle is derived from the same description, never written by hand: the
Fock H(t) of the problem, or the banded Lindbladian of the polynomials.  An
initial coherent state that leaks at the cutoff fails with exit 3 and a
suggested cutoff.

CSV columns are drawn from ``t, ReF0, ReF+, ImF+, ReF-, ImF-, X, P,
fidelity, detXi`` as applicable per scenario; values are written with 17
significant digits and LF line endings, so identical configurations yield
byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import engine, fock, gaussian, ladder, liouville
from .errors import FidelityTooLow, WndError
from .signals import Constant, Sinusoid

TWO_PI = 2.0 * np.pi


class ConfigError(Exception):
    pass


# Largest output grid a run accepts, 250 times the largest default (401).
# Each row holds a replayed and an oracle state, so a grid without a bound
# ends in a numpy out-of-memory traceback instead of a configuration error.
MAX_ROWS = 100_001
# Largest n_out x row length a run accepts: a state row holds cutoff+1
# amplitudes, a density row (cutoff+1)^2 entries.  2**26 complex numbers
# are 1 GiB per array; every state run within MAX_ROWS and fock.MAX_CUTOFF
# stays below it (513 x 100001 < 2**26), and so does open-damped at its
# default n_out, at any cutoff.
MAX_ROW_ELEMENTS = 2 ** 26


# One row per scenario: its defaults (a value given as text parses to the
# type of its key's default); its one description of the dynamics, built
# from the parameters: the engine problem of a state run, from which
# fock.oracle_hamiltonian derives the oracle's H(t), or the (H, jumps,
# rates) ladder polynomials of a density run; the rows of the coefficient
# trajectory written as F0, F+ and F- (none for a density run, which writes
# no F or detXi column); and whether X/P are the closed-form linear-drive
# means (gaussian.quadrature_expectation of the decoupled F+-) rather than
# means over the oracle rows.
SCENARIOS = {
    "linear-constant": (
        {"g0": 0.5, "alpha": 1 + 0j, "T": 2 * TWO_PI, "n_out": 201, "cutoff": 40},
        lambda p: gaussian.linear_problem(g := Constant(p["g0"]), g, p["T"]),
        (0, 1, 2), True),
    "linear-resonant": (
        {"g0": 0.2, "phi": 0.0, "alpha": 1 + 0j, "T": 4 * TWO_PI,
         "n_out": 401, "cutoff": 40},
        lambda p: gaussian.linear_problem(
            g := Sinusoid(p["g0"], 1.0, p["phi"]), g, p["T"]),
        (0, 1, 2), True),
    "quadratic-constant": (
        {"lp": 0.2, "lm": 0.2, "alpha": 1 + 0j, "T": 2.0, "n_out": 201, "cutoff": 80},
        lambda p: gaussian.quadratic_problem(
            Constant(p["lp"]), Constant(p["lm"]), p["T"]),
        (1, 0, 2), False),
    "quadratic-parametric": (
        {"l0": 0.1, "freq": 2.0, "alpha": 0j, "T": 6.0, "n_out": 201, "cutoff": 60},
        lambda p: gaussian.quadratic_problem(
            lam := Sinusoid(p["l0"], p["freq"]), lam, p["T"]),
        (1, 0, 2), False),
    "gaussian-combined": (
        {"g0": 0.1, "lp": 0.1, "lm": 0.1, "alpha": 1 + 0j, "T": 3.0,
         "n_out": 201, "cutoff": 60},
        lambda p: gaussian.combined_problem(
            g := Constant(p["g0"]), g, Constant(p["lp"]), Constant(p["lm"]),
            p["T"]),
        (1, 3, 4), False),
    # The damped cavity: H = N, jump a at rate kappa.
    "open-damped": (
        {"kappa": 0.5, "alpha": 1 + 0j, "T": 5.0, "n_out": 101, "cutoff": 30},
        lambda p: (ladder.number(), [ladder.annihilation()], [[p["kappa"]]]),
        (), False),
}


def _parse_value(key, text, kind):
    """``text`` as a value of ``kind``, the type of the key's default."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}={text!r}: {exc}") from exc


def load_config_file(path):
    """Flat ``key = value`` lines; blank lines and #-comments ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from exc
    entries = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def resolve_params(scenario, config_path=None, assignments=(), overrides=None,
                   dt_out=None):
    """Merge defaults, config file, inline assignments and flag overrides.

    ``dt_out`` (the ``--dt-out`` flag) replaces ``n_out`` by the number of
    grid points at that spacing.  Raises ConfigError for unknown keys,
    unparsable or non-finite values, a non-positive span or ``dt_out``, a
    cutoff outside [2, fock.MAX_CUTOFF], a grid below two points or above
    ``MAX_ROWS`` (100001) points, whether set by ``n_out`` or ``dt_out``,
    more than ``MAX_ROW_ELEMENTS`` (2**26) numbers in all the rows of a
    run, a negative ``rtol``/``atol`` or both zero, a negative damping rate
    ``kappa``, and a squeezing pair with ``lm != conj(lp)`` (the Hamiltonian
    would not be Hermitian).
    """
    if scenario not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigError(f"unknown scenario {scenario!r}; known: {known}")
    defaults, _, f_rows, _ = SCENARIOS[scenario]
    defaults = dict(defaults)
    defaults.setdefault("rtol", engine.RTOL)
    defaults.setdefault("atol", engine.ATOL)
    params = dict(defaults)

    def apply(key, raw):
        if key not in params:
            raise ConfigError(
                f"unknown parameter {key!r} for scenario {scenario}; "
                f"known: {', '.join(sorted(params))}"
            )
        params[key] = (_parse_value(key, raw, type(defaults[key]))
                       if isinstance(raw, str) else raw)

    if config_path:
        for key, raw in load_config_file(config_path).items():
            apply(key, raw)
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        apply(key.strip(), raw.strip())
    for key, value in (overrides or {}).items():
        if value is not None:
            apply(key, value)

    for key, value in params.items():
        if isinstance(value, float) and not np.isfinite(value):
            raise ConfigError(f"parameter {key} is not finite")
        if isinstance(value, complex) and not np.isfinite(value.real + value.imag):
            raise ConfigError(f"parameter {key} is not finite")
    if params["T"] <= 0:
        raise ConfigError("span T must be positive")
    if dt_out is not None:
        if not dt_out > 0:
            raise ConfigError("--dt-out must be positive")
        steps = params["T"] / dt_out
        if not steps < MAX_ROWS:  # an infinite count cannot be rounded
            raise ConfigError(f"--dt-out {dt_out:g} on T={params['T']:g} makes "
                              f"over {MAX_ROWS} output rows (cli.MAX_ROWS)")
        params["n_out"] = int(round(steps)) + 1
    if params["n_out"] < 2:
        raise ConfigError(f"n_out={params['n_out']}: the output grid needs at "
                          "least two points")
    if params["n_out"] > MAX_ROWS:
        raise ConfigError(f"n_out={params['n_out']}: the output grid has at "
                          f"most {MAX_ROWS} points (cli.MAX_ROWS)")
    if not 2 <= params["cutoff"] <= fock.MAX_CUTOFF:
        raise ConfigError(f"cutoff={params['cutoff']}: must be between 2 and "
                          f"{fock.MAX_CUTOFF} (fock.MAX_CUTOFF)")
    # A density run is the row that writes no F columns.
    row_length = (params["cutoff"] + 1) ** (1 if f_rows else 2)
    if params["n_out"] * row_length > MAX_ROW_ELEMENTS:
        raise ConfigError(
            f"n_out={params['n_out']} rows of {row_length} numbers make "
            f"{params['n_out'] * row_length}, over {MAX_ROW_ELEMENTS} "
            "(cli.MAX_ROW_ELEMENTS)")
    if params["rtol"] < 0 or params["atol"] < 0:
        raise ConfigError("rtol and atol must be non-negative")
    if params["rtol"] == 0 and params["atol"] == 0:
        raise ConfigError("rtol and atol cannot both be zero")
    if params.get("kappa", 0.0) < 0:
        raise ConfigError(f"kappa={params['kappa']}: a damping rate cannot be "
                          "negative")
    if "lm" in params and params["lm"] != np.conj(params["lp"]):
        raise ConfigError(
            f"lm={params['lm']} must equal conj(lp)={np.conj(params['lp'])} "
            "for a Hermitian Hamiltonian"
        )
    return params


# -- scenario implementations -------------------------------------------------


# Oracle stepping policy for the fidelity columns: endpoint drift 1e-6 is
# ample because fidelity responds quadratically to state error (reported
# fidelities resolve 1e-8 comfortably).  The oracle's CFM4 sub-step is
# fourth order, so a base step of T/100 (halved once to T/200) meets that
# drift on the driven scenarios; each sub-step makes two exponentials, so a
# midpoint-sized T/600 would double the cost for no gain.  A constant H
# (a matrix from fock.oracle_hamiltonian) takes one exact step per output
# interval, in one pass, and neither the base step nor the drift tolerance
# applies to it; the same holds for open-damped's constant Lindbladian.
_ORACLE_STEPS = 100
_ORACLE_DRIFT = 1e-6


def _oracle_states(h_eval, psi0, times):
    return fock.propagate_state(
        h_eval, psi0, times, dt=times[-1] / _ORACLE_STEPS,
        drift_tol=_ORACLE_DRIFT,
    )


def _ansatz_states(raw_traj, images, start):
    """Every row of the trajectory replayed on ``start``, in one call."""
    return fock.apply_ansatz(raw_traj.values, images, start)


# Readers of run rows: each picks its branch from the shape of ``rows``,
# state vectors (rows, levels) or density matrices (rows, levels, levels).


def _populations(rows):
    """|psi|^2 of each state row, or the diagonal of each density row."""
    if rows.ndim == 2:
        return np.abs(rows) ** 2
    return np.diagonal(rows, axis1=1, axis2=2).real


def _fidelity(rows, oracle):
    """|<psi|phi>|^2 per row of states, or the normalised Hilbert-Schmidt
    overlap per row of densities."""
    if rows.ndim == 2:
        return np.array([fock.fidelity(a, o) for a, o in zip(rows, oracle)])
    tr = liouville.trace_products
    return np.abs(tr(oracle, rows)) / np.maximum(
        np.sqrt(np.abs(tr(oracle, oracle) * tr(rows, rows))), 1e-300)


def _means(op, rows):
    """The real part of <op> per state or density row."""
    if rows.ndim == 2:
        return np.array([fock.expectation(op, s).real for s in rows])
    return liouville.trace_products(op, rows).real


def _run(scenario, params):
    """The columns and minimum fidelity of one SCENARIOS row: grid,
    engine.integrate, replay, its leakage, oracle, its leakage, fidelity,
    X/P.  Only the start of the replay and the oracle depend on whether the
    row describes a state run or a density run."""
    _, describe, f_rows, closed_form = SCENARIOS[scenario]
    cutoff, T = params["cutoff"], params["T"]
    times = np.linspace(0.0, T, params["n_out"])
    psi0 = fock.coherent_state(params["alpha"], cutoff)
    dynamics = describe(params)
    if isinstance(dynamics, engine.DecouplingProblem):
        # Replay psi0 at ``cutoff``; the oracle's H(t) comes from the problem
        # and the replay's factor images.
        problem, x0, start, modes = dynamics, psi0, psi0, cutoff
        what = ("ansatz state", "oracle state")

        def oracle():
            return _oracle_states(
                fock.oracle_hamiltonian(problem, cutoff, images), psi0, times)
    else:
        # Replay vec(rho0) with two-mode cutoff (cutoff, cutoff); the oracle
        # is built from the fock.to_matrix images of the same polynomials.
        hamiltonian, jumps, rates = dynamics
        problem = liouville.lindblad_problem(hamiltonian, jumps, rates, T)
        x0 = np.outer(psi0, psi0.conj())
        start, modes = liouville.vectorize(x0), (cutoff, cutoff)
        what = ("replayed density", "oracle density")

        def oracle():
            gen = liouville.build_lindbladian(
                fock.to_matrix(hamiltonian, cutoff),
                [fock.to_matrix(jump, cutoff) for jump in jumps], rates)
            return liouville.propagate_density(gen, x0, T, times=times).matrices

    traj = engine.integrate(problem, rtol=params["rtol"], atol=params["atol"],
                            times=times)
    images = fock.ansatz_matrices(problem.basis, modes)
    replay = _ansatz_states(traj, images, start)
    if x0.ndim == 2:
        replay = liouville.devectorize(replay)
    # A run whose replay leaks fails without paying for the oracle.
    fock.check_leakage(what[0], times, _populations(replay))
    rows = oracle()
    fock.check_leakage(what[1], times, _populations(rows))
    fid = _fidelity(replay, rows)

    columns = {"t": times}
    if f_rows:
        f0, f_plus, f_minus = (traj.values[i] for i in f_rows)
        columns.update({"ReF0": f0.real, "ReF+": f_plus.real, "ImF+": f_plus.imag,
                        "ReF-": f_minus.real, "ImF-": f_minus.imag})
    if closed_form:
        x, p = gaussian.quadrature_expectation(
            params["alpha"], gaussian.LinearDriveCoefficients(
                times=times, f0=times, f_plus=f_plus, f_minus=f_minus))
    else:
        x, p = (_means(op(cutoff), rows) for op in (fock.x_op, fock.p_op))
    columns.update({"X": x, "P": p, "fidelity": fid})
    if f_rows:
        columns["detXi"] = traj.det_ratio
    return columns, float(np.min(fid))


# -- output -------------------------------------------------------------------


def format_csv(columns):
    """17-significant-digit CSV with LF endings (byte-stable)."""
    keys = list(columns)
    lines = [",".join(keys)]
    length = len(next(iter(columns.values())))
    for i in range(length):
        lines.append(",".join(format(float(columns[k][i]), ".17g") for k in keys))
    return "\n".join(lines) + "\n"


def write_csv(columns, path):
    data = format_csv(columns)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(data)


# Largest |fidelity - 1| a run accepts on any row: the loosest acceptance
# floor.  fock.fidelity is unnormalised and may exceed 1, so the check is
# two-sided.
_FIDELITY_TOL = 1e-6


def _check_fidelity(columns):
    """Raise FidelityTooLow at the first row whose fidelity is off 1 by more
    than _FIDELITY_TOL, or is not a number."""
    fid = np.asarray(columns["fidelity"])
    bad = np.flatnonzero(~(np.abs(fid - 1.0) <= _FIDELITY_TOL))
    if bad.size:
        i = bad[0]
        raise FidelityTooLow(
            f"fidelity {format(fid[i], '.12g')} to the oracle at "
            f"t={columns['t'][i]:.6g} is off 1 by more than {_FIDELITY_TOL:g}; "
            "tighten rtol/atol"
        )


def _output_path(scenario, out_path=None):
    """``out_path``, or ``<scenario>.csv`` in WND_OUT_DIR (made if missing).

    Raises ConfigError when WND_OUT_DIR cannot be made, or the path is a
    directory or lies in none, so a run that could not write its CSV fails
    before it is paid for.
    """
    if out_path is None:
        out_dir = os.environ.get("WND_OUT_DIR", ".")
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {out_dir}: "
                              f"{exc.strerror}") from exc
        out_path = os.path.join(out_dir, f"{scenario}.csv")
    if os.path.isdir(out_path) or not os.path.isdir(
            os.path.dirname(out_path) or "."):
        raise ConfigError(f"output path {out_path} is not a file in an "
                          "existing directory")
    return out_path


def run_scenario(scenario, params, out_path=None):
    out_path = _output_path(scenario, out_path)
    columns, min_fidelity = _run(scenario, params)
    _check_fidelity(columns)
    write_csv(columns, out_path)
    return out_path, min_fidelity


# -- closure report -----------------------------------------------------------


def closure_report(generator_texts, max_dim=24):
    """Text report of the closure of ``generator_texts``.

    Raises ConfigError when ``max_dim`` is below the generator count or a
    generator is zero, ParseError for text that does not parse to a finite
    polynomial.
    """
    if max_dim < len(generator_texts):
        raise ConfigError(f"--max-dim {max_dim} is smaller than the generator "
                          f"count {len(generator_texts)}")
    polys = [ladder.parse_polynomial(text) for text in generator_texts]
    for text, poly in zip(generator_texts, polys):
        if poly.is_zero:
            raise ConfigError(f"generator {text!r} is zero")
    n_modes = max(p.n_modes for p in polys)
    polys = [p.promote(n_modes) for p in polys]
    basis = ladder.close_algebra(polys, max_dim=max_dim)
    constants = ladder.structure_constants(basis)

    lines = [f"dimension = {len(basis)}"]
    for i, (elem, central) in enumerate(zip(basis.elements, basis.central)):
        flag = "yes" if central else "no"
        lines.append(f"element {i}: {elem.to_string()}  central={flag}")
    n = len(basis)
    for j in range(n):
        for k in range(n):
            for l in range(n):
                val = constants[j, k, l]
                if abs(val) > 1e-12:
                    lines.append(
                        f"c[{j}][{k}][{l}] = "
                        f"{format(val.real + 0.0, '.17g')},"
                        f"{format(val.imag + 0.0, '.17g')}"
                    )
    return "\n".join(lines) + "\n"


# -- argument parsing ---------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wnd",
        description="Driven-oscillator decoupling scenarios and algebra closures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its CSV")
    run_p.add_argument("scenario")
    run_p.add_argument("assignments", nargs="*", metavar="key=value")
    run_p.add_argument("--config", default=None, metavar="PATH")
    run_p.add_argument("--out", default=None, metavar="PATH")
    run_p.add_argument("--cutoff", type=int, default=None)
    run_p.add_argument("--rtol", type=float, default=None)
    run_p.add_argument("--atol", type=float, default=None)
    run_p.add_argument("--dt-out", type=float, default=None, dest="dt_out")

    clo_p = sub.add_parser("closure", help="close a generator set and report")
    clo_p.add_argument("generators", nargs="+", metavar="POLYNOMIAL")
    clo_p.add_argument("--max-dim", type=int, default=24, dest="max_dim")

    sub.add_parser("list", help="list scenarios and their defaults")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for name in sorted(SCENARIOS):
            defaults = ", ".join(
                f"{k}={v}" for k, v in sorted(SCENARIOS[name][0].items())
            )
            print(f"{name}: {defaults}")
        return 0

    if args.command == "closure":
        try:
            report = closure_report(args.generators, max_dim=args.max_dim)
        except (ConfigError, WndError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report, end="")
        return 0

    # run
    try:
        overrides = {"cutoff": args.cutoff, "rtol": args.rtol, "atol": args.atol}
        params = resolve_params(
            args.scenario, config_path=args.config,
            assignments=args.assignments, overrides=overrides,
            dt_out=args.dt_out,
        )
        out_path, min_fidelity = run_scenario(args.scenario, params, args.out)
    # OSError: a config file or CSV path that cannot be read or written.
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except WndError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    print(f"{args.scenario}: wrote {out_path}  min_fidelity = "
          f"{format(min_fidelity, '.12g')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
