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
WND_OUT_DIR environment variable.  Exit codes: 0 success, 2 configuration
error, 3 solver failure (the failure time is printed when available),
including leakage: an oracle or ansatz row with more than 1e-8 of its norm
squared in the top two Fock levels, or with no norm left.  The ansatz is
checked before the oracle runs.

Each unitary scenario is one row of ``UNITARY_SCENARIOS``; the oracle's H(t)
is derived from the row's engine problem, never written by hand.
``open-damped`` solves the damped cavity by the decoupling theorem over its
closed superalgebra (``liouville.lindblad_problem``, at the run's
rtol/atol), replays the factors on vec(rho0) through the same replay as the
unitary rows, and checks the result against the Liouville propagation of
the sparse generator, its oracle.  An initial coherent state that leaks at
the cutoff fails with exit 3 and a suggested cutoff.

CSV columns are drawn from ``t, ReF0, ReF+, ImF+, ReF-, ImF-, X, P,
fidelity, detXi`` as applicable per scenario; values are written with 17
significant digits and LF line endings, so identical configurations yield
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import engine, fock, gaussian, ladder, liouville
from .errors import LeakageTooLarge, WndError
from .signals import Constant, Sinusoid

TWO_PI = 2.0 * np.pi


class ConfigError(Exception):
    pass


SCENARIO_DEFAULTS = {
    "linear-constant": {"g0": 0.5, "alpha": 1 + 0j, "T": 2 * TWO_PI,
                        "n_out": 201, "cutoff": 40},
    "linear-resonant": {"g0": 0.2, "phi": 0.0, "alpha": 1 + 0j, "T": 4 * TWO_PI,
                        "n_out": 401, "cutoff": 40},
    "quadratic-constant": {"lp": 0.2, "lm": 0.2, "alpha": 1 + 0j, "T": 2.0,
                           "n_out": 201, "cutoff": 80},
    "quadratic-parametric": {"l0": 0.1, "freq": 2.0, "alpha": 0j, "T": 6.0,
                             "n_out": 201, "cutoff": 60},
    "gaussian-combined": {"g0": 0.1, "lp": 0.1, "lm": 0.1, "alpha": 1 + 0j,
                          "T": 3.0, "n_out": 201, "cutoff": 60},
    "open-damped": {"kappa": 0.5, "alpha": 1 + 0j, "T": 5.0,
                    "n_out": 101, "cutoff": 30},
}

_COMPLEX_KEYS = {"alpha"}
_INT_KEYS = {"n_out", "cutoff"}


def _parse_value(key, text):
    try:
        if key in _INT_KEYS:
            return int(text)
        if key in _COMPLEX_KEYS:
            return complex(text)
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}={text!r}: {exc}") from exc


def load_config_file(path):
    """Flat ``key = value`` lines; blank lines and #-comments ignored."""
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
    cutoff or grid below two points, a negative ``rtol``/``atol`` or both
    zero, a negative damping rate ``kappa``, and a squeezing pair with
    ``lm != conj(lp)`` (the Hamiltonian would not be Hermitian).
    """
    if scenario not in SCENARIO_DEFAULTS:
        known = ", ".join(sorted(SCENARIO_DEFAULTS))
        raise ConfigError(f"unknown scenario {scenario!r}; known: {known}")
    params = dict(SCENARIO_DEFAULTS[scenario])
    params.setdefault("rtol", 1e-10)
    params.setdefault("atol", 1e-12)

    def apply(key, raw):
        if key not in params:
            raise ConfigError(
                f"unknown parameter {key!r} for scenario {scenario}; "
                f"known: {', '.join(sorted(params))}"
            )
        params[key] = _parse_value(key, raw) if isinstance(raw, str) else raw

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
        if isinstance(value, (int, float)) and not np.isfinite(value):
            raise ConfigError(f"parameter {key} is not finite")
        if isinstance(value, complex) and not np.isfinite(value.real + value.imag):
            raise ConfigError(f"parameter {key} is not finite")
    if params["T"] <= 0:
        raise ConfigError("span T must be positive")
    if dt_out is not None:
        if dt_out <= 0:
            raise ConfigError("--dt-out must be positive")
        params["n_out"] = int(round(params["T"] / dt_out)) + 1
    if params["n_out"] < 2:
        raise ConfigError(f"n_out={params['n_out']}: the output grid needs at "
                          "least two points")
    if params["cutoff"] < 2:
        raise ConfigError(f"cutoff={params['cutoff']}: must be at least 2")
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
# (a matrix from fock.oracle_hamiltonian) is stepped exactly in one pass,
# and the drift tolerance does not apply to it.
_ORACLE_STEPS = 100
_ORACLE_DRIFT = 1e-6


def _oracle_states(h_eval, psi0, times):
    return fock.propagate_state(
        h_eval, psi0, times, dt=times[-1] / _ORACLE_STEPS,
        drift_tol=_ORACLE_DRIFT,
    )


def _ansatz_states(raw_traj, cutoff, psi0):
    mats = fock.ansatz_matrices(raw_traj.basis, cutoff)
    states = np.empty((len(raw_traj.times), psi0.shape[0]), dtype=complex)
    for i in range(len(raw_traj.times)):
        states[i] = fock.apply_ansatz(raw_traj.values[:, i], mats, psi0)
    return states


# Share of a row's population allowed in its top two Fock levels, on any
# oracle or ansatz row: the tightest fidelity floor a run is checked against.
_LEAKAGE_TOL = 1e-8


def _check_leakage(name, times, states):
    """Raise LeakageTooLarge at the first row of ``states`` that keeps more
    than _LEAKAGE_TOL of its norm squared in the top two levels.  A row
    whose ratio is not a number (a collapsed, zero-norm state) fails too."""
    top = np.array([fock.leakage(s) for s in states])
    norm_sq = np.sum(np.abs(states) ** 2, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = top / norm_sq
    bad = np.flatnonzero(~(ratio <= _LEAKAGE_TOL))
    if bad.size:
        i = bad[0]
        raise LeakageTooLarge(
            f"{name} state keeps {top[i]:.2e} of its norm squared "
            f"{norm_sq[i]:.2e} in the top two levels at t={times[i]:.6g}; "
            "raise the cutoff"
        )


def _checked_fidelity(raw_traj, h_eval, cutoff, psi0, times):
    """Oracle states and per-row fidelity of the replayed ansatz.

    The ansatz is replayed and leakage-checked before the oracle runs, so a
    run that leaks there fails without paying for the oracle; the oracle
    rows are checked afterwards.  Returns (oracle_states, fidelity).
    """
    ansatz = _ansatz_states(raw_traj, cutoff, psi0)
    _check_leakage("ansatz", times, ansatz)
    oracle = _oracle_states(h_eval, psi0, times)
    _check_leakage("oracle", times, oracle)
    fid = np.array([fock.fidelity(a, o) for a, o in zip(ansatz, oracle)])
    return oracle, fid


# One row per unitary scenario: the engine problem built from the
# parameters; the rows of the coefficient trajectory written as F0, F+ and
# F-; and whether X/P are the closed-form linear-drive means
# (gaussian.quadrature_expectation of the decoupled F+-) rather than means
# over the oracle states.  The oracle's H(t) is derived from the same
# problem by fock.oracle_hamiltonian.
UNITARY_SCENARIOS = {
    "linear-constant": (
        lambda p: gaussian.linear_problem(g := Constant(p["g0"]), g, p["T"]),
        (0, 1, 2), True),
    "linear-resonant": (
        lambda p: gaussian.linear_problem(
            g := Sinusoid(p["g0"], 1.0, p["phi"]), g, p["T"]),
        (0, 1, 2), True),
    "quadratic-constant": (
        lambda p: gaussian.quadratic_problem(
            Constant(p["lp"]), Constant(p["lm"]), p["T"]),
        (1, 0, 2), False),
    "quadratic-parametric": (
        lambda p: gaussian.quadratic_problem(
            lam := Sinusoid(p["l0"], p["freq"]), lam, p["T"]),
        (1, 0, 2), False),
    "gaussian-combined": (
        lambda p: gaussian.combined_problem(
            g := Constant(p["g0"]), g, Constant(p["lp"]), Constant(p["lm"]),
            p["T"]),
        (1, 3, 4), False),
}


def _unitary_scenario(scenario, params):
    build, f_rows, closed_form = UNITARY_SCENARIOS[scenario]
    cutoff = params["cutoff"]
    alpha = params["alpha"]
    times = np.linspace(0.0, params["T"], params["n_out"])
    problem = build(params)
    traj = engine.integrate(problem, rtol=params["rtol"], atol=params["atol"],
                            times=times)
    f0, f_plus, f_minus = (traj.values[i] for i in f_rows)

    psi0 = fock.coherent_state(alpha, cutoff)
    oracle, fid = _checked_fidelity(
        traj, fock.oracle_hamiltonian(problem, cutoff), cutoff, psi0, times)
    if closed_form:
        x, p = gaussian.quadrature_expectation(alpha, gaussian.LinearDriveCoefficients(
            times=times, f0=times, f_plus=f_plus, f_minus=f_minus))
    else:
        x_mat, p_mat = fock.x_op(cutoff), fock.p_op(cutoff)
        x = np.array([fock.expectation(x_mat, s).real for s in oracle])
        p = np.array([fock.expectation(p_mat, s).real for s in oracle])
    columns = {
        "t": times,
        "ReF0": f0.real,
        "ReF+": f_plus.real,
        "ImF+": f_plus.imag,
        "ReF-": f_minus.real,
        "ImF-": f_minus.imag,
        "X": x,
        "P": p,
        "fidelity": fid,
        "detXi": traj.det_ratio,
    }
    return columns, float(np.min(fid))


def run_open_damped(params):
    """Damped cavity (H = N, jump a at rate kappa).

    The oracle is the Liouville propagation of the sparse generator; the
    decoupled solution comes from ``liouville.lindblad_problem`` over the
    closed superalgebra, integrated at the run's rtol/atol and replayed on
    vec(rho0) with two-mode cutoff (cutoff, cutoff).  ``fidelity`` is the
    normalised Hilbert-Schmidt overlap of the two; X and P are means over
    the oracle rows.
    """
    cutoff = params["cutoff"]
    kappa = params["kappa"]
    T = params["T"]
    times = np.linspace(0.0, T, params["n_out"])
    psi0 = fock.coherent_state(params["alpha"], cutoff)
    rho0 = np.outer(psi0, psi0.conj())

    problem = liouville.lindblad_problem(
        ladder.number(), [ladder.annihilation()], [[kappa]], T)
    traj = engine.integrate(problem, rtol=params["rtol"], atol=params["atol"],
                            times=times)
    replay = _ansatz_states(traj, (cutoff, cutoff), liouville.vectorize(rho0))

    gen = liouville.build_lindbladian(
        fock.number_op(cutoff), [fock.destroy(cutoff)], [[kappa]])
    oracle = liouville.propagate_density(gen, rho0, T, dt=T / 400.0,
                                         times=times).matrices

    # Normalised Hilbert-Schmidt overlap of the oracle and replayed rows.
    fid = np.array(
        [
            abs(np.trace(r1 @ r2))
            / max(np.sqrt(abs(np.trace(r1 @ r1) * np.trace(r2 @ r2))), 1e-300)
            for r1, r2 in zip(oracle, map(liouville.devectorize, replay))
        ]
    )
    x_mat, p_mat = fock.x_op(cutoff), fock.p_op(cutoff)
    x = np.array([np.trace(x_mat @ r).real for r in oracle])
    p = np.array([np.trace(p_mat @ r).real for r in oracle])
    columns = {"t": times, "X": x, "P": p, "fidelity": fid}
    return columns, float(np.min(fid))


SCENARIO_RUNNERS = {
    **{name: functools.partial(_unitary_scenario, name)
       for name in UNITARY_SCENARIOS},
    "open-damped": run_open_damped,
}


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


def run_scenario(scenario, params, out_path=None):
    columns, min_fidelity = SCENARIO_RUNNERS[scenario](params)
    if out_path is None:
        out_dir = os.environ.get("WND_OUT_DIR", ".")
        os.makedirs(out_dir, exist_ok=True)
        out_path = os.path.join(out_dir, f"{scenario}.csv")
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
        for name in sorted(SCENARIO_DEFAULTS):
            defaults = ", ".join(
                f"{k}={v}" for k, v in sorted(SCENARIO_DEFAULTS[name].items())
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
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        out_path, min_fidelity = run_scenario(args.scenario, params, args.out)
    except WndError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    print(f"{args.scenario}: wrote {out_path}  min_fidelity = "
          f"{format(min_fidelity, '.12g')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
