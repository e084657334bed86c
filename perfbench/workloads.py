"""Seeded workload instances, the call that is timed, and verification.

Every instance is drawn from ``(workload, seed, index)`` alone, so a seed
gives the same inputs on every run and an instance does not depend on how
many instances came before it.  Only valid, in-chart inputs are drawn:

* Hermitian drives: real amplitudes, and ``lm = lp`` wherever a scenario
  takes both.  This keeps two known input-validation defects out of the
  timed traffic: ``quadratic-constant`` ignores ``lm``, and
  ``gaussian-combined`` with ``lp != lm`` dies with an uncaught traceback.
* Squeezing well inside the region where the transfer matrix Xi stays
  nonsingular (constant ``lp * lm`` far below 1/4 over the span).
* Coherent amplitudes that ``fock.coherent_state`` accepts at the default
  cutoff, with enough headroom that the states stay far from the cutoff
  at every output time (the CLI checks leakage only at t = 0).

Verification runs outside the timed region and uses references that do not
share the code under test: exact antiderivatives for linear drives, the
phase-space propagator for quadratic ones, the closed-form damped
amplitude for the open system, and matrix images for the closure report.
Floors are those of ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random

TWO_PI = 2.0 * math.pi

# Instance kinds of each workload, visited in this order.
WORKLOADS = {
    "constant-fine": ("linear-constant", "quadratic-constant", "gaussian-combined"),
    # Both driven kinds run at cutoff 60 (the parametric default), so that
    # they cost about the same and instance times form one cluster.
    "driven-coarse": ("linear-resonant", "quadratic-parametric"),
    "engine-sweep": ("sweep",),
    "open-system": ("open-damped",),
}

# Largest acceptable |fidelity - 1| in the fidelity column; the floors
# 1 - tol are those of tests/test_acceptance.py.  The check is two-sided
# because a fidelity above 1 means an unnormalised ansatz state.
FIDELITY_TOL = {
    "linear-constant": 1e-8,
    "quadratic-constant": 1e-8,
    "open-damped": 1e-8,
    "linear-resonant": 1e-6,
    "quadratic-parametric": 1e-6,
    "gaussian-combined": 1e-6,
}
MOMENT_TOL = 1e-6       # X and P against an independent reference
IMAGE_TOL = 1e-7        # engine su(1,1) image against the symplectic flow
CLOSURE_TOL = 1e-9      # commutators of matrix images against the report

SWEEP_POINTS = 401
CLOSURE_DIMENSION = 4   # bd*b and ad*a*(bd+b) close on four elements


def _alpha(rng, low, high):
    radius = rng.uniform(low, high)
    angle = rng.uniform(0.0, TWO_PI)
    return complex(radius * math.cos(angle), radius * math.sin(angle))


def draw(workload, seed, index):
    """Inputs of instance ``index`` of ``workload`` under ``seed``."""
    kinds = WORKLOADS[workload]
    kind = kinds[index % len(kinds)]
    rng = random.Random(f"{workload}/{seed}/{index}")
    if kind == "linear-constant":
        params = {"g0": rng.uniform(0.3, 0.6), "alpha": _alpha(rng, 0.5, 1.2),
                  "T": 2 * TWO_PI, "n_out": 201}
    elif kind == "quadratic-constant":
        lam = rng.uniform(0.1, 0.2)
        params = {"lp": lam, "lm": lam, "alpha": _alpha(rng, 0.5, 1.2),
                  "T": 2.0, "n_out": 201}
    elif kind == "gaussian-combined":
        lam = rng.uniform(0.05, 0.12)
        params = {"g0": rng.uniform(0.05, 0.15), "lp": lam, "lm": lam,
                  "alpha": _alpha(rng, 0.5, 1.2), "T": 3.0, "n_out": 201}
    elif kind == "linear-resonant":
        params = {"g0": rng.uniform(0.1, 0.25), "phi": rng.uniform(0.0, TWO_PI),
                  "alpha": _alpha(rng, 0.5, 1.2), "T": 3.3, "n_out": 21, "cutoff": 60}
    elif kind == "quadratic-parametric":
        params = {"l0": rng.uniform(0.06, 0.1), "freq": rng.uniform(1.9, 2.1),
                  "alpha": _alpha(rng, 0.3, 0.8), "T": 2.6, "n_out": 21, "cutoff": 60}
    elif kind == "open-damped":
        params = {"kappa": rng.uniform(0.3, 0.8), "alpha": _alpha(rng, 0.5, 1.2),
                  "T": 5.0, "n_out": 101}
    else:
        params = {
            "linear": (rng.uniform(0.1, 0.5), rng.uniform(0.5, 1.5),
                       rng.uniform(0.0, TWO_PI), 8.0),
            "quadratic": (rng.uniform(0.05, 0.1), rng.uniform(1.8, 2.2),
                          rng.uniform(0.0, TWO_PI), 6.0),
            "combined": (rng.uniform(0.05, 0.2), rng.uniform(0.5, 1.5),
                         rng.uniform(0.03, 0.08), rng.uniform(1.8, 2.2), 4.0),
            "closure": (f"{rng.uniform(0.5, 2.0):.6g}*bd*b",
                        f"{rng.uniform(0.5, 2.0):.6g}*ad*a*(bd+b)"),
        }
    return {"kind": kind, "index": index, "params": params}


def assignments(spec):
    """``key=value`` arguments; values are written with repr, so they round-trip."""
    return [f"{key}={value!r}" for key, value in spec["params"].items()]


def prepare(spec):
    """Build the inputs of one instance (what a fresh ``wnd`` call resolves)."""
    import numpy as np

    import wnd.cli
    from wnd.signals import Sinusoid

    if spec["kind"] != "sweep":
        return wnd.cli.resolve_params(spec["kind"], assignments=assignments(spec))
    p = spec["params"]
    g0, w, phi, t_lin = p["linear"]
    l0, f, phi2, t_quad = p["quadratic"]
    cg, cw, cl, cf, t_comb = p["combined"]
    return {
        "linear": (Sinusoid(g0, w, phi), t_lin, np.linspace(0.0, t_lin, SWEEP_POINTS)),
        "quadratic": (Sinusoid(l0, f, phi2), t_quad,
                      np.linspace(0.0, t_quad, SWEEP_POINTS)),
        "combined": (Sinusoid(cg, cw), Sinusoid(cl, cf), t_comb,
                     np.linspace(0.0, t_comb, SWEEP_POINTS)),
        "closure": list(p["closure"]),
    }


# -- the timed call -----------------------------------------------------------


def run_cli(spec, out_path):
    """One ``wnd run`` through ``wnd.cli.main``; returns its exit code."""
    import wnd.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return wnd.cli.main(["run", spec["kind"], *assignments(spec), "--out", out_path])


def run_sweep(inputs):
    """Library solves of the three Gaussian families, each cross-checked
    against the phase-space propagator, plus a two-mode closure report."""
    from wnd import cli, engine, gaussian, symplectic

    sig, t_lin, times = inputs["linear"]
    linear = engine.integrate(gaussian.linear_problem(sig, sig, t_lin), times=times)

    lam, t_quad, times = inputs["quadratic"]
    quadratic = gaussian.quadratic_coefficients(lam, lam, t_quad, times=times)
    quadratic_ref = symplectic.propagate_symplectic(lam, lam, t_quad, times=times)

    g, lam, t_comb, times = inputs["combined"]
    combined = gaussian.gaussian_combined(g, g, lam, lam, t_comb, times=times)
    combined_ref = symplectic.propagate_symplectic(lam, lam, t_comb, times=times)

    report = cli.closure_report(inputs["closure"])
    return {"linear": linear, "quadratic": quadratic, "quadratic_ref": quadratic_ref,
            "combined": combined, "combined_ref": combined_ref, "report": report}


def sweep_bytes(result):
    """Deterministic byte image of a sweep result, for the digest."""
    arrays = (result["linear"].values, result["quadratic"].raw.values,
              result["quadratic_ref"].matrices, result["combined"].raw.values,
              result["combined_ref"].matrices)
    return b"".join(a.tobytes() for a in arrays) + result["report"].encode("ascii")


def digest(data):
    return hashlib.sha256(data).hexdigest()


# -- verification ---------------------------------------------------------------


def _parse_csv(data):
    import numpy as np

    lines = data.decode("ascii").split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:-1]]
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: table[:, i] for i, name in enumerate(header)}


def _reference_moments(kind, params, times):
    """(X, P) from a reference that does not share the checked code path."""
    import numpy as np

    from wnd import gaussian, symplectic
    from wnd.signals import Constant, Sinusoid

    alpha = params["alpha"]
    if kind in ("linear-constant", "linear-resonant"):
        sig = (Constant(params["g0"]) if kind == "linear-constant"
               else Sinusoid(params["g0"], 1.0, params["phi"]))
        coeffs = gaussian.linear_coefficients(sig, sig, times)
        return gaussian.quadrature_expectation(alpha, coeffs)
    if kind in ("quadratic-constant", "quadratic-parametric"):
        lam = (Constant(params["lp"]) if kind == "quadratic-constant"
               else Sinusoid(params["l0"], params["freq"]))
        traj = symplectic.propagate_symplectic(lam, lam, params["T"], times=times)
        moments = np.array([symplectic.first_moments(s, alpha) for s in traj.matrices])
        a, ad = moments[:, 0], moments[:, 1]
        return ((a + ad) / math.sqrt(2.0)).real, (1j * (ad - a) / math.sqrt(2.0)).real
    if kind == "open-damped":
        a = alpha * np.exp(-(1j + params["kappa"] / 2.0) * times)
        return math.sqrt(2.0) * a.real, math.sqrt(2.0) * a.imag
    return None


def verify_cli(spec, data):
    """Problems found in the CSV a ``wnd run`` instance wrote (empty if none)."""
    import numpy as np

    from wnd import engine

    kind, params = spec["kind"], spec["params"]
    problems = []
    cols = _parse_csv(data)
    times = np.linspace(0.0, params["T"], params["n_out"])
    if len(cols["t"]) != params["n_out"]:
        return [f"{len(cols['t'])} rows, expected {params['n_out']}"]
    if not np.array_equal(cols["t"], times):
        problems.append("t column differs from the requested grid")
    off = float(np.max(np.abs(cols["fidelity"] - 1.0)))
    if not off <= FIDELITY_TOL[kind]:
        problems.append(f"fidelity off 1 by {off:.3e} > {FIDELITY_TOL[kind]:g}")
    reference = _reference_moments(kind, params, times)
    if reference is not None:
        for name, ref in zip(("X", "P"), reference):
            err = float(np.max(np.abs(cols[name] - ref)))
            if not err <= MOMENT_TOL:
                problems.append(f"{name} off its reference by {err:.3e}")
    if "detXi" in cols and not np.min(cols["detXi"]) > engine.DET_RATIO_FLOOR:
        problems.append(f"detXi fell to {np.min(cols['detXi']):.3e}")
    return problems


def _image_error(xi_plus, xi_zero, xi_minus, matrices):
    import numpy as np

    from wnd import symplectic

    return max(
        float(np.max(np.abs(
            symplectic.ansatz_symplectic(xi_plus[i], xi_zero[i], xi_minus[i]) - s)))
        for i, s in enumerate(matrices)
    )


def _closure_error(report):
    """Largest mismatch between the report and commutators of matrix images."""
    import numpy as np

    from wnd import fock, ladder

    elements, constants = [], {}
    for line in report.splitlines():
        if line.startswith("element "):
            text = line.split(": ", 1)[1].rsplit("  central=", 1)[0]
            elements.append(ladder.parse_polynomial(text, n_modes=2))
        elif line.startswith("c["):
            idx, value = line.split(" = ")
            j, k, l = (int(x) for x in idx[2:-1].split("]["))
            re, im = value.split(",")
            constants[j, k, l] = complex(float(re), float(im))
    cutoff = 14
    keep = cutoff + 1 - 2 * max(e.degree for e in elements)
    sub = np.ix_(*[[na * (cutoff + 1) + nb for na in range(keep) for nb in range(keep)]] * 2)
    mats = [fock.to_matrix(e, cutoff) for e in elements]
    worst = 0.0
    for j, mj in enumerate(mats):
        for k, mk in enumerate(mats):
            lhs = mj @ mk - mk @ mj
            rhs = sum(constants.get((j, k, l), 0.0) * ml for l, ml in enumerate(mats))
            worst = max(worst, float(np.max(np.abs((lhs - rhs)[sub]))))
    return len(elements), worst


def verify_sweep(inputs, result):
    """Problems found in a sweep instance's results (empty if none)."""
    import numpy as np

    from wnd import engine, gaussian

    problems = []
    sig, _, times = inputs["linear"]
    linear = result["linear"]
    exact = gaussian.linear_coefficients(sig, sig, times)
    solved = gaussian.LinearDriveCoefficients(times, times, linear.values[1],
                                              linear.values[2])
    # Quadrature means of the unit coherent state under both coefficient sets.
    for name, ref, got in zip(
            ("X", "P"), gaussian.quadrature_expectation(1.0, exact),
            gaussian.quadrature_expectation(1.0, solved)):
        err = float(np.max(np.abs(got - ref)))
        if not err <= MOMENT_TOL:
            problems.append(f"linear {name} off the exact antiderivative by {err:.3e}")

    for name in ("quadratic", "combined"):
        traj, ref = result[name], result[name + "_ref"]
        err = _image_error(traj.xi_plus, traj.xi_zero, traj.xi_minus, ref.matrices)
        if not err <= IMAGE_TOL:
            problems.append(f"{name} image off the symplectic flow by {err:.3e}")

    for name, traj in (("linear", linear), ("quadratic", result["quadratic"].raw),
                       ("combined", result["combined"].raw)):
        grid = inputs[name][-1]
        if not np.array_equal(traj.times, grid) or traj.values.shape[1] != len(grid):
            problems.append(f"{name} trajectory is not on the requested grid")
        if not np.min(traj.det_ratio) > engine.DET_RATIO_FLOOR:
            problems.append(f"{name} detXi fell to {np.min(traj.det_ratio):.3e}")

    dim, err = _closure_error(result["report"])
    if dim != CLOSURE_DIMENSION:
        problems.append(f"closure has dimension {dim}, expected {CLOSURE_DIMENSION}")
    if not err <= CLOSURE_TOL:
        problems.append(f"closure constants off the matrix commutators by {err:.3e}")
    return problems


def read_and_remove(path):
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data
