"""Acceptance suite: one test per release criterion.

Each test prints a single ``[acceptance] criterion N: PASS/FAIL`` line
(visible with ``pytest -s``) and fails loudly with the offending sub-checks
listed.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from wnd import engine, fock, gaussian, ladder, liouville, symplectic
from wnd.signals import Constant, Sinusoid


class Criterion:
    def __init__(self, number, label):
        self.number = number
        self.label = label
        self.checks = []

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def conclude(self):
        failed = [c for c in self.checks if not c[1]]
        status = "FAIL" if failed else "PASS"
        print(f"[acceptance] criterion {self.number} ({self.label}): {status}",
              flush=True)
        assert not failed, "; ".join(
            f"{name}: {detail}" for name, _ok, detail in failed
        )


def oracle_states_linear(signal, times, cutoff, alpha, **kw):
    a = fock.destroy(cutoff)
    h_free, h_drive = fock.number_op(cutoff), a.conj().T + a

    def h(t):
        return h_free + complex(signal(t)).real * h_drive

    psi0 = fock.coherent_state(alpha, cutoff)
    return psi0, fock.propagate_state(h, psi0, times, **kw)


def test_criterion_1_linear_constant_drive():
    crit = Criterion(1, "linear constant drive")
    g0, alpha, cutoff, t_final = 0.5, 1.0, 40, 4 * np.pi
    start = time.perf_counter()

    times = np.linspace(0.0, t_final, 201)
    prob = gaussian.linear_problem(Constant(g0), Constant(g0), t_final)
    traj = engine.integrate(prob, rtol=1e-10, atol=1e-12, times=times)

    closed = g0 * (1j - 1j * np.cos(times) + np.sin(times))
    crit.check(
        "engine F+ matches closed form <= 1e-8",
        np.max(np.abs(traj.values[1] - closed)) <= 1e-8,
        f"max diff {np.max(np.abs(traj.values[1] - closed)):.3e}",
    )
    i_2pi = int(np.argmin(np.abs(times - 2 * np.pi)))
    crit.check(
        "F+(2 pi) = 0 <= 1e-9",
        abs(traj.values[1][i_2pi]) <= 1e-9,
        f"|F+(2pi)| = {abs(traj.values[1][i_2pi]):.3e}",
    )

    psi0, oracle = oracle_states_linear(Constant(g0), times[::20], cutoff, alpha)
    mats = fock.ansatz_matrices(traj.basis, cutoff)
    fid = [
        fock.fidelity(fock.apply_ansatz(traj.values[:, i], mats, psi0),
                      oracle[k])
        for k, i in enumerate(range(0, len(times), 20))
    ]
    crit.check(
        "ansatz-vs-oracle fidelity >= 1 - 1e-8",
        min(fid) >= 1 - 1e-8,
        f"min fidelity {min(fid):.12f}",
    )
    elapsed = time.perf_counter() - start
    crit.check("runtime < 5 s", elapsed < 5.0, f"{elapsed:.2f} s")
    crit.conclude()


def test_criterion_2_resonant_drive():
    crit = Criterion(2, "resonant drive")
    g0, phi, alpha, cutoff = 0.2, 0.0, 1.0, 40
    sig = Sinusoid(g0, 1.0, phi)

    c_pi = gaussian.linear_coefficients(sig, sig, np.array([0.0, np.pi]))
    crit.check(
        "F-(pi) = g0 pi / 2 <= 1e-8",
        abs(c_pi.f_minus[-1] - g0 * np.pi / 2) <= 1e-8,
        f"diff {abs(c_pi.f_minus[-1] - g0 * np.pi / 2):.3e}",
    )

    # Formula-vs-oracle comparison over one period; the 2nd-order midpoint
    # oracle is refined far enough that its own error sits below the bound.
    t_span = 2 * np.pi
    times = np.linspace(0.0, t_span, 33)
    coeffs = gaussian.linear_coefficients(sig, sig, times)
    x_ref, p_ref = gaussian.quadrature_expectation(alpha, coeffs)
    psi0, states = oracle_states_linear(sig, times, cutoff, alpha,
                                        dt=t_span / 4000, drift_tol=2e-7)
    x_mat, p_mat = fock.x_op(cutoff), fock.p_op(cutoff)
    x_err = max(
        abs(fock.expectation(x_mat, s).real - x_ref[i])
        for i, s in enumerate(states)
    )
    p_err = max(
        abs(fock.expectation(p_mat, s).real - p_ref[i])
        for i, s in enumerate(states)
    )
    crit.check("<X> matches oracle <= 1e-6", x_err <= 1e-6, f"{x_err:.3e}")
    crit.check("<P> matches oracle <= 1e-6", p_err <= 1e-6, f"{p_err:.3e}")

    fine = np.linspace(0.0, 8 * np.pi, 3201)
    cf = gaussian.linear_coefficients(sig, sig, fine)
    x, p = gaussian.quadrature_expectation(alpha, cf)
    radius = np.hypot(x, p)
    maxima = [
        float(np.max(radius[(fine >= 2 * np.pi * k) & (fine < 2 * np.pi * (k + 1))]))
        for k in range(4)
    ]
    crit.check(
        "orbit radius strictly increases over 4 periods",
        all(b > a for a, b in zip(maxima, maxima[1:])),
        f"maxima {maxima}",
    )
    crit.conclude()


def test_criterion_3_quadratic_constant():
    crit = Criterion(3, "quadratic constant drive")
    lam, t_final, cutoff, alpha = 0.2, 2.0, 80, 1.0
    times = np.linspace(0.0, t_final, 41)
    traj = gaussian.quadratic_coefficients(Constant(lam), Constant(lam), t_final,
                                           times=times)

    closed = gaussian.oscillator_quadratic_constant(lam, lam, t_final)
    crit.check(
        "closed-form xi+ vs ODE <= 1e-8",
        abs(traj.xi_plus[-1] - closed.xi_plus) <= 1e-8,
        f"diff {abs(traj.xi_plus[-1] - closed.xi_plus):.3e}",
    )

    a = fock.destroy(cutoff)
    h = fock.number_op(cutoff) + lam * (a.conj().T @ a.conj().T + a @ a)
    psi0 = fock.coherent_state(alpha, cutoff)
    oracle = fock.propagate_state(h, psi0, times[::5])
    mats = fock.ansatz_matrices(traj.raw.basis, cutoff)
    fid = [
        fock.fidelity(fock.apply_ansatz(traj.raw.values[:, i], mats, psi0),
                      oracle[k])
        for k, i in enumerate(range(0, len(times), 5))
    ]
    crit.check(
        "ansatz-vs-oracle fidelity >= 1 - 1e-8",
        min(fid) >= 1 - 1e-8,
        f"min fidelity {min(fid):.12f}",
    )

    straj = symplectic.propagate_symplectic(Constant(lam), Constant(lam), t_final,
                                            times=times)
    bogo = max(symplectic.bogoliubov_defect(s) for s in straj.matrices)
    crit.check("Bogoliubov residual <= 1e-8", bogo <= 1e-8, f"{bogo:.3e}")
    image_err = max(
        float(np.max(np.abs(
            symplectic.ansatz_symplectic(
                traj.xi_plus[i], traj.xi_zero[i], traj.xi_minus[i]
            ) - straj.matrices[i]
        )))
        for i in range(len(times))
    )
    crit.check(
        "symplectic trajectory matches ansatz image <= 1e-7",
        image_err <= 1e-7,
        f"{image_err:.3e}",
    )
    crit.conclude()


def test_criterion_4_parametric_drive():
    crit = Criterion(4, "parametric drive")
    lam = Sinusoid(0.1, 2.0)
    t_final, cutoff = 6.0, 60
    times = np.linspace(0.0, t_final, 121)
    traj = gaussian.quadratic_coefficients(lam, lam, t_final, times=times)

    a = fock.destroy(cutoff)
    h_free, h_up, h_dn = fock.number_op(cutoff), a.conj().T @ a.conj().T, a @ a

    def h(t):
        return h_free + complex(lam(t)).real * (h_up + h_dn)

    psi0 = fock.coherent_state(0.0, cutoff)
    oracle = fock.propagate_state(h, psi0, times, dt=t_final / 600, drift_tol=1e-7)
    mats = fock.ansatz_matrices(traj.raw.basis, cutoff)
    fid = [
        fock.fidelity(fock.apply_ansatz(traj.raw.values[:, i], mats, psi0),
                      oracle[i])
        for i in range(0, len(times), 10)
    ]
    crit.check(
        "ansatz-vs-oracle fidelity >= 1 - 1e-6",
        min(fid) >= 1 - 1e-6,
        f"min fidelity {min(fid):.9f}",
    )
    x_mat = fock.x_op(cutoff)
    var_x = [fock.variance(x_mat, s) for s in oracle]
    crit.check(
        "min Var(X) < 0.5 (squeezing below vacuum)",
        min(var_x) < 0.5,
        f"min Var(X) = {min(var_x):.4f}",
    )
    crit.conclude()


def test_criterion_5_combined_gaussian():
    crit = Criterion(5, "combined Gaussian drive")
    g0 = lam = 0.1
    t_final, cutoff, alpha = 3.0, 60, 1.0
    times = np.linspace(0.0, t_final, 31)
    traj = gaussian.gaussian_combined(
        Constant(g0), Constant(g0), Constant(lam), Constant(lam), t_final,
        times=times,
    )

    a = fock.destroy(cutoff)
    h = (fock.number_op(cutoff)
         + lam * (a.conj().T @ a.conj().T + a @ a)
         + g0 * (a.conj().T + a))
    psi0 = fock.coherent_state(alpha, cutoff)
    oracle = fock.propagate_state(h, psi0, times[::5])
    mats = fock.ansatz_matrices(traj.raw.basis, cutoff)
    fid = [
        fock.fidelity(fock.apply_ansatz(traj.raw.values[:, i], mats, psi0),
                      oracle[k])
        for k, i in enumerate(range(0, len(times), 5))
    ]
    crit.check(
        "five-factor fidelity >= 1 - 1e-6",
        min(fid) >= 1 - 1e-6,
        f"min fidelity {min(fid):.9f}",
    )

    # lambda -> 0 reduction reproduces the criterion-1 coefficients.
    lam0 = gaussian.gaussian_combined(
        Constant(g0), Constant(g0), Constant(0.0), Constant(0.0), t_final,
        times=times,
    )
    lin = gaussian.linear_coefficients(Constant(g0), Constant(g0), times)
    red_lin = max(
        float(np.max(np.abs(lam0.f_plus - lin.f_plus))),
        float(np.max(np.abs(lam0.f_minus - lin.f_minus))),
    )
    crit.check(
        "lambda -> 0 reduction <= 1e-9", red_lin <= 1e-9, f"{red_lin:.3e}"
    )

    # g -> 0 reduction reproduces the criterion-3 coefficients.
    g_zero = gaussian.gaussian_combined(
        Constant(0.0), Constant(0.0), Constant(lam), Constant(lam), t_final,
        times=times,
    )
    quad = gaussian.quadratic_coefficients(Constant(lam), Constant(lam), t_final,
                                           times=times)
    red_quad = max(
        float(np.max(np.abs(g_zero.xi_plus - quad.xi_plus))),
        float(np.max(np.abs(g_zero.xi_zero - quad.xi_zero))),
        float(np.max(np.abs(g_zero.xi_minus - quad.xi_minus))),
    )
    crit.check("g -> 0 reduction <= 1e-9", red_quad <= 1e-9, f"{red_quad:.3e}")
    crit.conclude()


def test_criterion_6_closure_suite():
    crit = Criterion(6, "algebra closure suite")
    start = time.perf_counter()

    linear = ladder.close_algebra(
        [ladder.number(), ladder.annihilation(), ladder.creation()]
    )
    crit.check("linear algebra dimension 4", len(linear) == 4, f"{len(linear)}")

    k_plus, k_zero, k_minus = gaussian.su11_elements()
    su11 = ladder.close_algebra([k_plus, k_zero, k_minus])
    crit.check("su(1,1) dimension 3", len(su11) == 3, f"{len(su11)}")

    nb = ladder.number(1, 2)
    coupling = ladder.number(0, 2) * (ladder.creation(1, 2) + ladder.annihilation(1, 2))
    opto = ladder.close_algebra([nb, coupling])
    na = ladder.number(0, 2)
    kerr_index = next(
        (i for i, e in enumerate(opto.elements) if e.allclose(na * na)), None
    )
    crit.check("closure contains (a'a)^2", kerr_index is not None, "missing")
    if kerr_index is not None:
        crit.check(
            "(a'a)^2 flagged central", opto.central[kerr_index], "not central"
        )
        c_opto = ladder.structure_constants(opto)
        val = c_opto[1, 2, kerr_index]
        crit.check(
            "structure constant exactly 2", val == 2.0 + 0.0j, f"{val}"
        )

    worst_jacobi = max(
        ladder.jacobi_residual(ladder.structure_constants(b))
        for b in (linear, su11, opto)
    )
    crit.check(
        "Jacobi residuals <= 1e-10", worst_jacobi <= 1e-10, f"{worst_jacobi:.3e}"
    )
    elapsed = time.perf_counter() - start
    crit.check("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s")
    crit.conclude()


def test_criterion_7_liouville_suite():
    crit = Criterion(7, "vectorised open-system suite")
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        a, b, c = (
            rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            for _ in range(3)
        )
        worst = max(worst, liouville.kron_identity_residual(a, b, c))
    crit.check(
        "kron identity residual <= 1e-13 (100 triples)",
        worst <= 1e-13,
        f"{worst:.3e}",
    )

    kappa, alpha, cutoff, t_final = 0.5, 1.0, 30, 5.0
    h = fock.number_op(cutoff)
    a_mat = fock.destroy(cutoff)
    gen = liouville.build_lindbladian(h, [a_mat], [[kappa]])
    psi0 = fock.coherent_state(alpha, cutoff)
    rho0 = np.outer(psi0, psi0.conj())
    times = np.linspace(0.0, t_final, 11)
    dt = t_final / 400.0
    traj = liouville.propagate_density(gen, rho0, t_final, dt=dt, times=times)
    ref = liouville.propagate_density(gen, rho0, t_final, dt=dt / 16.0,
                                      times=times, refine=False)
    crit.check(
        "trace drift <= 1e-9", traj.trace_drift <= 1e-9,
        f"{traj.trace_drift:.3e}",
    )
    a_err = float(np.max(np.abs(traj.expectation(a_mat) - ref.expectation(a_mat))))
    crit.check(
        "<a> matches dt/16 reference <= 1e-6", a_err <= 1e-6, f"{a_err:.3e}"
    )

    gen0 = liouville.build_lindbladian(h, [])
    closed = liouville.propagate_density(gen0, rho0, 2.0, dt=2.0 / 200,
                                         times=np.array([0.0, 2.0]))
    psi = fock.propagate(h, 2.0) @ psi0
    overlap = float(np.vdot(psi, closed.final @ psi).real)
    crit.check(
        "closed-system limit fidelity >= 1 - 1e-9",
        overlap >= 1 - 1e-9,
        f"{overlap:.12f}",
    )
    crit.conclude()


def test_criterion_8_printed_variant_regressions():
    crit = Criterion(8, "coefficient-ODE variant regression")
    lam, t_probe, t_final, cutoff = 0.2, 1.0, 1.0, 40

    from wnd.engine import rk45_on_grid

    times = np.linspace(0.0, t_final, 5)

    def integrate_rhs(rhs_fn):
        vals, _, _ = rk45_on_grid(
            lambda t, y: rhs_fn(lam, lam, y), times, np.zeros(3, complex),
            1e-10, 1e-12, t_final,
        )
        return vals

    validated = integrate_rhs(gaussian.su11_rhs)
    xi_probe = validated[-1]  # state at t = 1 on the validated trajectory

    rhs_table = {
        "generator-derived": gaussian.su11_rhs(lam, lam, xi_probe),
        "variant A": gaussian.su11_rhs_variant_a(lam, lam, xi_probe),
        "variant B": gaussian.su11_rhs_variant_b(lam, lam, xi_probe),
    }
    print(f"\n[acceptance] su(1,1) RHS comparison at lambda={lam}, t={t_probe}:")
    for name, rhs in rhs_table.items():
        print(f"[acceptance]   {name:>18}: "
              + "  ".join(f"{v.real:+.6f}{v.imag:+.6f}j" for v in rhs))

    pairs = [("generator-derived", "variant A"),
             ("generator-derived", "variant B"),
             ("variant A", "variant B")]
    for left, right in pairs:
        diff = float(np.max(np.abs(rhs_table[left] - rhs_table[right])))
        crit.check(
            f"{left} differs from {right}", diff > 1e-2, f"max diff {diff:.3e}"
        )

    a = fock.destroy(cutoff)
    h = fock.number_op(cutoff) + lam * (a.conj().T @ a.conj().T + a @ a)
    u_oracle = fock.propagate(h, t_final)
    psi0 = fock.coherent_state(1.0, cutoff)
    basis = gaussian.su11_basis(include_identity=False)
    mats = fock.ansatz_matrices(basis, cutoff)

    fids = {}
    for name, rhs_fn in (
        ("generator-derived", gaussian.su11_rhs),
        ("variant A", gaussian.su11_rhs_variant_a),
        ("variant B", gaussian.su11_rhs_variant_b),
    ):
        final = integrate_rhs(rhs_fn)[-1]
        psi = fock.apply_ansatz(final, mats, psi0)
        fids[name] = fock.fidelity(psi / np.linalg.norm(psi), u_oracle @ psi0)
        print(f"[acceptance]   oracle fidelity [{name}]: {fids[name]:.9f}")

    crit.check(
        "generator-derived passes the oracle bound (>= 1 - 1e-8)",
        fids["generator-derived"] >= 1 - 1e-8,
        f"{fids['generator-derived']:.12f}",
    )
    crit.check(
        "variant A fails the oracle bound",
        fids["variant A"] < 1 - 1e-8,
        f"{fids['variant A']:.12f}",
    )
    crit.check(
        "variant B fails the oracle bound",
        fids["variant B"] < 1 - 1e-8,
        f"{fids['variant B']:.12f}",
    )
    crit.conclude()
