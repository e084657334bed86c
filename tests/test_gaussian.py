import numpy as np
import pytest

from wnd import engine, fock, gaussian, symplectic
from wnd.errors import XiSingular
from wnd.signals import Constant, Hook, Sampled, Sinusoid


class TestLinearCoefficients:
    def test_constant_drive_closed_form(self):
        g0 = 0.3
        times = np.linspace(0.0, 2 * np.pi, 41)
        c = gaussian.linear_coefficients(Constant(g0), Constant(g0), times)
        expected = g0 * (1j - 1j * np.cos(times) + np.sin(times))
        np.testing.assert_allclose(c.f_plus, expected, atol=1e-12)
        np.testing.assert_allclose(c.f0, times, atol=0)

    def test_half_period_displacement(self):
        g0 = 0.25
        c = gaussian.linear_coefficients(Constant(g0), Constant(g0),
                                         np.array([0.0, np.pi]))
        assert c.f_plus[-1] == pytest.approx(2j * g0, abs=1e-12)

    def test_full_period_return(self):
        g0 = 0.7
        c = gaussian.linear_coefficients(Constant(g0), Constant(g0),
                                         np.array([0.0, 2 * np.pi]))
        assert abs(c.f_plus[-1]) <= 1e-9

    def test_resonant_linear_growth(self):
        g0 = 0.2
        sig = Sinusoid(g0, 1.0, 0.0)
        c = gaussian.linear_coefficients(sig, sig, np.array([0.0, np.pi]))
        assert c.f_plus[-1] == pytest.approx(g0 * np.pi / 2, abs=1e-8)
        assert c.f_minus[-1] == pytest.approx(g0 * np.pi / 2, abs=1e-8)

    def test_sampled_signal_against_engine(self):
        # Sampled drives integrate segment-exactly; the engine crosses the
        # interpolation kinks, which degrades its embedded error estimate,
        # so the agreement bound is looser than for smooth signals.
        times = np.linspace(0.0, 2.0, 21)
        grid = np.linspace(0.0, 2.0, 401)
        sig = Sampled(grid, 0.2 * np.cos(1.7 * grid) + 0.05j * grid)
        c = gaussian.linear_coefficients(sig, sig, times)
        prob = gaussian.linear_problem(sig, sig, 2.0)
        traj = engine.integrate(prob, times=times)
        np.testing.assert_allclose(c.f_plus, traj.values[1], atol=1e-6)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            gaussian.linear_coefficients(
                Hook(lambda t: np.where(t > 0.5, np.nan, 0.0)),
                Constant(0.0),
                np.linspace(0, 1, 5),
            )


class TestQuadratureExpectation:
    def test_free_rotation(self):
        times = np.linspace(0.0, 2 * np.pi, 25)
        c = gaussian.linear_coefficients(Constant(0.0), Constant(0.0), times)
        x, p = gaussian.quadrature_expectation(1.0, c)
        np.testing.assert_allclose(x, np.sqrt(2) * np.cos(times), atol=1e-12)
        np.testing.assert_allclose(p, -np.sqrt(2) * np.sin(times), atol=1e-12)

    def test_vacuum_returns_to_origin(self):
        g0 = 0.4
        times = np.linspace(0.0, 2 * np.pi, 101)
        c = gaussian.linear_coefficients(Constant(g0), Constant(g0), times)
        x, p = gaussian.quadrature_expectation(0.0, c)
        assert abs(x[0]) <= 1e-12 and abs(p[0]) <= 1e-12
        assert abs(x[-1]) <= 1e-9 and abs(p[-1]) <= 1e-9
        assert np.max(np.hypot(x, p)) > 0.1  # it does leave the origin

    def test_resonant_spiral_radius_grows(self):
        g0 = 0.2
        sig = Sinusoid(g0, 1.0, 0.0)
        times = np.linspace(0.0, 8 * np.pi, 801)
        c = gaussian.linear_coefficients(sig, sig, times)
        x, p = gaussian.quadrature_expectation(1.0, c)
        radius = np.hypot(x, p)
        maxima = [
            np.max(radius[(times >= 2 * np.pi * k) & (times < 2 * np.pi * (k + 1))])
            for k in range(4)
        ]
        assert all(m2 > m1 for m1, m2 in zip(maxima, maxima[1:]))

    def test_reality_for_hermitian_drive(self):
        sig = Sinusoid(0.3, 1.0, 1.1)
        times = np.linspace(0.0, 5.0, 41)
        c = gaussian.linear_coefficients(sig, sig, times)
        up = np.exp(1j * c.f0) * (1.0 + 1j * c.f_minus)
        dn = np.exp(-1j * c.f0) * (1.0 - 1j * c.f_plus)
        x_complex = (up + dn) / np.sqrt(2)
        assert np.max(np.abs(x_complex.imag)) <= 1e-10

    def test_non_hermitian_warns(self):
        times = np.linspace(0.0, 1.0, 5)
        c = gaussian.linear_coefficients(Constant(0.3), Constant(0.1), times)
        with pytest.warns(UserWarning):
            x, _p = gaussian.quadrature_expectation(1.0, c)
        assert np.iscomplexobj(x)


class TestQuadraticClosedForms:
    def test_zero_drive(self):
        c = gaussian.quadratic_constant(0.0, 0.0, 1.7)
        assert c.gamma == pytest.approx(0.5j)
        assert c.xi_plus == 0.0
        assert c.xi_zero == pytest.approx(1.7, abs=1e-12)

    def test_degenerate_gamma_limit(self):
        t = 0.9
        c = gaussian.quadratic_constant(0.5, 0.5, t)
        assert c.gamma == 0.0
        assert c.xi_plus == pytest.approx(0.5 * t / (1 + 0.5j * t), abs=1e-8)

    def test_degenerate_limit_matches_ode(self):
        # Series fallback against direct integration of the same family.
        t_final = 0.9
        prob = engine.DecouplingProblem(
            gaussian.su11_basis(include_identity=False),
            [Constant(0.5), Constant(1.0), Constant(0.5)],
            t_final,
        )
        traj = engine.integrate(prob, n_out=7)
        c = gaussian.quadratic_constant(0.5, 0.5, t_final)
        assert traj.final[0] == pytest.approx(c.xi_plus, abs=1e-8)
        assert traj.final[1] == pytest.approx(c.xi_zero, abs=1e-8)

    def test_normalised_family_against_ode(self):
        lam = 0.2
        t_final = 2.0
        prob = engine.DecouplingProblem(
            gaussian.su11_basis(include_identity=False),
            [Constant(lam), Constant(1.0), Constant(lam)],
            t_final,
        )
        traj = engine.integrate(prob, n_out=9)
        c = gaussian.quadratic_constant(lam, lam, t_final)
        assert traj.final[0] == pytest.approx(c.xi_plus, abs=1e-8)

    def test_oscillator_family_is_doubled_argument(self):
        lam_p, lam_m, t = 0.21, 0.13, 1.1
        osc = gaussian.oscillator_quadratic_constant(lam_p, lam_m, t)
        base = gaussian.quadratic_constant(lam_p, lam_m, 2 * t)
        assert osc.xi_plus == pytest.approx(base.xi_plus, abs=1e-12)
        assert osc.xi_zero == pytest.approx(base.xi_zero, abs=1e-12)
        assert osc.phase == pytest.approx(-t / 2)

    def test_branch_independence(self, rng):
        # The coefficients are even under Gamma -> -Gamma; flipping the
        # square-root branch leaves them unchanged.
        def with_gamma(lam_p, lam_m, t, gamma):
            x = t * gamma
            if abs(x) < 1e-4:
                s_over = t * (1 + x ** 2 / 6 + x ** 4 / 120)
            else:
                s_over = np.sinh(x) / gamma
            d = np.cosh(x) + 0.5j * s_over
            return lam_p * s_over / d

        for _ in range(50):
            lam_p = complex(rng.normal(), rng.normal()) * 0.4
            lam_m = complex(rng.normal(), rng.normal()) * 0.4
            t = float(rng.uniform(0.1, 2.0))
            gamma = np.sqrt(lam_p * lam_m - 0.25 + 0j)
            a = with_gamma(lam_p, lam_m, t, gamma)
            b = with_gamma(lam_p, lam_m, t, -gamma)
            assert a == pytest.approx(b, abs=1e-10)
            assert gaussian.quadratic_constant(lam_p, lam_m, t).xi_plus == (
                pytest.approx(a, abs=1e-10)
            )

    def test_xi_zero_solves_its_ode(self):
        # d(xi0)/dt = 1 - 2i lam xi+ for the normalised family; finite
        # differences on the closed form stay within 1e-9.
        lam = 0.22
        for t in (0.4, 1.0, 1.9):
            h = 1e-5
            up = gaussian.quadratic_constant(lam, lam, t + h).xi_zero
            dn = gaussian.quadratic_constant(lam, lam, t - h).xi_zero
            deriv = (up - dn) / (2 * h)
            xi_p = gaussian.quadratic_constant(lam, lam, t).xi_plus
            assert deriv == pytest.approx(1 - 2j * lam * xi_p, abs=1e-9)


class TestQuadraticCoefficients:
    def test_free_evolution(self):
        traj = gaussian.quadratic_coefficients(Constant(0.0), Constant(0.0), 2.0,
                                               n_out=21)
        np.testing.assert_allclose(traj.xi_plus, 0.0, atol=1e-12)
        np.testing.assert_allclose(traj.xi_zero, 2 * traj.times, atol=1e-10)
        cutoff = 20
        mats = fock.ansatz_matrices(traj.raw.basis, cutoff)
        psi0 = fock.coherent_state(1.0, cutoff)
        psi = fock.apply_ansatz(traj.raw.final, mats, psi0)
        ref = np.diag(np.exp(-1j * np.arange(cutoff + 1) * 2.0)) @ psi0
        assert fock.fidelity(psi, ref) >= 1 - 1e-10

    def test_constant_drive_matches_closed_form(self):
        lam = 0.2
        traj = gaussian.quadratic_coefficients(Constant(lam), Constant(lam), 2.0,
                                               n_out=17)
        c = gaussian.oscillator_quadratic_constant(lam, lam, 2.0)
        assert traj.xi_plus[-1] == pytest.approx(c.xi_plus, abs=1e-8)
        assert traj.xi_zero[-1] == pytest.approx(c.xi_zero, abs=1e-8)
        assert traj.xi_minus[-1] == pytest.approx(c.xi_minus, abs=1e-8)

    def test_parametric_drive_squeezes_below_vacuum(self):
        lam = Sinusoid(0.1, 2.0)
        t_final = 6.0
        cutoff = 60
        times = np.linspace(0.0, t_final, 61)
        traj = gaussian.quadratic_coefficients(lam, lam, t_final, times=times)
        a = fock.destroy(cutoff)
        h_free, h_up, h_dn = fock.number_op(cutoff), a.conj().T @ a.conj().T, a @ a

        def h(t):
            return h_free + complex(lam(t)).real * (h_up + h_dn)

        psi0 = fock.coherent_state(0.0, cutoff)
        # Fidelity responds quadratically to state error, so 1e-6 endpoint
        # drift is ample for the 1e-6 fidelity bound.
        oracle = fock.propagate_state(h, psi0, times, dt=t_final / 600,
                                      drift_tol=1e-6)
        mats = fock.ansatz_matrices(traj.raw.basis, cutoff)
        fid = [
            fock.fidelity(fock.apply_ansatz(traj.raw.values[:, i], mats, psi0),
                          oracle[i])
            for i in range(0, len(times), 6)
        ]
        assert min(fid) >= 1 - 1e-6
        x_mat = fock.x_op(cutoff)
        var_x = [fock.variance(x_mat, s) for s in oracle]
        assert min(var_x) < 0.5

    def test_xi_singular_propagates(self):
        with pytest.raises(XiSingular):
            gaussian.quadratic_coefficients(Constant(1.0), Constant(1.0), 30.0,
                                            n_out=301)


class TestVariantRhs:
    def test_variants_disagree_with_validated_rhs(self):
        lam = 0.2
        xi = np.array([0.1 + 0.05j, 0.4 - 0.02j, -0.03 + 0.08j])
        good = gaussian.su11_rhs(lam, lam, xi)
        alt_a = gaussian.su11_rhs_variant_a(lam, lam, xi)
        alt_b = gaussian.su11_rhs_variant_b(lam, lam, xi)
        assert np.max(np.abs(good - alt_a)) > 0.1
        assert np.max(np.abs(good - alt_b)) > 0.1
        assert np.max(np.abs(alt_a - alt_b)) > 0.1

    def test_only_validated_rhs_passes_oracle(self):
        # Integrate all three candidate ODE systems and apply the ansatz;
        # the generator-derived one reproduces the propagator, the variants
        # do not.
        from wnd.engine import rk45_on_grid

        lam, t_final, cutoff = 0.2, 1.0, 40
        times = np.linspace(0.0, t_final, 5)

        def run(rhs_fn):
            vals, _, _ = rk45_on_grid(
                lambda t, y: rhs_fn(lam, lam, y), times,
                np.zeros(3, complex), 1e-10, 1e-12, t_final,
            )
            return vals[-1]

        a = fock.destroy(cutoff)
        h = fock.number_op(cutoff) + lam * (a.conj().T @ a.conj().T + a @ a)
        u_oracle = fock.propagate(h, t_final)
        psi0 = fock.coherent_state(1.0, cutoff)
        basis = gaussian.su11_basis(include_identity=False)
        mats = fock.ansatz_matrices(basis, cutoff)

        fids = {}
        for name, rhs_fn in (
            ("validated", gaussian.su11_rhs),
            ("variant_a", gaussian.su11_rhs_variant_a),
            ("variant_b", gaussian.su11_rhs_variant_b),
        ):
            final = run(rhs_fn)
            psi = fock.apply_ansatz(final, mats, psi0)
            fids[name] = fock.fidelity(psi / np.linalg.norm(psi), u_oracle @ psi0)
        assert fids["validated"] >= 1 - 1e-8
        assert fids["variant_a"] < 1 - 1e-3
        assert fids["variant_b"] < 1 - 1e-3


class TestGaussianCombined:
    def test_reduces_to_linear_when_lambda_zero(self):
        g0 = 0.3
        times = np.linspace(0.0, 3.0, 31)
        traj = gaussian.gaussian_combined(
            Constant(g0), Constant(g0), Constant(0.0), Constant(0.0), 3.0,
            times=times,
        )
        lin = gaussian.linear_coefficients(Constant(g0), Constant(g0), times)
        np.testing.assert_allclose(traj.f_plus, lin.f_plus, atol=1e-9)
        np.testing.assert_allclose(traj.f_minus, lin.f_minus, atol=1e-9)
        np.testing.assert_allclose(traj.xi_zero, 2 * times, atol=1e-9)

    def test_reduces_to_quadratic_when_g_zero(self):
        lam = 0.15
        times = np.linspace(0.0, 2.0, 21)
        traj = gaussian.gaussian_combined(
            Constant(0.0), Constant(0.0), Constant(lam), Constant(lam), 2.0,
            times=times,
        )
        quad = gaussian.quadratic_coefficients(Constant(lam), Constant(lam), 2.0,
                                               times=times)
        np.testing.assert_allclose(traj.xi_plus, quad.xi_plus, atol=1e-9)
        np.testing.assert_allclose(traj.xi_zero, quad.xi_zero, atol=1e-9)
        np.testing.assert_allclose(traj.f_plus, 0.0, atol=1e-12)

    def test_five_factor_oracle_fidelity(self):
        g0 = lam = 0.1
        t_final, cutoff = 3.0, 60
        times = np.linspace(0.0, t_final, 13)
        traj = gaussian.gaussian_combined(
            Constant(g0), Constant(g0), Constant(lam), Constant(lam), t_final,
            times=times,
        )
        a = fock.destroy(cutoff)
        h = (fock.number_op(cutoff)
             + lam * (a.conj().T @ a.conj().T + a @ a)
             + g0 * (a.conj().T + a))
        psi0 = fock.coherent_state(1.0, cutoff)
        oracle = fock.propagate_state(h, psi0, times)
        mats = fock.ansatz_matrices(traj.raw.basis, cutoff)
        fid = [
            fock.fidelity(fock.apply_ansatz(traj.raw.values[:, i], mats, psi0),
                          oracle[i])
            for i in range(len(times))
        ]
        assert min(fid) >= 1 - 1e-6

    def test_mu_nu_reduce_to_bare_drive_at_origin(self):
        g0 = 0.25
        traj = gaussian.gaussian_combined(
            Constant(g0), Constant(g0), Constant(0.2), Constant(0.2), 1.0,
            n_out=11,
        )
        assert traj.mu[0] == pytest.approx(g0, abs=1e-12)
        assert traj.nu[0] == pytest.approx(g0, abs=1e-12)

    def test_random_subalgebra_reductions(self, rng):
        # 100 random draws: lambda -> 0 reduces to the linear solution and
        # g -> 0 to the quadratic one.
        for _ in range(50):
            g0 = complex(rng.normal(), rng.normal()) * 0.2
            t_final = float(rng.uniform(0.5, 2.0))
            times = np.array([0.0, t_final])
            traj = gaussian.gaussian_combined(
                Constant(g0), Constant(np.conj(g0)), Constant(0.0), Constant(0.0),
                t_final, times=times,
            )
            lin = gaussian.linear_coefficients(
                Constant(g0), Constant(np.conj(g0)), times
            )
            assert abs(traj.f_plus[-1] - lin.f_plus[-1]) <= 1e-8
            assert abs(traj.f_minus[-1] - lin.f_minus[-1]) <= 1e-8
        for _ in range(50):
            lam = complex(rng.normal(), rng.normal()) * 0.15
            t_final = float(rng.uniform(0.5, 2.0))
            times = np.array([0.0, t_final])
            traj = gaussian.gaussian_combined(
                Constant(0.0), Constant(0.0), Constant(lam), Constant(np.conj(lam)),
                t_final, times=times,
            )
            quad = gaussian.quadratic_coefficients(
                Constant(lam), Constant(np.conj(lam)), t_final, times=times
            )
            assert abs(traj.xi_plus[-1] - quad.xi_plus[-1]) <= 1e-8
            assert abs(traj.xi_zero[-1] - quad.xi_zero[-1]) <= 1e-8


class TestCrossModuleInvariants:
    def test_periodic_return_of_constant_drive(self):
        g0 = 0.5
        for k in (1, 2, 3):
            c = gaussian.linear_coefficients(
                Constant(g0), Constant(g0), np.array([0.0, 2 * np.pi * k])
            )
            assert abs(c.f_plus[-1]) <= 1e-9

    def test_bogoliubov_consistency(self):
        lam = 0.18
        times = np.linspace(0.0, 2.0, 21)
        traj = gaussian.quadratic_coefficients(Constant(lam), Constant(lam), 2.0,
                                               times=times)
        for i in range(len(times)):
            s = symplectic.ansatz_symplectic(
                traj.xi_plus[i], traj.xi_zero[i], traj.xi_minus[i]
            )
            assert symplectic.bogoliubov_defect(s) <= 1e-8

    def test_specialised_equals_generic_engine(self):
        # The closed-form linear solution equals the generic engine run.
        sig = Sinusoid(0.2, 1.0, 0.5)
        times = np.linspace(0.0, 4.0, 17)
        coeffs = gaussian.linear_coefficients(sig, sig, times)
        prob = gaussian.linear_problem(sig, sig, 4.0)
        traj = engine.integrate(prob, times=times)
        np.testing.assert_allclose(coeffs.f_plus, traj.values[1], atol=1e-8)
        np.testing.assert_allclose(coeffs.f_minus, traj.values[2], atol=1e-8)
