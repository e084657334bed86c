import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.special import gammaln

from wnd import cli, engine, fock, gaussian, ladder, symplectic
from wnd.errors import LeakageTooLarge, ModeMismatch, NonConvergent, NonHermitian
from wnd.signals import Constant, Hook, Sinusoid


class TestLadderMatrix:
    def test_cutoff_one(self):
        m = fock.destroy(1)
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        np.testing.assert_array_equal(m, expected)

    def test_number_diagonal(self):
        cutoff = 7
        n = fock.create(cutoff) @ fock.destroy(cutoff)
        np.testing.assert_allclose(np.diag(n), np.arange(cutoff + 1.0), atol=1e-14)

    def test_truncated_commutator_corner(self):
        # [a, a'] equals the identity except -cutoff in the last diagonal slot.
        cutoff = 9
        a = fock.destroy(cutoff)
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(cutoff + 1)
        expected[-1, -1] = -cutoff
        np.testing.assert_allclose(comm, expected, atol=1e-12)


class TestToMatrix:
    def test_k_zero_diagonal(self):
        cutoff = 8
        k_zero = gaussian.su11_elements()[1]
        img = fock.to_matrix(k_zero, cutoff)
        np.testing.assert_allclose(
            np.diag(img), (2 * np.arange(cutoff + 1.0) + 1) / 4, atol=1e-14
        )

    def test_identity(self):
        np.testing.assert_array_equal(
            fock.to_matrix(ladder.identity(), 5), np.eye(6)
        )

    def test_creation_squared_subdiagonal(self):
        cutoff = 6
        ad = ladder.creation()
        img = fock.to_matrix(ad * ad, cutoff)
        n = np.arange(2, cutoff + 1)
        np.testing.assert_allclose(
            np.diag(img, -2), np.sqrt(n * (n - 1)), atol=1e-13
        )

    def test_two_mode_row_major(self):
        # Index n_a (cutoff_b + 1) + n_b; check a'a (bd b) on |1,2>.
        poly = ladder.number(0, 2) * ladder.number(1, 2)
        img = fock.to_matrix(poly, (2, 3))
        state = np.zeros(3 * 4)
        state[1 * 4 + 2] = 1.0
        np.testing.assert_allclose(img @ state, 2.0 * state, atol=1e-14)

    @staticmethod
    def _matmul_image(sig, cutoffs):
        # ad^p @ (... @ 1) @ a @ a ... per mode by dense products, then kron.
        term = None
        for (p, q), cutoff in zip(sig, cutoffs):
            low = fock.destroy(cutoff)
            mat = np.eye(cutoff + 1, dtype=complex)
            for _ in range(p):
                mat = low.conj().T @ mat
            for _ in range(q):
                mat = mat @ low
            term = mat if term is None else np.kron(term, mat)
        return term

    @pytest.mark.parametrize("cutoff", [1, 2, 3, 7, 40, 61, 80])
    def test_one_mode_images_equal_matmul(self, cutoff):
        for p in range(min(cutoff, 4) + 1):
            for q in range(min(cutoff, 4) - p + 1):
                got = fock.to_matrix(
                    ladder.LadderPolynomial.monomial(1.0, ((p, q),)), cutoff)
                assert np.array_equal(got, self._matmul_image(((p, q),), (cutoff,)))

    @pytest.mark.parametrize("cutoffs", [(1, 1), (2, 5), (6, 3), (20, 30)])
    def test_two_mode_images_equal_matmul(self, cutoffs):
        for sig in [((1, 0), (0, 1)), ((2, 1), (1, 1)), ((0, 0), (1, 0)),
                    ((1, 1), (0, 2)), ((0, 1), (1, 0))]:
            if any(p + q > c for (p, q), c in zip(sig, cutoffs)):
                continue
            got = fock.to_matrix(ladder.LadderPolynomial.monomial(1.0, sig), cutoffs)
            assert np.array_equal(got, self._matmul_image(sig, cutoffs))

    def test_random_polynomials_equal_dense_sum_bytes(self):
        # The dense build sums c * image per term, in term order, into a
        # zero matrix.  to_matrix must match it byte for byte: signed zeros
        # too, which a band sum that started from its first term would not.
        rng = np.random.default_rng(7)
        for i in range(60):
            n_modes = 1 + i % 2
            cutoffs = tuple(int(c) for c in rng.integers(4, 9, size=n_modes))
            terms = {}
            for _ in range(int(rng.integers(2, 7))):
                sig = tuple((int(rng.integers(0, 3)), int(rng.integers(0, 3)))
                            for _ in range(n_modes))
                terms[sig] = complex(rng.normal(), rng.normal())
            poly = ladder.LadderPolynomial(n_modes, terms)
            dim = int(np.prod([c + 1 for c in cutoffs]))
            acc = np.zeros((dim, dim), dtype=complex)
            for sig, c in poly.terms.items():
                acc += c * self._matmul_image(sig, cutoffs)
            assert fock.to_matrix(poly, cutoffs).tobytes() == acc.tobytes()

    def test_cutoff_too_small(self):
        ad = ladder.creation()
        with pytest.raises(ValueError):
            fock.to_matrix(ad * ad * ad, 2)


class TestCoherentState:
    def test_vacuum(self):
        psi = fock.coherent_state(0.0, 10)
        assert psi[0] == 1.0
        assert np.all(psi[1:] == 0.0)

    def test_lowering_eigenrelation(self):
        psi = fock.coherent_state(1.0, 40)
        a = fock.destroy(40)
        assert fock.expectation(a, psi) == pytest.approx(1.0, abs=1e-10)

    def test_mean_occupation(self):
        psi = fock.coherent_state(1.0, 40)
        n = fock.number_op(40)
        assert fock.expectation(n, psi).real == pytest.approx(1.0, abs=1e-10)

    def test_leakage_guard(self):
        with pytest.raises(LeakageTooLarge):
            fock.coherent_state(3.0, 12)


class TestFidelityExpectation:
    def test_identical_and_orthogonal(self):
        psi = fock.coherent_state(0.8, 30)
        assert fock.fidelity(psi, psi) == pytest.approx(1.0, abs=1e-14)
        e0 = np.zeros(31, dtype=complex)
        e1 = np.zeros(31, dtype=complex)
        e0[0] = 1.0
        e1[1] = 1.0
        assert fock.fidelity(e0, e1) == 0.0

    def test_coherent_overlap_against_analytic(self):
        psi = fock.coherent_state(1.0, 40)
        phi = fock.coherent_state(1.1, 40)
        assert fock.fidelity(psi, phi) == pytest.approx(np.exp(-0.01), abs=1e-6)

    def test_cutoff_mismatch(self):
        with pytest.raises(ModeMismatch):
            fock.fidelity(np.zeros(3), np.zeros(4))

    def test_quadratures_on_coherent_state(self):
        cutoff = 40
        psi = fock.coherent_state(1.0, cutoff)
        assert fock.expectation(fock.x_op(cutoff), psi).real == pytest.approx(
            np.sqrt(2.0), abs=1e-10
        )
        assert fock.expectation(fock.p_op(cutoff), psi).real == pytest.approx(
            0.0, abs=1e-10
        )
        assert fock.variance(fock.x_op(cutoff), psi) == pytest.approx(0.5, abs=1e-9)


class TestPropagate:
    def test_free_evolution_diagonal(self):
        cutoff = 12
        t = 1.3
        u = fock.propagate(fock.number_op(cutoff), t)
        np.testing.assert_allclose(
            u, np.diag(np.exp(-1j * np.arange(cutoff + 1) * t)), atol=1e-9
        )

    def test_constant_h_is_one_exact_step(self):
        cutoff, t = 16, 2.7
        a = fock.destroy(cutoff)
        ad = a.conj().T
        h = fock.number_op(cutoff) + 0.4 * (a + ad) + 0.1 * (a @ a + ad @ ad)
        want = scipy.linalg.expm(-1j * h * t)
        assert np.max(np.abs(fock.propagate(h, t) - want)) <= 1e-12

    def test_central_oracle_check(self):
        # Linear constant drive: decoupled ansatz against the propagator.
        g0, t_final, cutoff = 0.1, 1.0, 40
        prob = gaussian.linear_problem(Constant(g0), Constant(g0), t_final)
        traj = engine.integrate(prob, times=np.linspace(0, t_final, 5))
        a = fock.destroy(cutoff)
        h = fock.number_op(cutoff) + g0 * (a.conj().T + a)
        u = fock.propagate(h, t_final)
        psi0 = fock.coherent_state(1.0, cutoff)
        ansatz = fock.ansatz_state(traj, cutoff, psi0)
        assert fock.fidelity(ansatz, u @ psi0) >= 1 - 1e-8

    def test_unitarity_on_low_block(self):
        cutoff = 20
        a = fock.destroy(cutoff)
        h = fock.number_op(cutoff) + 0.2 * (a.conj().T @ a.conj().T + a @ a)
        u = fock.propagate(h, 1.0)
        gram = u.conj().T @ u
        keep = cutoff + 1 - 4  # degree-2 Hamiltonian corrupts the top levels
        np.testing.assert_allclose(
            gram[:keep, :keep], np.eye(cutoff + 1)[:keep, :keep], atol=1e-8
        )

    def test_requires_hermitian(self):
        with pytest.raises(ValueError):
            fock.propagate(np.array([[0.0, 1.0], [0.0, 0.0]]), 200.0, dt=1.0)

    def test_dt_precondition(self):
        with pytest.raises(ValueError):
            fock.propagate(fock.number_op(4), 1.0, dt=0.5)

    def test_non_convergent_at_refinement_floor(self):
        cutoff = 8
        a = fock.destroy(cutoff)
        h_free, h_dr = fock.number_op(cutoff), a.conj().T + a

        def h(t):
            return h_free + np.cos(3.0 * t) * h_dr

        with pytest.raises(NonConvergent):
            fock.propagate(h, 2.0, dt=2.0 / 100, drift_tol=1e-14,
                           max_refinements=1)

    def test_columns_are_state_trajectories(self):
        # U is the state oracle run on the identity block: column k is the
        # propagated basis state e_k.  An infinite drift tolerance stops both
        # sides after one halving, so only the Taylor series' roundoff
        # criterion (whole block against one vector) differs.
        cutoff, span = 10, 2.0
        h = _driven_hamiltonian(cutoff, lambda t: 0.3 * np.cos(1.1 * t),
                                lambda t: 0.05 * np.exp(2j * t))
        u = fock.propagate(h, span, dt=span / 100, drift_tol=np.inf)
        for k in range(cutoff + 1):
            e_k = np.eye(cutoff + 1)[k]
            col = fock.propagate_state(h, e_k, [0.0, span], dt=span / 100,
                                       drift_tol=np.inf)[-1]
            assert np.max(np.abs(u[:, k] - col)) <= 1e-12


# A sub-step of size dt from t is a product of exponentials, the first row
# applied first: exp(-i dt sum_k w_k H(t + c_k dt)) for each row w of weights
# over the nodes c.
_MIDPOINT = ((0.5,), ((1.0,),))
_CFM4 = ((0.5 - np.sqrt(3.0) / 6, 0.5 + np.sqrt(3.0) / 6),
         ((0.25 + np.sqrt(3.0) / 6, 0.25 - np.sqrt(3.0) / 6),
          (0.25 - np.sqrt(3.0) / 6, 0.25 + np.sqrt(3.0) / 6)))


def _eigh_states(h_eval, psi0, times, dt, drift_tol, scheme=_CFM4,
                 max_refinements=10):
    """Reference oracle with one ``eigh`` per exponential of ``scheme``.

    Same grid landings and dt/2 refinement as ``fock.propagate_state``; with
    the default CFM4 scheme only the action of each exponential differs.
    """
    nodes, weights = scheme

    def run(dt):
        psi = psi0
        out = [psi]
        for lo, hi in zip(times[:-1], times[1:]):
            n_sub = max(1, int(np.ceil((hi - lo) / dt - 1e-12)))
            step = (hi - lo) / n_sub
            for j in range(n_sub):
                hs = [h_eval(lo + (j + c) * step) for c in nodes]
                for row in weights:
                    w, v = np.linalg.eigh(sum(x * h for x, h in zip(row, hs)))
                    psi = v @ (np.exp(-1j * w * step) * (v.conj().T @ psi))
            out.append(psi)
        return np.array(out)

    prev = run(dt)
    for _ in range(max_refinements):
        dt /= 2.0
        nxt = run(dt)
        if np.max(np.abs(nxt[-1] - prev[-1])) <= drift_tol:
            return nxt
        prev = nxt
    raise AssertionError("reference oracle did not settle")


def _driven_hamiltonian(cutoff, g, lam):
    """t -> n + g(t)(ad + a) + lam(t) ad^2 + conj(lam(t)) a^2."""
    a = fock.destroy(cutoff)
    ad = a.conj().T
    n, drive, up, down = fock.number_op(cutoff), ad + a, ad @ ad, a @ a

    def h(t):
        lt = lam(t)
        return n + g(t) * drive + lt * up + np.conj(lt) * down

    return h


class TestPropagateState:
    CUTOFF = 30
    DRIVES = {
        "linear": (lambda t: 0.3 * np.cos(1.1 * t), lambda t: 0.0),
        "su11": (lambda t: 0.0, lambda t: 0.1 * np.exp(2j * t)),
        "combined": (lambda t: 0.2 * np.sin(0.9 * t),
                     lambda t: 0.08 * np.cos(2.0 * t) + 0.03j),
    }

    @pytest.mark.parametrize("drive", ["linear", "su11", "combined"])
    def test_matches_eigh_reference(self, drive):
        # The Taylor action changes only roundoff: same refinement passes,
        # same CFM4 trajectory to 1e-12.
        h = _driven_hamiltonian(self.CUTOFF, *self.DRIVES[drive])
        psi0 = fock.coherent_state(1.0, self.CUTOFF)
        times = np.linspace(0.0, 2.0, 6)
        new = fock.propagate_state(h, psi0, times, dt=2.0 / 200, drift_tol=1e-6)
        ref = _eigh_states(h, psi0, times, 2.0 / 200, 1e-6)
        assert np.max(np.abs(new - ref)) <= 1e-12

    def _exact_rows(self, h, psi0, times, exact, cutoff):
        """Per-row |<a> - exact| of the CLI's oracle and of the midpoint
        oracle it replaced (T/600, drift 1e-6), both on ``times``."""
        a = fock.destroy(cutoff)
        span = times[-1]
        new = fock.propagate_state(h, psi0, times, dt=span / cli._ORACLE_STEPS,
                                   drift_tol=cli._ORACLE_DRIFT)
        old = _eigh_states(h, psi0, times, span / 600, 1e-6, _MIDPOINT)
        err_new = np.abs([fock.expectation(a, s) for s in new] - exact)
        err_old = np.abs([fock.expectation(a, s) for s in old] - exact)
        return err_new, err_old

    def test_linear_drive_against_coherent_amplitude(self):
        # H = n + g(t)(ad + a) keeps a coherent state coherent, with
        # alpha(t) = e^{-it} (alpha0 - i int_0^t e^{is} g(s) ds).
        cutoff, alpha0, span = 24, 1.0, 6.0
        g = Sinusoid(0.4, 1.7, 0.3)
        times = np.linspace(0.0, span, 9)
        exact = np.exp(-1j * times) * (alpha0 - 1j * g.oscillatory_integral(times, 1.0))
        h = _driven_hamiltonian(cutoff, g, lambda t: 0.0)
        err_new, err_old = self._exact_rows(
            h, fock.coherent_state(alpha0, cutoff), times, exact, cutoff)
        assert np.all(err_new <= err_old)
        assert np.max(err_new) <= 1e-8

    def test_quadratic_drive_against_symplectic_moments(self):
        # H = n + lam(t) ad^2 + lam(t) a^2 with real lam: <a>(t) from the
        # phase-space flow S(t) of the same quadratic form.
        cutoff, alpha0, span = 40, 1.0, 4.0
        lam = Sinusoid(0.15, 1.3, 0.4)
        times = np.linspace(0.0, span, 9)
        flow = symplectic.propagate_symplectic(lam, lam, span, times=times,
                                               rtol=1e-12, atol=1e-14)
        exact = np.array([symplectic.first_moments(s, alpha0)[0]
                          for s in flow.matrices])
        h = _driven_hamiltonian(cutoff, lambda t: 0.0, lam)
        err_new, err_old = self._exact_rows(
            h, fock.coherent_state(alpha0, cutoff), times, exact, cutoff)
        assert np.all(err_new <= err_old)
        assert np.max(err_new) <= 1e-8

    def test_fourth_order_convergence(self):
        # CFM4 endpoint error against a 4x finer run scales as dt^4: halving
        # dt divides it by 16, checked within a factor of two.
        span = 8.0
        h = _driven_hamiltonian(10, lambda t: 0.2 * np.sin(2.9 * t),
                                lambda t: 0.08 * np.cos(3.0 * t) + 0.03j)
        psi0 = fock.coherent_state(0.5, 10, leakage_tol=1e-6)

        def endpoint(n):
            # An infinite drift tolerance stops after one halving: dt/2.
            return fock.propagate_state(h, psi0, [0.0, span], dt=span / n,
                                        drift_tol=np.inf)[-1]

        ref = endpoint(800)
        e1 = np.max(np.abs(endpoint(100) - ref))
        e2 = np.max(np.abs(endpoint(200) - ref))
        assert 8.0 <= e1 / e2 <= 32.0

    def _count_eigh(self, monkeypatch):
        calls = []
        real = np.linalg.eigh

        def counted(mat):
            calls.append(1)
            return real(mat)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def test_time_dependent_h_never_diagonalised(self, monkeypatch):
        calls = self._count_eigh(monkeypatch)
        h = _driven_hamiltonian(self.CUTOFF, *self.DRIVES["combined"])
        psi0 = fock.coherent_state(1.0, self.CUTOFF)
        fock.propagate_state(h, psi0, np.linspace(0.0, 1.0, 3), dt=0.01,
                             drift_tol=1e-6)
        assert len(calls) == 0

    def test_constant_h_diagonalised_once_per_pass(self, monkeypatch):
        calls = self._count_eigh(monkeypatch)
        h_mat = _driven_hamiltonian(self.CUTOFF, lambda t: 0.2,
                                    lambda t: 0.05)(0.0)
        passes = []

        def h(t):
            if not passes or t < passes[-1]:
                passes.append(t)
            passes[-1] = t
            return h_mat

        psi0 = fock.coherent_state(1.0, self.CUTOFF)
        fock.propagate_state(h, psi0, np.linspace(0.0, 1.0, 5), dt=0.01,
                             drift_tol=1e-9)
        assert len(passes) >= 2
        assert 1 <= len(calls) <= len(passes)

    def test_constant_matrix_h_one_pass(self, monkeypatch):
        # A matrix H is constant, so its eigen steps are exact: one pass and
        # one eigh, as accurate as the refined run of the same H as a
        # callable.
        calls = self._count_eigh(monkeypatch)
        passes = []
        real = fock._ExpStepper
        monkeypatch.setattr(fock, "_ExpStepper",
                            lambda: passes.append(1) or real())
        h_mat = _driven_hamiltonian(self.CUTOFF, lambda t: 0.2,
                                    lambda t: 0.05)(0.0)
        psi0 = fock.coherent_state(1.0, self.CUTOFF)
        times = np.linspace(0.0, 1.0, 5)
        once = fock.propagate_state(h_mat, psi0, times, dt=0.01)
        assert (len(passes), len(calls)) == (1, 1)
        refined = fock.propagate_state(lambda t: h_mat, psi0, times, dt=0.01)
        assert np.max(np.abs(once - refined)) <= 1e-12

    def test_constant_matrix_h_one_step_per_interval(self, monkeypatch):
        # A matrix H takes one exact eigen step per output interval, so dt
        # plays no part: a tenfold smaller dt moves no row.
        steps = []
        real = fock._ExpStepper.cfm4_state
        monkeypatch.setattr(fock._ExpStepper, "cfm4_state",
                            lambda self, *a: steps.append(1) or real(self, *a))
        h_mat = _driven_hamiltonian(self.CUTOFF, lambda t: 0.2,
                                    lambda t: 0.05)(0.0)
        psi0 = fock.coherent_state(1.0, self.CUTOFF)
        times = np.linspace(0.0, 1.0, 5)
        coarse = fock.propagate_state(h_mat, psi0, times, dt=0.01)
        assert len(steps) == len(times) - 1
        fine = fock.propagate_state(h_mat, psi0, times, dt=0.001)
        assert len(steps) == 2 * (len(times) - 1)
        assert np.array_equal(coarse, fine)

    def test_step_matrix_reused_across_float_dust_in_dt(self):
        # Uniform output grids give sub-step sizes that differ by roundoff;
        # those reuse the cached step matrix, a genuinely new dt does not.
        h = fock.number_op(8)
        stepper = fock._ExpStepper()
        stepper._is_repeat(h)
        first = stepper._cached_step(0.01)
        assert stepper._cached_step(0.01 * (1 + 1e-15)) is first
        assert stepper._cached_step(0.01 * (1 - 1e-15)) is first
        assert stepper._cached_step(0.02) is not first

    def test_large_norm_step_matches_expm(self, monkeypatch):
        # dt ||.||_1 ~ 150-170 for the two CFM4 exponentials at cutoff 200:
        # each is cut into that many Taylor pieces.
        cutoff, dt = 200, 1.0
        calls = self._count_eigh(monkeypatch)
        h1 = _driven_hamiltonian(cutoff, lambda t: 0.5, lambda t: 0.3)(0.0)
        h2 = _driven_hamiltonian(cutoff, lambda t: 0.4, lambda t: 0.2j)(0.0)
        rng = np.random.default_rng(488)
        psi = rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1)
        psi /= np.linalg.norm(psi)
        got = fock._ExpStepper().cfm4_state(h1, h2, dt, psi)
        assert len(calls) == 0
        (a1, a2), _ = _CFM4[1]
        want = (scipy.linalg.expm(-1j * dt * (a2 * h1 + a1 * h2))
                @ scipy.linalg.expm(-1j * dt * (a1 * h1 + a2 * h2)) @ psi)
        assert np.linalg.norm(got - want) <= 1e-12

    @pytest.mark.parametrize("bad", [(np.nan, np.nan), (np.inf, 0.0)],
                             ids=["nan", "one-sided-inf"])
    def test_non_finite_hamiltonian_raises(self, bad):
        # Rejected as non-Hermitian before any series runs.
        h_mat = fock.number_op(6)
        h_mat[2, 3], h_mat[3, 2] = bad
        psi0 = fock.coherent_state(0.5, 6, leakage_tol=1e-2)
        with pytest.raises(NonHermitian):
            fock.propagate_state(lambda t: h_mat, psi0, [0.0, 1.0])

    def test_taylor_term_cap(self):
        # A non-finite state never meets the roundoff test: the term cap
        # stops the series instead of letting it loop.
        psi = np.ones(7, dtype=complex)
        psi[3] = np.nan
        with pytest.raises(NonConvergent):
            fock._ExpStepper().cfm4_state(fock.number_op(6), fock.x_op(6),
                                          0.1, psi)

    @pytest.mark.parametrize("dt", [-0.01, 0.0, np.nan, np.inf],
                             ids=["negative", "zero", "nan", "inf"])
    def test_bad_dt_rejected(self, dt):
        # A negative dt took one sub-step per interval in every pass, so the
        # passes agreed and the refinement stopped on rows 6.7e-4 off; dt=0
        # divided by zero.
        h = _driven_hamiltonian(12, lambda t: 0.3 * np.cos(1.3 * t),
                                lambda t: 0.0)
        psi0 = fock.coherent_state(0.5, 12)
        with pytest.raises(ValueError, match="dt must be"):
            fock.propagate_state(h, psi0, np.linspace(0.0, 3.0, 4), dt=dt,
                                 drift_tol=1e-9)

    @pytest.mark.parametrize("constant", [True, False], ids=["matrix", "callable"])
    def test_nan_grid_time_rejected(self, constant):
        h = _driven_hamiltonian(12, lambda t: 0.3 * np.cos(1.3 * t),
                                lambda t: 0.0)
        h = h(0.0) if constant else h
        psi0 = fock.coherent_state(0.5, 12)
        with pytest.raises(ValueError, match="finite"):
            fock.propagate_state(h, psi0, [0.0, np.nan, 1.0])

    def test_non_hermitian_is_typed(self):
        h_mat = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitian):
            fock.propagate_state(lambda t: h_mat, [1.0, 0.0], [0.0, 1.0])


class TestOracleHamiltonian:
    """The oracle's H(t), derived from each CLI scenario's engine problem,
    against the physical Hamiltonian built directly from ladder matrices.

    This pins the basis coordinates (G = 2 l+, 2, 2 l-, -1/2 on su(1,1);
    1, g, g, 0 on the linear basis) to the Hamiltonian they describe.
    """

    # Scenario -> (g(t), lam(t)) of H = n + g (ad + a) + lam ad^2 + conj(lam) a^2.
    DRIVES = {
        "linear-constant": lambda p: (lambda t: p["g0"], lambda t: 0.0),
        "linear-resonant": lambda p: (
            lambda t: p["g0"] * np.cos(t + p["phi"]), lambda t: 0.0),
        "quadratic-constant": lambda p: (lambda t: 0.0, lambda t: p["lp"]),
        "quadratic-parametric": lambda p: (
            lambda t: 0.0, lambda t: p["l0"] * np.cos(p["freq"] * t)),
        "gaussian-combined": lambda p: (lambda t: p["g0"], lambda t: p["lp"]),
    }
    RANGES = {"g0": (-0.5, 0.5), "phi": (0.0, 2 * np.pi), "lp": (-0.2, 0.2),
              "l0": (-0.2, 0.2), "freq": (0.5, 3.0)}

    @staticmethod
    def _draw(scenario, seed):
        rng = np.random.default_rng(seed)
        defaults = cli.SCENARIOS[scenario][0]
        drawn = {key: rng.uniform(*bounds)
                 for key, bounds in TestOracleHamiltonian.RANGES.items()
                 if key in defaults}
        if "lm" in defaults:
            drawn["lm"] = drawn["lp"]
        drawn["T"] = rng.uniform(1.0, 10.0)
        return [f"{key}={value!r}" for key, value in drawn.items()]

    @pytest.mark.parametrize("draw", [None, 611], ids=["defaults", "seeded"])
    @pytest.mark.parametrize("scenario", sorted(DRIVES))
    def test_matches_hand_built_hamiltonian(self, scenario, draw):
        assignments = [] if draw is None else self._draw(scenario, draw)
        params = cli.resolve_params(scenario, assignments=assignments)
        cutoff = params["cutoff"]
        build = cli.SCENARIOS[scenario][1]
        derived = fock.oracle_hamiltonian(build(params), cutoff)
        g, lam = self.DRIVES[scenario](params)
        want = _driven_hamiltonian(cutoff, g, lam)
        # Only the driven scenarios need an H per time.
        assert callable(derived) == scenario.endswith(("resonant", "parametric"))
        for t in np.linspace(0.0, params["T"], 23):
            got = derived(t).toarray() if callable(derived) else derived
            assert np.max(np.abs(got - want(t))) <= 1e-12

    @pytest.mark.parametrize("scenario", sorted(DRIVES))
    def test_replay_images_give_the_same_bytes(self, scenario):
        # A run sums its oracle H from the replay's images; the dense H is
        # the same bytes as the one built from the basis.
        params = cli.resolve_params(scenario)
        problem = cli.SCENARIOS[scenario][1](params)
        cutoff = params["cutoff"]
        images = fock.ansatz_matrices(problem.basis, cutoff)
        built = fock.oracle_hamiltonian(problem, cutoff)
        reused = fock.oracle_hamiltonian(problem, cutoff, images)
        for t in np.linspace(0.0, params["T"], 5):
            want, got = ((h(t).toarray() if callable(h) else h)
                         for h in (built, reused))
            assert got.tobytes() == want.tobytes()

    def test_shared_signal_evaluated_once(self):
        # linear_problem drives both ladder slots with one signal object, so
        # the problem's split holds one time-dependent group of two slots.
        calls = []

        def drive(t):
            calls.append(t)
            return 0.3 * np.cos(1.7 * t) + 0.1j

        shared = Hook(drive)
        problem = gaussian.linear_problem(shared, shared, 1.0)
        cutoff = 12
        h_eval = fock.oracle_hamiltonian(problem, cutoff)
        mats = [fock.to_matrix(elem, cutoff) for elem in problem.basis]
        for t in np.linspace(0.0, 1.0, 5):
            calls.clear()
            got = h_eval(t).toarray()
            assert len(calls) == 1
            want = sum(sig(t) * mat for sig, mat in zip(problem.signals, mats))
            assert np.max(np.abs(got - want)) <= 1e-14


class TestDerivedHamiltonian:
    """The oracle steps a derived H(t) as coefficients over its term
    matrices: same rows as its dense samples, and the same Hermiticity
    rule, judged on the coefficients."""

    @staticmethod
    def _cases():
        cases = {}
        for scenario, extra in [("linear-resonant", []),
                                ("quadratic-parametric", ["alpha=0.5"])]:
            params = cli.resolve_params(scenario, assignments=extra)
            cases[scenario] = (cli.SCENARIOS[scenario][1](params),
                               params["cutoff"], params["alpha"], params["T"])
        g, lam = Sinusoid(0.1, 1.0), Sinusoid(0.05, 2.0)
        cases["gaussian_combined"] = (
            gaussian.combined_problem(g, g, lam, lam, 3.0), 40, 0.5, 3.0)
        return cases

    @pytest.mark.parametrize(
        "case", ["linear-resonant", "quadratic-parametric", "gaussian_combined"])
    def test_rows_match_dense_samples(self, case):
        problem, cutoff, alpha, span = self._cases()[case]
        h = fock.oracle_hamiltonian(problem, cutoff)
        psi0 = fock.coherent_state(alpha, cutoff)
        times = np.linspace(0.0, span, 9)
        got = cli._oracle_states(h, psi0, times)
        want = cli._oracle_states(lambda t: h(t).toarray(), psi0, times)
        assert np.max(np.abs(got - want)) <= 1e-14

    @staticmethod
    def _linear(drive):
        return gaussian.linear_problem(*(2 * [Hook(drive)]), 1.0)

    NON_HERMITIAN = {
        "imaginary-drive": lambda: TestDerivedHamiltonian._linear(
            lambda t: 0.2 * np.cos(t) + 1e-9j),
        "nan": lambda: TestDerivedHamiltonian._linear(lambda t: np.nan),
        "inf": lambda: TestDerivedHamiltonian._linear(lambda t: np.inf),
        "non-conjugate-pair": lambda: gaussian.quadratic_problem(
            Sinusoid(0.1, 2.0), Sinusoid(0.2, 2.0), 1.0),
    }

    @pytest.mark.parametrize("case", sorted(NON_HERMITIAN))
    def test_non_hermitian_raises_without_warning(self, case):
        h = fock.oracle_hamiltonian(self.NON_HERMITIAN[case](), 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonHermitian):
                fock.propagate_state(h, np.eye(9)[0], [0.0, 1.0])

    def test_conjugate_hook_pair_passes(self):
        # Two groups, K+ and K-, neither Hermitian alone: their sum is.
        problem = gaussian.quadratic_problem(
            Hook(lambda t: 0.1 * np.exp(2j * t)),
            Hook(lambda t: 0.1 * np.exp(-2j * t)), 1.0)
        assert len(problem.g_varying) == 2
        h = fock.oracle_hamiltonian(problem, 30)
        psi0 = fock.coherent_state(0.5, 30)
        times = np.linspace(0.0, 1.0, 3)
        got = fock.propagate_state(h, psi0, times, dt=0.01)
        want = fock.propagate_state(lambda t: h(t).toarray(), psi0, times,
                                    dt=0.01)
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_no_dense_check_per_sample(self, monkeypatch):
        calls = []
        checked = fock.is_hermitian

        def counted(mat, tol=1e-12):
            calls.append(1)
            return checked(mat, tol)

        monkeypatch.setattr(fock, "is_hermitian", counted)
        h = fock.oracle_hamiltonian(self._cases()["gaussian_combined"][0], 12)
        psi0 = fock.coherent_state(0.5, 12)
        fock.propagate_state(h, psi0, [0.0, 1.0], dt=0.01)
        assert calls == []
        # A raw callable still takes the dense check.
        fock.propagate_state(lambda t: h(t).toarray(), psi0, [0.0, 1.0],
                             dt=0.01)
        assert calls

    def test_propagate_accepts_derived_hamiltonian(self):
        h = fock.oracle_hamiltonian(self._cases()["gaussian_combined"][0], 12)
        got = fock.propagate(h, 1.0, dt=0.01)
        want = fock.propagate(lambda t: h(t).toarray(), 1.0, dt=0.01)
        assert got.shape == (13, 13)
        assert np.max(np.abs(got - want)) <= 1e-14


def _random_bands(rng, dim, offsets):
    return fock.Bands(dim, {k: rng.normal(size=dim - abs(k))
                            + 1j * rng.normal(size=dim - abs(k)) for k in offsets})


class TestBands:
    """The one sparse form: a square operator held as its nonzero
    diagonals."""

    OFFSETS = [(0,), (3,), (-2, 0, 5), (-6, -1, 1, 2, 6)]

    @pytest.mark.parametrize("offsets", OFFSETS, ids=str)
    def test_products_match_dense(self, rng, offsets):
        dim = 7
        op = _random_bands(rng, dim, offsets)
        dense = op.toarray()
        for shape in [(dim,), (dim, 3)]:
            x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            want = dense @ x
            assert np.linalg.norm(op @ x - want) <= 1e-15 * np.linalg.norm(want)
        w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        want = w @ dense
        assert np.linalg.norm(w @ op - want) <= 1e-15 * np.linalg.norm(want)

    @pytest.mark.parametrize("offsets", OFFSETS, ids=str)
    def test_norm1_is_dense_column_sum(self, rng, offsets):
        op = _random_bands(rng, 7, offsets)
        norm = op.norm1()
        assert norm == np.max(np.sum(np.abs(op.toarray()), axis=0))
        # Computed once: a later call returns the same float object.
        assert op.norm1() is norm

    def test_kron_matches_dense(self, rng):
        # Offset pairs (0, 1) and (1, -2) of two 3 x 3 operands meet on
        # diagonal 1, pairs (-1, 2) and (0, -1) on diagonal -1.  Entries
        # equal np.kron's exactly; np.array_equal, as np.kron multiplies the
        # zeros off the bands too and may leave -0.0 where a band sum has
        # +0.0.
        cases = [((3, (0, 1)), (3, (-2, 1))),
                 ((3, (-1, 0)), (3, (-1, 2))),
                 ((4, (-3, 0, 2)), (2, (-1, 0, 1))),
                 ((2, (1,)), (5, (-4, -1, 0, 3)))]
        for (d_o, offsets_o), (d_i, offsets_i) in cases:
            outer = _random_bands(rng, d_o, offsets_o)
            inner = _random_bands(rng, d_i, offsets_i)
            got = outer.kron(inner)
            assert got.shape == (d_o * d_i,) * 2
            assert np.array_equal(got.toarray(),
                                  np.kron(outer.toarray(), inner.toarray()))
        assert list(fock.Bands(3, {0: np.ones(3)}).kron(
            fock.Bands(3, {1: np.ones(2), -1: np.ones(2)})).bands) == [-1, 1]
        empty = fock.Bands(4, {})
        other = _random_bands(rng, 3, (-1, 2))
        for got in (empty.kron(other), other.kron(empty)):
            assert got.bands == {}
            assert np.array_equal(got.toarray(), np.zeros((12, 12)))

    def test_arithmetic_matches_dense(self, rng):
        a = _random_bands(rng, 6, (-1, 0, 2))
        b = _random_bands(rng, 6, (0, 2, 4))
        pairs = [(a + b, a.toarray() + b.toarray()),
                 (a - b, a.toarray() - b.toarray()),
                 (-0.5 * a, -0.5 * a.toarray()),
                 (a * (1 - 2j), a.toarray() * (1 - 2j)),
                 (np.float64(3.0) * b, 3.0 * b.toarray())]
        for got, want in pairs:
            assert isinstance(got, fock.Bands)
            assert np.array_equal(got.toarray(), want)
        assert list((a + b).bands) == [-1, 0, 2, 4]

    def test_from_dense_round_trip_on_a_copy(self, rng):
        mat = np.zeros((5, 5), dtype=complex)
        mat[0, 3] = 1 + 2j
        mat[4, 1] = -0.5
        mat[2, 2] = 3.0
        kept = mat.copy()
        op = fock.Bands.from_dense(mat)
        assert list(op.bands) == [-3, 0, 3]
        assert np.array_equal(op.toarray(), mat)
        assert np.array_equal((2j * op).toarray(), 2j * mat)
        assert np.array_equal(op.toarray(), mat)
        op.bands[0] *= 7
        assert np.array_equal(mat, kept)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="band 2"):
            fock.Bands(4, {2: np.ones(3)})
        with pytest.raises(ValueError, match="square"):
            fock.Bands.from_dense(np.ones((2, 3)))
        with pytest.raises(ValueError, match="differ"):
            fock.Bands(3, {0: np.ones(3)}) + fock.Bands(4, {0: np.ones(4)})
        op = fock.Bands(3, {0: np.ones(3)})
        for x in (np.ones(1), np.ones((4, 2)), 1.0):
            with pytest.raises(ValueError, match="cannot act"):
                op @ x
        with pytest.raises(ValueError, match="cannot act"):
            np.ones(4) @ op

    def test_taylor_step_takes_bands(self, rng):
        op = _random_bands(rng, 8, (-1, 0, 1))
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        dt = 0.7
        want = scipy.linalg.expm(-1j * dt * op.toarray()) @ psi
        got = fock._taylor_step(op, dt, psi)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_to_matrix_places_image_bands(self):
        poly = ladder.parse_polynomial("ad*b + a*bd + 0.5*ad*a", n_modes=2)
        image = fock._image_bands(poly, (3, 4))
        assert isinstance(image, fock.Bands)
        dim = image.shape[0]
        dense = fock.to_matrix(poly, (3, 4))
        assert list(image.bands) == [-4, 0, 4]
        for k in range(-dim + 1, dim):
            want = image.bands.get(k, np.zeros(dim - abs(k)))
            assert np.array_equal(np.diagonal(dense, k), want)


class TestApplyAnsatz:
    def test_factor_without_bands_leaves_the_state(self):
        rng = np.random.default_rng(6)
        dim = 6
        images = [fock.Bands(dim, {})]
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        block = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        assert np.array_equal(fock.apply_ansatz([0.7 - 0.2j], images, vec), vec)
        assert np.array_equal(fock.apply_ansatz([0.7 - 0.2j], images, block),
                              block)
        table = fock.apply_ansatz([[0.7, -1.3j, 2.0]], images, vec)
        assert np.array_equal(table, np.tile(vec, (3, 1)))

    def test_all_zero_is_identity(self):
        mats = fock.ansatz_matrices(gaussian.linear_basis(), 8)
        np.testing.assert_allclose(
            fock.apply_ansatz(np.zeros(4), mats), np.eye(9), atol=1e-14
        )

    def test_displacement_product(self):
        # Hermitian-drive coefficients assemble a displacement: for
        # F- = conj(F+) and z = -i F+,
        #   exp(-i F+ a') exp(-i F- a) = exp(z a' - z* a) exp(+|z|^2 / 2),
        # i.e. a displacement up to the central factor the dropped identity
        # exponential would carry.
        cutoff = 40
        f_plus = 0.3 - 0.2j
        f_minus = np.conj(f_plus)
        z = -1j * f_plus
        a = fock.destroy(cutoff)
        mats = fock.ansatz_matrices([ladder.creation(), ladder.annihilation()],
                                    cutoff)
        prod = fock.apply_ansatz([f_plus, f_minus], mats)
        direct = scipy.linalg.expm(z * a.conj().T - np.conj(z) * a)
        central = np.exp(-abs(z) ** 2 / 2)
        assert prod[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert direct[0, 0] == pytest.approx(central, abs=1e-12)
        keep = cutoff - 6
        np.testing.assert_allclose(
            (prod * central)[:keep, :keep], direct[:keep, :keep], atol=1e-9
        )

    def test_squeezing_factors(self):
        # Engine-decoupled su(1,1) coefficients rebuild the squeeze operator
        # exp[(zeta a'^2 - zeta* a^2)/2].
        cutoff = 50
        zeta = 0.3 * np.exp(0.4j)
        prob = engine.DecouplingProblem(
            gaussian.su11_basis(include_identity=False),
            [Constant(1j * zeta), Constant(0.0), Constant(-1j * np.conj(zeta))],
            1.0,
        )
        traj = engine.integrate(prob, n_out=5)
        mats = fock.ansatz_matrices(traj.basis, cutoff)
        prod = fock.apply_ansatz(traj.final, mats)
        a = fock.destroy(cutoff)
        direct = scipy.linalg.expm(
            (zeta * a.conj().T @ a.conj().T - np.conj(zeta) * a @ a) / 2.0
        )
        psi0 = fock.coherent_state(0.0, cutoff)
        assert fock.fidelity(prod @ psi0, direct @ psi0) >= 1 - 1e-9
        keep = 20
        phase = direct[0, 0] / prod[0, 0]
        np.testing.assert_allclose(
            (prod * phase)[:keep, :keep], direct[:keep, :keep], atol=1e-7
        )

    def test_rejects_non_finite(self):
        mats = fock.ansatz_matrices(gaussian.linear_basis(), 4)
        with pytest.raises(ValueError):
            fock.apply_ansatz([np.nan, 0, 0, 0], mats)

    # Bases whose images take every factor action: diagonal, one band, and
    # (in the two-mode closures of ad*b + a*bd) several bands.
    TABLE_BASES = {
        "linear": (gaussian.linear_basis(), 10),
        "su11": (gaussian.su11_basis(), 10),
        "combined": (gaussian.combined_basis(), 10),
        "two-mode-monomials": (ladder.close_algebra(
            [ladder.parse_polynomial(g, n_modes=2) for g in ("ad*b", "a*bd")]),
            (3, 4)),
        "two-mode-number": (ladder.close_algebra(
            [ladder.parse_polynomial(g, n_modes=2)
             for g in ("ad*b + a*bd", "ad*a + bd*b")]), (3, 4)),
        "two-mode": (ladder.close_algebra(
            [ladder.parse_polynomial(g, n_modes=2)
             for g in ("ad*b + a*bd", "ad*a")]), (3, 4)),
    }

    @staticmethod
    def _table(basis, cutoff, rows, seed):
        mats = fock.ansatz_matrices(basis, cutoff)
        dim = mats[0].shape[0]
        rng = np.random.default_rng(seed)
        shape = (len(mats), rows)
        f = 2.0 * np.sqrt(rng.uniform(size=shape)) * np.exp(
            2j * np.pi * rng.uniform(size=shape))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return f, mats, psi / np.linalg.norm(psi)

    @pytest.mark.parametrize("name", sorted(TABLE_BASES))
    def test_table_rows_are_row_replays(self, name):
        # Each replayed row is the bits of its own replay, and the rows
        # come back as one C-contiguous (rows, dim) array.
        basis, cutoff = self.TABLE_BASES[name]
        f, mats, psi = self._table(basis, cutoff, 9, 4242)
        multi_band = any(len(m.bands) > 1 for m in mats)
        assert multi_band == (name in ("two-mode", "two-mode-number"))
        got = fock.apply_ansatz(f, mats, psi)
        assert got.shape == (9, psi.size) and got.flags.c_contiguous
        for r in range(9):
            assert np.array_equal(got[r], fock.apply_ansatz(f[:, r], mats, psi))

    @pytest.mark.parametrize("width", [1, 2, 4])
    @pytest.mark.parametrize("name", sorted(TABLE_BASES))
    def test_blocks_split_the_table(self, name, width, monkeypatch):
        # Blocks of 1, 2 or 4 columns split 9 rows unevenly; each block
        # after the first is one more call, and the rows are unchanged.
        basis, cutoff = self.TABLE_BASES[name]
        f, mats, psi = self._table(basis, cutoff, 9, 77)
        want = np.array([fock.apply_ansatz(f[:, r], mats, psi)
                         for r in range(9)])
        calls = []
        real = fock.apply_ansatz
        monkeypatch.setattr(fock, "apply_ansatz",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        # One column short of the next width, so the floor division counts.
        monkeypatch.setattr(fock, "_REPLAY_BLOCK", (width + 1) * psi.size - 1)
        got = fock.apply_ansatz(f, mats, psi)
        assert len(calls) == -(-9 // width)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)

    def test_table_needs_one_state_vector(self):
        mats = fock.ansatz_matrices(gaussian.linear_basis(), 6)
        f = np.zeros((4, 3))
        with pytest.raises(ValueError, match="one state vector"):
            fock.apply_ansatz(f, mats, np.eye(7)[:, :2])
        with pytest.raises(ValueError, match="one state vector"):
            fock.apply_ansatz(f, mats)

    @pytest.mark.parametrize("row,col", [(0, 0), (3, 8), (1, 5)])
    def test_table_rejects_any_non_finite(self, row, col, monkeypatch):
        # A non-finite entry anywhere in the table is rejected, in the first
        # block or in a later one.
        monkeypatch.setattr(fock, "_REPLAY_BLOCK", 7 * 2)
        mats = fock.ansatz_matrices(gaussian.linear_basis(), 6)
        f = np.zeros((4, 9), dtype=complex)
        f[row, col] = complex(0.0, np.inf) if col % 2 else np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fock.apply_ansatz(f, mats, np.eye(7)[0])

    @pytest.mark.parametrize(
        "basis,cutoff",
        [
            (gaussian.linear_basis(), 8),
            (gaussian.su11_basis(), 8),
            (gaussian.combined_basis(), 8),
            (ladder.close_algebra([ladder.parse_polynomial(g, n_modes=2)
                                   for g in ("ad*b + a*bd", "ad*a")]), (3, 3)),
            (ladder.close_algebra([ladder.parse_polynomial(g, n_modes=2)
                                   for g in ("ad*b", "a*bd")]), (3, 3)),
        ],
        ids=["linear", "su11", "combined", "two-mode", "two-mode-monomials"],
    )
    def test_state_path_matches_operator(self, basis, cutoff):
        # Complex coefficients make the factors non-unitary and the product
        # can grow by many orders of magnitude, so the replay is compared
        # with the product of dense exponentials relative to the size of the
        # result.
        mats = fock.ansatz_matrices(basis, cutoff)
        dense = [fock.to_matrix(e, cutoff) for e in basis]
        dim = mats[0].shape[0]
        rng = np.random.default_rng(20111)
        for _ in range(20):
            n = len(mats)
            f = 3.0 * np.sqrt(rng.uniform(size=n)) * np.exp(
                2j * np.pi * rng.uniform(size=n))
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            want = np.eye(dim)
            for f_j, mat in zip(f, dense):
                want = want @ scipy.linalg.expm(-1j * f_j * mat)
            want = want @ psi
            state = fock.apply_ansatz(f, mats, psi)
            assert np.linalg.norm(state - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "basis,cutoff",
        [
            (gaussian.linear_basis(), 8),
            (gaussian.combined_basis(), 8),
            (ladder.close_algebra([ladder.parse_polynomial(g, n_modes=2)
                                   for g in ("ad*b + a*bd", "ad*a")]), (3, 3)),
        ],
        ids=["linear", "combined", "two-mode"],
    )
    def test_operator_columns_are_state_replays(self, basis, cutoff):
        # Without a state the factors act on the identity block: column k
        # of U is the replay of e_k.  Diagonal and one-band factors act on
        # each column alone; a multi-band factor's Taylor series stops on
        # the block's norm, so its columns agree to roundoff.
        mats = fock.ansatz_matrices(basis, cutoff)
        dim = mats[0].shape[0]
        rng = np.random.default_rng(3)
        f = rng.normal(size=len(mats)) + 1j * rng.normal(size=len(mats))
        u = fock.apply_ansatz(f, mats)
        for k in range(dim):
            col = fock.apply_ansatz(f, mats, np.eye(dim)[k])
            assert np.linalg.norm(u[:, k] - col) <= 1e-12 * np.linalg.norm(col)

    @pytest.mark.parametrize(
        "basis,cutoff",
        [
            (gaussian.linear_basis(), 12),
            (gaussian.combined_basis(), 12),
            (ladder.close_algebra([ladder.parse_polynomial(g, n_modes=2)
                                   for g in ("ad*b", "a*bd")]), (4, 5)),
        ],
        ids=["linear", "combined", "two-mode-monomials"],
    )
    def test_images_match_dense_matrices(self, basis, cutoff):
        # The replay images hold the numbers of the dense images, bit for
        # bit, and only bands with a nonzero.
        images = fock.ansatz_matrices(basis, cutoff)
        for image, elem in zip(images, basis):
            assert isinstance(image, fock.Bands)
            assert all(np.any(band) for band in image.bands.values())
            assert (image.toarray().tobytes()
                    == fock.to_matrix(elem, cutoff).tobytes())

    def test_image_kinds(self):
        # A diagonal, one band, or a Bands of several; two-mode images hold
        # O(dim) numbers, not a dense dim x dim matrix.
        cutoff = (30, 30)
        polys = {text: ladder.parse_polynomial(text, n_modes=2)
                 for text in ("ad*a - bd*b", "a*b", "ad*b + a*bd")}
        images = {text: fock.ansatz_matrices([p], cutoff)[0]
                  for text, p in polys.items()}
        assert list(images["ad*a - bd*b"].bands) == [0]
        assert list(images["a*b"].bands) == [32]  # lowers n_a*31 + n_b by 32
        assert list(images["ad*b + a*bd"].bands) == [-30, 30]
        for text, image in images.items():
            assert image.shape == (961, 961)
            assert sum(band.size for band in image.bands.values()) < 2 * 961
            np.testing.assert_array_equal(image.toarray(),
                                          fock.to_matrix(polys[text], cutoff))

    def test_multiband_factor_by_taylor_pieces(self, monkeypatch):
        # A beam-splitter factor of the two-mode closure has two bands, so
        # its image goes through the scaled Taylor step with its norm
        # computed once: |F| ||M||_1 >= 20 cuts it into at least 20 pieces.
        steps = []
        real_step = fock._taylor_step

        def recorded(op, dt, psi):
            steps.append(op)
            return real_step(op, dt, psi)

        monkeypatch.setattr(fock, "_taylor_step", recorded)
        cutoff = (3, 3)
        basis = ladder.close_algebra(
            [ladder.parse_polynomial("ad*b + a*bd", n_modes=2)])
        image = fock.ansatz_matrices(basis, cutoff)[0]
        assert len(image.bands) == 2
        dense = image.toarray()
        f = 0.5 - 4.2j  # mostly imaginary: |F|, not Re F, sets the pieces
        norm = image.norm1()
        assert norm == np.max(np.sum(np.abs(dense), axis=0))
        assert abs(f) * norm >= 20
        rng = np.random.default_rng(11)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        got = fock.apply_ansatz([f], [image], psi)
        assert len(steps) == 1 and steps[0] is image
        assert image.norm1() is norm
        want = scipy.linalg.expm(-1j * f * dense) @ psi
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("f", [0.7, 2.0 - 1.5j])
    def test_state_path_monomials_against_closed_form(self, f):
        # Monomial generators take the terminating-series path.  Exact images
        # in the truncated space: ad^k|0> = sqrt(k!)|k> and
        # a^k|n> = sqrt(n!/(n-k)!)|n-k>, so each factor applied to a number
        # state is a finite sum with closed-form coefficients.
        cutoff = 80
        ad, a = fock.ansatz_matrices(
            [ladder.creation(), ladder.annihilation()], cutoff)
        ad_sq, = fock.ansatz_matrices([ladder.creation() * ladder.creation()],
                                      cutoff)
        c = -1j * f
        vac = fock.coherent_state(0.0, cutoff)
        top = np.zeros(cutoff + 1, dtype=complex)
        top[cutoff] = 1.0
        n = np.arange(cutoff + 1)
        half = n[: cutoff // 2 + 1]
        cases = [
            (ad, vac, c ** n * np.exp(-0.5 * gammaln(n + 1))),
            (a, top, (c ** (cutoff - n)
                      * np.exp(0.5 * gammaln(cutoff + 1) - 0.5 * gammaln(n + 1)
                               - gammaln(cutoff - n + 1)))),
        ]
        two = np.zeros(cutoff + 1, dtype=complex)
        two[2 * half] = c ** half * np.exp(0.5 * gammaln(2 * half + 1) - gammaln(half + 1))
        cases.append((ad_sq, vac, two))
        for gen, psi, expected in cases:
            got = fock.apply_ansatz([f], [gen], psi)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_state_path_rejects_bad_coefficients(self):
        mats = fock.ansatz_matrices(gaussian.linear_basis(), 4)
        psi = fock.coherent_state(0.0, 4)
        with pytest.raises(ValueError):
            fock.apply_ansatz([np.inf, 0, 0, 0], mats, psi)
        with pytest.raises(ValueError):
            fock.apply_ansatz([0, 0, 0], mats, psi)


class TestLeakageControl:
    @pytest.mark.parametrize(
        "scenario,cutoff,extra",
        [
            ("linear-constant", 40, []),
            ("quadratic-constant", 80, []),
            # Time-dependent oracle: same drive family on a shorter span
            # keeps the doubled-cutoff reference affordable.
            ("quadratic-parametric", 40, ["T=3.0"]),
            ("gaussian-combined", 60, []),
        ],
    )
    def test_cutoff_doubling_stability(self, scenario, cutoff, extra):
        # Doubling the cutoff moves the reported minimum fidelity of every
        # shipped unitary scenario by < 1e-8 (the open-system scenario has
        # its own fine-step reference check).
        from wnd import cli

        fids = []
        for c in (cutoff, 2 * cutoff):
            params = cli.resolve_params(
                scenario, assignments=[f"cutoff={c}", "n_out=7", *extra]
            )
            _cols, min_fid = cli._run(scenario, params)
            fids.append(min_fid)
        assert abs(fids[0] - fids[1]) < 1e-8

    def test_choose_cutoff_monotone_and_bounded(self):
        small = fock.choose_cutoff(alpha=1.0)
        big = fock.choose_cutoff(alpha=1.0, displacement=2.0, squeezing=0.5)
        assert small >= 24
        assert big > small
        with pytest.raises(ValueError):
            fock.choose_cutoff(alpha=20.0, squeezing=2.0)

    def test_leakage_helper(self):
        psi = fock.coherent_state(1.0, 30)
        share, _top, _total = fock._top_two_share(np.abs(psi[None]) ** 2)
        assert share[0] < 1e-12
        fock.check_leakage("coherent state", [0.0], np.abs(psi[None]) ** 2)

    def test_single_mode_rows_keep_the_row_ratio(self):
        # On one mode the share is the top two |psi_n|^2 over sum |psi_n|^2,
        # summed in that order: the first failing row and its two numbers
        # are those of the per-row ratio.
        times = np.linspace(0.0, 1.0, 6)
        states = np.array([fock.coherent_state(a, 24, leakage_tol=1.0)
                           for a in (0.5, 1.0, 1.5, 2.5, 3.5, 4.5)])
        states *= np.array([1.0, 2.0, 0.5, 3.0, 1.0, 1.0])[:, None]
        top = np.array([float(np.sum(np.abs(s[-2:]) ** 2)) for s in states])
        norm_sq = np.sum(np.abs(states) ** 2, axis=1)
        i = np.flatnonzero(top / norm_sq > fock.LEAKAGE_TOL)[0]
        assert 0 < i < len(times) - 1
        with pytest.raises(LeakageTooLarge) as info:
            fock.check_leakage("ansatz state", times, np.abs(states) ** 2)
        msg = str(info.value)
        assert f"keeps {top[i]:.2e} of its population {norm_sq[i]:.2e} " in msg
        assert "top two levels of mode a" in msg
        assert f"t={times[i]:.6g};" in msg

    @pytest.mark.parametrize("top_mode", [0, 1])
    def test_two_mode_rows_are_judged_per_mode(self, top_mode):
        # One mode on its top level, the other in vacuum: the last two
        # entries of the flattened row, |5, 6> and |5, 7>, hold nothing,
        # yet that mode's marginal is all in its top two levels.
        populations = np.zeros((2, 6, 8))
        populations[:, 0, 0] = 1.0
        populations[1, 0, 0] = 0.0
        populations[1, 5, 0] = 1.0 if top_mode == 0 else 0.0
        populations[1, 0, 7] = 1.0 if top_mode == 1 else 0.0
        if top_mode == 0:
            assert not np.any(populations.reshape(2, -1)[:, -2:])
        fock.check_leakage("clean", [0.0], populations[:1])
        with pytest.raises(LeakageTooLarge,
                           match=f"top two levels of mode {'ab'[top_mode]} "
                                 "at t=0.5;"):
            fock.check_leakage("product state", [0.0, 0.5], populations)

    def test_empty_row_fails_without_warning(self):
        populations = np.zeros((3, 10))
        populations[:, 0] = [1.0, 0.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(LeakageTooLarge,
                               match="population 0.00e\\+00 .* at t=0.25;"):
                fock.check_leakage("collapsed", [0.0, 0.25, 0.5], populations)


class TestHeisenbergAgreement:
    def test_linear_drive_quadratures_match_formula(self):
        # Oracle <X(t)>, <P(t)> against the decoupled closed formula.
        g0, cutoff = 0.4, 40
        times = np.linspace(0.0, 2 * np.pi, 9)
        coeffs = gaussian.linear_coefficients(Constant(g0), Constant(g0), times)
        x_ref, p_ref = gaussian.quadrature_expectation(1.0, coeffs)
        a = fock.destroy(cutoff)
        h = fock.number_op(cutoff) + g0 * (a.conj().T + a)
        psi0 = fock.coherent_state(1.0, cutoff)
        states = fock.propagate_state(h, psi0, times)
        x_mat, p_mat = fock.x_op(cutoff), fock.p_op(cutoff)
        for i, psi in enumerate(states):
            assert fock.expectation(x_mat, psi).real == pytest.approx(
                x_ref[i], abs=1e-6
            )
            assert fock.expectation(p_mat, psi).real == pytest.approx(
                p_ref[i], abs=1e-6
            )
