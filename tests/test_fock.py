import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.special import gammaln

from wnd import cli, engine, fock, gaussian, ladder, symplectic
from wnd.errors import LeakageTooLarge, ModeMismatch, NonConvergent, NonHermitian
from wnd.signals import Constant, Sinusoid


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
        defaults = cli.SCENARIO_DEFAULTS[scenario]
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
        build = cli.UNITARY_SCENARIOS[scenario][0]
        derived = fock.oracle_hamiltonian(build(params), cutoff)
        g, lam = self.DRIVES[scenario](params)
        want = _driven_hamiltonian(cutoff, g, lam)
        # Only the driven scenarios need an H per time.
        assert callable(derived) == scenario.endswith(("resonant", "parametric"))
        for t in np.linspace(0.0, params["T"], 23):
            got = derived(t) if callable(derived) else derived
            assert np.max(np.abs(got - want(t))) <= 1e-12


def _image_dense(image):
    """Dense matrix of a FactorImage: its diagonal or band placed at its
    offset, or its CSR matrix densified."""
    if image.offset is None:
        return image.data.toarray()
    return np.diag(image.data, image.offset)


class TestApplyAnsatz:
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
        # The classified images hold the numbers of the dense images, bit
        # for bit.
        images = fock.ansatz_matrices(basis, cutoff)
        for image, elem in zip(images, basis):
            assert np.array_equal(_image_dense(image), fock.to_matrix(elem, cutoff))

    def test_image_kinds(self):
        # A diagonal, one band, or a sparse matrix; two-mode images hold
        # O(dim) numbers, not a dense dim x dim matrix.
        cutoff = (30, 30)
        polys = {text: ladder.parse_polynomial(text, n_modes=2)
                 for text in ("ad*a - bd*b", "a*b", "ad*b + a*bd")}
        images = {text: fock.ansatz_matrices([p], cutoff)[0]
                  for text, p in polys.items()}
        assert images["ad*a - bd*b"].offset == 0
        assert images["a*b"].offset == 32  # lowers n_a*31 + n_b by 32
        assert images["ad*b + a*bd"].offset is None
        assert scipy.sparse.issparse(images["ad*b + a*bd"].data)
        for text, image in images.items():
            assert image.shape == (961, 961)
            np.testing.assert_array_equal(_image_dense(image),
                                          fock.to_matrix(polys[text], cutoff))

    def test_multiband_factor_by_taylor_pieces(self, monkeypatch):
        # A beam-splitter factor of the two-mode closure has two bands, so
        # its CSR image goes through the scaled Taylor step: |F| ||M||_1 >= 20
        # cuts it into at least 20 pieces, and no expm_multiply runs.
        import scipy.sparse.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("expm_multiply called")

        monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", refuse)
        cutoff = (3, 3)
        basis = ladder.close_algebra(
            [ladder.parse_polynomial("ad*b + a*bd", n_modes=2)])
        image = fock.ansatz_matrices(basis, cutoff)[0]
        assert image.offset is None
        dense = image.data.toarray()
        f = 0.5 - 4.2j  # mostly imaginary: |F|, not Re F, sets the pieces
        assert abs(f) * np.max(np.sum(np.abs(dense), axis=0)) >= 20
        rng = np.random.default_rng(11)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        got = fock.apply_ansatz([f], [image], psi)
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
            _cols, min_fid = cli.SCENARIO_RUNNERS[scenario](params)
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
        assert fock.leakage(psi) < 1e-12


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
