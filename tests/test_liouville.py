import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from wnd import engine, fock, ladder, liouville
from wnd.errors import ClosureOverflow, NonConvergent, TraceDrift


class TestVectorization:
    def test_identity_column_stacking(self):
        v = liouville.vectorize(np.eye(2))
        np.testing.assert_array_equal(v, [1.0, 0.0, 0.0, 1.0])

    def test_rank_one_unit_entry(self):
        # |0><1| has its single entry at column-stacked position 2 (dim 2).
        m = np.zeros((2, 2))
        m[0, 1] = 1.0
        v = liouville.vectorize(m)
        np.testing.assert_array_equal(v, [0.0, 0.0, 1.0, 0.0])

    def test_round_trip_exact(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        np.testing.assert_array_equal(
            liouville.devectorize(liouville.vectorize(m)), m
        )

    def test_stack_round_trip_exact(self):
        rng = np.random.default_rng(9)
        mats = rng.normal(size=(2, 4, 3, 3)) + 1j * rng.normal(size=(2, 4, 3, 3))
        stack = np.array([[liouville.vectorize(m) for m in row] for row in mats])
        got = liouville.devectorize(stack)
        np.testing.assert_array_equal(got, mats)
        assert np.shares_memory(got, stack)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            liouville.vectorize(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            liouville.devectorize(np.zeros(5))


class TestKronIdentity:
    def test_identity_triple(self):
        eye = np.eye(3)
        assert liouville.kron_identity_residual(eye, eye, eye) == 0.0

    def test_random_triples(self, rng):
        # This single test pins the stacking convention globally.
        worst = 0.0
        for _ in range(100):
            a, b, c = (
                rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                for _ in range(3)
            )
            worst = max(worst, liouville.kron_identity_residual(a, b, c))
        assert worst <= 1e-13

    def test_ladder_pair(self, rng):
        cutoff = 5
        a = fock.destroy(cutoff)
        b = rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape)
        assert liouville.kron_identity_residual(a, b, a.conj().T) <= 1e-13


class TestLeftRightSuperop:
    """kron(right^T, left) from the nonzero diagonals of the two factors."""

    def test_random_complex_factors(self, rng):
        for n_left, n_right in [(3, 3), (4, 2), (1, 5)]:
            left = rng.normal(size=(n_left,) * 2) + 1j * rng.normal(size=(n_left,) * 2)
            right = rng.normal(size=(n_right,) * 2) + 1j * rng.normal(size=(n_right,) * 2)
            got = liouville.left_right_superop(left, right)
            assert isinstance(got, fock.Bands)
            assert np.array_equal(got.toarray(), np.kron(right.T, left))

    def test_ladder_factors_with_zero_rows(self):
        # a has a zero last row and a' a zero first row, so their diagonals
        # stop short and pairs sharing an offset meet at the block edges.
        cutoff = 6
        a = fock.destroy(cutoff)
        mats = [a, a.conj().T, a @ a, fock.x_op(cutoff), np.eye(cutoff + 1),
                np.zeros((cutoff + 1, cutoff + 1))]
        for left in mats:
            for right in mats:
                got = liouville.left_right_superop(left, right).toarray()
                assert np.array_equal(got, np.kron(right.T, left))


class TestTraceProducts:
    def test_matches_trace_of_product_loop(self, rng):
        # The loop it replaced is the reference: sums now run in another
        # order, so rows agree to a few rounding errors of the result.
        dim, rows = 9, 5
        stack_a, stack_b = (rng.normal(size=(rows, dim, dim))
                            + 1j * rng.normal(size=(rows, dim, dim)) for _ in range(2))
        op = stack_a[0]
        cases = [(stack_a, stack_b, [np.trace(a @ b) for a, b in zip(stack_a, stack_b)]),
                 (op, stack_b, [np.trace(op @ b) for b in stack_b])]
        for a, b, want in cases:
            got = liouville.trace_products(a, b)
            assert got.shape == (rows,)
            scale = np.max(np.abs(a)) * np.max(np.abs(b)) * dim * dim
            assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * scale


class TestBuildLindbladian:
    def test_closed_system_limit(self):
        # h = 0: pure commutator generator; propagation equals U rho U'.
        cutoff = 16
        h = fock.number_op(cutoff)
        gen = liouville.build_lindbladian(h, [])
        psi0 = fock.coherent_state(0.8, cutoff)
        rho0 = np.outer(psi0, psi0.conj())
        traj = liouville.propagate_density(gen, rho0, 2.0, dt=2 / 200,
                                           times=np.linspace(0, 2, 5))
        u = fock.propagate(h, 2.0)
        psi = u @ psi0
        overlap = np.vdot(psi, traj.final @ psi).real
        assert overlap >= 1 - 1e-9

    def test_damped_oscillator_generator(self):
        cutoff = 12
        gen = liouville.build_lindbladian(
            fock.number_op(cutoff), [fock.destroy(cutoff)], [[0.5]]
        )
        # Trace functional annihilates the generator.
        w = liouville.trace_functional(cutoff + 1)
        assert np.max(np.abs(w @ gen)) <= 1e-10

    def test_dephasing_keeps_populations(self):
        cutoff = 12
        h = fock.number_op(cutoff)
        gen = liouville.build_lindbladian(h, [h], [[0.3]])
        psi0 = fock.coherent_state(0.7, cutoff)
        rho0 = np.outer(psi0, psi0.conj())
        times = np.linspace(0.0, 5.0, 6)
        traj = liouville.propagate_density(gen, rho0, 5.0, dt=5 / 500, times=times)
        pops0 = np.diag(rho0).real
        for rho in traj.matrices:
            assert np.max(np.abs(np.diag(rho).real - pops0)) <= 1e-9
        # Coherences do decay.
        assert abs(traj.final[0, 1]) < abs(rho0[0, 1])

    def test_non_psd_rate_matrix_warns(self):
        cutoff = 4
        a = fock.destroy(cutoff)
        with pytest.warns(UserWarning):
            liouville.build_lindbladian(
                fock.number_op(cutoff), [a, a.conj().T],
                [[1.0, 0.0], [0.0, -0.5]],
            )

    def test_rate_matrix_shape_checked(self):
        with pytest.raises(ValueError):
            liouville.build_lindbladian(fock.number_op(3), [fock.destroy(3)],
                                        np.eye(2))

    @pytest.mark.parametrize("h,jump", [
        (fock.number_op(3), fock.destroy(4)),
        (fock.number_op(3), np.ones((3, 3))),
        (np.ones((3, 4)), None),
    ], ids=["jump-cutoff", "jump-3x3", "h-3x4"])
    def test_operator_shapes_checked(self, h, jump):
        # One ValueError naming the shapes, before any band is combined.
        jumps = [] if jump is None else [jump]
        with pytest.raises(ValueError) as info:
            liouville.build_lindbladian(h, jumps)
        msg = str(info.value)
        assert str(h.shape) in msg
        if jump is not None:
            assert str(jump.shape) in msg


# Channel sets (H, jump operators, rates) as ladder polynomials: damping,
# dephasing, and a 2x2 positive definite rate matrix on the jumps a, a'.
CHANNEL_SETS = {
    "damping": (ladder.number(), [ladder.annihilation()], [[0.5]]),
    "dephasing": (ladder.number(), [ladder.number()], [[0.3]]),
    "a-and-ad": (ladder.number(), [ladder.annihilation(), ladder.creation()],
                 [[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]),
}


@pytest.mark.parametrize("channels", list(CHANNEL_SETS))
def test_in_place_build_matches_expression(channels):
    # The generator is accumulated in place; it must equal, bit for bit,
    # the expression it replaced.
    cutoff = 10
    h_poly, jump_polys, rates = CHANNEL_SETS[channels]
    h = fock.to_matrix(h_poly, cutoff)
    jumps = [fock.to_matrix(op, cutoff) for op in jump_polys]
    rates = np.asarray(rates, dtype=complex)
    eye = np.eye(cutoff + 1, dtype=complex)

    def sup(left, right):
        return np.kron(right.T, left)

    want = -1j * (sup(h, eye) - sup(eye, h))
    for n, l_n in enumerate(jumps):
        for m, l_m in enumerate(jumps):
            anti = l_m.conj().T @ l_n
            want += rates[n, m] * (sup(l_n, l_m.conj().T) - 0.5 * sup(anti, eye)
                                   - 0.5 * sup(eye, anti))
    got = liouville.build_lindbladian(h, jumps, rates)
    assert isinstance(got, fock.Bands)
    assert np.array_equal(got.toarray(), want)


class TestLindbladProblem:
    @pytest.mark.parametrize("channels", list(CHANNEL_SETS))
    def test_generator_matches_dense(self, channels):
        # The problem's constant H = sum_j G_j E_j is i L, so -i times its
        # image is the Liouvillian polynomial's image at cutoff (c, c).  A
        # truncated dense product L_m' L_n loses the top level (a a' there
        # is 0, not c + 1), so the dense generator is built one level higher
        # and restricted to levels <= c in both modes, where every entry is
        # the exact one.
        cutoff = 6
        h_poly, jump_polys, rates = CHANNEL_SETS[channels]
        problem = liouville.lindblad_problem(h_poly, jump_polys, rates, 1.0)
        got = -1j * fock.oracle_hamiltonian(problem, (cutoff, cutoff))
        big = cutoff + 1
        dense = liouville.build_lindbladian(
            fock.to_matrix(h_poly, big),
            [fock.to_matrix(op, big) for op in jump_polys], rates).toarray()
        keep = [nb * (big + 1) + na for nb in range(big) for na in range(big)]
        want = dense[np.ix_(keep, keep)]
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))

    def test_damped_cavity_basis_and_signals(self):
        kappa = 0.5
        problem = liouville.lindblad_problem(
            ladder.number(), [ladder.annihilation()], [[kappa]], 5.0)
        assert [e.to_string() for e in problem.basis] == ["bd*b", "ad*a", "a*b"]
        # L = (-i - kappa/2) b'b + (i - kappa/2) a'a + kappa ab, G_j = i c_j.
        want = 1j * np.array([-1j - kappa / 2, 1j - kappa / 2, kappa])
        g = problem.g_vector(0.0)
        assert np.max(np.abs(g - want)) <= 1e-15

    def test_damped_cavity_replay(self):
        # The ordered exponential replayed on vec(rho0) gives rho(t): <a>
        # follows alpha exp[(-i - kappa/2) t], and the density matrices
        # match the Liouville propagation of the dense generator.  The grid
        # is the CLI's: output points clip the engine's steps, and on 11
        # points its rtol of 1e-10 leaves 7e-12 in <a>.
        cutoff, kappa, alpha, t_final = 20, 0.5, 1.0 - 0.5j, 5.0
        times = np.linspace(0.0, t_final, 101)
        problem = liouville.lindblad_problem(
            ladder.number(), [ladder.annihilation()], [[kappa]], t_final)
        traj = engine.integrate(problem, times=times)
        assert np.min(traj.det_ratio) >= 0.999
        psi0 = fock.coherent_state(alpha, cutoff)
        rho0 = np.outer(psi0, psi0.conj())
        mats = fock.ansatz_matrices(traj.basis, (cutoff, cutoff))
        replay = [liouville.devectorize(
            fock.apply_ansatz(traj.values[:, i], mats, liouville.vectorize(rho0)))
            for i in range(len(times))]
        a = fock.destroy(cutoff)
        mean = np.array([np.trace(a @ rho) for rho in replay])
        assert np.max(np.abs(mean - alpha * np.exp((-1j - kappa / 2) * times))) <= 1e-12
        gen = liouville.build_lindbladian(fock.number_op(cutoff), [a], [[kappa]])
        ref = liouville.propagate_density(gen, rho0, t_final, dt=t_final / 400,
                                          times=times)
        assert np.max(np.abs(np.array(replay) - ref.matrices)) <= 1e-12


class TestPropagateDensity:
    def test_damped_amplitude_decay(self):
        cutoff = 30
        kappa = 0.5
        h = fock.number_op(cutoff)
        a = fock.destroy(cutoff)
        gen = liouville.build_lindbladian(h, [a], [[kappa]])
        psi0 = fock.coherent_state(1.0, cutoff)
        rho0 = np.outer(psi0, psi0.conj())
        times = np.linspace(0.0, 5.0, 11)
        traj = liouville.propagate_density(gen, rho0, 5.0, dt=5 / 400, times=times)
        ref = liouville.propagate_density(gen, rho0, 5.0, dt=5 / 400 / 16,
                                          times=times)
        a_mean = traj.expectation(a)
        np.testing.assert_allclose(a_mean, ref.expectation(a), atol=1e-6)
        np.testing.assert_allclose(
            a_mean, np.exp((-1j - kappa / 2) * times), atol=1e-6
        )
        assert traj.trace_drift <= 1e-9

    def test_constant_generator_one_pass(self, monkeypatch):
        # A matrix L is constant, so each output interval is one exact
        # Taylor step whatever dt is, in one pass, and halving dt moves no
        # row.
        cutoff, kappa, t_final = 16, 0.5, 5.0
        gen = liouville.build_lindbladian(
            fock.number_op(cutoff), [fock.destroy(cutoff)], [[kappa]])
        rho0 = _coherent_density(1.0, cutoff)
        times = np.linspace(0.0, t_final, 11)
        dt = t_final / 400
        steps = []
        real = fock._taylor_step
        monkeypatch.setattr(fock, "_taylor_step",
                            lambda *a: steps.append(1) or real(*a))
        once = liouville.propagate_density(gen, rho0, t_final, dt=dt, times=times)
        assert len(steps) == len(times) - 1
        half = liouville.propagate_density(gen, rho0, t_final, dt=dt / 2,
                                           times=times)
        assert len(steps) == 2 * (len(times) - 1)
        assert np.array_equal(once.matrices, half.matrices)

    def test_driven_damped_cavity_matches_closed_form(self, monkeypatch):
        # H = N + g(t) (a + a'), g(t) = g0 cos(w t), jump a at rate kappa:
        # <a>' = -lam <a> - i g(t) with lam = i + kappa/2, so
        # <a>(t) = exp(-lam t) (alpha - i int_0^t exp(lam s) g(s) ds).  The
        # CFM4 sub-step settles in two passes at trace_tol 1e-9.
        cutoff, alpha, kappa, g0, w, t_final = 16, 0.8, 0.5, 0.3, 1.3, 3.0
        a = fock.destroy(cutoff)
        free = liouville.build_lindbladian(fock.number_op(cutoff), [a], [[kappa]])
        drive = liouville.build_lindbladian(a + a.conj().T, [])

        def gen(t):
            return free + g0 * np.cos(w * t) * drive

        # A pass of the oracle driver starts where the sub-step midpoint
        # steps back.
        passes = []
        real = fock._stepped

        def counted(*args, **kwargs):
            step = args[7]

            def counted_step(*step_args):
                t_mid = step_args[-1]
                if not passes or t_mid < passes[-1]:
                    passes.append(t_mid)
                passes[-1] = t_mid
                return step(*step_args)

            return real(*args[:7], counted_step, *args[8:], **kwargs)

        monkeypatch.setattr(fock, "_stepped", counted)
        times = np.linspace(0.0, t_final, 7)
        traj = liouville.propagate_density(
            gen, _coherent_density(alpha, cutoff), t_final, dt=t_final / 100,
            times=times, trace_tol=1e-9)
        assert len(passes) <= 2
        lam = 1j + kappa / 2
        drive_integral = g0 * (np.exp(lam * times) * (lam * np.cos(w * times)
                                                      + w * np.sin(w * times))
                               - lam) / (lam ** 2 + w ** 2)
        want = np.exp(-lam * times) * (alpha - 1j * drive_integral)
        assert np.max(np.abs(traj.expectation(a) - want)) <= 1e-9

    @staticmethod
    def _driven_cavity(cutoff, kappa):
        """L(t) of H = N + 0.3 cos(1.3 t)(a + a') with jump a at ``kappa``
        (no jump when ``kappa`` is None)."""
        a = fock.destroy(cutoff)
        jumps = [] if kappa is None else [a]
        rates = None if kappa is None else [[kappa]]
        free = liouville.build_lindbladian(fock.number_op(cutoff), jumps, rates)
        drive = liouville.build_lindbladian(a + a.conj().T, [])
        return lambda t: free + 0.3 * np.cos(1.3 * t) * drive

    @pytest.mark.parametrize("dt", [-0.5, 0.0, np.nan, np.inf],
                             ids=["negative", "zero", "nan", "inf"])
    def test_bad_dt_rejected(self, dt):
        # A negative dt took one sub-step per interval in every pass, so the
        # passes agreed and the refinement stopped on rows 4.8e-4 off.
        gen = self._driven_cavity(12, 0.5)
        with pytest.raises(ValueError, match="dt must be"):
            liouville.propagate_density(gen, _coherent_density(0.5, 12), 3.0,
                                        dt=dt, times=np.linspace(0.0, 3.0, 4))

    def test_nan_grid_time_rejected(self):
        gen = self._driven_cavity(12, 0.5)
        with pytest.raises(ValueError, match="finite"):
            liouville.propagate_density(gen, _coherent_density(0.5, 12), 1.0,
                                        times=[0.0, np.nan, 1.0])

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_driven_density_matches_state_oracle(self, tol):
        # Without jumps L(t) moves rho as U rho U', and both oracles take
        # the same CFM4 sub-steps and refinement passes from the one driver,
        # so the density rows are the outer products of the state rows.
        cutoff, alpha, t_final = 16, 0.8, 3.0
        a = fock.destroy(cutoff)
        h_free, h_drive = fock.number_op(cutoff), a + a.conj().T
        psi0 = fock.coherent_state(alpha, cutoff)
        times = np.linspace(0.0, t_final, 7)
        states = fock.propagate_state(
            lambda t: h_free + 0.3 * np.cos(1.3 * t) * h_drive, psi0, times,
            dt=t_final / 100, drift_tol=tol)
        traj = liouville.propagate_density(
            self._driven_cavity(cutoff, None), np.outer(psi0, psi0.conj()),
            t_final, dt=t_final / 100, times=times, trace_tol=tol)
        want = np.einsum("ti,tj->tij", states, states.conj())
        assert np.max(np.abs(traj.matrices - want)) <= 1e-13

    def test_grid_past_span_rejected(self):
        gen = liouville.build_lindbladian(fock.number_op(4), [fock.destroy(4)],
                                          [[0.5]])
        rho0 = _coherent_density(0.5, 4)
        with pytest.raises(ValueError, match="exceeds the span"):
            liouville.propagate_density(gen, rho0, 1.0,
                                        times=np.linspace(0.0, 5.0, 6))
        short = liouville.propagate_density(gen, rho0, 1.0,
                                            times=np.linspace(0.0, 0.5, 3))
        assert short.times[-1] == 0.5

    def test_zero_rate_matches_unitary(self):
        cutoff = 14
        h = fock.number_op(cutoff)
        a = fock.destroy(cutoff)
        gen = liouville.build_lindbladian(h, [a], [[0.0]])
        psi0 = fock.coherent_state(0.6, cutoff)
        rho0 = np.outer(psi0, psi0.conj())
        traj = liouville.propagate_density(gen, rho0, 1.5, dt=1.5 / 150,
                                           times=np.linspace(0, 1.5, 4))
        psi = fock.propagate(h, 1.5) @ psi0
        assert np.vdot(psi, traj.final @ psi).real >= 1 - 1e-9

    def test_zero_temperature_fixed_point(self):
        # Populations drain to vacuum: <n>(5/kappa) <= 1e-2.
        cutoff = 16
        kappa = 0.5
        t_final = 5.0 / kappa
        h = fock.number_op(cutoff)
        a = fock.destroy(cutoff)
        gen = liouville.build_lindbladian(h, [a], [[kappa]])
        psi0 = fock.coherent_state(1.0, cutoff)
        rho0 = np.outer(psi0, psi0.conj())
        traj = liouville.propagate_density(gen, rho0, t_final, dt=t_final / 500,
                                           times=np.linspace(0, t_final, 3))
        n_final = np.trace(h @ traj.final).real
        assert n_final <= 1e-2

    def test_positivity_and_hermiticity(self):
        cutoff = 16
        gen = liouville.build_lindbladian(
            fock.number_op(cutoff), [fock.destroy(cutoff)], [[0.4]]
        )
        psi0 = fock.coherent_state(0.9, cutoff)
        rho0 = np.outer(psi0, psi0.conj())
        traj = liouville.propagate_density(gen, rho0, 3.0, dt=3 / 300,
                                           times=np.linspace(0, 3, 7))
        for rho in traj.matrices:
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-8
        assert traj.hermiticity_drift <= 1e-9

    def test_initial_state_validation(self):
        gen = liouville.build_lindbladian(fock.number_op(3), [])
        bad_trace = np.eye(4, dtype=complex)
        with pytest.raises(ValueError):
            liouville.propagate_density(gen, bad_trace, 1.0, dt=1e-2)
        non_psd = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            liouville.propagate_density(gen, non_psd, 1.0, dt=1e-2)

    def test_trace_drift_detected(self):
        # A non-trace-preserving generator trips the drift guard.
        dim = 4
        bogus = 0.05 * np.eye(dim * dim, dtype=complex)
        rho0 = np.zeros((dim, dim), dtype=complex)
        rho0[0, 0] = 1.0
        with pytest.raises(TraceDrift):
            liouville.propagate_density(bogus, rho0, 20.0, dt=0.2,
                                        times=np.linspace(0, 20, 5))


def _coherent_density(alpha, cutoff):
    psi = fock.coherent_state(alpha, cutoff, leakage_tol=1e-2)
    return np.outer(psi, psi.conj())


class TestTaylorStep:
    """Each step applies exp(L dt) to vec(rho) by the oracle's scaled Taylor
    series through the banded generator; no dense exponential is formed."""

    def test_no_dense_exponential(self, monkeypatch):
        calls = []

        def counted(real):
            def wrapper(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)
            return wrapper

        for mod, name in [(scipy.linalg, "expm"), (scipy.sparse.linalg, "expm"),
                          (scipy.sparse.linalg, "expm_multiply")]:
            monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
        cutoff = 8
        gen = liouville.build_lindbladian(
            fock.number_op(cutoff), [fock.destroy(cutoff)], [[0.5]]
        )
        rho0 = _coherent_density(0.7, cutoff)
        times = np.linspace(0.0, 1.0, 3)
        for generator in (gen, lambda t: gen):
            liouville.propagate_density(generator, rho0, 1.0, dt=0.01, times=times)
        assert calls == []

    def test_large_norm_step_matches_expm(self):
        # dt ||L||_1 ~ 16 per step: each step is cut into that many pieces,
        # and 100 exact steps of a constant generator compose to exp(L T).
        cutoff, t_final = 10, 2.0
        gen = liouville.build_lindbladian(
            80.0 * fock.number_op(cutoff), [fock.destroy(cutoff)], [[0.2]]
        )
        dense = gen.toarray()
        dt = t_final / 100
        assert dt * np.max(np.sum(np.abs(dense), axis=0)) > 10
        rho0 = _coherent_density(0.8, cutoff)
        traj = liouville.propagate_density(gen, rho0, t_final, dt=dt,
                                           times=[0.0, t_final])
        want = scipy.linalg.expm(dense * t_final) @ liouville.vectorize(rho0)
        assert np.max(np.abs(traj.final - liouville.devectorize(want))) <= 1e-12

    @pytest.mark.parametrize("callable_gen", [False, True], ids=["matrix", "callable"])
    def test_nan_generator_hits_term_cap(self, callable_gen):
        cutoff = 4
        gen = liouville.build_lindbladian(
            fock.number_op(cutoff), [fock.destroy(cutoff)], [[0.5]]
        ).toarray()
        gen[3, 7] = np.nan
        rho0 = _coherent_density(0.5, cutoff)
        generator = (lambda t: gen) if callable_gen else gen
        with pytest.raises(NonConvergent):
            liouville.propagate_density(generator, rho0, 1.0, dt=0.01)

    def test_callable_dephasing_matches_closed_form(self):
        # H = N, jump N at rate gamma(t) = g0 (1 + sin t): every |m><n|
        # evolves on its own, rho_mn(t) = rho_mn(0)
        # exp(-i (m-n) t - (m-n)^2/2 * g0 (t + 1 - cos t)).
        cutoff, g0, t_final, tol = 6, 0.3, 3.0, 1e-7
        n_op = fock.number_op(cutoff)
        unitary = liouville.build_lindbladian(n_op, [])
        dephasing = liouville.build_lindbladian(np.zeros_like(n_op), [n_op])

        def gen(t):
            return unitary + g0 * (1 + np.sin(t)) * dephasing

        rho0 = _coherent_density(0.8, cutoff)
        times = np.linspace(0.0, t_final, 7)
        traj = liouville.propagate_density(gen, rho0, t_final, dt=t_final / 300,
                                           times=times, trace_tol=tol)
        m = np.arange(cutoff + 1)
        diff = m[:, None] - m[None, :]
        for t, rho in zip(times, traj.matrices):
            rate_integral = g0 * (t + 1 - np.cos(t))
            want = rho0 * np.exp(-1j * diff * t - diff ** 2 / 2 * rate_integral)
            assert np.max(np.abs(rho - want)) <= tol

    def test_constant_callable_matches_matrix(self):
        cutoff = 8
        gen = liouville.build_lindbladian(
            fock.number_op(cutoff), [fock.destroy(cutoff)], [[0.4]]
        )
        rho0 = _coherent_density(0.9, cutoff)
        times = np.linspace(0.0, 2.0, 5)
        static = liouville.propagate_density(gen, rho0, 2.0, dt=0.02, times=times)
        called = liouville.propagate_density(lambda t: gen, rho0, 2.0, dt=0.02,
                                             times=times)
        assert np.max(np.abs(static.matrices - called.matrices)) <= 1e-12


def _band_generators():
    """(id, H, jumps, rates) at cutoffs 10 and 30: the channel sets, whose
    a-and-ad generator has diagonals on both sides, and a driven damped
    cavity, N + g (a + a') with jump a."""
    cases = []
    for cutoff in (10, 30):
        for name, (h_poly, jump_polys, rates) in CHANNEL_SETS.items():
            cases.append((f"{name}-{cutoff}", fock.to_matrix(h_poly, cutoff),
                          [fock.to_matrix(op, cutoff) for op in jump_polys], rates))
        a = fock.destroy(cutoff)
        h = fock.number_op(cutoff) + 0.3 * (a + a.conj().T)
        cases.append((f"driven-{cutoff}", h, [a], [[0.5]]))
    return cases


class TestBandedGenerator:
    """The banded Lindbladian is stepped as i L in its bands, with ||L||_1
    from its column sums."""

    @pytest.mark.parametrize("case", _band_generators(), ids=lambda c: c[0])
    def test_band_product_is_csr_product(self, case, rng):
        # The band product replaced a CSR product of the same matrix; they
        # agree to roundoff, not bit for bit (numpy may fuse the complex
        # multiply-add, scipy's CSR kernel does not).
        _, h, jumps, rates = case
        gen = liouville.build_lindbladian(h, jumps, rates)
        op = liouville._taylor_generator(gen)
        assert isinstance(op, fock.Bands)
        assert np.array_equal(op.toarray(), 1j * gen.toarray())
        assert op.norm1() == np.max(np.sum(np.abs(gen.toarray()), axis=0))
        csr = scipy.sparse.csr_matrix(op.toarray())
        dim = op.shape[0]
        for shape in [(dim,), (dim, 3)]:
            x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            want = csr @ x
            assert np.linalg.norm(op @ x - want) <= 1e-15 * np.linalg.norm(want)

    def test_dense_and_sparse_generators_agree(self):
        cutoff = 8
        a = fock.destroy(cutoff)
        gen = liouville.build_lindbladian(
            fock.number_op(cutoff) + 0.3 * (a + a.conj().T), [a, a.conj().T],
            [[0.4, 0.1j], [-0.1j, 0.2]])
        rho0 = _coherent_density(0.6, cutoff)
        times = np.linspace(0.0, 1.0, 3)
        sparse = liouville.propagate_density(gen, rho0, 1.0, dt=0.01, times=times)
        dense = liouville.propagate_density(gen.toarray(), rho0, 1.0, dt=0.01,
                                            times=times)
        assert np.array_equal(sparse.matrices, dense.matrices)

    def test_dense_generator_is_read_on_a_copy(self, rng):
        # A dense generator is taken through its nonzero diagonals; i L is
        # formed on copies, and the caller's matrix is left as it was.
        gen = np.array([[0, 1 + 2j, 0], [0, 0, 0], [0.5, 0, -0.25]])
        kept = gen.copy()
        op = liouville._taylor_generator(gen)
        assert list(op.bands) == [-2, 0, 1]
        assert np.array_equal(op.toarray(), 1j * gen)
        assert op.norm1() == abs(1 + 2j)
        vec = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert np.linalg.norm(op @ vec - 1j * gen @ vec) <= 1e-15 * np.linalg.norm(vec)
        op.bands[0] *= 3
        assert np.array_equal(gen, kept)

    @pytest.mark.parametrize("callable_gen", [False, True], ids=["matrix", "callable"])
    def test_other_generator_forms_rejected(self, callable_gen):
        # A Bands, a dense matrix or a callable returning either; a scipy
        # sparse matrix is none of them.
        cutoff = 4
        gen = scipy.sparse.csr_matrix(liouville.build_lindbladian(
            fock.number_op(cutoff), [fock.destroy(cutoff)], [[0.5]]).toarray())
        rho0 = _coherent_density(0.5, cutoff)
        generator = (lambda t: gen) if callable_gen else gen
        with pytest.raises(TypeError, match="fock.Bands, a dense matrix"):
            liouville.propagate_density(generator, rho0, 1.0, dt=0.01)

    def test_large_cutoff_memory(self):
        # One dense 3721^2 complex generator is 221 MB; the banded build and
        # a one-interval propagation stay far below it.
        cutoff = 60
        rho0 = _coherent_density(1.0, cutoff)
        tracemalloc.start()
        try:
            gen = liouville.build_lindbladian(
                fock.number_op(cutoff), [fock.destroy(cutoff)], [[0.5]])
            liouville.propagate_density(gen, rho0, 0.1, dt=0.001,
                                        times=[0.0, 0.1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestSuperalgebraClosure:
    def test_free_hamiltonian_single_damping(self):
        basis = liouville.superalgebra_closure(
            ladder.number(), [ladder.annihilation()]
        )
        assert len(basis) <= 10
        assert len(basis) == 3  # two number operators plus the cross term

    def test_weak_jump_keeps_sandwich_term(self):
        basis = liouville.superalgebra_closure(
            ladder.number(), [1e-6 * ladder.annihilation()]
        )
        a_b = ladder.annihilation(0, 2) * ladder.annihilation(1, 2)
        assert len(basis) == 3
        assert not ladder.is_independent(a_b, basis.elements)

    def test_quadratic_hamiltonian_still_finite(self):
        a, ad = ladder.annihilation(), ladder.creation()
        h = ladder.number() + 0.2 * (ad * ad) + 0.2 * (a * a)
        basis = liouville.superalgebra_closure(h, [ladder.annihilation()],
                                               max_dim=24)
        assert len(basis) <= 24
        consts = ladder.structure_constants(basis)
        assert ladder.jacobi_residual(consts) <= 1e-10

    def test_no_jump_operators_two_commuting_copies(self):
        h = ladder.number()
        basis = liouville.superalgebra_closure(h, [])
        assert len(basis) == 2
        assert ladder.commutator(basis[0], basis[1]).is_zero

    def test_matrix_representation_consistency(self):
        # The doubled polynomial reproduces the kron superoperator matrix,
        # including asymmetric left/right pairs.
        cutoff = 4
        a, ad = ladder.annihilation(), ladder.creation()
        am = fock.destroy(cutoff)
        cases = [
            (a, ad, am, am.conj().T),
            (a, ladder.identity(), am, np.eye(cutoff + 1)),
            (ladder.number(), ad * a, am.conj().T @ am, am.conj().T @ am),
        ]
        for left, right, lmat, rmat in cases:
            doubled = liouville.superop_polynomial(left, right)
            img = fock.to_matrix(doubled, cutoff)
            np.testing.assert_allclose(
                img, liouville.left_right_superop(lmat, rmat).toarray(), atol=1e-12
            )

    def test_overflow_guard(self):
        a, ad = ladder.annihilation(), ladder.creation()
        cubic = ad * ad * ad + a * a
        with pytest.raises(ClosureOverflow):
            liouville.superalgebra_closure(cubic, [ladder.annihilation()],
                                           max_dim=12)
