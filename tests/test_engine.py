import numpy as np
import pytest
import scipy.linalg

from wnd import engine, fock, gaussian, ladder, liouville, symplectic
from wnd.engine import DecouplingProblem, integrate, xi_matrix
from wnd.errors import NonFinite, StepUnderflow, WndError, XiSingular
from wnd.ladder import LieBasis, structure_constants
from wnd.signals import Constant, Hook, Sinusoid


class TestXiMatrix:
    def test_identity_at_zero_for_every_algebra(self):
        for basis in (gaussian.linear_basis(), gaussian.su11_basis(),
                      gaussian.combined_basis()):
            c = structure_constants(basis)
            xi = xi_matrix(c, np.zeros(len(basis)))
            assert np.max(np.abs(xi - np.eye(len(basis)))) <= 1e-14

    def test_abelian_always_identity(self):
        basis = LieBasis([ladder.identity(), ladder.number()])
        c = structure_constants(basis)
        xi = xi_matrix(c, np.array([0.3 + 1j, -2.0]))
        np.testing.assert_array_equal(xi, np.eye(2))

    def test_linear_algebra_column_structure(self):
        # Column of a: e^{i F0} on a plus i F+ on the identity.
        basis = gaussian.linear_basis()  # (a'a, a', a, 1)
        c = structure_constants(basis)
        f0, f_plus = 0.4, 0.2 - 0.1j
        xi = xi_matrix(c, np.array([f0, f_plus, 0.0, 0.0]))
        col = xi[:, 2]
        np.testing.assert_allclose(
            col, [0.0, 0.0, np.exp(1j * f0), 1j * f_plus], atol=1e-14
        )


def _xi_reference(adjoints, f):
    """Xi column by column from scipy.linalg.expm of the adjoint matrices."""
    n = len(f)
    xi = np.empty((n, n), dtype=complex)
    left = np.eye(n, dtype=complex)
    for j in range(n):
        xi[:, j] = left[:, j]
        left = left @ scipy.linalg.expm(-1j * f[j] * adjoints[j])
    return xi


GAUSSIAN_BASES = {
    "linear": gaussian.linear_basis(),
    "su11": gaussian.su11_basis(),
    "combined": gaussian.combined_basis(),
    "two-mode": ladder.close_algebra([ladder.parse_polynomial(g, n_modes=2)
                                      for g in ("ad*b + a*bd", "ad*a")]),
}


class TestXiTable:
    @pytest.mark.parametrize("name", list(GAUSSIAN_BASES))
    def test_matches_expm_reference(self, name):
        basis = GAUSSIAN_BASES[name]
        prob = DecouplingProblem(basis, [Constant(1.0)], 1.0)
        rng = np.random.default_rng(11)
        fs = 0.8 * (rng.normal(size=(6, len(basis)))
                    + 1j * rng.normal(size=(6, len(basis))))
        refs = np.array([_xi_reference(prob.adjoints, f) for f in fs])
        for f, ref in zip(fs, refs):
            np.testing.assert_allclose(prob.xi(f), ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(xi_matrix(prob.structure, f), ref,
                                       rtol=0, atol=1e-12)
        # A stack of coefficient vectors gives the stack of matrices.
        np.testing.assert_allclose(prob.xi(fs), refs, rtol=0, atol=1e-12)

    def test_gaussian_integrate_never_calls_matrix_exp(self, monkeypatch):
        # Every Gaussian adjoint is nilpotent or diagonalisable, so Xi never
        # takes the scipy.linalg.expm fallback.
        calls = []
        real = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm",
                            lambda a: calls.append(a) or real(a))
        sig = Sinusoid(0.2, 1.0, 0.3)
        integrate(gaussian.linear_problem(sig, sig, 3.0), n_out=31)
        gaussian.quadratic_coefficients(sig, sig, 3.0, n_out=31)
        gaussian.gaussian_combined(sig, sig, sig, sig, 3.0, n_out=31)
        assert calls == []

    def test_batched_det_ratio_matches_per_point(self):
        sig = Sinusoid(0.3, 2.0, 0.1)
        prob = DecouplingProblem(
            gaussian.combined_basis(),
            [Constant(0.2), Constant(2.0), Constant(0.2), sig, sig, Constant(-0.5)],
            2.0,
        )
        traj = integrate(prob, n_out=41)
        per_point = [float(engine._det_ratio(prob.xi(traj.values[:, i])))
                     for i in range(len(traj.times))]
        np.testing.assert_array_equal(traj.det_ratio, per_point)

    def test_det_ratio_edge_matrices_match_the_stack(self):
        # The one-matrix path agrees with its row of a stack at the edges
        # too: a zero row (bound 0), an overflowing or non-finite bound
        # (ratio 0), and a singular matrix of finite bound (ratio 0 from
        # the determinant).
        rng = np.random.default_rng(29)
        mats = rng.normal(size=(6, 5, 5)) + 1j * rng.normal(size=(6, 5, 5))
        mats[1, 2] = 0.0
        mats[2] *= 1e300
        mats[3, 0, 0] = np.nan
        mats[4, 4] = mats[4, 3]
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = engine._det_ratio(mats)
            single = [engine._det_ratio(m) for m in mats]
        np.testing.assert_array_equal(stacked, single)
        assert list(stacked[1:4]) == [0.0, 0.0, 0.0]
        assert 0.0 < stacked[0] <= 1.0 and stacked[4] < 1e-12

    def test_series_fallback_for_defective_adjoint(self, monkeypatch):
        # M_0 = 0.7 I + J (a 2x2 Jordan block beside a zero row): neither
        # nilpotent nor diagonalisable, so it takes scipy.linalg.expm per
        # call.  The references are computed before the patch, so only the
        # engine's calls are counted.
        m0 = np.array([[0.7, 1.0, 0.0], [0.0, 0.7, 0.0], [0.0, 0.0, 0.0]])
        m1 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        c = np.zeros((3, 3, 3), dtype=complex)
        c[0], c[1] = m0.T, m1.T
        assert engine._factor_terms(m0) is None
        rng = np.random.default_rng(5)
        fs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(4)]
        refs = [_xi_reference([m0, m1, c[2].T], f) for f in fs]
        calls = []
        real = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm",
                            lambda a: calls.append(a) or real(a))
        for f, ref in zip(fs, refs):
            np.testing.assert_allclose(xi_matrix(c, f), ref, rtol=0, atol=1e-12)
        assert len(calls) == 4


class TestDecouplingRhs:
    def test_linear_algebra_closed_form(self):
        prob = gaussian.linear_problem(Hook(lambda t: 0.3 * np.exp(1j * t)),
                                       Constant(0.1), 2.0)
        t = 0.9
        f = np.array([t, 0.2 + 0.1j, -0.05j, 0.0])
        rhs = prob.rhs(t, f)
        g_plus = 0.3 * np.exp(1j * t)
        assert rhs[0] == pytest.approx(1.0)
        assert rhs[1] == pytest.approx(g_plus * np.exp(1j * t), abs=1e-12)
        assert rhs[2] == pytest.approx(0.1 * np.exp(-1j * t), abs=1e-12)

    def test_zero_coefficients_give_g0(self):
        prob = gaussian.linear_problem(Sinusoid(0.4, 1.0, 0.2), Constant(0.6), 1.0)
        rhs = prob.rhs(0.0, np.zeros(4, dtype=complex))
        np.testing.assert_allclose(rhs, prob.g_vector(0.0), atol=1e-14)

    def test_su11_matches_spelled_out_rhs(self):
        lam_p, lam_m = 0.17, 0.23
        prob = DecouplingProblem(
            gaussian.su11_basis(include_identity=False),
            [Constant(2 * lam_p), Constant(2.0), Constant(2 * lam_m)],
            4.0,
        )
        xi = np.array([0.1 + 0.2j, 0.3 - 0.1j, -0.2 + 0.05j])
        np.testing.assert_allclose(
            prob.rhs(1.0, xi), gaussian.su11_rhs(lam_p, lam_m, xi), atol=1e-11
        )


class TestIntegrate:
    def test_linear_constant_drive_closed_form(self):
        g0 = 0.5
        times = np.linspace(0.0, 4 * np.pi, 161)
        prob = gaussian.linear_problem(Constant(g0), Constant(g0), 4 * np.pi)
        traj = integrate(prob, rtol=1e-10, atol=1e-12, times=times)
        closed = g0 * (1j - 1j * np.cos(times) + np.sin(times))
        assert np.max(np.abs(traj.values[1] - closed)) <= 1e-8
        assert np.max(np.abs(traj.values[0] - times)) <= 1e-10

    def test_free_term_only(self):
        prob = gaussian.linear_problem(Constant(0.0), Constant(0.0), 3.0)
        traj = integrate(prob, n_out=31)
        np.testing.assert_allclose(traj.values[0], traj.times, atol=1e-12)
        assert np.max(np.abs(traj.values[1:])) <= 1e-12

    def test_resonant_drive_linear_growth(self):
        g0 = 0.2
        prob = gaussian.linear_problem(
            Sinusoid(g0, 1.0, 0.0), Sinusoid(g0, 1.0, 0.0), np.pi
        )
        traj = integrate(prob, times=np.linspace(0, np.pi, 33))
        assert abs(traj.values[2][-1] - g0 * np.pi / 2) <= 1e-8

    def test_initial_condition_exact(self):
        prob = gaussian.linear_problem(Constant(0.1), Constant(0.1), 1.0)
        traj = integrate(prob, n_out=11)
        assert np.all(traj.values[:, 0] == 0.0)

    def test_hermitian_pairing(self):
        sig = Sinusoid(0.3, 1.0, 0.7)
        prob = gaussian.linear_problem(sig, sig, 6.0)
        traj = integrate(prob, n_out=61)
        assert np.max(np.abs(traj.values[2] - np.conj(traj.values[1]))) <= 1e-9

    def test_tolerance_halving_convergence(self):
        sig = Sinusoid(0.25, 1.0, 0.0)
        prob = gaussian.linear_problem(sig, sig, 5.0)
        rtol, atol = 2e-8, 2e-10
        coarse = integrate(prob, rtol=rtol, atol=atol, n_out=11)
        fine = integrate(prob, rtol=rtol / 2, atol=atol / 2, n_out=11)
        diff = np.max(np.abs(coarse.final - fine.final))
        scale = max(1.0, float(np.max(np.abs(fine.final))))
        assert diff < 10 * (rtol * scale + atol)

    def test_su11_cross_module(self):
        # Generic engine on the K-basis agrees with the specialised solver.
        lam = 0.2
        times = np.linspace(0.0, 2.0, 21)
        spec = gaussian.quadratic_coefficients(Constant(lam), Constant(lam), 2.0,
                                               times=times)
        prob = DecouplingProblem(
            gaussian.su11_basis(include_identity=False),
            [Constant(2 * lam), Constant(2.0), Constant(2 * lam)],
            2.0,
        )
        raw = integrate(prob, times=times)
        assert np.max(np.abs(raw.values[0] - spec.xi_plus)) <= 1e-8
        assert np.max(np.abs(raw.values[1] - spec.xi_zero)) <= 1e-8

    def test_oracle_consistency(self):
        # Ansatz from an integrated trajectory reproduces the brute-force
        # propagator on a coherent state.
        g0 = 0.3
        cutoff = 30
        t_final = 2.5
        sig = Sinusoid(g0, 1.0, 0.3)
        prob = gaussian.linear_problem(sig, sig, t_final)
        traj = integrate(prob, times=np.linspace(0, t_final, 6))
        a = fock.destroy(cutoff)
        h_free, h_drive = fock.number_op(cutoff), a.conj().T + a
        h = lambda t: h_free + complex(sig(t)).real * h_drive
        psi0 = fock.coherent_state(1.0, cutoff)
        oracle = fock.propagate_state(h, psi0, traj.times, dt=t_final / 300,
                                      drift_tol=1e-8)
        ansatz = fock.ansatz_state(traj, cutoff, psi0)
        assert fock.fidelity(ansatz, oracle[-1]) >= 1 - 1e-8

    def test_det_ratio_recorded(self):
        prob = gaussian.linear_problem(Constant(0.2), Constant(0.2), 2.0)
        traj = integrate(prob, n_out=21)
        assert traj.det_ratio.shape == traj.times.shape
        assert traj.det_ratio[0] == pytest.approx(1.0)
        assert np.all(traj.det_ratio > 0.1)

    def test_xi_singular_raised_with_time(self):
        # Strong constant squeezing degenerates the transfer matrix at
        # finite time (|det Xi| decays like exp(-4 Gamma t)).
        lam = 1.0
        prob = DecouplingProblem(
            gaussian.su11_basis(include_identity=False),
            [Constant(2 * lam), Constant(2.0), Constant(2 * lam)],
            30.0,
        )
        with pytest.raises(XiSingular) as err:
            integrate(prob, n_out=301)
        assert 0.0 < err.value.time < 30.0

    def test_step_underflow_on_singular_signal(self):
        # Driving signal diverging inside the span defeats step control.
        prob = gaussian.linear_problem(
            Hook(lambda t: np.tan(t)), Hook(lambda t: np.tan(t)), 2.0
        )
        with pytest.raises((StepUnderflow, XiSingular)):
            integrate(prob, n_out=41)

    def test_non_finite_drive_raises_typed_error(self):
        prob = gaussian.linear_problem(
            Hook(lambda t: np.nan if t > 0.5 else 0.1), Constant(0.1), 2.0
        )
        with pytest.raises(NonFinite) as err:
            integrate(prob, n_out=21)
        assert isinstance(err.value, WndError)
        assert isinstance(err.value, ValueError)
        assert 0.5 < err.value.time <= 0.7

    def test_dense_output_matches_closed_form(self):
        # 401 rows from far fewer steps: most rows are interpolated.
        sig = Sinusoid(0.4, 1.3, 0.7)
        times = np.linspace(0.0, 8.0, 401)
        traj = integrate(gaussian.linear_problem(sig, sig, 8.0), times=times)
        exact = gaussian.linear_coefficients(sig, sig, times)
        assert traj.accepted < len(times) // 4
        assert np.max(np.abs(traj.values[0] - times)) <= 1e-9
        assert np.max(np.abs(traj.values[1] - exact.f_plus)) <= 1e-9
        assert np.max(np.abs(traj.values[2] - exact.f_minus)) <= 1e-9
        assert np.array_equal(traj.times, times)

    def test_steps_are_not_clipped_to_the_grid(self):
        from wnd import cli

        params = dict(cli.SCENARIOS["quadratic-constant"][0])
        problem = cli.SCENARIOS["quadratic-constant"][1](params)
        times = np.linspace(0.0, params["T"], 401)
        traj = integrate(problem, times=times)
        assert traj.accepted < len(times)

    def test_floor_crossed_between_rhs_points_raises_at_output_time(
            self, monkeypatch):
        # |det Xi| is cut to 0 within 1e-7 of F0 = t_dip, an output time.
        # F0 = t, and no RHS point comes that close to t_dip, so only the
        # check at the output points can see the dip.
        times = np.linspace(0.0, 3.0, 31)
        t_dip = times[23]
        real = engine._det_ratio
        seen_by_rhs = []

        def dipped(xi):
            # Column 2 of the linear algebra's Xi holds e^{i F0} at row 2.
            near = np.abs(np.angle(xi[..., 2, 2]) - t_dip) < 1e-7
            if np.ndim(xi) == 2:
                seen_by_rhs.append(bool(near))
            return np.where(near, 0.0, real(xi))

        monkeypatch.setattr(engine, "_det_ratio", dipped)
        sig = Sinusoid(0.3, 1.0, 0.2)
        with pytest.raises(XiSingular) as err:
            integrate(gaussian.linear_problem(sig, sig, 3.0), times=times)
        assert err.value.time == t_dip
        assert err.value.det_ratio == 0.0
        assert seen_by_rhs and not any(seen_by_rhs)

    def test_dp5_stays_the_phase_space_reference(self, monkeypatch):
        # The symplectic reference steps with the batched Dormand-Prince
        # 5(4) linear stepper; the engine (DOP853) does not, so the two do
        # not share an integrator.
        calls = []
        real = engine.linear_flow_on_grid
        monkeypatch.setattr(engine, "linear_flow_on_grid",
                            lambda *a: calls.append(a) or real(*a))
        sig = Sinusoid(0.1, 2.0)
        symplectic.propagate_symplectic(sig, sig, 2.0, n_out=21)
        assert len(calls) == 1
        gaussian.quadratic_coefficients(sig, sig, 2.0, n_out=21)
        assert len(calls) == 1

    def test_output_grid_validation(self):
        prob = gaussian.linear_problem(Constant(0.1), Constant(0.1), 1.0)
        with pytest.raises(ValueError):
            integrate(prob, times=np.array([0.1, 0.5, 1.0]))
        with pytest.raises(ValueError):
            integrate(prob, times=np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            integrate(prob, times=np.array([0.0, np.nan, 1.0]))

    # Every call that takes an output grid, each on a 5-level system.
    GRID_CALLS = {
        "integrate": lambda grid: integrate(
            gaussian.linear_problem(Constant(0.1), Constant(0.1), 1.0),
            times=grid),
        "propagate_symplectic": lambda grid: symplectic.propagate_symplectic(
            Sinusoid(0.1, 2.0), Sinusoid(0.1, 2.0), 1.0, times=grid),
        "propagate_state-matrix": lambda grid: fock.propagate_state(
            fock.number_op(4), np.eye(5)[0], grid),
        "propagate_state-callable": lambda grid: fock.propagate_state(
            lambda t: fock.number_op(4), np.eye(5)[0], grid),
        "propagate_density": lambda grid: liouville.propagate_density(
            liouville.build_lindbladian(fock.number_op(4), []),
            np.diag(np.eye(5)[0]), 1.0, times=grid),
    }

    @pytest.mark.parametrize("grid", [[], [[0.0, 1.0]], [[0.0], [1.0]]],
                             ids=["empty", "row", "column"])
    @pytest.mark.parametrize("call", sorted(GRID_CALLS))
    def test_grid_must_be_a_non_empty_vector(self, call, grid):
        with pytest.raises(ValueError, match="output grid must be a non-empty"):
            self.GRID_CALLS[call](grid)

    # Each call's rows, as a sequence, and the start they step from.
    ROWS = {
        "integrate": lambda out: (out.values.T, np.zeros(4)),
        "propagate_symplectic": lambda out: (out.matrices, np.eye(2)),
        "propagate_state-matrix": lambda out: (out, np.eye(5)[0]),
        "propagate_state-callable": lambda out: (out, np.eye(5)[0]),
        "propagate_density": lambda out: (out.matrices, np.diag(np.eye(5)[0])),
    }

    @pytest.mark.parametrize("call", sorted(GRID_CALLS))
    def test_one_point_grid_returns_its_row(self, call):
        # No step is taken, and no dt is asked for.
        rows, start = self.ROWS[call](self.GRID_CALLS[call]([0.0]))
        assert len(rows) == 1
        np.testing.assert_array_equal(rows[0], start)


def _rotation(freq):
    """A(t) = i w(t) diag(1, -1), w = 1 + 50 cos(freq t): the matrices
    commute, so Y(t) = diag(e^{i phi}, e^{-i phi}) with phi the integral of
    w.  Returns (generator, exact)."""
    def generator(t):
        w = 1.0 + 50.0 * np.cos(freq * t)
        a = np.zeros(t.shape + (2, 2), dtype=complex)
        a[:, 0, 0], a[:, 1, 1] = 1j * w, -1j * w
        return a

    def exact(t):
        phi = t + 50.0 / freq * np.sin(freq * t)
        return np.stack([np.diag([np.exp(1j * p), np.exp(-1j * p)])
                         for p in phi])

    return generator, exact


class TestLinearFlow:
    def test_tighter_rtol_is_closer_to_the_reference(self):
        # Three output times on [0, 6]: the sub-steps are set by rtol alone.
        sig = Sinusoid(0.08, 2.0)
        times = np.linspace(0.0, 6.0, 3)

        def rhs(t, y):
            h, _ = symplectic.hamiltonian_matrix(sig(t), sig(t))
            return (symplectic.FLOW @ h @ y.reshape(2, 2)).ravel()

        reference, _, _ = engine._dop853(rhs, times, np.eye(2).ravel(), 1e-13,
                                         1e-15, 6.0)
        errors = [np.max(np.abs(symplectic.propagate_symplectic(
            sig, sig, 6.0, rtol=rtol, atol=1e-3 * rtol, times=times).matrices
            - reference.reshape(-1, 2, 2))) for rtol in (1e-6, 1e-8, 1e-10)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_drive_raises_at_its_first_time(self, bad):
        # NaN from t = 0.5 on; the first stage time at or past it is named,
        # with no numpy warning before the typed error.
        lam = Hook(lambda t: np.where(t < 0.5, 0.1, bad))
        with pytest.raises(NonFinite) as err:
            symplectic.propagate_symplectic(lam, lam, 1.0, n_out=11)
        assert err.value.time == pytest.approx(0.5)

    def test_sub_step_below_the_floor_underflows(self):
        generator, _ = _rotation(1.0)
        with pytest.raises(StepUnderflow):
            engine.linear_flow_on_grid(generator, [0.0, 1e-13, 1.0], np.eye(2),
                                       1e-10, 1e-12, 1.0)

    def test_a_fast_drive_is_stepped_in_bounded_passes(self):
        # Two output times and a drive at frequency 400: thousands of
        # sub-steps, sampled no more than one block at a time.
        generator, exact = _rotation(400.0)
        sizes = []

        def counted(t):
            sizes.append(len(t))
            return generator(t)

        times = np.array([0.0, 2.0])
        out = engine.linear_flow_on_grid(counted, times, np.eye(2), 1e-10,
                                         1e-12, 2.0)
        block = engine._FLOW_BLOCK // (7 * 2 * 2)
        assert max(sizes) == 7 * block
        assert np.max(np.abs(out - exact(times))) <= 1e-8

    def test_vector_start_gives_vector_rows(self):
        generator, exact = _rotation(3.0)
        times = np.linspace(0.0, 1.0, 6)
        y0 = np.array([0.6, 0.8j])
        out = engine.linear_flow_on_grid(generator, times, y0, 1e-10, 1e-12, 1.0)
        assert out.shape == (6, 2)
        assert np.max(np.abs(out - exact(times) @ y0)) <= 1e-9


class TestProblemConstruction:
    def test_signal_padding(self):
        prob = DecouplingProblem(gaussian.linear_basis(), [Constant(1.0)], 1.0)
        np.testing.assert_array_equal(prob.g_vector(0.5), [1.0, 0.0, 0.0, 0.0])

    def test_shared_signal_evaluated_once(self):
        # linear_problem drives both ladder slots with one signal object.
        calls = []

        def drive(t):
            calls.append(t)
            return 0.3 * np.cos(1.7 * t) + 0.1j

        shared = Hook(drive)
        prob = gaussian.linear_problem(shared, shared, 1.0)
        for t in np.linspace(0.0, 1.0, 7):
            calls.clear()
            got = prob.g_vector(t)
            assert len(calls) == 1
            want = np.array([s(t) for s in prob.signals], dtype=complex)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("family", ["linear", "combined"])
    def test_shared_plain_callable_drive_evaluated_once(self, family):
        # One plain function for both ladder slots is coerced once: one
        # time-dependent group, one evaluation per g_vector call and per
        # oracle sample.
        calls = []

        def drive(t):
            calls.append(t)
            return 0.2 * np.cos(1.3 * t)

        if family == "linear":
            prob = gaussian.linear_problem(drive, drive, 1.0)
        else:
            prob = gaussian.combined_problem(drive, drive, 0.1, 0.1, 1.0)
        (_, idx), = prob.g_varying
        assert list(idx) == ([1, 2] if family == "linear" else [3, 4])
        h_eval = fock.oracle_hamiltonian(prob, 8)
        for t in np.linspace(0.0, 1.0, 7):
            calls.clear()
            g = prob.g_vector(t)
            assert len(calls) == 1
            assert g[idx[0]] == g[idx[1]] == 0.2 * np.cos(1.3 * t)
            calls.clear()
            h_eval(t)
            assert len(calls) == 1

    @pytest.mark.parametrize("family", ["quadratic", "combined"])
    def test_shared_squeezing_signal_evaluated_once(self, family):
        # One lambda for both K+- slots is one scaled signal object: one
        # time-dependent group of two slots, evaluated once per g_vector
        # and per oracle sample, with the G(t) of two equal but distinct
        # signals.
        calls = []

        def lam(t):
            calls.append(t)
            return 0.1 * np.cos(2.0 * t)

        def build(lam_plus, lam_minus):
            if family == "quadratic":
                return gaussian.quadratic_problem(lam_plus, lam_minus, 1.0)
            return gaussian.combined_problem(0.1, 0.1, lam_plus, lam_minus, 1.0)

        shared = Hook(lam)
        prob = build(shared, shared)
        apart = build(shared, Hook(lam))
        (_, idx), = prob.g_varying
        assert list(idx) == [0, 2]
        assert len(apart.g_varying) == 2
        h_eval = fock.oracle_hamiltonian(prob, 8)
        for t in np.linspace(0.0, 1.0, 7):
            calls.clear()
            got = prob.g_vector(t)
            assert len(calls) == 1
            assert np.array_equal(got, apart.g_vector(t))
            calls.clear()
            h_eval(t)
            assert len(calls) == 1

    def test_too_many_signals(self):
        with pytest.raises(ValueError, match="more signals"):
            DecouplingProblem(
                gaussian.su11_basis(include_identity=False),
                [Constant(1.0)] * 5, 1.0,
            )

    def test_span_must_be_positive(self):
        with pytest.raises(ValueError):
            DecouplingProblem(gaussian.linear_basis(), [Constant(1.0)], 0.0)
