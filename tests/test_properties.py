"""Property-based checks of the symbolic algebra laws, of the engine
against its references over random Gaussian drives, and of the batched
linear stepper against the per-step one."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from wnd import engine, fock, gaussian, ladder, symplectic
from wnd.errors import ClosureOverflow, LeakageTooLarge, WndError
from wnd.ladder import LadderPolynomial, commutator, identity, normal_order
from wnd.signals import Sinusoid


@st.composite
def polynomials(draw, n_modes):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        sig = []
        budget = 3
        for _mode in range(n_modes):
            p = draw(st.integers(0, budget))
            budget -= p
            q = draw(st.integers(0, budget))
            budget -= q
            sig.append((p, q))
        coeff = complex(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        if coeff == 0:
            coeff = 1.0
        sig = tuple(sig)
        terms[sig] = terms.get(sig, 0j) + coeff
    poly = LadderPolynomial(n_modes, terms)
    return poly if not poly.is_zero else identity(n_modes)


@st.composite
def poly_tuples(draw, count):
    n_modes = draw(st.integers(1, 2))
    return tuple(draw(polynomials(n_modes)) for _ in range(count))


@settings(max_examples=60, deadline=None)
@given(poly_tuples(3), st.integers(-3, 3), st.integers(-3, 3))
def test_bilinearity(polys, a_int, b_int):
    p, q, r = polys
    a, b = complex(a_int, 1), complex(b_int, -2)
    left = commutator(a * p + b * q, r)
    right = a * commutator(p, r) + b * commutator(q, r)
    assert left.allclose(right, tol=1e-10)
    assert commutator(r, a * p + b * q).allclose(
        a * commutator(r, p) + b * commutator(r, q), tol=1e-10
    )


@settings(max_examples=60, deadline=None)
@given(poly_tuples(1))
def test_alternativity(polys):
    (p,) = polys
    assert commutator(p, p).is_zero


@settings(max_examples=60, deadline=None)
@given(poly_tuples(3))
def test_jacobi_identity(polys):
    p, q, r = polys
    total = (
        commutator(p, commutator(q, r))
        + commutator(r, commutator(p, q))
        + commutator(q, commutator(r, p))
    )
    scale = max(
        p.max_abs_coeff() * q.max_abs_coeff() * r.max_abs_coeff(), 1.0
    )
    assert total.max_abs_coeff() <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(poly_tuples(2))
def test_commutator_antisymmetry(polys):
    p, q = polys
    assert commutator(p, q).allclose(-1.0 * commutator(q, p), tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(poly_tuples(1))
def test_normal_order_idempotent(polys):
    (p,) = polys
    assert normal_order(p) == p


@settings(max_examples=60, deadline=None)
@given(poly_tuples(1))
def test_dagger_involution(polys):
    (p,) = polys
    assert p.dagger().dagger().allclose(p, tol=0.0)


@settings(max_examples=40, deadline=None)
@given(poly_tuples(2))
def test_product_dagger_reverses(polys):
    p, q = polys
    assert (p * q).dagger().allclose(q.dagger() * p.dagger(), tol=1e-12)


@settings(max_examples=30, deadline=None)
@given(poly_tuples(1))
def test_string_round_trip(polys):
    (p,) = polys
    parsed = ladder.parse_polynomial(p.to_string(), n_modes=p.n_modes)
    assert parsed.allclose(p, tol=1e-12)


# Monomials of degree <= 2 on one and on two modes.
_ONE_MODE = ["I", "a", "ad", "a^2", "ad^2", "ad*a"]
_TWO_MODE = _ONE_MODE + ["b", "bd", "b^2", "bd^2", "bd*b",
                         "a*b", "ad*bd", "ad*b", "a*bd"]


@st.composite
def quadratic_generator_sets(draw):
    """2-3 generators, each 1-2 monomials with coefficients in 0.1-2.7."""
    n_modes = draw(st.integers(1, 2))
    words = _ONE_MODE if n_modes == 1 else _TWO_MODE
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        poly = LadderPolynomial.zero(n_modes)
        for word in draw(st.lists(st.sampled_from(words), min_size=1,
                                  max_size=2, unique=True)):
            coeff = complex(draw(st.integers(1, 27)) / 10,
                            draw(st.sampled_from([0, 0, -1.2, 0.13, 0.7])))
            poly = poly + coeff * ladder.parse_polynomial(word, n_modes)
        gens.append(poly)
    return gens


def _dilate(poly, powers):
    """Image under a -> 10^d a, ad -> 10^-d ad on each mode, an automorphism."""
    return LadderPolynomial(poly.n_modes, {
        sig: c * 10.0 ** sum(d * (q - p) for d, (p, q) in zip(powers, sig))
        for sig, c in poly.terms.items()})


@settings(max_examples=40, deadline=None)
@given(quadratic_generator_sets(),
       st.lists(st.integers(-11, 11), min_size=3, max_size=3),
       st.lists(st.integers(-2, 2), min_size=2, max_size=2))
def test_closure_is_scale_free(gens, powers, dilation):
    # Rescaling each generator and dilating each mode (which spreads the
    # terms of one polynomial over up to 8 decades) maps the closure onto
    # the dilated unscaled closure.
    try:
        unscaled = ladder.close_algebra(gens, max_dim=24)
    except ClosureOverflow:
        assume(False)
    scaled = ladder.close_algebra(
        [10.0 ** k * _dilate(g, dilation) for g, k in zip(gens, powers)],
        max_dim=24)
    assert len(scaled) == len(unscaled)
    assert scaled.span_matches(ladder.LieBasis(
        [_dilate(e, dilation) for e in unscaled], check_independent=False))
    assert scaled.central == unscaled.central


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_ONE_MODE), min_size=2, max_size=2, unique=True),
       st.lists(st.integers(-8, 11), min_size=2, max_size=2))
def test_commuting_parts_do_not_hide_brackets(words, powers):
    # p = x*N_b + g1 and q = y*N_b(N_b - 1) + g2 with g1, g2 on mode a: the
    # mode-b parts commute with everything, so every bracket, and with it
    # every element after p and q, is the same for any x and y.  Below
    # 1e-8 the mode-b part of p would tell p from g1 by less than about
    # INDEPENDENCE_TOL once g1 is an element.
    small = [ladder.parse_polynomial(word, 2) for word in words]
    large = [ladder.parse_polynomial("bd*b"), ladder.parse_polynomial("bd^2*b^2")]
    unscaled = ladder.close_algebra([h + g for h, g in zip(large, small)])
    gens = [10.0 ** k * h + g for h, g, k in zip(large, small, powers)]
    scaled = ladder.close_algebra(gens)
    assert len(scaled) == len(unscaled)
    assert scaled.span_matches(ladder.LieBasis(
        gens + unscaled.elements[2:], check_independent=False))
    assert scaled.central == unscaled.central


_DRIVE_CUTOFF = 30


@st.composite
def gaussian_drives(draw):
    """A small sinusoidal linear drive, quadratic drive, both or neither."""
    g0 = draw(st.one_of(st.just(0.0), st.floats(0.02, 0.3)))
    l0 = draw(st.one_of(st.just(0.0), st.floats(0.02, 0.12)))
    g = Sinusoid(g0, draw(st.floats(0.5, 2.0)), draw(st.floats(0.0, 6.3)))
    lam = Sinusoid(l0, draw(st.floats(0.0, 2.2)), draw(st.floats(0.0, 6.3)))
    alpha = complex(draw(st.floats(-0.7, 0.7)), draw(st.floats(-0.7, 0.7)))
    return g, lam, alpha, draw(st.floats(0.5, 3.0))


def _rows_without_leakage(states):
    try:
        fock.check_leakage("state", np.zeros(len(states)), np.abs(states) ** 2)
    except LeakageTooLarge:
        return False
    return True


@settings(max_examples=15, deadline=None)
@given(gaussian_drives())
def test_engine_moments_match_references(drive):
    # <a>(t) from the engine's coefficients: the su(1,1) factors map a to
    # u a + v a' (their symplectic image), and the displacement factors
    # shift a by -i F+ and a' by i F-.  The Fock oracle checks every drive;
    # without a linear drive, so does the phase-space propagator.  A typed
    # error is an allowed outcome; any other exception fails.
    g, lam, alpha, t_final = drive
    times = np.linspace(0.0, t_final, 11)
    try:
        traj = gaussian.gaussian_combined(g, g, lam, lam, t_final, times=times)
        problem = gaussian.combined_problem(g, g, lam, lam, t_final)
        psi0 = fock.coherent_state(alpha, _DRIVE_CUTOFF)
        oracle = fock.propagate_state(
            fock.oracle_hamiltonian(problem, _DRIVE_CUTOFF), psi0, times,
            dt=t_final / 100)
        replay = fock.ansatz_matrices(traj.raw.basis, _DRIVE_CUTOFF)
        ansatz = np.array([fock.apply_ansatz(traj.raw.values[:, i], replay, psi0)
                           for i in range(len(times))])
        phase_space = symplectic.propagate_symplectic(lam, lam, t_final,
                                                      times=times)
    except WndError:
        return
    assert _rows_without_leakage(oracle) and _rows_without_leakage(ansatz)

    s = np.array([symplectic.ansatz_symplectic(*x) for x in
                  zip(traj.xi_plus, traj.xi_zero, traj.xi_minus)])
    engine_a = (s[:, 0, 0] * (alpha - 1j * traj.f_plus)
                + s[:, 0, 1] * (np.conj(alpha) + 1j * traj.f_minus))
    destroy = fock.destroy(_DRIVE_CUTOFF)
    oracle_a = np.array([fock.expectation(destroy, psi) for psi in oracle])
    assert np.max(np.abs(engine_a - oracle_a)) <= 1e-6
    if g.amplitude == 0:
        moments = np.array([symplectic.first_moments(m, alpha)[0]
                            for m in phase_space.matrices])
        assert np.max(np.abs(engine_a - moments)) <= 1e-6


@st.composite
def linear_flows(draw):
    """(generator, rhs, n, times): dY/dt = A(t) Y with A a constant part
    plus Sinusoid-weighted terms, each i times a Hermitian matrix (entries
    at most 1/2) plus a small general part, so A has a norm of order one,
    as the phase-space flow has, and Y stays of order one; and a grid of
    one to nine intervals."""
    n = draw(st.integers(2, 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)

    def term(scale):
        b = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        g = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        return scale * (0.25j * (b + b.conj().T) + 0.05 * g)

    constant = term(1.0)
    terms = [(Sinusoid(rng.uniform(-1, 1), rng.uniform(0, 3), rng.uniform(0, 6)),
              term(0.5)) for _ in range(draw(st.integers(1, 2)))]
    span = draw(st.floats(0.2, 3.0))
    inner = sorted(draw(st.sets(st.floats(0.01, 0.99), max_size=8)))
    times = span * np.array([0.0, *inner, 1.0])
    assume(np.all(np.diff(times) > 1e-3))

    def generator(t):
        return constant + sum(sig(t)[:, None, None] * m for sig, m in terms)

    def rhs(t, y):
        a = constant + sum(sig(t) * m for sig, m in terms)
        return (a @ y.reshape(n, n)).ravel()

    return generator, rhs, n, times


@settings(max_examples=30, deadline=None)
@given(linear_flows())
def test_batched_linear_stepper_matches_per_step_stepper(flow):
    # The batched stepper and rk45_on_grid take the same Dormand-Prince 5(4)
    # steps and error test; DOP853 at rtol 1e-13 is the reference of both.
    generator, rhs, n, times = flow
    span = times[-1]
    batched = engine.linear_flow_on_grid(generator, times, np.eye(n), 1e-10,
                                         1e-12, span)
    stepped, _, _ = engine.rk45_on_grid(rhs, times, np.eye(n).ravel(), 1e-10,
                                        1e-12, span)
    reference, _, _ = engine._dop853(rhs, times, np.eye(n).ravel(), 1e-13,
                                     1e-15, span)
    assert batched.shape == (len(times), n, n)
    stepped = stepped.reshape(-1, n, n)
    reference = reference.reshape(-1, n, n)
    assert np.max(np.abs(batched - stepped)) <= 1e-9
    assert np.max(np.abs(batched - reference)) <= 1e-9
    assert np.max(np.abs(stepped - reference)) <= 1e-9
