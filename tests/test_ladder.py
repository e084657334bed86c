import numpy as np
import pytest
import scipy.linalg

from wnd import ladder
from wnd.errors import (
    ClosureOverflow,
    CoefficientOverflow,
    NotClosed,
    ParseError,
    UnknownMode,
)
from wnd.ladder import (
    LieBasis,
    adjoint_matrices,
    annihilation,
    close_algebra,
    commutator,
    coordinates_in_basis,
    creation,
    identity,
    is_independent,
    jacobi_residual,
    normal_order,
    number,
    parse_polynomial,
    structure_constants,
)

from conftest import operator_norm_difference, random_polynomial


def su11():
    a, ad = annihilation(), creation()
    return 0.5 * (ad * ad), 0.25 * (2.0 * number() + identity()), 0.5 * (a * a)


def optomech_generators():
    nb = number(mode=1, n_modes=2)
    na = number(mode=0, n_modes=2)
    b, bd = annihilation(1, 2), creation(1, 2)
    return nb, na * (bd + b)


class TestNormalOrder:
    def test_a_adag(self):
        a, ad = annihilation(), creation()
        assert normal_order(a, ad) == ad * a + identity()

    def test_already_ordered_is_identity_map(self):
        n = number()
        assert normal_order(n) == n

    def test_a_a_adag_against_fock_states(self):
        # a a a' = a'a^2 + 2a, checked by applying both sides to |0>,|1>,|2>.
        a, ad = annihilation(), creation()
        lhs = normal_order(a, a, ad)
        rhs = ad * a * a + 2.0 * a
        assert lhs == rhs
        from wnd import fock

        cutoff = 6
        am = fock.destroy(cutoff)
        raw = am @ am @ am.conj().T
        img = fock.to_matrix(lhs, cutoff)
        for n_level in (0, 1, 2):
            e = np.zeros(cutoff + 1, dtype=complex)
            e[n_level] = 1.0
            np.testing.assert_allclose(img @ e, raw @ e, atol=1e-12)

    def test_idempotent(self, rng):
        for _ in range(10):
            p = random_polynomial(rng, n_modes=2)
            assert normal_order(p) == p


class TestCommutator:
    def test_number_with_a(self):
        assert commutator(number(), annihilation()) == -1.0 * annihilation()

    def test_su11_ladder(self):
        k_plus, k_zero, k_minus = su11()
        assert commutator(k_plus, k_minus).allclose(-2.0 * k_zero)
        assert commutator(k_zero, k_plus).allclose(k_plus)
        assert commutator(k_zero, k_minus).allclose(-1.0 * k_minus)

    def test_optomech_kerr(self):
        _, coupling = optomech_generators()
        b, bd = annihilation(1, 2), creation(1, 2)
        na = number(mode=0, n_modes=2)
        partner = na * (bd - b)
        kerr = commutator(coupling, partner)
        assert kerr.allclose(2.0 * (na * na))

    def test_mode_mismatch(self):
        from wnd.errors import ModeMismatch

        with pytest.raises(ModeMismatch):
            commutator(number(), number(mode=0, n_modes=2))


class TestAlgebraProperties:
    # The algebra laws (bilinearity, alternativity, Jacobi) live in
    # test_properties.py as hypothesis properties; here we pin the
    # operator-level correctness against the Fock oracle.

    def test_commutator_matches_fock_images(self, rng):
        # Operator-level correctness on the truncation-safe sub-block.
        from wnd import fock

        for _ in range(8):
            n_modes = int(rng.integers(1, 3))
            p = random_polynomial(rng, n_modes)
            q = random_polynomial(rng, n_modes)
            cutoff = max(p.degree, q.degree) + 6
            mp = fock.to_matrix(p, cutoff)
            mq = fock.to_matrix(q, cutoff)
            sym = commutator(p, q)
            d = max(p.degree, q.degree, 1)
            keep = cutoff + 1 - 2 * d
            img = fock.to_matrix(sym, cutoff) if not sym.is_zero else np.zeros_like(mp)
            ref = mp @ mq - mq @ mp
            if n_modes == 1:
                err = np.max(np.abs((img - ref)[:keep, :keep]))
            else:
                dim = cutoff + 1
                idx = [na * dim + nb for na in range(keep) for nb in range(keep)]
                err = np.max(np.abs((img - ref)[np.ix_(idx, idx)]))
            assert err <= 1e-9


class TestClosure:
    def test_linear_algebra(self):
        basis = close_algebra([number(), annihilation(), creation()])
        assert len(basis) == 4
        assert basis.elements[:3] == [number(), annihilation(), creation()]
        assert basis.elements[3] == identity()
        assert basis.central == [False, False, False, True]

    def test_su11_closed_as_given(self):
        k_plus, k_zero, k_minus = su11()
        basis = close_algebra([k_plus, k_zero, k_minus])
        assert len(basis) == 3

    def test_optomechanical_closure(self):
        nb, coupling = optomech_generators()
        basis = close_algebra([nb, coupling])
        assert len(basis) == 4
        na = number(mode=0, n_modes=2)
        b, bd = annihilation(1, 2), creation(1, 2)
        assert basis.elements[2].allclose(na * (bd - b))
        assert basis.elements[3].allclose(na * na)
        assert basis.central == [False, False, False, True]

    def test_overflow(self):
        # A cubic generator pair escalates degree without closing.
        a, ad = annihilation(), creation()
        with pytest.raises(ClosureOverflow):
            close_algebra([ad * ad * ad, a * a], max_dim=8)

    @pytest.mark.parametrize("texts", [["(ad*a)^200"], ["ad^200*a^200", "ad"],
                                       ["a^300*ad^300"]],
                             ids=["power", "with-ad", "in-parse"])
    def test_normal_ordering_overflow_is_typed(self, texts):
        # A commutator of the closure, or a product in the text itself,
        # needs a normal-ordering integer k! C(q,k) C(p,k) past the float
        # range.
        with pytest.raises(CoefficientOverflow):
            close_algebra([parse_polynomial(text) for text in texts])

    def test_order_independence_of_span(self):
        gens = [number(), annihilation(), creation()]
        b1 = close_algebra(gens)
        b2 = close_algebra(gens[::-1])
        assert b1.span_matches(b2)

        nb, coupling = optomech_generators()
        assert close_algebra([nb, coupling]).span_matches(
            close_algebra([coupling, nb])
        )

    def test_max_dim_precondition(self):
        with pytest.raises(ValueError):
            close_algebra([number(), annihilation()], max_dim=1)


class TestScaleFree:
    """Span and centrality decisions are judged at each polynomial's size."""

    def test_large_generator_does_not_hide_small_ones(self):
        basis = close_algebra([1e11 * number(), creation(), annihilation()])
        assert len(basis) == 4
        assert basis.span_matches(
            LieBasis([number(), creation(), annihilation(), identity()])
        )

    def test_basis_accepts_tiny_element(self):
        assert len(LieBasis([number(), 1e-11 * creation()])) == 2

    def test_tiny_elements_are_not_central(self):
        basis = LieBasis([1e-11 * creation(), 1e-11 * annihilation(), identity()])
        assert basis.central == [False, False, True]

    def test_tiny_polynomial_outside_span_raises(self):
        with pytest.raises(NotClosed):
            coordinates_in_basis(1e-13 * creation(), [number()])

    def test_exact_cancellation_roundoff_is_not_an_element(self):
        # [g1, [g0, g1]] cancels exactly up to a 2.8e-17j*bd remainder,
        # roundoff at the size 1.1 of the products that entered it.
        gens = [parse_polynomial("(-0.3+0.13j)*b"),
                parse_polynomial("(-1.1+0.13j)*a*bd + 0.1*ad*bd")]
        assert len(close_algebra(gens)) == 3

    # The 1e6 parts commute with everything, so [p, q] = [a, ad] = I: a
    # bracket of size 1, far below |p|*|q| = 1e12.
    MIXED = ["1e6*bd*b + a", "1e6*bd^2*b^2 + ad"]

    def test_commuting_large_parts_do_not_hide_bracket(self):
        p, q = map(parse_polynomial, self.MIXED)
        basis = close_algebra([p, q])
        assert len(basis) == 3
        assert basis.span_matches(LieBasis([p, q, identity(2)]))

    def test_bracket_outside_span_raises(self):
        basis = LieBasis([parse_polynomial(text) for text in self.MIXED])
        with pytest.raises(NotClosed, match=r"\[H_0, H_1\] = I .*residual"):
            structure_constants(basis)

    def test_fit_is_judged_at_its_largest_term(self):
        # The pair 0.37*a + 1.33*ad^2, 2.16*a^2 + 0.46*ad*a with a -> 100*a
        # and rescaled: fitting its brackets cancels terms about 1e5 times
        # larger than the brackets, and that roundoff is not a new I.
        gens = [parse_polynomial("370*a + 0.00133*ad^2"),
                parse_polynomial("0.0216*a^2 + 4.6e-7*ad*a")]
        basis = close_algebra(gens)
        assert len(basis) == 6
        assert not any(basis.central)

    def test_commuting_large_parts_are_not_central(self):
        basis = LieBasis([parse_polynomial(text) for text in self.MIXED])
        assert basis.central == [False, False]


class TestStructureConstants:
    def test_linear_basis_table(self):
        basis = LieBasis([number(), creation(), annihilation(), identity()])
        c = structure_constants(basis)
        # [a'a, a'] = +a'
        assert c[0, 1, 1] == pytest.approx(1.0)
        # [a'a, a] = -a
        assert c[0, 2, 2] == pytest.approx(-1.0)
        # [a', a] = -1
        assert c[1, 2, 3] == pytest.approx(-1.0)
        assert np.max(np.abs(c + np.transpose(c, (1, 0, 2)))) == 0.0
        assert jacobi_residual(c) <= 1e-12

    def test_su11_table(self):
        k_plus, k_zero, k_minus = su11()
        basis = LieBasis([k_plus, k_zero, k_minus])
        c = structure_constants(basis)
        assert c[1, 0, 0] == pytest.approx(1.0)  # [K0, K+] = +K+
        assert c[1, 2, 2] == pytest.approx(-1.0)  # [K0, K-] = -K-
        assert c[0, 2, 1] == pytest.approx(-2.0)  # [K+, K-] = -2 K0
        assert jacobi_residual(c) <= 1e-12

    def test_abelian_all_zero(self):
        basis = LieBasis([identity(), number()])
        c = structure_constants(basis)
        assert np.max(np.abs(c)) == 0.0

    def test_not_closed(self):
        # [a', a] = -1 falls outside span{a', a}.
        basis = LieBasis([creation(), annihilation()])
        with pytest.raises(NotClosed):
            structure_constants(basis)

    def test_re_expansion_residual(self):
        nb, coupling = optomech_generators()
        basis = close_algebra([nb, coupling])
        c = structure_constants(basis)
        for j in range(len(basis)):
            for k in range(len(basis)):
                comm = commutator(basis[j], basis[k])
                recon = ladder.LadderPolynomial(basis.n_modes)
                for l in range(len(basis)):
                    recon = recon + c[j, k, l] * basis[l]
                assert (comm - recon).max_abs_coeff() <= 1e-12


class TestAdjointMatrices:
    def test_central_element_is_zero_matrix(self):
        basis = close_algebra([number(), annihilation(), creation()])
        c = structure_constants(basis)
        mats = adjoint_matrices(c)
        assert np.max(np.abs(mats[3])) == 0.0  # identity element

    def test_su11_neutral_action_diagonal(self):
        k_plus, k_zero, k_minus = su11()
        basis = LieBasis([k_plus, k_zero, k_minus])
        mats = adjoint_matrices(structure_constants(basis))
        m_zero = mats[1]
        np.testing.assert_allclose(m_zero, np.diag([1.0, 0.0, -1.0]), atol=1e-14)

    def test_rotation_action_on_lowering(self):
        # exp(-i F0 ad a'a) maps a to e^{i F0} a.
        basis = LieBasis([number(), creation(), annihilation(), identity()])
        mats = adjoint_matrices(structure_constants(basis))
        f0 = 0.7
        rot = scipy.linalg.expm(-1j * f0 * mats[0])
        e_a = np.zeros(4, dtype=complex)
        e_a[2] = 1.0
        np.testing.assert_allclose(rot @ e_a, np.exp(1j * f0) * e_a, atol=1e-14)

    def test_action_matches_commutator(self, rng):
        nb, coupling = optomech_generators()
        basis = close_algebra([nb, coupling])
        c = structure_constants(basis)
        mats = adjoint_matrices(c)
        for j in range(len(basis)):
            for k in range(len(basis)):
                coords = mats[j][:, k]
                recon = ladder.LadderPolynomial(2)
                for l, w in enumerate(coords):
                    recon = recon + w * basis[l]
                assert commutator(basis[j], basis[k]).allclose(recon, tol=1e-12)


class TestCoordinates:
    def test_exact_oscillator_coordinates(self):
        # a'a + l+ a'^2 + l- a^2 has K-basis coordinates (2l+, 2, 2l-, -1/2).
        from wnd.gaussian import su11_basis

        lam_p, lam_m = 0.3 + 0.1j, 0.2 - 0.4j
        a, ad = annihilation(), creation()
        h = number() + lam_p * (ad * ad) + lam_m * (a * a)
        coords = coordinates_in_basis(h, su11_basis().elements)
        np.testing.assert_allclose(
            coords, [2 * lam_p, 2.0, 2 * lam_m, -0.5], atol=1e-12
        )

    def test_outside_span_raises(self):
        with pytest.raises(NotClosed):
            coordinates_in_basis(creation(), [number(), identity()])

    def test_independence(self):
        assert is_independent(creation(), [number(), identity()])
        assert not is_independent(2.0 * number(), [number(), identity()])


class TestParse:
    def test_number_operator(self):
        assert parse_polynomial("ad*a") == number()

    def test_k_plus(self):
        ad = creation()
        assert parse_polynomial("0.5*ad^2") == 0.5 * (ad * ad)

    def test_two_mode_coupling(self):
        p = parse_polynomial("ad*a*(bd+b)")
        na = number(mode=0, n_modes=2)
        b, bd = annihilation(1, 2), creation(1, 2)
        assert p == na * (bd + b)

    def test_complex_coefficients_and_minus(self):
        p = parse_polynomial("1j*ad - 1j*a")
        assert p == 1j * creation() - 1j * annihilation()

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("ad*+a*")
        assert err.value.position >= 3

    @pytest.mark.parametrize("text", ["1e400*a", "1e200*1e200*ad", "a + 1e400"])
    def test_non_finite_coefficient(self, text):
        with pytest.raises(ParseError, match="not finite"):
            parse_polynomial(text)

    def test_nesting_bound(self):
        assert parse_polynomial("(" * 100 + "a" + ")" * 100) == annihilation()
        with pytest.raises(ParseError) as err:
            parse_polynomial("(" * 2000 + "a" + ")" * 2000)
        assert err.value.position == ladder.MAX_NESTING

    def test_exponent_bound(self):
        # A power costs one product per unit of its exponent, so the parser
        # bounds the exponent; a text past int()'s digit limit is refused too.
        top = ladder.MAX_EXPONENT
        assert parse_polynomial(f"a^{top}") == annihilation() ** top
        for text in (f"a^{top + 1}", "a^" + "9" * 5000):
            with pytest.raises(ParseError, match="exponent exceeds") as err:
                parse_polynomial(text)
            assert err.value.position == 2

    def test_unknown_mode(self):
        with pytest.raises(UnknownMode):
            parse_polynomial("cd*c")
        with pytest.raises(UnknownMode):
            parse_polynomial("bd*b", n_modes=1)

    def test_roundtrip_through_string(self, rng):
        for _ in range(10):
            p = random_polynomial(rng, n_modes=2)
            assert parse_polynomial(p.to_string(), n_modes=2).allclose(p)


class TestPolynomialBasics:
    def test_zero_coefficients_dropped(self):
        p = number() - number()
        assert p.is_zero
        assert p.terms == {}

    def test_dagger(self):
        a, ad = annihilation(), creation()
        p = (2 + 1j) * (ad * a * a)
        assert p.dagger() == (2 - 1j) * (ad * ad * a)

    def test_transpose_swaps_exponents(self):
        a, ad = annihilation(), creation()
        p = ad * ad * a
        assert p.transpose() == ad * a * a
        assert number().transpose() == number()

    def test_scalar_identities(self):
        p = number()
        assert (0.0 * p).is_zero
        assert (1.0 * p) == p
        assert p ** 0 == identity()
        assert p ** 2 == p * p

    def test_allclose_judges_small_polynomials_at_their_size(self):
        a, ad = annihilation(), creation()
        assert not (1e-13 * ad).allclose(1e-13 * a)
        assert not (1e-13 * ad).allclose(2e-13 * ad)
        assert (1e-13 * ad).allclose(1e-13 * (1 + 1e-14) * ad)
        assert (0.0 * ad).allclose(0.0 * a)
