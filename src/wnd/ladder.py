"""Normal-ordered polynomials in bosonic ladder operators.

A monomial is stored per mode as a pair of non-negative integer exponents
(creation power, annihilation power), with every creation factor to the left
of every annihilation factor.  Exponents are exact integers; coefficients are
complex doubles.  Products are re-normal-ordered on the fly with

    a^q ad^p = sum_k  k! C(q,k) C(p,k)  ad^(p-k) a^(q-k),

so any polynomial built from sums and products of elementary generators is
normal-ordered by construction.

The module also provides the Lie-algebra machinery built on top of the
polynomials: commutators, closure of a generator set, structure constants and
adjoint-representation matrices.
"""

from __future__ import annotations

import math
import re

import numpy as np
import scipy.linalg

from .errors import ClosureOverflow, ModeMismatch, NotClosed, ParseError, UnknownMode

# Rank threshold for linear-independence decisions, relative to the largest
# coefficient involved.
INDEPENDENCE_TOL = 1e-10

_MODE_TOKENS = {"a": (0, False), "ad": (0, True), "b": (1, False), "bd": (1, True)}


def _mode_product(p1, q1, p2, q2):
    """Normal-order (ad^p1 a^q1)(ad^p2 a^q2) for a single mode.

    Returns a list of (integer coefficient, creation power, annihilation
    power) triples.
    """
    out = []
    for k in range(min(q1, p2) + 1):
        c = math.comb(q1, k) * math.comb(p2, k) * math.factorial(k)
        out.append((c, p1 + p2 - k, q1 + q2 - k))
    return out


class LadderPolynomial:
    """Finite complex combination of normal-ordered ladder monomials."""

    __slots__ = ("n_modes", "terms")

    def __init__(self, n_modes, terms=None):
        self.n_modes = int(n_modes)
        clean = {}
        if terms:
            for sig, coeff in terms.items():
                c = complex(coeff)
                if c != 0:
                    clean[sig] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n_modes=1):
        return cls(n_modes)

    @classmethod
    def monomial(cls, coeff, exponents, n_modes=None):
        """Single monomial; ``exponents`` is ((cre, ann), ...) per mode."""
        sig = tuple((int(p), int(q)) for p, q in exponents)
        if n_modes is None:
            n_modes = len(sig)
        if len(sig) != n_modes:
            raise ValueError("exponent list does not match mode count")
        if any(p < 0 or q < 0 for p, q in sig):
            raise ValueError("exponents must be non-negative")
        return cls(n_modes, {sig: coeff})

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        """Largest total operator degree over all monomials (0 for zero)."""
        if not self.terms:
            return 0
        return max(sum(p + q for p, q in sig) for sig in self.terms)

    def mode_degrees(self):
        """Largest per-mode operator degree over all monomials."""
        out = [0] * self.n_modes
        for sig in self.terms:
            for m, (p, q) in enumerate(sig):
                out[m] = max(out[m], p + q)
        return tuple(out)

    def coefficient(self, exponents):
        return self.terms.get(tuple(tuple(pq) for pq in exponents), 0j)

    def max_abs_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    # -- arithmetic ---------------------------------------------------------

    def _require_same_modes(self, other):
        if self.n_modes != other.n_modes:
            raise ModeMismatch(
                f"mode counts differ: {self.n_modes} vs {other.n_modes}"
            )

    def __add__(self, other):
        if not isinstance(other, LadderPolynomial):
            return NotImplemented
        self._require_same_modes(other)
        terms = dict(self.terms)
        for sig, c in other.terms.items():
            terms[sig] = terms.get(sig, 0j) + c
        return LadderPolynomial(self.n_modes, terms)

    def __sub__(self, other):
        if not isinstance(other, LadderPolynomial):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, LadderPolynomial):
            return self._operator_product(other)
        return LadderPolynomial(
            self.n_modes, {s: c * other for s, c in self.terms.items()}
        )

    def __rmul__(self, other):
        # Scalars only; operator products are ordered and handled by __mul__.
        return LadderPolynomial(
            self.n_modes, {s: c * other for s, c in self.terms.items()}
        )

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = identity(self.n_modes)
        for _ in range(n):
            out = out * self
        return out

    def _operator_product(self, other):
        self._require_same_modes(other)
        terms = {}
        for sig1, c1 in self.terms.items():
            for sig2, c2 in other.terms.items():
                base = c1 * c2
                # Per-mode normal-ordered expansions, combined multiplicatively.
                expansions = [
                    _mode_product(p1, q1, p2, q2)
                    for (p1, q1), (p2, q2) in zip(sig1, sig2)
                ]
                stack = [(base, ())]
                for exp in expansions:
                    stack = [
                        (coeff * k, sig + ((p, q),))
                        for coeff, sig in stack
                        for k, p, q in exp
                    ]
                for coeff, sig in stack:
                    terms[sig] = terms.get(sig, 0j) + coeff
        return LadderPolynomial(self.n_modes, terms)

    def dagger(self):
        """Hermitian conjugate (exponent swap plus coefficient conjugation)."""
        return LadderPolynomial(
            self.n_modes,
            {
                tuple((q, p) for p, q in sig): np.conj(c)
                for sig, c in self.terms.items()
            },
        )

    def transpose(self):
        """Transpose in the number basis, where ladder matrices are real.

        Reverses each monomial without conjugating the coefficient:
        (ad^p a^q)^T = ad^q a^p.
        """
        return LadderPolynomial(
            self.n_modes,
            {tuple((q, p) for p, q in sig): c for sig, c in self.terms.items()},
        )

    def chop(self, tol=0.0):
        """Drop coefficients with magnitude <= tol (relative to the largest)."""
        scale = self.max_abs_coeff()
        cut = tol * scale
        return LadderPolynomial(
            self.n_modes, {s: c for s, c in self.terms.items() if abs(c) > cut}
        )

    def promote(self, n_modes):
        """Embed into a larger mode register (extra modes act as identity)."""
        if n_modes < self.n_modes:
            raise ValueError("cannot demote mode count")
        pad = ((0, 0),) * (n_modes - self.n_modes)
        return LadderPolynomial(
            n_modes, {sig + pad: c for sig, c in self.terms.items()}
        )

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LadderPolynomial):
            return NotImplemented
        return self.n_modes == other.n_modes and self.terms == other.terms

    def allclose(self, other, tol=1e-12):
        self._require_same_modes(other)
        diff = self - other
        scale = max(self.max_abs_coeff(), other.max_abs_coeff(), 1.0)
        return diff.max_abs_coeff() <= tol * scale

    def __hash__(self):
        return hash((self.n_modes, frozenset(self.terms.items())))

    # -- formatting ----------------------------------------------------------

    def __repr__(self):
        return f"LadderPolynomial({self.to_string()!r}, n_modes={self.n_modes})"

    def __str__(self):
        return self.to_string()

    def to_string(self):
        """Deterministic text form in the a/ad/b/bd/I token grammar."""
        if not self.terms:
            return "0"
        parts = []
        for sig in sorted(self.terms, key=lambda s: (sum(p + q for p, q in s), s)):
            coeff = self.terms[sig]
            factors = []
            for mode, (p, q) in enumerate(sig):
                up = ("ad", "bd")[mode] if mode < 2 else f"c{mode}d"
                dn = ("a", "b")[mode] if mode < 2 else f"c{mode}"
                if p:
                    factors.append(up if p == 1 else f"{up}^{p}")
                if q:
                    factors.append(dn if q == 1 else f"{dn}^{q}")
            body = "*".join(factors) if factors else "I"
            shown = _format_coeff(coeff)
            if shown == "1":
                parts.append(body)
            elif shown == "-1":
                parts.append(f"-{body}")
            else:
                parts.append(f"{shown}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


def _format_coeff(c):
    c = complex(c)
    if c.imag == 0:
        r = c.real
        if r == int(r) and abs(r) < 1e15:
            return str(int(r))
        return repr(r)
    if c.real == 0:
        im = c.imag
        if im == int(im) and abs(im) < 1e15:
            return f"{int(im)}j"
        return f"{im!r}j"
    return f"({c.real!r}{c.imag:+}j)"


# -- elementary generators ---------------------------------------------------


def identity(n_modes=1):
    return LadderPolynomial(n_modes, {((0, 0),) * n_modes: 1.0})


def annihilation(mode=0, n_modes=1):
    sig = tuple((0, 1) if m == mode else (0, 0) for m in range(n_modes))
    return LadderPolynomial(n_modes, {sig: 1.0})


def creation(mode=0, n_modes=1):
    sig = tuple((1, 0) if m == mode else (0, 0) for m in range(n_modes))
    return LadderPolynomial(n_modes, {sig: 1.0})


def number(mode=0, n_modes=1):
    sig = tuple((1, 1) if m == mode else (0, 0) for m in range(n_modes))
    return LadderPolynomial(n_modes, {sig: 1.0})


def normal_order(*factors):
    """Normal-ordered product of the given factors, left to right.

    With a single polynomial argument this is the identity map (polynomials
    are kept normal-ordered at all times), so the function is idempotent.
    """
    if not factors:
        raise ValueError("need at least one factor")
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def commutator(p, q):
    """Normal-ordered [p, q] = pq - qp."""
    if p.n_modes != q.n_modes:
        raise ModeMismatch(f"mode counts differ: {p.n_modes} vs {q.n_modes}")
    return p * q - q * p


# -- parsing -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?j?)"
    r"|(?P<ident>[A-Za-z]+\d*)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # Skip trailing whitespace cleanly.
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup is None:
            pos = m.end()
            continue
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := primary ('^' integer)?
    primary:= number | ident | '(' expr ')'
    """

    def __init__(self, text, n_modes):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.n_modes = n_modes

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.next()

    def parse(self):
        poly = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        if not np.all(np.isfinite(list(poly.terms.values()))):
            raise ParseError("a coefficient is not finite", 0)
        return poly

    def expr(self):
        sign = 1.0
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1.0 if val == "-" else 1.0
        out = sign * self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                nxt = self.term()
                out = out + nxt if val == "+" else out - nxt
            else:
                return out

    def term(self):
        out = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                out = out * self.factor()
            else:
                return out

    def factor(self):
        base = self.primary()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "number" or not val.isdigit():
                raise ParseError("exponent must be a non-negative integer", pos)
            base = base ** int(val)
        return base

    def primary(self):
        kind, val, pos = self.next()
        if kind == "number":
            scalar = complex(val) if val.endswith("j") else complex(float(val))
            return scalar * identity(self.n_modes)
        if kind == "ident":
            if val == "I":
                return identity(self.n_modes)
            if val not in _MODE_TOKENS:
                raise UnknownMode(
                    f"unknown operator token {val!r} at position {pos}; "
                    "supported tokens: a, ad, b, bd, I"
                )
            mode, is_creation = _MODE_TOKENS[val]
            if mode >= self.n_modes:
                raise UnknownMode(
                    f"token {val!r} at position {pos} needs mode {mode}, "
                    f"but only {self.n_modes} mode(s) are in play"
                )
            make = creation if is_creation else annihilation
            return make(mode, self.n_modes)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_polynomial(text, n_modes=None):
    """Parse polynomial text such as ``"0.5*ad^2"`` or ``"ad*a*(bd+b)"``.

    When ``n_modes`` is omitted it is inferred: two modes if a ``b``/``bd``
    token appears, one otherwise.  Raises ParseError for malformed text and
    for a polynomial with a non-finite coefficient (``1e400*a``).
    """
    if n_modes is None:
        n_modes = 2 if re.search(r"\bbd?\b", text) else 1
    return _Parser(text, n_modes).parse()


# -- linear algebra over monomial signatures ---------------------------------


def coefficient_matrix(polys):
    """Stack coefficient vectors over the union of monomial signatures.

    Returns (matrix with one column per polynomial, signature list).
    """
    signatures = sorted({sig for p in polys for sig in p.terms})
    index = {sig: i for i, sig in enumerate(signatures)}
    mat = np.zeros((len(signatures), len(polys)), dtype=complex)
    for j, p in enumerate(polys):
        for sig, c in p.terms.items():
            mat[index[sig], j] = c
    return mat, signatures


def _rank(mat, tol):
    if mat.size == 0:
        return 0
    r = scipy.linalg.qr(mat, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(r))
    if diag.size == 0:
        return 0
    return int(np.count_nonzero(diag > tol * max(diag[0], 1e-300)))


def is_independent(candidate, basis_polys, tol=INDEPENDENCE_TOL):
    """True when ``candidate`` is outside the span of ``basis_polys``."""
    if candidate.is_zero:
        return False
    if not basis_polys:
        return True
    with_c, _ = coefficient_matrix(list(basis_polys) + [candidate])
    return _rank(with_c, tol) > _rank(with_c[:, :-1], tol)


def coordinates_in_basis(poly, basis_polys, tol=1e-12):
    """Coordinates of ``poly`` in the span of ``basis_polys``.

    Raises NotClosed when the least-squares residual exceeds ``tol`` relative
    to the polynomial scale.
    """
    mat, signatures = coefficient_matrix(list(basis_polys) + [poly])
    rhs = mat[:, -1]
    mat = mat[:, :-1]
    coords, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    residual = np.max(np.abs(mat @ coords - rhs)) if rhs.size else 0.0
    scale = max(poly.max_abs_coeff(), 1.0)
    if residual > tol * scale:
        raise NotClosed(
            f"element {poly} lies outside the span (residual {residual:.3e})"
        )
    return coords


def _normalize_leading(poly):
    """Scale so the lexicographically-largest highest-degree monomial is 1."""
    lead = max(poly.terms, key=lambda s: (sum(p + q for p, q in s), s))
    return (1.0 / poly.terms[lead]) * poly


class LieBasis:
    """Ordered operator basis closed under commutation.

    ``central`` flags elements commuting with every other element (Casimir
    elements, e.g. the identity).  Central elements are kept in the basis;
    dropping them is the caller's choice.
    """

    def __init__(self, elements, central=None, check_independent=True):
        self.elements = list(elements)
        if not self.elements:
            raise ValueError("empty basis")
        n_modes = self.elements[0].n_modes
        for e in self.elements:
            if e.n_modes != n_modes:
                raise ModeMismatch("basis elements act on different registers")
        self.n_modes = n_modes
        if check_independent:
            mat, _ = coefficient_matrix(self.elements)
            if _rank(mat, INDEPENDENCE_TOL) < len(self.elements):
                raise ValueError("basis elements are linearly dependent")
        if central is None:
            central = self._detect_central()
        self.central = list(central)

    def _detect_central(self):
        flags = []
        for i, e in enumerate(self.elements):
            scale = max(e.max_abs_coeff(), 1.0)
            flags.append(
                all(
                    commutator(e, f).max_abs_coeff() <= 1e-12 * scale
                    for j, f in enumerate(self.elements)
                    if j != i
                )
            )
        return flags

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __iter__(self):
        return iter(self.elements)

    def reordered(self, order):
        """Basis with elements permuted by the index sequence ``order``."""
        if sorted(order) != list(range(len(self))):
            raise ValueError("order must be a permutation of basis indices")
        return LieBasis(
            [self.elements[i] for i in order],
            central=[self.central[i] for i in order],
            check_independent=False,
        )

    def span_matches(self, other, tol=INDEPENDENCE_TOL):
        """True when both bases span the same operator subspace."""
        if len(self) != len(other):
            return False
        joint, _ = coefficient_matrix(self.elements + other.elements)
        return _rank(joint, tol) == len(self)


def close_algebra(generators, max_dim=32):
    """Smallest commutator-closed basis containing ``generators``.

    Breadth-first over commutator pairs: each round commutes all previously
    known elements with the elements discovered in the last round (plus the
    new-new pairs), appending independent results in discovery order.  Newly
    discovered elements are rescaled so their leading monomial has unit
    coefficient; generators linearly dependent on earlier ones are skipped.
    Raises ClosureOverflow past ``max_dim`` elements.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    if max_dim < len(gens):
        raise ValueError("max_dim smaller than the generator count")

    basis = []
    for g in gens:
        if is_independent(g, basis):
            basis.append(g)

    frontier = list(range(len(basis)))
    while frontier:
        fresh = []
        # [old, new] and [new, new] pairs; i < j suffices by antisymmetry.
        pairs = [(i, j) for j in frontier for i in range(len(basis)) if i < j]
        for i, j in sorted(set(pairs)):
            cand = commutator(basis[i], basis[j])
            cand = cand.chop(1e-13)
            if cand.is_zero or not is_independent(cand, basis):
                continue
            if len(basis) + 1 > max_dim:
                raise ClosureOverflow(
                    f"closure exceeds max_dim={max_dim}; "
                    "the algebra may be infinite-dimensional"
                )
            basis.append(_normalize_leading(cand))
            fresh.append(len(basis) - 1)
        frontier = fresh
    return LieBasis(basis, check_independent=False)


def _reexpansion_residual(poly, coords, basis_polys):
    recon = LadderPolynomial(poly.n_modes)
    for w, b in zip(coords, basis_polys):
        if w != 0:
            recon = recon + complex(w) * b
    return (poly - recon).max_abs_coeff()


def structure_constants(basis, tol=1e-12):
    """Table c[j][k][l] with [H_j, H_k] = sum_l c[j][k][l] H_l.

    Raises NotClosed when any commutator leaves the span.  The re-expansion
    residual of every commutator is at most ``tol`` relative to its scale.
    Least-squares coordinates within 1e-9 of a half-integer lattice point
    are snapped to it when the snapped values still reproduce the commutator
    (ladder algebras carry small integer and half-integer constants; the
    residual check makes the snap safe for any exceptions).
    """
    n = len(basis)
    c = np.zeros((n, n, n), dtype=complex)
    for j in range(n):
        for k in range(j + 1, n):
            comm = commutator(basis[j], basis[k])
            if comm.is_zero:
                continue
            coords = coordinates_in_basis(comm, basis.elements, tol=tol)
            snapped = (np.round(coords.real * 2) + 1j * np.round(coords.imag * 2)) / 2
            scale = max(comm.max_abs_coeff(), 1.0)
            if (
                np.max(np.abs(snapped - coords)) <= 1e-9
                and _reexpansion_residual(comm, snapped, basis.elements)
                <= tol * scale
            ):
                coords = snapped
            c[j, k] = coords
            c[k, j] = -coords
    return c


def jacobi_residual(c):
    """Max violation of the standard Jacobi identity over all index triples."""
    # [H_j, [H_k, H_l]] coordinates: sum_m c[k,l,m] c[j,m,p]
    term = np.einsum("klm,jmp->jklp", c, c)
    total = term + np.einsum("jklp->ljkp", term) + np.einsum("jklp->kljp", term)
    return float(np.max(np.abs(total))) if total.size else 0.0


def adjoint_matrices(c):
    """Adjoint-representation matrices M_j with (M_j)[l, k] = c[j][k][l].

    M_j maps the coordinate vector of H_k to the coordinates of [H_j, H_k].
    """
    return [np.ascontiguousarray(c[j].T) for j in range(c.shape[0])]
