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
adjoint-representation matrices.  Every span question is one least-squares
fit, judged at the size the tested polynomial was computed at (see
INDEPENDENCE_TOL), so rescaling a generator never changes a closure.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

from .errors import (
    ClosureOverflow,
    CoefficientOverflow,
    ModeMismatch,
    NotClosed,
    ParseError,
    UnknownMode,
)

# A polynomial is in a span when its least-squares residual (largest
# coefficient) is at most this fraction of the size it was computed at: its
# own largest coefficient, or for a commutator [p, q] the largest product
# c_s*c_t*k that a non-commuting pair of terms of p and q put into it.  A
# fit whose largest term |x_j|*|H_j| is larger is judged at that term.
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
                    try:
                        stack = [
                            (coeff * k, sig + ((p, q),))
                            for coeff, sig in stack
                            for k, p, q in exp
                        ]
                    except OverflowError:
                        raise CoefficientOverflow(
                            "a normal-ordering coefficient of a product "
                            "exceeds the float range"
                        ) from None
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
        """Whether the difference is within ``tol`` of the larger
        polynomial's largest coefficient; no absolute floor, so small
        polynomials are compared at their own size."""
        self._require_same_modes(other)
        diff = self - other
        scale = max(self.max_abs_coeff(), other.max_abs_coeff())
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


@functools.cache
def _monomial_commutator(s, t):
    """Exact [m_s, m_t] of unit monomials: (signature, integer) pairs."""
    m, n = LadderPolynomial(len(s), {s: 1.0}), LadderPolynomial(len(t), {t: 1.0})
    return tuple((m * n - n * m).terms.items())


def _bracket(p, q):
    """[p, q] summed over pairs of terms, and the size it was computed at.

    Commuting pairs add nothing, not even roundoff.  The size is the largest
    product c_s*c_t*k a non-commuting pair puts in, so a large commuting
    part of p or q does not hide a small bracket.
    """
    if p.n_modes != q.n_modes:
        raise ModeMismatch(f"mode counts differ: {p.n_modes} vs {q.n_modes}")
    terms, size = {}, 0.0
    for s, cs in p.terms.items():
        for t, ct in q.terms.items():
            for sig, k in _monomial_commutator(s, t):
                terms[sig] = terms.get(sig, 0j) + cs * ct * k
                size = max(size, abs(cs * ct * k))
    return LadderPolynomial(p.n_modes, terms), size


def commutator(p, q):
    """Normal-ordered [p, q] = pq - qp."""
    return _bracket(p, q)[0]


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


# Deepest parenthesis nesting the recursive-descent parser accepts; each
# level takes four Python frames, so this stays far below the recursion
# limit.
MAX_NESTING = 100

# Largest exponent the parser accepts.  A power multiplies once per unit of
# its exponent, and no Fock image of a higher degree exists below the
# largest supported cutoff, ``fock.MAX_CUTOFF`` = 512 levels.
MAX_EXPONENT = 512


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := primary ('^' integer)?
    primary:= number | ident | '(' expr ')'

    Parentheses may nest at most MAX_NESTING deep, and an exponent is at
    most MAX_EXPONENT.
    """

    def __init__(self, text, n_modes):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.n_modes = n_modes
        self.depth = 0

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
            # Compared by digit count first: int() refuses a text of over
            # 4300 digits.
            digits = val.lstrip("0") or "0"
            if (len(digits) > len(str(MAX_EXPONENT))
                    or int(digits) > MAX_EXPONENT):
                raise ParseError(f"exponent exceeds {MAX_EXPONENT}", pos)
            base = base ** int(digits)
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
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_polynomial(text, n_modes=None):
    """Parse polynomial text such as ``"0.5*ad^2"`` or ``"ad*a*(bd+b)"``.

    When ``n_modes`` is omitted it is inferred: two modes if a ``b``/``bd``
    token appears, one otherwise.  Raises ParseError for malformed text,
    for parentheses nested deeper than MAX_NESTING, for an exponent above
    MAX_EXPONENT and for a polynomial with a non-finite coefficient
    (``1e400*a``), and CoefficientOverflow when normal ordering a product
    needs a coefficient past the float range (``a^300*ad^300``).
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


def _fit(basis_polys, targets, sizes=None):
    """Least-squares coordinates of each target in the span of ``basis_polys``.

    Basis columns are scaled to unit largest entry, so lstsq's cutoff sees
    each element at its own size.  Returns (coords, misfit): coords[:, t]
    fits targets[t], and misfit(x) is each target's largest residual
    coefficient at coordinates x over the size it is judged at, ``sizes[t]``
    (default: its largest coefficient) or the fit's largest term if larger.
    """
    n = len(basis_polys)
    mat, _ = coefficient_matrix(list(basis_polys) + list(targets))
    cols, rhs = mat[:, :n], mat[:, n:]
    if sizes is None:
        sizes = [t.max_abs_coeff() for t in targets]
    scale = np.max(np.abs(cols), axis=0, initial=0.0)
    scale[scale == 0] = 1.0
    coords = np.linalg.lstsq(cols / scale, rhs, rcond=None)[0] / scale[:, None]

    def misfit(x):
        residual = np.max(np.abs(cols @ x - rhs), axis=0, initial=0.0)
        terms = np.max(np.abs(x) * scale[:, None], axis=0, initial=0.0)
        size = np.maximum(sizes, terms)
        return np.divide(residual, size, out=0 * residual, where=residual > 0)

    return coords, misfit


def is_independent(candidate, basis_polys, tol=INDEPENDENCE_TOL):
    """True when ``candidate`` is outside the span of ``basis_polys``."""
    coords, misfit = _fit(basis_polys, [candidate])
    return bool(misfit(coords)[0] > tol)


def coordinates_in_basis(poly, basis_polys, tol=1e-12):
    """Coordinates of ``poly`` in the span of ``basis_polys``.

    Raises NotClosed when the least-squares residual exceeds ``tol`` relative
    to the polynomial's largest coefficient (or to the fit's largest term).
    """
    coords, misfit = _fit(basis_polys, [poly])
    residual = misfit(coords)[0]
    if residual > tol:
        raise NotClosed(
            f"element {poly} lies outside the span (residual {residual:.3e})"
        )
    return coords[:, 0]


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
        if check_independent and not all(
            is_independent(e, self.elements[:k])
            for k, e in enumerate(self.elements)
        ):
            raise ValueError("basis elements are linearly dependent")
        if central is None:
            central = self._detect_central()
        self.central = list(central)

    def _detect_central(self):
        return [
            all(comm.max_abs_coeff() <= 1e-12 * size
                for comm, size in (_bracket(e, f) for f in self.elements))
            for e in self.elements
        ]

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
        coords, misfit = _fit(self.elements, other.elements)
        return bool(np.all(misfit(coords) <= tol))


def close_algebra(generators, max_dim=32):
    """Smallest commutator-closed basis containing ``generators``.

    Breadth-first over commutator pairs: each round commutes all previously
    known elements with the elements discovered in the last round (plus the
    new-new pairs), appending independent results in discovery order; the
    roundoff left by an exact cancellation is not one.  Newly discovered
    elements are rescaled so their leading monomial has unit coefficient;
    generators linearly dependent on earlier ones are skipped.  Raises
    ClosureOverflow past ``max_dim`` elements.
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
            cand, size = _bracket(basis[i], basis[j])
            cand = cand.chop(1e-13)
            coords, misfit = _fit(basis, [cand], [size])
            if misfit(coords)[0] <= INDEPENDENCE_TOL:
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


def structure_constants(basis, tol=1e-12):
    """Table c[j][k][l] with [H_j, H_k] = sum_l c[j][k][l] H_l.

    All n(n-1)/2 commutators are fitted at once.  Raises NotClosed when the
    residual of any [H_j, H_k] exceeds ``tol`` times the size it was computed
    at (see INDEPENDENCE_TOL).  Coordinates within 1e-9 of the half-integer
    lattice are snapped to it when the snapped values still fit within that
    bound (ladder algebras carry small integer and half-integer constants;
    the residual check makes the snap safe for any exceptions).
    """
    n = len(basis)
    c = np.zeros((n, n, n), dtype=complex)
    rows, cols = np.triu_indices(n, 1)
    brackets = [_bracket(basis[j], basis[k]) for j, k in zip(rows, cols)]
    comms = [comm for comm, _ in brackets]
    coords, misfit = _fit(basis.elements, comms, [size for _, size in brackets])
    residual = misfit(coords)
    if np.any(residual > tol):
        m = np.argmax(residual > tol)
        raise NotClosed(f"[H_{rows[m]}, H_{cols[m]}] = {comms[m]} lies outside "
                        f"the span (residual {residual[m]:.3e})")
    snapped = (np.round(coords.real * 2) + 1j * np.round(coords.imag * 2)) / 2
    near = np.max(np.abs(snapped - coords), axis=0, initial=0.0) <= 1e-9
    snap = near & (misfit(snapped) <= tol)
    coords[:, snap] = snapped[:, snap]
    c[rows, cols] = coords.T
    c[cols, rows] = -coords.T
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
