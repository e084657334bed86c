"""Brute-force propagation in a truncated Fock basis.

This is the package's ground truth: dense matrix images of ladder
polynomials, coherent states, a time-ordered propagator with step-halving
refinement, and the ordered-exponential image of a decoupling trajectory.
Every decoupled solution elsewhere in the package is tested against this
module.

Both brute-force oracles, :func:`propagate_state` here and
``liouville.propagate_density``, are driven by :func:`_stepped`, which
owns the output grid, the step size, the sampling of a time-dependent
generator and the step-halving refinement; each oracle supplies only its
sub-step.  The state oracle's sub-step is :meth:`_ExpStepper.cfm4_state`:
two order-4 commutator-free Magnus (CFM4) exponentials, each applied by a
Taylor series scaled into ceil(|dt| ||.||_1) pieces of norm <= 1, so a
time-dependent H is not diagonalised and no dense step matrix is formed.
``psi0`` may be a block of column states: :func:`propagate` is the oracle
applied to the identity, which is how operator-level checks get U(t).
:func:`oracle_hamiltonian` derives the oracle's H(t) from a decoupling
problem, summed once by the problem's own split of G(t) into constant and
time-dependent slots: a time-dependent H is sampled as a
:class:`TermSample`, the coefficients of fixed term matrices, which the
stepper checks for Hermiticity on the coefficients and sums into one dense
matrix per CFM4 exponent, so no dense H(t) is built, checked or copied per
sample.  The oracle shares two primitives with the ansatz
replay below: the Fock images, from one band construction
(:func:`to_matrix` places the bands in a dense matrix), which the tests pin
against matrices built from :func:`destroy`; and the scaled Taylor action
:func:`_taylor_step`, which the tests pin against ``scipy.linalg.expm``.

The package has five exponentials, each implemented once:
:func:`_taylor_step` acting on a vector (the oracle's time-dependent
sub-steps, the replay's multi-band factors, ``liouville``'s density
propagator); the cached ``eigh`` step of :class:`_ExpStepper` for a
constant H; :func:`_banded_exp_action` for a one-off-diagonal replay
factor; an elementwise ``exp`` for a diagonal one; ``scipy.linalg.expm``
(:func:`factor_exponential`) for a dense matrix.

The ordered exponential prod_j exp(-i F_j M_j) is replayed by
:func:`apply_ansatz` factor by factor on a state vector, or on a block of
column states (the identity, for the operator itself), so no dense
exponential is formed.  Given a table of coefficients, one column per
output row, it replays every row of a trajectory on one state at once:
the rows are the columns of working blocks of at most ``_REPLAY_BLOCK``
numbers, and come back as one C-contiguous array, each row bit-identical to
its own replay.  :func:`ansatz_matrices` builds each generator image once,
as a :class:`Bands`, so a replay of many rows does not build its factors
again and a two-mode image is never dense.  The replay picks each factor's
action from its bands: one band at offset 0 (a diagonal) multiplies
elementwise; one band at another offset (the image of every ladder
monomial ad^p a^q with p != q, in one or two modes) is nilpotent, so its
exponential is the terminating Taylor series, summed in full with
elementwise products; any other image goes through :func:`_taylor_step`.

:class:`Bands` (defined in ``wnd.bands``) is the package's one banded
form: a square operator held as its nonzero diagonals.  Every Fock image is
one, built by :func:`_image_bands` (a two-mode monomial as the
``Bands.kron`` of its per-mode bands), and so is the Liouville generator of
``liouville``, built by the same ``Bands.kron``; :func:`to_matrix` is an
image's dense matrix, so the bands are placed into a dense matrix in one
place only.

Truncation policy: a degree-d polynomial corrupts the top ~d levels of its
matrix image, and products of exponential factors push the corruption lower,
so operator-level comparisons should exclude the top rows/columns while
state-level comparisons should keep the population near the cutoff (the
"leakage") negligible.  :func:`check_leakage` is the one leakage rule for
every ``wnd run`` row, state or density, and it judges each mode apart.
"""

from __future__ import annotations

import cmath
import math
import numbers

import numpy as np

from . import engine, ladder
from .bands import Bands
from .errors import LeakageTooLarge, ModeMismatch, NonConvergent, NonHermitian


def destroy(cutoff):
    """Lowering operator on span{|0>, ..., |cutoff>}: a|n> = sqrt(n)|n-1>."""
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1).astype(complex)


def create(cutoff):
    return destroy(cutoff).conj().T


def number_op(cutoff):
    return np.diag(np.arange(cutoff + 1.0)).astype(complex)


def x_op(cutoff):
    a = destroy(cutoff)
    return (a.conj().T + a) / np.sqrt(2.0)


def p_op(cutoff):
    a = destroy(cutoff)
    return 1j * (a.conj().T - a) / np.sqrt(2.0)


def _image_bands(poly, cutoff):
    """Fock image of a normal-ordered polynomial as a :class:`Bands`.

    Only offsets some monomial reaches appear.  A monomial prod_m ad_m^p_m
    a_m^q_m moves mode m by p_m - q_m levels, so its image has one band,
    the :meth:`Bands.kron` of its per-mode bands.  Each per-mode band is
    built by elementwise products, in the order the dense products
    ad @ (ad @ ... 1) @ a @ a ... would take them, and monomials sharing an
    offset are summed in term order into accumulators that start at +0.0,
    so every entry is bit-identical to the dense construction and no
    dim x dim matrix is formed.  ``cutoff`` is an int (shared by all modes)
    or a per-mode tuple; two-mode images use the row-major tensor basis
    |n_a, n_b> -> n_a*(cutoff_b+1)+n_b.  Raises when the polynomial degree
    exceeds the cutoff.
    """
    if poly.n_modes > 2:
        raise ValueError("matrix images implemented for one or two modes")
    cutoffs = (cutoff,) * poly.n_modes if np.ndim(cutoff) == 0 else tuple(cutoff)
    if len(cutoffs) != poly.n_modes:
        raise ValueError("one cutoff per mode required")
    for mode, deg in enumerate(poly.mode_degrees()):
        if deg > cutoffs[mode]:
            raise ValueError(
                f"cutoff {cutoffs[mode]} too small for mode-{mode} degree {deg}"
            )
    dims = [c + 1 for c in cutoffs]

    # Lazily built per-mode images of ad^p a^q, each one band.
    band_cache = [{} for _ in cutoffs]

    def mode_band(mode, p, q):
        cache = band_cache[mode]
        if (p, q) not in cache:
            # Indexed by column: entry n sits in row n + p - q and is zero
            # where that row leaves the space.
            dim, k = dims[mode], q - p
            cols = np.arange(dim)
            band = np.ones(dim)
            for shift in range(p):
                rows = cols + shift + 1
                band = np.where(rows < dim, np.sqrt(rows) * band, 0.0)
            for _ in range(q):
                band = np.concatenate(([0.0], band[:-1] * np.sqrt(cols[1:])))
            band = band.astype(complex)
            cache[(p, q)] = Bands(dim, {k: band[k:] if k >= 0 else band[:dim + k]})
        return cache[(p, q)]

    acc = {}
    for sig, coeff in poly.terms.items():
        term = None
        for mode, (p, q) in enumerate(sig):
            band = mode_band(mode, p, q)
            term = band if term is None else term.kron(band)
        (k, band), = term.bands.items()
        acc.setdefault(k, np.zeros(band.shape, dtype=complex))
        acc[k] += coeff * band
    return Bands(int(np.prod(dims)), acc)


def to_matrix(poly, cutoff):
    """Dense matrix image of a normal-ordered polynomial.

    ``cutoff`` is an int (shared by all modes) or a per-mode tuple.  Two-mode
    images use the row-major tensor basis |n_a, n_b> -> n_a*(cutoff_b+1)+n_b.
    Raises when the polynomial degree exceeds the cutoff.  The bands come
    from the same construction as the replay images of
    :func:`ansatz_matrices`.
    """
    return _image_bands(poly, cutoff).toarray()


def oracle_hamiltonian(problem, cutoff, images=None):
    """H(t) = sum_j G_j(t) to_matrix(H_j, cutoff) of a decoupling problem.

    ``problem`` is an ``engine.DecouplingProblem``, and its own split of
    G(t) is summed once, at build time: the images of the constant slots,
    in basis order, into one matrix C, and the images of each
    ``g_varying`` signal's slots into one matrix M_k.  ``images`` (default:
    built here) are the :func:`ansatz_matrices` of the basis at
    ``cutoff``.  Returns the matrix C itself when every signal is
    constant.  Otherwise returns a callable t -> :class:`TermSample`, the
    coefficients (1, s_1(t), .., s_S(t)) of H(t) = C + sum_k s_k(t) M_k,
    each signal evaluated once; :func:`propagate_state` steps such a
    sample without forming a dense H(t) per sample.
    """
    if images is None:
        images = ansatz_matrices(problem.basis, cutoff)
    mats = [image.toarray() for image in images]
    driven = {i for _, idx in problem.g_varying for i in idx}
    fixed = [(i, g) for i, g in enumerate(problem.g_constant) if i not in driven]
    const = sum(g * mats[i] for i, g in fixed)
    if not problem.g_varying:
        return const
    # The term polynomials behind C and each M_k, whose monomial
    # coordinates judge a sample's Hermiticity; C's starts from zero.
    basis = list(problem.basis)
    polys = [sum((basis[i] * g for i, g in fixed), basis[0] * 0.0)]
    polys += [sum((basis[i] for i in idx[1:]), basis[idx[0]])
              for _, idx in problem.g_varying]
    if np.ndim(const) == 0:
        const = np.zeros_like(mats[0])
    terms = _Terms([const] + [sum(mats[i] for i in idx)
                              for _, idx in problem.g_varying], polys)
    signals = [sig for sig, _ in problem.g_varying]

    def h_eval(t):
        return TermSample(terms, np.array([1.0] + [sig(t) for sig in signals],
                                          dtype=complex))

    return h_eval


class _Terms:
    """The fixed part of a derived H(t) = sum_k c_k M_k: the term matrices
    ``mats`` = [C, M_1..M_S], their ||.||_1 (``norms``), and ``coords``,
    which maps (c, conj(c)) to the monomial coordinates of H stacked over
    those of H - H^dagger (E c - B conj(c), for E the coordinates of the
    term polynomials and B those of their adjoints).  Distinct monomials
    have independent images, so the second half vanishes exactly when the
    matrix H - H^dagger does."""

    def __init__(self, mats, polys):
        self.mats = mats
        self.shape = mats[0].shape
        self.norms = np.array([np.max(np.abs(m).sum(axis=0)) for m in mats])
        n = len(polys)
        both, _ = ladder.coefficient_matrix(polys + [p.dagger() for p in polys])
        e, b = both[:, :n], both[:, n:]
        self.coords = np.block([[e, np.zeros_like(b)], [e, -b]])


class TermSample:
    """One sample of a derived H(t): coefficients ``coeffs`` over the fixed
    term matrices [C, M_1..M_S] of :func:`oracle_hamiltonian`.

    Scalar ``*`` and ``+`` of samples of one H combine coefficients, so the
    CFM4 exponents of :func:`_cfm4_exponents` are samples too; numpy
    scalars defer to these operators.  :meth:`toarray` is the dense sum,
    :meth:`norm_bound` bounds its ||.||_1 from the terms' norms, and
    :meth:`check_hermitian` judges H - H^dagger on the coefficients.
    """

    __slots__ = ("terms", "coeffs")
    __array_ufunc__ = None

    def __init__(self, terms, coeffs):
        self.terms = terms
        self.coeffs = coeffs

    @property
    def shape(self):
        return self.terms.shape

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return TermSample(self.terms, self.coeffs * scalar)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, TermSample) or other.terms is not self.terms:
            return NotImplemented
        return TermSample(self.terms, self.coeffs + other.coeffs)

    def toarray(self):
        """sum_k c_k M_k as a dense matrix, one scaled add per term."""
        mats = self.terms.mats
        out = self.coeffs[0] * mats[0]
        for c, mat in zip(self.coeffs[1:], mats[1:]):
            out += c * mat
        return out

    def norm_bound(self):
        """sum_k |c_k| ||M_k||_1, a bound on ||H||_1."""
        return float(np.abs(self.coeffs) @ self.terms.norms)

    def check_hermitian(self):
        """Raise NonHermitian unless the coordinates of H - H^dagger are
        within 1e-12 (the tolerance of :func:`is_hermitian`) of those of H
        at their largest (at least 1), or when a coefficient is not
        finite."""
        c = self.coeffs
        if not all(map(cmath.isfinite, c.tolist())):
            raise NonHermitian("oracle propagator requires a finite H(t)")
        sizes = np.abs(self.terms.coords @ np.concatenate((c, c.conj()))).tolist()
        half = len(sizes) // 2
        if max(sizes[half:]) > 1e-12 * max(max(sizes[:half]), 1.0):
            raise NonHermitian("oracle propagator requires a Hermitian H(t)")


def is_hermitian(mat, tol=1e-12):
    scale = max(np.max(np.abs(mat)), 1.0)
    if not np.isfinite(scale):
        return False
    return np.max(np.abs(mat - mat.conj().T)) <= tol * scale


# Largest supported cutoff: a dense oracle's memory grows as cutoff^2.
MAX_CUTOFF = 512
MIN_CUTOFF = 24  # the smallest cutoff choose_cutoff suggests
# Largest share of a row's population a mode may keep in its top two levels.
LEAKAGE_TOL = 1e-8


def _top_two_share(populations):
    """(share, top, total) per row of ``populations`` (rows, levels): the
    population of the top two levels over the row's total, NaN for 0."""
    top, total = populations[:, -2:].sum(axis=1), populations.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return top / total, top, total


def check_leakage(what, times, populations):
    """Raise LeakageTooLarge, naming ``what``, at the first row where a mode
    keeps more than LEAKAGE_TOL of the row's population in its top two
    levels, or where that share is not a number (no population left).
    ``populations`` holds |psi|^2 or diag(rho) per row, of shape (rows,
    levels) or (rows, levels_a, levels_b); each mode's marginal is judged.
    """
    populations = np.asarray(populations)
    modes = range(populations.ndim - 1)
    shares = [_top_two_share(populations.sum(
        axis=tuple(1 + k for k in modes if k != mode))) for mode in modes]
    bad = np.array([~(share <= LEAKAGE_TOL) for share, _, _ in shares])
    if bad.any():
        i = np.flatnonzero(bad.any(axis=0))[0]
        mode = np.flatnonzero(bad[:, i])[0]
        _, top, total = shares[mode]
        raise LeakageTooLarge(
            f"{what} keeps {top[i]:.2e} of its population {total[i]:.2e} in "
            f"the top two levels of mode {'ab'[mode]} at t={times[i]:.6g}; "
            "raise the cutoff")


def coherent_state(alpha, cutoff, leakage_tol=1e-10):
    """Normalised truncation of exp(-|alpha|^2/2) alpha^n / sqrt(n!).

    Raises LeakageTooLarge when the top two levels hold more than
    ``leakage_tol`` of the truncated population, or that population
    underflows to 0, i.e. when the cutoff is too small for alpha; the
    message names the cutoff :func:`choose_cutoff` suggests for alpha.
    """
    alpha = complex(alpha)
    n = np.arange(cutoff + 1)
    if alpha == 0:
        vec = np.zeros(cutoff + 1, dtype=complex)
        vec[0] = 1.0
        return vec
    log_factorial = np.array([math.lgamma(k + 1) for k in range(cutoff + 1)])
    log_mag = -abs(alpha) ** 2 / 2 + n * np.log(abs(alpha)) - 0.5 * log_factorial
    vec = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))
    # Relative to what the truncation keeps: far beyond the cutoff every
    # amplitude underflows, nothing is kept and the share is NaN.
    (share,), (top,), (kept,) = _top_two_share(np.abs(vec[None]) ** 2)
    if not share <= leakage_tol:
        try:
            hint = f"; try cutoff {choose_cutoff(alpha)}"
        except ValueError as exc:
            hint = f"; {exc}"
        raise LeakageTooLarge(
            f"coherent state alpha={alpha} keeps {top:.2e} of its truncated "
            f"population {kept:.2e} in the top two levels at cutoff "
            f"{cutoff}{hint}"
        )
    return vec / np.linalg.norm(vec)


def fidelity(psi, phi):
    """|<psi|phi>|^2 for equal-cutoff state vectors."""
    if psi.shape != phi.shape:
        raise ModeMismatch("state cutoffs differ")
    return float(abs(np.vdot(psi, phi)) ** 2)


def expectation(op, psi):
    """<psi|A|psi>."""
    if op.shape[0] != psi.shape[0]:
        raise ModeMismatch("operator and state cutoffs differ")
    return complex(np.vdot(psi, op @ psi))


def variance(op, psi):
    """<A^2> - <A>^2 (real part; use Hermitian observables)."""
    mean = expectation(op, psi)
    return float((expectation(op @ op, psi) - mean ** 2).real)


# A Taylor piece has norm <= 1, so term k is below ||psi||/k! and roundoff is
# reached by k = 18; hitting this cap means the input was not finite.
_TAYLOR_MAX_TERMS = 30


def _taylor_step(op, dt, psi, norm=None):
    """exp(-i op dt) @ psi by a Taylor series on the vector.

    ``op`` is a dense matrix or a :class:`Bands` and ``dt`` a real or
    complex step.  The step is cut into ceil(|dt| ||op||_1) pieces, so every
    piece has norm <= 1 (the scaling behind Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 488 (2011)); one piece when that product is not finite.
    ||op||_1 is the largest column sum, computed once per :class:`Bands`;
    a caller that knows a bound on it passes ``norm`` instead (the oracle's
    sum_k |x_k| ||M_k||_1 of a :class:`TermSample`), which can only add
    pieces.
    ``psi`` is a vector or a block of column states.  Each piece sums terms
    until one falls below roundoff relative to psi (its Frobenius norm for a
    block).
    Raises NonConvergent when a piece needs more than _TAYLOR_MAX_TERMS
    terms, which only non-finite input can cause.
    """
    if norm is None:
        norm = op.norm1() if isinstance(op, Bands) else np.max(abs(op).sum(axis=0))
    reach = abs(dt) * norm
    pieces = max(1, int(np.ceil(reach))) if np.isfinite(reach) else 1
    scale = -1j * dt / pieces
    tol_sq = np.finfo(float).eps ** 2 * np.vdot(psi, psi).real
    for _ in range(pieces):
        out = psi.copy()
        term = psi
        for k in range(1, _TAYLOR_MAX_TERMS + 1):
            term = op @ term
            term *= scale / k
            out += term
            if np.vdot(term, term).real <= tol_sq:
                break
        else:
            raise NonConvergent(
                f"Taylor step did not reach roundoff in {_TAYLOR_MAX_TERMS} terms"
            )
        psi = out
    return psi


# Order-4 commutator-free Magnus step with two exponentials (Blanes & Moan,
# Appl. Numer. Math. 56, 1519 (2006)): H is sampled at the Gauss-Legendre
# nodes t + (1/2 -+ sqrt(3)/6) dt, i.e. the sub-step midpoint -+
# _CFM4_NODE * dt, and exp(-i dt (a1 H1 + a2 H2)) is applied first, then
# exp(-i dt (a2 H1 + a1 H2)), with a1,2 = 1/4 +- sqrt(3)/6.
_CFM4_NODE = np.sqrt(3.0) / 6.0
_CFM4_A1 = 0.25 + np.sqrt(3.0) / 6.0
_CFM4_A2 = 0.25 - np.sqrt(3.0) / 6.0


def _cfm4_exponents(g1, g2):
    """The two CFM4 exponents from the generator samples ``g1``, ``g2`` at
    the two Gauss-Legendre nodes, in the order they act on the state.

    A sub-step of size dt is exp(-i dt X2) exp(-i dt X1) for (X1, X2) the
    returned pair; ``g1``, ``g2`` are dense matrices, :class:`Bands` or
    :class:`TermSample`s, which combine coefficients here.  Both
    oracles form their time-dependent sub-steps here.
    """
    return _CFM4_A1 * g1 + _CFM4_A2 * g2, _CFM4_A2 * g1 + _CFM4_A1 * g2


class _ExpStepper:
    """CFM4 sub-steps with a cache for a repeated H.

    ``cfm4_state`` applies one CFM4 sub-step to a state or a block of column
    states.  Samples that are :class:`TermSample`s (a derived H, also when
    a wrapper returns them unchanged) are checked for Hermiticity on their
    coefficients, and each CFM4 exponent is summed into one dense matrix
    and applied by :func:`_taylor_step` with the terms' norm bound; no
    dense H is checked or copied.  Matrix samples take the content path:
    when the two are equal (a constant drive) the step is exactly
    exp(-i H dt), taken from the eigen step matrix cached for that H and
    dt; otherwise each of the two exponentials goes through
    :func:`_taylor_step`, so a time-dependent H is not diagonalised.  Every
    matrix H that differs from the previous evaluation is checked for
    Hermiticity.  Both paths raise NonHermitian, also for a non-finite H.
    A repeat is detected by content, so one stepper serves every refinement
    pass of a call and a later pass reuses an eigendecomposition only for
    an equal H.
    """

    def __init__(self):
        self._h = None
        self._eig = None
        self._dt = None
        self._step = None

    def _is_repeat(self, h):
        """True when ``h`` equals the previous H; otherwise record it."""
        if self._h is not None and h.shape == self._h.shape and np.array_equal(h, self._h):
            return True
        if not is_hermitian(h):
            raise NonHermitian("oracle propagator requires a Hermitian H(t)")
        self._h = h.copy()
        self._eig = None
        self._dt = None
        return False

    def _cached_step(self, dt):
        if self._eig is None:
            self._eig = np.linalg.eigh(self._h)
        # Output intervals of a uniform grid differ by float dust; matching
        # dt to relative 1e-12 keeps one step matrix per genuine step size.
        if self._dt is None or abs(dt - self._dt) > 1e-12 * self._dt:
            w, v = self._eig
            self._step = (v * np.exp(-1j * w * dt)) @ v.conj().T
            self._dt = dt
        return self._step

    def cfm4_state(self, h1, h2, dt, psi, _t_mid=None):
        """One CFM4 sub-step of size ``dt`` on ``psi`` from the samples
        ``h1``, ``h2`` at the two Gauss-Legendre nodes; the sub-step's
        midpoint, which :func:`_stepped` passes, is not needed."""
        if isinstance(h1, TermSample):
            h1.check_hermitian()
            h2.check_hermitian()
            for exponent in _cfm4_exponents(h1, h2):
                psi = _taylor_step(exponent.toarray(), dt, psi,
                                   exponent.norm_bound())
            return psi
        self._is_repeat(h1)
        if self._is_repeat(h2):
            return self._cached_step(dt) @ psi
        for exponent in _cfm4_exponents(h1, h2):
            psi = _taylor_step(exponent, dt, psi)
        return psi


def _stepped(generator, x0, times, dt, tol, max_refinements, what, step,
             span=None):
    """The one driver of both oracles: ``x0`` stepped over the grid ``times``.

    ``generator`` is a matrix or a callable t -> sample, a matrix or
    anything ``step`` takes (such as a :class:`TermSample`).  Each output
    interval is cut into equal sub-steps that land on its end, and a
    sub-step of size h with midpoint t_mid is x <- step(g1, g2, h, x,
    t_mid): g1, g2 are the callable's samples at the two Gauss-Legendre
    nodes t_mid -+ sqrt(3)/6 h of the CFM4 step (:func:`_cfm4_exponents`),
    or the matrix itself, twice.  A one-point grid [0] takes no step and
    returns x0 as its one row; neither ``generator`` nor ``dt`` is
    looked at.

    A matrix is constant, so each interval is one exact step, in one pass,
    and ``dt`` plays no part.  A callable takes sub-steps of at most dt,
    dt/2, dt/4, ... until the final state moves by at most ``tol``
    (max-abs) between successive passes, and the finer pass is returned;
    sampling cannot show that a callable is constant, so it is always
    refined, and the CFM4 error falls as dt^4.

    ``span`` (default: the last grid time) bounds the grid; ``dt`` defaults
    to span/2000.  Raises ValueError for a grid that is empty, not 1-D, not
    finite, does not start at 0, does not increase strictly or runs past
    ``span``, and, on a grid of two or more points, unless dt is finite
    with 0 < dt <= span/100;
    NonConvergent, naming ``what``, when ``max_refinements`` halvings do not
    settle.  Returns the states at ``times``, x0 first, as one array.
    """
    times = engine._output_grid(times, span)
    if len(times) == 1:
        return np.array([x0])
    span = float(times[-1] if span is None else span)
    if dt is None:
        dt = span / 2000.0
    if not (np.isfinite(dt) and 0.0 < dt <= span / 100.0):
        raise ValueError("dt must be finite, positive and at most span/100")
    constant = not callable(generator)

    def run(dt_target):
        x, out = x0, [x0]
        for lo, hi in zip(times[:-1], times[1:]):
            n_sub = 1 if constant else max(
                1, int(np.ceil((hi - lo) / dt_target - 1e-12)))
            sub_dt = (hi - lo) / n_sub
            offset = _CFM4_NODE * sub_dt
            for j in range(n_sub):
                t_mid = lo + (j + 0.5) * sub_dt
                if constant:
                    g1 = g2 = generator
                else:
                    g1, g2 = generator(t_mid - offset), generator(t_mid + offset)
                x = step(g1, g2, sub_dt, x, t_mid)
            out.append(x)
        return np.array(out)

    if constant:
        return run(None)
    prev = run(dt)
    for k in range(1, max_refinements + 1):
        nxt = run(dt / 2 ** k)
        if float(np.max(np.abs(nxt[-1] - prev[-1]))) <= tol:
            return nxt
        prev = nxt
    raise NonConvergent(
        f"{what} did not settle within {max_refinements} step halvings"
    )


def propagate(hamiltonian, t_final, dt=None, drift_tol=1e-9, max_refinements=10):
    """Time-ordered propagator U(t_final, 0).

    :func:`propagate_state` applied to the identity, as a block of column
    states, on the grid [0, t_final], with the same ``hamiltonian`` forms,
    step policy and errors; column k is the trajectory of basis state k.
    """
    h0 = hamiltonian(0.0) if callable(hamiltonian) else hamiltonian
    eye = np.eye(np.shape(h0)[0], dtype=complex)
    return propagate_state(hamiltonian, eye, [0.0, float(t_final)], dt=dt,
                           drift_tol=drift_tol,
                           max_refinements=max_refinements)[-1]


def propagate_state(hamiltonian, psi0, times, dt=None, drift_tol=1e-9,
                    max_refinements=10):
    """State trajectory of the oracle: :func:`_stepped` with the sub-step
    :meth:`_ExpStepper.cfm4_state` of one stepper for the whole call.

    ``hamiltonian`` is a Hermitian matrix or a callable t -> matrix, or
    t -> :class:`TermSample` (:func:`oracle_hamiltonian`), and
    ``drift_tol`` is the driver's refinement tolerance.  ``psi0`` is a
    state of shape (dim,) or a block of k column states of shape (dim, k).
    Raises ValueError for a bad grid or dt, NonHermitian for a
    non-Hermitian or non-finite H, and NonConvergent when the refinement
    does not settle or a Taylor series meets a non-finite state.  Returns
    an array of shape (len(times), dim), or (len(times), dim, k) for a
    block.
    """
    return _stepped(hamiltonian, np.asarray(psi0, dtype=complex), times, dt,
                    drift_tol, max_refinements, "state propagation",
                    _ExpStepper().cfm4_state)


def factor_exponential(coefficient, mat):
    """exp(-i * coefficient * mat) by ``scipy.linalg.expm``, which takes a
    diagonal ``mat`` elementwise."""
    import scipy.linalg

    return scipy.linalg.expm(-1j * coefficient * mat)


def ansatz_matrices(basis, cutoff):
    """Fock images of the basis elements, in basis (ansatz) order.

    Each is the :class:`Bands` of :func:`_image_bands`, built once, so a
    replay of many rows does not build its factors again and a two-mode
    image is never dense.
    """
    return [_image_bands(elem, cutoff) for elem in basis]


def _banded_exp_action(coefficient, band, offset, psi):
    """exp(coefficient * M) @ psi for M with entries ``band`` on the single
    off-diagonal ``offset`` (``band = np.diagonal(M, offset)``); ``psi`` is
    a vector or a block of column states, and ``coefficient`` a scalar or,
    for a block, one coefficient per column.

    M^k lives on diagonal k * offset, so M is nilpotent and the Taylor series
    ends after ceil(dim / |offset|) terms.  Every term is summed on its
    shrinking support (rows [0, dim - k|offset|) above the diagonal, rows
    [k|offset|, dim) below it), so the work does not depend on the
    coefficient and the series has no truncation error.
    """
    step = abs(offset)
    scaled = band.reshape((-1,) + (1,) * (psi.ndim - 1)) * coefficient
    out = psi.copy()
    term = psi
    k = 1
    while term.shape[0] > step:
        m = term.shape[0] - step
        if offset > 0:
            term = scaled[:m] * term[step:]
            term /= k
            out[:m] += term
        else:
            term = scaled[-m:] * term[:m]
            term /= k
            out[-m:] += term
        k += 1
    return out


# Largest working block of a replayed table, in complex numbers: the rows
# are replayed in blocks of max(1, _REPLAY_BLOCK // dim) columns, so a long
# grid keeps the memory of a short one.
_REPLAY_BLOCK = 2 ** 15


def apply_ansatz(f_values, matrices, state=None):
    """Ordered product U = prod_j exp(-i F_j M_j) acting on ``state``.

    ``f_values`` may come straight from ``CoefficientTrajectory.final``;
    ``matrices`` is the :class:`Bands` list of :func:`ansatz_matrices`.
    The factors act right to left on ``state``, a vector or a block of
    column states, and U @ state is returned without forming U; without
    ``state`` they act on the identity, which returns U.  Diagonal
    generators multiply elementwise by exp(-i F_j diag M_j); a generator
    with its nonzeros on one off-diagonal is nilpotent and its terminating
    Taylor series is summed without BLAS calls; every other generator,
    one without a band too, goes through
    :func:`_taylor_step`, the scaled Taylor series of the oracle, in
    ceil(|F_j| ||M_j||_1) pieces.

    A table ``f_values`` of shape (n, rows), such as
    ``CoefficientTrajectory.values``, takes one state vector and replays
    every row: column r of a working block is ``state`` driven by
    ``f_values[:, r]``, and each factor acts on the whole block, a
    multi-band one column by column, so every row is bit-identical to its
    own replay.  The block holds at most ``_REPLAY_BLOCK`` numbers (one
    column at least); each block after the first is one more call of this
    function.  Returns the rows as one C-contiguous (rows, dim) array, so a
    row reads as a contiguous vector.  Rejects non-finite coefficients, a
    coefficient/matrix count mismatch, and a table without a state vector.
    """
    f_values = np.asarray(f_values, dtype=complex)
    if not np.all(np.isfinite(f_values)):
        raise ValueError("non-finite ansatz coefficients")
    if len(f_values) != len(matrices):
        raise ValueError("coefficient/matrix count mismatch")
    if state is None:
        state = np.eye(matrices[0].shape[0])
    psi = np.asarray(state, dtype=complex)
    table = f_values.ndim == 2
    if table:
        if psi.ndim != 1:
            raise ValueError("a coefficient table replays one state vector")
        dim, rows = psi.shape[0], f_values.shape[1]
        width = max(1, _REPLAY_BLOCK // dim)
        out = np.empty((rows, dim), dtype=complex)
        for lo in range(width, rows, width):
            out[lo:lo + width] = apply_ansatz(f_values[:, lo:lo + width],
                                              matrices, psi)
        f_values = f_values[:, :width]
        psi = np.repeat(psi[:, None], f_values.shape[1], axis=1)
    column = (-1,) + (1,) * (psi.ndim - 1)
    for f, image in zip(f_values[::-1], matrices[::-1]):
        if len(image.bands) == 1:
            (offset, band), = image.bands.items()
            if offset == 0:
                psi = np.exp(-1j * f * band.reshape(column)) * psi
            else:
                psi = _banded_exp_action(-1j * f, band, offset, psi)
        elif table:
            for r, f_r in enumerate(f):
                psi[:, r] = _taylor_step(image, f_r,
                                         np.ascontiguousarray(psi[:, r]))
        else:
            psi = _taylor_step(image, f, psi)
    if table:
        out[:psi.shape[1]] = psi.T
        return out
    return psi


def ansatz_state(trajectory, cutoff, initial):
    """Apply the endpoint ansatz of a trajectory to an initial state."""
    mats = ansatz_matrices(trajectory.basis, cutoff)
    return apply_ansatz(trajectory.final, mats, initial)


def choose_cutoff(alpha=0.0, displacement=0.0, squeezing=0.0):
    """Cutoff heuristic from expected occupation.

    ``displacement`` bounds the extra coherent amplitude accumulated by the
    drive, ``squeezing`` the squeezing parameter r.  The returned cutoff
    keeps the estimated occupation below cutoff/2 with a spread margin, and
    is at least MIN_CUTOFF; raises ValueError past MAX_CUTOFF.
    """
    amp = abs(alpha) + abs(displacement)
    n_est = (amp ** 2 + np.sinh(abs(squeezing)) ** 2) * np.exp(2 * abs(squeezing))
    cut = int(np.ceil(2 * n_est + 12 * np.sqrt(n_est + 1) + 8))
    cut = max(MIN_CUTOFF, cut)
    if cut > MAX_CUTOFF:
        raise ValueError(f"required cutoff {cut} exceeds supported ceiling {MAX_CUTOFF}")
    return cut
