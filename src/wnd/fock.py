"""Brute-force propagation in a truncated Fock basis.

This is the package's ground truth: dense matrix images of ladder
polynomials, coherent states, a time-ordered propagator with step-halving
refinement, and the ordered-exponential image of a decoupling trajectory.
Every decoupled solution elsewhere in the package is tested against this
module.

The oracle, :func:`propagate_state`, takes order-4 commutator-free Magnus
(CFM4) sub-steps: H is sampled at the two Gauss-Legendre nodes of each
sub-step and psi <- exp(-i dt (a2 H1 + a1 H2)) exp(-i dt (a1 H1 + a2 H2))
psi, each exponential applied by a Taylor series scaled into ceil(|dt|
||.||_1) pieces of norm <= 1, so a time-dependent H is not diagonalised and
no dense step matrix is formed.  Its error falls as dt^4, and a callable H
is refined by step halving until the final state settles.  A matrix H is
constant, so every sub-step is exactly its cached eigen step
exp(-i H dt) and one pass is returned.  ``psi0`` may be a block of column
states: :func:`propagate` is the oracle applied to the identity, which is
how operator-level checks get U(t).  The density propagator in
``liouville`` shares the grid-landing loop and the step-halving loop.
:func:`oracle_hamiltonian` derives the oracle's H(t) from a decoupling
problem.  The oracle shares two primitives with the ansatz replay below:
the Fock images, from one band construction (:func:`to_matrix` places the
bands in a dense matrix), which the tests pin against matrices built from
:func:`destroy`; and the scaled Taylor action :func:`_taylor_step`, which
the tests pin against ``scipy.linalg.expm``.

The package has one exponential per form: :func:`_taylor_step` for an
exponential acting on a vector (the oracle, the replay's multi-band
factors and the density propagator in ``liouville``), ``scipy.linalg.expm``
for a dense matrix.

The ordered exponential prod_j exp(-i F_j M_j) is replayed by
:func:`apply_ansatz` factor by factor on a state vector, or on a block of
column states (the identity, for the operator itself), so no dense
exponential is formed.  :func:`ansatz_matrices` classifies each generator
image once, as a :class:`FactorImage` (a diagonal, one band, or a CSR
matrix), so a replay of many rows does not inspect its factors again and a
two-mode image is never dense.  Diagonal factors multiply elementwise; a
generator whose nonzeros lie on one off-diagonal (the image of every ladder
monomial ad^p a^q with p != q, in one or two modes) is nilpotent, so its
exponential is the terminating Taylor series, summed in full with
elementwise products; any other generator (a CSR image) goes through
:func:`_taylor_step`.

Truncation policy: a degree-d polynomial corrupts the top ~d levels of its
matrix image, and products of exponential factors push the corruption lower,
so operator-level comparisons should exclude the top rows/columns while
state-level comparisons should keep the population near the cutoff (the
"leakage") negligible.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.special import gammaln

from .errors import LeakageTooLarge, ModeMismatch, NonConvergent, NonHermitian
from .signals import Constant


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
    """Fock image of a normal-ordered polynomial as (dim, {offset: band}).

    ``band`` is ``np.diagonal(image, offset)`` (numpy's offset, column minus
    row); only offsets some monomial reaches appear.  A monomial prod_m
    ad_m^p_m a_m^q_m moves mode m by p_m - q_m levels, so its image has one
    band, the Kronecker product of its per-mode bands.  Each per-mode band is
    built by elementwise products, in the order the dense products
    ad @ (ad @ ... 1) @ a @ a ... would take them, and monomials sharing an
    offset are summed in term order, so every entry is bit-identical to the
    dense construction and no dim x dim matrix is formed.  ``cutoff`` is an
    int (shared by all modes) or a per-mode tuple; two-mode images use the
    row-major tensor basis |n_a, n_b> -> n_a*(cutoff_b+1)+n_b.  Raises when
    the polynomial degree exceeds the cutoff.
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

    # Lazily built per-mode bands of ad^p a^q, indexed by column: entry n
    # sits in row n + p - q and is zero where that row leaves the space.
    band_cache = [{} for _ in cutoffs]

    def mode_band(mode, p, q):
        cache = band_cache[mode]
        if (p, q) not in cache:
            cols = np.arange(dims[mode])
            band = np.ones(dims[mode])
            for shift in range(p):
                rows = cols + shift + 1
                band = np.where(rows < dims[mode], np.sqrt(rows) * band, 0.0)
            for _ in range(q):
                band = np.concatenate(([0.0], band[:-1] * np.sqrt(cols[1:])))
            cache[(p, q)] = band.astype(complex)
        return cache[(p, q)]

    dim = int(np.prod(dims))
    by_column = {}
    for sig, coeff in poly.terms.items():
        vec, shift = None, 0
        for mode, (p, q) in enumerate(sig):
            band = mode_band(mode, p, q)
            vec = band if vec is None else np.kron(vec, band)
            shift = shift * dims[mode] + p - q
        acc = by_column.setdefault(-shift, np.zeros(dim, dtype=complex))
        acc += coeff * vec
    return dim, {k: v[k:] if k >= 0 else v[:dim + k] for k, v in by_column.items()}


def to_matrix(poly, cutoff):
    """Dense matrix image of a normal-ordered polynomial.

    ``cutoff`` is an int (shared by all modes) or a per-mode tuple.  Two-mode
    images use the row-major tensor basis |n_a, n_b> -> n_a*(cutoff_b+1)+n_b.
    Raises when the polynomial degree exceeds the cutoff.  The bands come
    from the same construction as the replay images of
    :func:`ansatz_matrices`.
    """
    dim, bands = _image_bands(poly, cutoff)
    out = np.zeros((dim, dim), dtype=complex)
    for k, band in bands.items():
        rows = np.arange(band.size) + max(0, -k)
        out[rows, rows + k] = band
    return out


def oracle_hamiltonian(problem, cutoff):
    """H(t) = sum_j G_j(t) to_matrix(H_j, cutoff) of a decoupling problem.

    ``problem`` supplies ``basis`` and ``signals`` (a
    ``engine.DecouplingProblem``).  The images of elements with a
    ``Constant`` signal are summed once, as are those of elements that share
    one signal object; the rest is added at each evaluation.  Returns the
    matrix itself when every signal is constant, else a callable t -> H(t),
    the two forms :func:`propagate_state` takes.
    """
    const = 0.0
    varying = {}
    for sig, elem in zip(problem.signals, problem.basis):
        mat = to_matrix(elem, cutoff)
        if isinstance(sig, Constant):
            const = const + sig.value * mat
        else:
            varying[sig] = varying.get(sig, 0.0) + mat
    if not varying:
        return const
    terms = list(varying.items())

    def h_eval(t):
        h = const
        for sig, mat in terms:
            h = h + sig(t) * mat
        return h

    return h_eval


def is_hermitian(mat, tol=1e-12):
    scale = max(np.max(np.abs(mat)), 1.0)
    if not np.isfinite(scale):
        return False
    return np.max(np.abs(mat - mat.conj().T)) <= tol * scale


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
    log_mag = -abs(alpha) ** 2 / 2 + n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1)
    vec = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))
    top = float(np.sum(np.abs(vec[-2:]) ** 2))
    # Relative to what the truncation keeps: far beyond the cutoff every
    # amplitude underflows, and nothing is kept.
    kept = float(np.sum(np.abs(vec) ** 2))
    if kept == 0.0 or top > leakage_tol * kept:
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


def leakage(state, levels=2):
    """Population in the top ``levels`` components."""
    return float(np.sum(np.abs(state[-levels:]) ** 2))


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

    ``op`` is a dense or CSR matrix and ``dt`` a real or complex step.  The
    step is cut into ceil(|dt| ||op||_1) pieces, so every piece has norm
    <= 1 (the scaling behind Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
    (2011)); one piece when that product is not finite.  ``norm`` is
    ||op||_1 (largest column sum) when the caller already knows it.
    ``psi`` is a vector or a block of column states.  Each piece sums terms
    until one falls below roundoff relative to psi (its Frobenius norm for a
    block).
    Raises NonConvergent when a piece needs more than _TAYLOR_MAX_TERMS
    terms, which only non-finite input can cause.
    """
    if norm is None:
        norm = np.max(abs(op).sum(axis=0))
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


class _ExpStepper:
    """CFM4 sub-steps with a cache for a repeated H.

    ``cfm4_state`` applies one CFM4 sub-step to a state or a block of column
    states: when its two samples are equal (a constant drive) the step is
    exactly exp(-i H dt), taken from the eigen step matrix cached for that H
    and dt; otherwise each of its two exponentials goes through
    :func:`_taylor_step`, so a time-dependent H is not diagonalised.  Every
    H that differs from the previous evaluation is checked for Hermiticity
    (raises NonHermitian, also for a non-finite H).
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

    def cfm4_state(self, h1, h2, dt, psi):
        """One CFM4 sub-step of size ``dt`` on ``psi`` from the samples
        ``h1``, ``h2`` at the two Gauss-Legendre nodes."""
        self._is_repeat(h1)
        if self._is_repeat(h2):
            return self._cached_step(dt) @ psi
        psi = _taylor_step(_CFM4_A1 * h1 + _CFM4_A2 * h2, dt, psi)
        return _taylor_step(_CFM4_A2 * h1 + _CFM4_A1 * h2, dt, psi)


def _sub_steps(times, dt_target):
    """Sub-steps per output interval: the fewest of size <= dt_target."""
    return [max(1, int(np.ceil(w / dt_target - 1e-12))) for w in np.diff(times)]


def _midpoint_pass(step, x0, times, counts):
    """x <- step(t_mid, dt, x) over equal sub-steps landing on every grid
    time; interval i is cut into counts[i] of them.  Returns the states at
    ``times``, x0 first."""
    x = x0
    out = [x0]
    for lo, hi, n_sub in zip(times[:-1], times[1:], counts):
        dt = (hi - lo) / n_sub
        for j in range(n_sub):
            x = step(lo + (j + 0.5) * dt, dt, x)
        out.append(x)
    return out


def _refine(run, endpoint, tol, max_refinements, what):
    """run(1), run(2), run(4), ... (the argument divides the step) until the
    ``endpoint`` of successive results moves by at most ``tol`` (max-abs);
    returns the finer result.  Raises NonConvergent after
    ``max_refinements`` halvings."""
    prev = run(1)
    for k in range(1, max_refinements + 1):
        nxt = run(2 ** k)
        if float(np.max(np.abs(endpoint(nxt) - endpoint(prev)))) <= tol:
            return nxt
        prev = nxt
    raise NonConvergent(
        f"{what} did not settle within {max_refinements} step halvings"
    )


def propagate(hamiltonian, t_final, dt=None, drift_tol=1e-9, max_refinements=12):
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
    """State trajectory under the order-4 commutator-free Magnus propagator.

    Sub-steps land exactly on the output grid.  Each samples H at the two
    Gauss-Legendre nodes t + (1/2 -+ sqrt(3)/6) dt and applies the two CFM4
    exponentials by scaled Taylor series (no ``eigh``, no dense step
    matrix), so the error falls as dt^4.  When the two samples are equal
    the step is exactly exp(-i H dt), taken from the cached eigen step
    matrix of that H.

    ``hamiltonian`` is a Hermitian matrix or a callable t -> matrix.  A
    matrix is constant, so its sub-steps are exact and one pass of one
    ``eigh`` is returned.  For a callable, dt is halved until the final
    state moves by at most ``drift_tol`` (max-abs); sampling cannot show
    that a callable is constant, so it is always refined.  ``psi0`` is a
    state of shape (dim,) or a block of k column states of shape (dim, k).
    Raises NonHermitian for a non-Hermitian or non-finite H, and
    NonConvergent when the refinement does not settle or a Taylor series
    meets a non-finite state.  Returns an array of shape (len(times), dim),
    or (len(times), dim, k) for a block.
    """
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("output grid must start at 0 and increase strictly")
    psi0 = np.asarray(psi0, dtype=complex)
    h_eval = hamiltonian if callable(hamiltonian) else (lambda _t: hamiltonian)
    width = float(times[-1])
    if dt is None:
        dt = width / 2000.0
    if dt > width / 100.0:
        raise ValueError("dt must be at most span/100")

    def run(scale):
        stepper = _ExpStepper()

        def step(mid, sub_dt, psi):
            offset = _CFM4_NODE * sub_dt
            return stepper.cfm4_state(h_eval(mid - offset), h_eval(mid + offset),
                                      sub_dt, psi)

        return np.array(_midpoint_pass(step, psi0, times,
                                       _sub_steps(times, dt / scale)))

    if not callable(hamiltonian):
        return run(1)
    return _refine(run, lambda states: states[-1], drift_tol, max_refinements,
                   "state propagation")


def factor_exponential(coefficient, mat):
    """exp(-i * coefficient * mat) by ``scipy.linalg.expm``, which takes a
    diagonal ``mat`` elementwise."""
    return scipy.linalg.expm(-1j * coefficient * mat)


class FactorImage:
    """Fock image of one ansatz generator, classified once for replay.

    ``offset`` 0: ``data`` is the diagonal; another int: ``data`` is the one
    band ``np.diagonal(M, offset)`` that holds every nonzero; None: ``data``
    is M in CSR.
    """

    __slots__ = ("shape", "offset", "data")

    def __init__(self, dim, offset, data):
        self.shape = (dim, dim)
        self.offset = offset
        self.data = data


def _classify(dim, bands):
    """FactorImage from the bands of M (``{offset: np.diagonal(M, offset)}``).

    Bands with no nonzero are dropped.  M with more than one band left is
    assembled in CSR from the bands.
    """
    bands = {k: band for k, band in bands.items() if np.any(band)}
    if not bands:
        return FactorImage(dim, 0, np.zeros(dim, dtype=complex))
    if len(bands) == 1:
        (offset, band), = bands.items()
        return FactorImage(dim, offset, band)
    return FactorImage(dim, None, scipy.sparse.diags(
        list(bands.values()), list(bands), shape=(dim, dim), format="csr"))


def ansatz_matrices(basis, cutoff):
    """Fock images of the basis elements, in basis (ansatz) order.

    Each is a :class:`FactorImage`, built from the bands of
    :func:`_image_bands` and classified once, so a replay of many rows does
    not inspect its factors again and a two-mode image is never dense.
    """
    return [_classify(*_image_bands(e, cutoff)) for e in basis]


def _banded_exp_action(coefficient, band, offset, psi):
    """exp(coefficient * M) @ psi for M with entries ``band`` on the single
    off-diagonal ``offset`` (``band = np.diagonal(M, offset)``); ``psi`` is
    a vector or a block of column states.

    M^k lives on diagonal k * offset, so M is nilpotent and the Taylor series
    ends after ceil(dim / |offset|) terms.  Every term is summed on its
    shrinking support (rows [0, dim - k|offset|) above the diagonal, rows
    [k|offset|, dim) below it), so the work does not depend on the
    coefficient and the series has no truncation error.
    """
    step = abs(offset)
    scaled = (coefficient * band).reshape((-1,) + (1,) * (psi.ndim - 1))
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


def apply_ansatz(f_values, matrices, state=None):
    """Ordered product U = prod_j exp(-i F_j M_j) acting on ``state``.

    ``f_values`` may come straight from ``CoefficientTrajectory.final``;
    ``matrices`` is the :class:`FactorImage` list of :func:`ansatz_matrices`.
    The factors act right to left on ``state``, a vector or a block of
    column states, and U @ state is returned without forming U; without
    ``state`` they act on the identity, which returns U.  Diagonal
    generators multiply elementwise by exp(-i F_j diag M_j); a generator
    with its nonzeros on one off-diagonal is nilpotent and its terminating
    Taylor series is summed without BLAS calls; every other generator goes
    through :func:`_taylor_step`, the scaled Taylor series of the oracle, in
    ceil(|F_j| ||M_j||_1) pieces.  Rejects non-finite coefficients and a
    coefficient/matrix count mismatch.
    """
    f_values = np.asarray(f_values, dtype=complex)
    if not np.all(np.isfinite(f_values)):
        raise ValueError("non-finite ansatz coefficients")
    if len(f_values) != len(matrices):
        raise ValueError("coefficient/matrix count mismatch")
    if state is None:
        state = np.eye(matrices[0].shape[0])
    psi = np.asarray(state, dtype=complex)
    column = (-1,) + (1,) * (psi.ndim - 1)
    for f, image in zip(f_values[::-1], matrices[::-1]):
        if image.offset == 0:
            psi = np.exp(-1j * f * image.data).reshape(column) * psi
        elif image.offset is not None:
            psi = _banded_exp_action(-1j * f, image.data, image.offset, psi)
        else:
            psi = _taylor_step(image.data, f, psi)
    return psi


def ansatz_state(trajectory, cutoff, initial):
    """Apply the endpoint ansatz of a trajectory to an initial state."""
    mats = ansatz_matrices(trajectory.basis, cutoff)
    return apply_ansatz(trajectory.final, mats, initial)


def choose_cutoff(alpha=0.0, displacement=0.0, squeezing=0.0, minimum=24, ceiling=512):
    """Cutoff heuristic from expected occupation.

    ``displacement`` bounds the extra coherent amplitude accumulated by the
    drive, ``squeezing`` the squeezing parameter r.  The returned cutoff
    keeps the estimated occupation below cutoff/2 with a spread margin.
    """
    amp = abs(alpha) + abs(displacement)
    n_est = (amp ** 2 + np.sinh(abs(squeezing)) ** 2) * np.exp(2 * abs(squeezing))
    cut = int(np.ceil(2 * n_est + 12 * np.sqrt(n_est + 1) + 8))
    cut = max(minimum, cut)
    if cut > ceiling:
        raise ValueError(f"required cutoff {cut} exceeds supported ceiling {ceiling}")
    return cut
