"""Generic Lie-algebra decoupling engine.

Given a commutator-closed operator basis H_1..H_n with structure constants
c[j][k][l] and a Hamiltonian written as H(t) = sum_j G_j(t) H_j, the ordered
exponential ansatz

    U(t) = exp(-i F_1 H_1) exp(-i F_2 H_2) ... exp(-i F_n H_n),  F(0) = 0,

holds in a neighbourhood of t = 0 with scalar coefficient functions obtained
from the linear systems G(t) = Xi(F) dF/dt.  Column j of the transfer matrix
Xi collects the basis coordinates of H_j conjugated by the factors that stand
to its left in the ansatz, computed here through exponentials of the
adjoint-representation matrices M_j.

Each factor is expanded once, when the problem is built, as
exp(-i f M_j) = sum_k c_jk(f) B_jk: a nilpotent M_j keeps its powers
(c_k = (-i f)^k / k!, exact), a safely diagonalisable one its rank-one
spectral projectors (c_k = exp(-i f w_k)).  Building Xi is then one batched
product of the coefficients with that table plus the prefix products of
the factors; an adjoint of neither kind falls back to ``scipy.linalg.expm``
on every build.  The same builder takes a stack of coefficient vectors, so
the |det Xi| diagnostic on the output grid is one stacked pass.

The coefficient ODEs are integrated with an embedded Dormand-Prince 5(4)
pair.  |det Xi| is monitored relative to its Hadamard bound; the solver fails
loudly when the parameterisation leaves its validity neighbourhood, and a
non-finite drive value or coefficient raises NonFinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import ladder
from .errors import NonFinite, StepUnderflow, XiSingular
from .signals import ZERO, Constant, as_signal

DET_RATIO_FLOOR = 1e-12


def _factor_terms(m):
    """Terms of exp(-i f M) = sum_k c_k(f) B_k, fixed once per factor.

    Returns ``(p, w, B)`` with c_k(f) = (-i f)^p_k / p_k! * exp(-i f w_k):
    when M^q = 0 exactly for some q <= n, B holds the powers M^0..M^(q-1)
    (p_k = k, w_k = 0; no truncation); when M is safely diagonalisable, B
    holds its rank-one spectral projectors (p_k = 0, w_k its eigenvalues).
    Returns None otherwise: such a factor goes through scipy.linalg.expm.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    powers = [np.eye(n, dtype=complex)]
    while len(powers) <= n:
        nxt = powers[-1] @ m
        if not np.any(nxt):
            q = len(powers)
            return np.arange(q), np.zeros(q), np.array(powers)
        powers.append(nxt)
    try:
        w, v = np.linalg.eig(m)
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return None
    recon = (v * w) @ vinv
    if (np.max(np.abs(recon - m)) <= 1e-13 * max(1.0, np.max(np.abs(m)))
            and np.linalg.cond(v) < 1e8):
        return np.zeros(n, dtype=int), w, np.einsum("ik,kj->kij", v, vinv)
    return None


class _XiBuilder:
    """Xi(F) for one structure, from per-factor terms expanded once.

    Only the first n - 1 factors enter Xi.  Their terms (``_factor_terms``)
    are stacked, zero padded, into one table.  Every factor exponential is
    then one batched product of the coefficients with the table, and Xi
    follows from the n - 2 prefix products.  Works on one F (shape (n,)) or
    a stack (m, n).
    """

    def __init__(self, adjoints):
        self.n = n = len(adjoints)
        factors = [_factor_terms(m) for m in adjoints[: n - 1]]
        width = max([len(fac[0]) for fac in factors if fac is not None],
                    default=1)
        self._powers = np.zeros((n - 1, width), dtype=int)
        self._rates = np.zeros((n - 1, width), dtype=complex)
        terms = np.zeros((n - 1, width, n, n), dtype=complex)
        self._series = []
        for j, fac in enumerate(factors):
            if fac is None:
                self._series.append((j, adjoints[j]))
                continue
            q = len(fac[0])
            self._powers[j, :q], self._rates[j, :q], terms[j, :q] = fac
        self._inv_factorials = 1.0 / np.vectorize(math.factorial)(self._powers)
        self._terms = terms.reshape(n - 1, width, n * n)

    def __call__(self, f):
        f = np.asarray(f, dtype=complex)
        n = self.n
        batch = f.shape[:-1]
        xi = np.zeros(batch + (n, n), dtype=complex)
        xi[..., 0, 0] = 1.0
        if n == 1:
            return xi
        z = -1j * f[..., : n - 1, None]
        coeffs = z ** self._powers * np.exp(z * self._rates) * self._inv_factorials
        exps = (coeffs[..., None, :] @ self._terms).reshape(batch + (n - 1, n, n))
        for j, m in self._series:
            exps[..., j, :, :] = scipy.linalg.expm(-1j * f[..., j, None, None] * m)
        left = exps[..., 0, :, :]
        xi[..., :, 1] = left[..., :, 1]
        for j in range(2, n):
            left = left @ exps[..., j - 1, :, :]
            xi[..., :, j] = left[..., :, j]
        return xi


def xi_matrix(structure, f, ordering=None):
    """Coefficient-transfer matrix Xi(F) for the given structure constants.

    Column j holds the coordinates of prod_{k<j} exp(-i F_k ad H_k) applied
    to the j-th unit vector.  ``ordering`` optionally permutes the basis into
    the ansatz order before building the matrix.  Xi(0) is the identity.
    """
    c = np.asarray(structure, dtype=complex)
    if ordering is not None:
        perm = list(ordering)
        c = c[np.ix_(perm, perm, perm)]
        f = np.asarray(f, dtype=complex)[perm]
    return _XiBuilder(ladder.adjoint_matrices(c))(f)


def _det_ratio(xi):
    """|det Xi| relative to its Hadamard bound (product of row norms).

    Takes one matrix or a stack; a zero or non-finite bound gives 0.
    """
    scale = np.prod(np.linalg.norm(xi, axis=-1), axis=-1)
    ok = (scale != 0.0) & np.isfinite(scale)
    return np.where(ok, np.abs(np.linalg.det(xi)) / np.where(ok, scale, 1.0), 0.0)


class DecouplingProblem:
    """A Hamiltonian in basis coordinates plus the span to integrate over.

    ``signals`` holds one driving coefficient per basis element, in basis
    order; missing trailing entries are padded with zero.  ``ordering``
    permutes the basis into the desired ansatz order at construction time,
    so the integrator and Xi always work in ansatz order.  The initial
    condition F(0) = 0 is fixed by the decoupling theorem.
    """

    def __init__(self, basis, signals, t_final, ordering=None):
        n = len(basis)
        signals = [as_signal(s) for s in signals]
        if len(signals) > n:
            raise ValueError("more signals than basis elements")
        signals += [ZERO] * (n - len(signals))
        if ordering is not None:
            basis = basis.reordered(ordering)
            signals = [signals[i] for i in ordering]
        self.basis = basis
        self.signals = signals
        # G(t) starts from the constant entries, filled once; each distinct
        # time-dependent signal object is evaluated once per call and written
        # to every slot it drives (linear_problem passes one object twice).
        self._g_const = np.array(
            [s.value if isinstance(s, Constant) else 0.0 for s in self.signals],
            dtype=complex)
        slots = {}
        for i, s in enumerate(self.signals):
            if not isinstance(s, Constant):
                slots.setdefault(s, []).append(i)
        self._g_varying = [(s, np.array(idx)) for s, idx in slots.items()]
        if not t_final > 0:
            raise ValueError("span must be positive")
        self.t_final = float(t_final)
        self.structure = ladder.structure_constants(basis)
        self.adjoints = ladder.adjoint_matrices(self.structure)
        self._xi = _XiBuilder(self.adjoints)

    @property
    def dim(self):
        return len(self.basis)

    def g_vector(self, t):
        g = self._g_const.copy()
        for sig, idx in self._g_varying:
            g[idx] = sig(t)
        return g

    def xi(self, f):
        """Xi(F) for one coefficient vector, or a stack of them (m, n)."""
        return self._xi(f)

    def rhs(self, t, f):
        """dF/dt solving Xi(F) dF = G(t) by pivoted linear solve.

        Raises NonFinite when F or G(t) holds a NaN or infinite entry.
        """
        g = self.g_vector(t)
        if not (np.isfinite(f).all() and np.isfinite(g).all()):
            raise NonFinite(t)
        xi = self.xi(f)
        ratio = float(_det_ratio(xi))
        if ratio < DET_RATIO_FLOOR:
            raise XiSingular(t, ratio)
        return np.linalg.solve(xi, g)


@dataclass
class CoefficientTrajectory:
    """Decoupling coefficients on an output grid, plus solver diagnostics.

    ``values[j, i]`` is F_j at ``times[i]`` (basis in ansatz order);
    ``det_ratio`` holds |det Xi| relative to its Hadamard bound at each
    output point.  F(:, 0) is exactly zero.
    """

    times: np.ndarray
    values: np.ndarray
    det_ratio: np.ndarray
    accepted: int
    rejected: int
    basis: object = field(default=None, repr=False)

    @property
    def final(self):
        return self.values[:, -1]


# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def rk45_on_grid(rhs, times, y0, rtol, atol, span, retry_singular=False):
    """Adaptive 5(4) stepping that lands exactly on every grid time.

    Initial step span/1000, safety factor 0.9, maximum step span/10, step
    floor 1e-12 span (StepUnderflow below it).  With ``retry_singular``,
    XiSingular raised by the right-hand side is treated as a rejected step
    and the step is halved, so the failure time is resolved sharply before
    the error propagates.  Returns (values[len(times), n], accepted,
    rejected).
    """
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("output grid must start at 0 and increase strictly")
    if times[-1] > span * (1 + 1e-12):
        raise ValueError("output grid exceeds the span")

    y = np.asarray(y0, dtype=complex)
    values = np.empty((len(times), len(y)), dtype=complex)
    values[0] = y
    t = 0.0
    h = span / 1000.0
    max_step = span / 10.0
    floor = 1e-12 * span
    accepted = rejected = 0
    k = np.empty((7, len(y)), dtype=complex)
    k1 = np.asarray(rhs(t, y), dtype=complex)
    out_i = 1

    while out_i < len(times):
        target = times[out_i]
        h_try = min(h, max_step, target - t)
        clipped = h_try < min(h, max_step)
        if h_try < floor:
            raise StepUnderflow(t, h_try)

        try:
            k[0] = k1
            for s in range(1, 7):
                k[s] = rhs(t + _C[s] * h_try, y + h_try * (k[:s].T @ _A[s]))
            y_new = y + h_try * (k.T @ _B5)
            err = h_try * (k.T @ _ERR)
        except XiSingular:
            if not retry_singular:
                raise
            rejected += 1
            if h_try <= floor * 2:
                raise
            h = h_try / 2
            continue

        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))

        if err_norm <= 1.0:
            t = t + h_try
            y = y_new
            k1 = k[6]  # first-same-as-last
            accepted += 1
            if err_norm == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2))
            # A clipped step says nothing about the natural step size.
            h = max(h, h_try * factor) if clipped else h_try * factor
            if t >= target - 1e-14 * max(1.0, abs(target)):
                t = target
                values[out_i] = y
                out_i += 1
        else:
            rejected += 1
            h = h_try * min(1.0, max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2))
            if h < floor:
                raise StepUnderflow(t, h)

    return values, accepted, rejected


# An F far outside the chart overflows the factor exponentials of Xi and
# their products to inf/nan.  _det_ratio then reads 0 and rhs raises
# XiSingular (a non-finite F raises NonFinite), so numpy's overflow warnings
# would only print noise before the typed error.  The state is entered once
# per solve: entered around each Xi build and determinant, it cost about a
# third of the engine time of a linear-resonant run.
@np.errstate(over="ignore", invalid="ignore")
def integrate(problem, rtol=1e-10, atol=1e-12, times=None, n_out=129):
    """Integrate the decoupling ODEs from F(0) = 0 over the problem span.

    Steps are clipped to land exactly on every requested output time, and
    |det Xi| (relative to its Hadamard bound) is recorded there.  Raises
    XiSingular with the failure time when the transfer matrix degenerates,
    StepUnderflow when the step size collapses; numpy overflow on the way
    there is not warned about.
    """
    T = problem.t_final
    if times is None:
        times = np.linspace(0.0, T, n_out)
    times = np.asarray(times, dtype=float)

    y0 = np.zeros(problem.dim, dtype=complex)
    values, accepted, rejected = rk45_on_grid(
        problem.rhs, times, y0, rtol, atol, T, retry_singular=True
    )
    # Xi at every output point in one stacked build.
    det_ratio = _det_ratio(problem._xi(values))
    values = values.T.copy()
    return CoefficientTrajectory(
        times=times,
        values=values,
        det_ratio=det_ratio,
        accepted=accepted,
        rejected=rejected,
        basis=problem.basis,
    )
