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

The coefficient ODEs are integrated with the embedded Dormand-Prince 8(5,3)
pair of DOP853.  Its steps are sized by the error estimate alone, not
clipped to the output grid; the rows at the requested times come from its
seventh-order dense output.  |det Xi| is monitored relative to its Hadamard
bound on every RHS call and at every output time; the solver fails loudly
when the parameterisation leaves its validity neighbourhood, and a
non-finite drive value or coefficient raises NonFinite.

The phase-space reference in ``symplectic`` steps its linear flow
dY/dt = A(t) Y with :func:`linear_flow_on_grid`, a Dormand-Prince 5(4)
stepper that builds the sub-steps of every grid interval in one batched
pass, so that reference shares its integrator neither with the engine it
checks (DOP853) nor with the Fock oracle (CFM4).  The per-step 5(4) stepper
:func:`rk45_on_grid`, with the same tableau and error test, steps a
nonlinear RHS, as the variant-RHS checks need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ladder
from .errors import NonFinite, StepUnderflow, XiSingular
from .signals import ZERO, Constant, as_signal

DET_RATIO_FLOOR = 1e-12
# Default tolerances of every decoupling solve.  The eighth-order steps are
# long; at rtol 1e-10 two solves of one reduction (acceptance criterion 5)
# differed by 1.3e-10 against a bound of 1e-9, at 1e-11 by 1.2e-11.
RTOL = 1e-11
ATOL = 1e-13


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
        if self._series:
            import scipy.linalg  # imported only where a factor needs it
        for j, m in self._series:
            exps[..., j, :, :] = scipy.linalg.expm(-1j * f[..., j, None, None] * m)
        left = exps[..., 0, :, :]
        xi[..., :, 1] = left[..., :, 1]
        for j in range(2, n):
            left = left @ exps[..., j - 1, :, :]
            xi[..., :, j] = left[..., :, j]
        return xi


def xi_matrix(structure, f):
    """Coefficient-transfer matrix Xi(F) for the given structure constants.

    Column j holds the coordinates of prod_{k<j} exp(-i F_k ad H_k) applied
    to the j-th unit vector, in basis order.  Xi(0) is the identity.
    """
    c = np.asarray(structure, dtype=complex)
    return _XiBuilder(ladder.adjoint_matrices(c))(f)


def _det_ratio(xi):
    """|det Xi| relative to its Hadamard bound (product of row norms).

    Takes one matrix or a stack; a zero or non-finite bound gives 0.  The
    row norms are the sums ``np.linalg.norm`` takes, without its dispatch;
    one matrix, as every RHS call passes, skips the masks, with the same
    bits as its row of a stack.
    """
    scale = np.multiply.reduce(
        np.sqrt(np.add.reduce((xi.conj() * xi).real, axis=-1)), axis=-1)
    det = np.abs(np.linalg.det(xi))
    if xi.ndim == 2:
        return det / scale if scale != 0.0 and math.isfinite(scale) else 0.0
    ok = (scale != 0.0) & np.isfinite(scale)
    return np.where(ok, det / np.where(ok, scale, 1.0), 0.0)


class DecouplingProblem:
    """A Hamiltonian in basis coordinates plus the span to integrate over.

    ``signals`` holds one driving coefficient per basis element, in basis
    order; missing trailing entries are padded with zero.  The ansatz order
    is the basis order: to change it, pass ``basis.reordered(perm)`` and the
    signals permuted to match.  The initial condition F(0) = 0 is fixed by
    the decoupling theorem.

    The problem owns the split of G(t) that :meth:`g_vector` and the Fock
    oracle (``fock.oracle_hamiltonian``) read: ``g_constant`` holds every
    ``Constant`` slot's value and 0 elsewhere; ``g_varying`` pairs each
    distinct time-dependent signal object (``linear_problem`` passes one
    twice), in order of first appearance, with the slots it drives, so each
    signal is evaluated once per :meth:`g_vector` call.
    """

    def __init__(self, basis, signals, t_final):
        n = len(basis)
        signals = [as_signal(s) for s in signals]
        if len(signals) > n:
            raise ValueError("more signals than basis elements")
        signals += [ZERO] * (n - len(signals))
        self.basis = basis
        self.signals = signals
        self.g_constant = np.array(
            [s.value if isinstance(s, Constant) else 0.0 for s in self.signals],
            dtype=complex)
        slots = {}
        for i, s in enumerate(self.signals):
            if not isinstance(s, Constant):
                slots.setdefault(s, []).append(i)
        self.g_varying = [(s, np.array(idx)) for s, idx in slots.items()]
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
        g = self.g_constant.copy()
        for sig, idx in self.g_varying:
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


def _output_grid(times, span=None):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("output grid must be a non-empty 1-D array, got "
                         f"shape {times.shape}")
    if not np.all(np.isfinite(times)):
        raise ValueError("output grid times must be finite")
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("output grid must start at 0 and increase strictly")
    if span is not None and times[-1] > span * (1 + 1e-12):
        raise ValueError("output grid exceeds the span")
    return times


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

# Step-size control of both steppers.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def rk45_on_grid(rhs, times, y0, rtol, atol, span):
    """Adaptive 5(4) stepping that lands exactly on every grid time.

    The integrator of the variant-RHS checks, which step nonlinear RHSs;
    the engine steps with :func:`_dop853` and the phase-space reference
    with :func:`linear_flow_on_grid`.  Initial step span/1000, safety
    factor 0.9, maximum step span/10, step floor 1e-12 span (StepUnderflow
    below it).
    Returns (values[len(times), n], accepted, rejected).
    """
    times = _output_grid(times, span)
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

        k[0] = k1
        for s in range(1, 7):
            k[s] = rhs(t + _C[s] * h_try, y + h_try * (k[:s].T @ _A[s]))
        y_new = y + h_try * (k.T @ _B5)
        err = h_try * (k.T @ _ERR)

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


# Largest stage table of one pass of linear_flow_on_grid, in complex numbers:
# a pass takes at most max(1, _FLOW_BLOCK // (7 n^2)) sub-steps, so a drive
# that needs many sub-steps keeps the memory of one that needs few.
_FLOW_BLOCK = 2 ** 15


def linear_flow_on_grid(generator, times, y0, rtol, atol, span):
    """Dormand-Prince 5(4) steps of a linear flow dY/dt = A(t) Y, batched.

    ``generator`` maps an array of m times to A at each time, shape
    (m, n, n); ``y0`` has shape (n,) or (n, k).  By linearity a sub-step's
    stage matrices K_s = A(t + c_s h)(I + h sum_j a_sj K_j), its propagator
    R = I + h sum_j b_j K_j and its error matrix E = h sum_j e_j K_j depend
    on t and h alone, so one pass builds them for many sub-steps from one
    sampling of A; only the product Y_{k+1} = R_k Y_k is sequential.

    Each grid interval is cut into equal sub-steps, at first one (none
    longer than span/10).  A sub-step passes the error test of
    :func:`rk45_on_grid`: the RMS of E_k Y_k over atol + rtol max(|Y_k|,
    |Y_{k+1}|) is at most 1, and a NaN estimate fails.  The sub-steps before
    the first failure stand; every failing interval has its count doubled,
    and the next pass starts at the failure.  A pass holds at most
    ``_FLOW_BLOCK`` numbers per stage.  Raises NonFinite at the first time
    where a sample of A is not finite, before any arithmetic on it, and
    StepUnderflow for a sub-step below 1e-12 span.
    Returns values[len(times), *y0.shape].
    """
    times = _output_grid(times, span)
    y = np.array(y0, dtype=complex)
    shape = y.shape
    y = y.reshape(shape[0], -1)
    n = y.shape[0]
    values = np.empty((len(times), n, y.shape[1]), dtype=complex)
    values[0] = y
    widths = np.diff(times)
    counts = np.ceil(widths / (span / 10.0)).astype(np.int64)
    floor = 1e-12 * span
    block = max(1, _FLOW_BLOCK // (7 * n * n))
    eye = np.eye(n)
    i = j = 0  # the next sub-step is the j-th of interval i

    while i < len(widths):
        # This pass: sub-steps j.. of interval i, then whole intervals, up
        # to block sub-steps in all.
        per = counts[i:].copy()
        per[0] -= j
        total = np.cumsum(per)
        last = int(np.searchsorted(total, block))
        if last < len(per):
            per = per[: last + 1]
            per[last] -= total[last] - block
        starts = np.cumsum(per) - per
        interval = i + np.repeat(np.arange(len(per)), per)
        index = np.arange(int(per.sum())) - np.repeat(starts, per)
        index[: per[0]] += j
        h = widths[interval] / counts[interval]
        t0 = times[interval] + index * h
        if h.min() < floor:
            low = int(np.argmin(h))
            raise StepUnderflow(t0[low], h[low])

        stage_times = (t0[:, None] + h[:, None] * _C).ravel()
        # A sample that overflows or is undefined is NonFinite just below;
        # numpy's warnings would only print noise before it.
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.asarray(generator(stage_times), dtype=complex)
        finite = np.isfinite(a).reshape(len(stage_times), -1).all(axis=1)
        if not finite.all():
            raise NonFinite(stage_times[np.argmin(finite)])
        a = a.reshape(len(h), 7, n, n)

        hh = h[:, None, None]
        k = np.empty((7, len(h), n, n), dtype=complex)
        k[0] = a[:, 0]
        for s in range(1, 7):
            k[s] = a[:, s] @ (eye + hh * np.tensordot(_A[s], k[:s], axes=1))
        r = eye + hh * np.tensordot(_B5, k, axes=1)
        e = hh * np.tensordot(_ERR, k, axes=1)

        ys = np.empty((len(h) + 1,) + y.shape, dtype=complex)
        ys[0] = y
        for s in range(len(h)):
            np.matmul(r[s], ys[s], out=ys[s + 1])
        scale = atol + rtol * np.maximum(np.abs(ys[:-1]), np.abs(ys[1:]))
        err = np.sqrt(np.mean(np.abs((e @ ys[:-1]) / scale) ** 2, axis=(1, 2)))
        passed = err <= 1.0
        done = len(h) if passed.all() else int(np.argmin(passed))

        ends = np.flatnonzero(index[:done] == counts[interval[:done]] - 1)
        values[interval[ends] + 1] = ys[ends + 1]
        y = ys[done]
        if done < len(h):
            counts[np.unique(interval[~passed])] *= 2
            i, j = int(interval[done]), 2 * int(index[done])
        elif index[-1] == counts[interval[-1]] - 1:
            i, j = int(interval[-1]) + 1, 0
        else:
            i, j = int(interval[-1]), int(index[-1]) + 1

    return values.reshape((len(times),) + shape)


def _table(width, rows):
    """Dense coefficient rows from sparse ``{column: value}`` rows."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for j, value in row.items():
            out[i, j] = value
    return out


# Dormand-Prince 8(5,3): the coefficients of Hairer's DOP853 (Hairer,
# Norsett & Wanner, Solving ODEs I, 2nd ed., II.10).  Stages 0-11 make the
# eighth-order step, whose weights _B8 are row 12 of _A8; stage 12 is the
# derivative at the new point, which is stage 0 of the next step.  _E5 and
# _E3 are the fifth- and third-order error estimators.  Stages 13-15 and
# _D8 complete the seventh-order dense output.
_C8 = np.array([
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333, 0.25,
    0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6,
    0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778,
])
_A8 = _table(16, [
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2,
     1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2,
     2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1,
     2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2,
     3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2,
     3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1,
     5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1,
     3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1,
     5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1,
     7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1,
     3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1,
     5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1,
     7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1,
     7: 2.27394870993505042818970056734e1, 8: 2.49360555267965238987089396762,
     9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444,
     5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1,
     9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1,
     11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2,
     6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1,
     8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1,
     10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2,
     5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2,
     7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4,
     11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4,
     13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1,
     5: -4.69762141536116384314449447206, 6: 7.68342119606259904184240953878,
     7: 4.06898981839711007970213554331, 8: 3.56727187455281109270669543021e-1,
     12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
])
_B8 = _A8[12, :12]
_E5 = _table(12, [
    {0: 0.1312004499419488073250102996e-1,
     5: -0.1225156446376204440720569753e+1, 6: -0.4957589496572501915214079952,
     7: 0.1664377182454986536961530415e+1, 8: -0.3503288487499736816886487290,
     9: 0.3341791187130174790297318841, 10: 0.8192320648511571246570742613e-1,
     11: -0.2235530786388629525884427845e-1}
])[0]
_E3 = _B8 - _table(12, [
    {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
     11: 0.220588235294117647058823529412e-1}
])[0]
_D8 = _table(16, [
    {0: -0.84289382761090128651353491142e+1,
     5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1,
     7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1,
     9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1,
     11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1,
     13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1,
     15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2,
     5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3,
     7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2,
     9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2,
     11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2,
     13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1,
     15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2,
     5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3,
     7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2,
     9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1,
     11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1,
     13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2,
     15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2,
     5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3,
     7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2,
     9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3,
     11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2,
     13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2,
     15: -0.14972683625798562581422125276e+3},
])


def _dense_rows(x, y, y_new, k, h):
    """Seventh-order interpolant of one DOP853 step at fractions ``x``."""
    dy = y_new - y
    terms = np.empty((7, len(y)), dtype=complex)
    terms[0] = dy
    terms[1] = h * k[0] - dy
    terms[2] = 2 * dy - h * (k[12] + k[0])
    terms[3:] = h * (_D8 @ k)
    x = x[:, None]
    rows = np.zeros((len(x), len(y)), dtype=complex)
    for i, term in enumerate(terms[::-1]):
        rows = (rows + term) * (x if i % 2 == 0 else 1 - x)
    return y + rows


def _dop853(rhs, times, y0, rtol, atol, span):
    """Adaptive 8(5,3) steps over [0, times[-1]]; rows from dense output.

    The error estimate alone sizes the steps; only the last step is clipped,
    to land on times[-1].  An accepted step with output times strictly
    inside it takes the three dense-output stages and fills those rows from
    the seventh-order interpolant; a row at the step's end takes the step's
    value.  Initial step span/1000, safety factor 0.9, maximum step span/10,
    step floor 1e-12 span (StepUnderflow below it); a step does not grow
    right after a rejection.  XiSingular raised in any stage, the
    dense-output stages included, rejects the step and halves it.
    Returns (values[len(times), n], accepted, rejected).
    """
    times = _output_grid(times, span)
    y = np.asarray(y0, dtype=complex)
    n = len(y)
    values = np.empty((len(times), n), dtype=complex)
    values[0] = y
    t, t_end = 0.0, times[-1]
    h = span / 1000.0
    max_step = span / 10.0
    floor = 1e-12 * span
    accepted = rejected = 0
    retried = False
    k = np.empty((16, n), dtype=complex)
    k[0] = rhs(t, y)
    out_i = 1

    while out_i < len(times):
        h_try = min(h, max_step)
        t_new = t + h_try
        # The last step is stretched by at most the floor rather than
        # leaving a remainder below it.
        if t_new >= t_end - floor:
            h_try, t_new = t_end - t, t_end
        if h_try < floor:
            raise StepUnderflow(t, h_try)

        try:
            for s in range(1, 12):
                k[s] = rhs(t + _C8[s] * h_try, y + h_try * (_A8[s, :s] @ k[:s]))
            y_new = y + h_try * (_B8 @ k[:12])
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            err5 = np.sum(np.abs((_E5 @ k[:12]) / scale) ** 2)
            err3 = np.sum(np.abs((_E3 @ k[:12]) / scale) ** 2)
            # A NaN estimate is not zero: it rejects the step.
            err_norm = (float(h_try * err5 / np.sqrt((err5 + 0.01 * err3) * n))
                        if err5 + err3 else 0.0)
            if err_norm <= 1.0:
                k[12] = rhs(t_new, y_new)
                # Rows out_i..inner-1 lie inside the step, inner..stop-1 at
                # its end.
                stop = int(np.searchsorted(times, t_new, side="right"))
                inner = stop - 1 if times[stop - 1] == t_new else stop
                if inner > out_i:
                    for s in range(13, 16):
                        k[s] = rhs(t + _C8[s] * h_try,
                                   y + h_try * (_A8[s, :s] @ k[:s]))
        except XiSingular:
            rejected += 1
            if h_try <= floor * 2:
                raise
            h = h_try / 2
            retried = True
            continue

        if err_norm <= 1.0:
            if inner > out_i:
                x = (times[out_i:inner] - t) / h_try
                values[out_i:inner] = _dense_rows(x, y, y_new, k, h_try)
            values[inner:stop] = y_new
            out_i = stop
            t, y = t_new, y_new
            k[0] = k[12]
            accepted += 1
            factor = (_MAX_FACTOR if err_norm == 0.0
                      else min(_MAX_FACTOR, _SAFETY * err_norm ** -0.125))
            h = h_try * (min(1.0, factor) if retried else factor)
            retried = False
        else:
            rejected += 1
            h = h_try * max(_MIN_FACTOR, _SAFETY * err_norm ** -0.125)
            retried = True
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
def integrate(problem, rtol=RTOL, atol=ATOL, times=None, n_out=129):
    """Integrate the decoupling ODEs from F(0) = 0 over the problem span.

    Dormand-Prince 8(5,3) steps are sized by the error estimate, not by the
    output grid; the rows at the requested times come from the step's
    seventh-order dense output, and only the last step is clipped to land
    on times[-1].  |det Xi| (relative to its Hadamard bound) is recorded at
    every output time.  Raises XiSingular with the failure time when the
    transfer matrix degenerates, at a stage or at an output time;
    StepUnderflow when the step size collapses.  Numpy overflow on the way
    there is not warned about.
    """
    T = problem.t_final
    if times is None:
        times = np.linspace(0.0, T, n_out)
    times = np.asarray(times, dtype=float)

    y0 = np.zeros(problem.dim, dtype=complex)
    values, accepted, rejected = _dop853(problem.rhs, times, y0, rtol, atol, T)
    # Xi at every output point in one stacked build.  Output points are not
    # RHS points, so the floor is checked here too.
    det_ratio = _det_ratio(problem._xi(values))
    low = np.flatnonzero(det_ratio < DET_RATIO_FLOOR)
    if low.size:
        raise XiSingular(times[low[0]], float(det_ratio[low[0]]))
    values = values.T.copy()
    return CoefficientTrajectory(
        times=times,
        values=values,
        det_ratio=det_ratio,
        accepted=accepted,
        rejected=rejected,
        basis=problem.basis,
    )
