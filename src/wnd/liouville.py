"""Vectorised density-matrix dynamics in a truncated Fock space.

Convention: **column stacking**.  vec(M) stacks the columns of M (Fortran
order), so products vectorise as

    vec(A B C) = (C^T kron A) vec(B),

and the Markovian generator with Hamiltonian H, jump operators L_n and a
Hermitian positive semidefinite rate matrix h_nm reads

    L = -i [(1 kron H) - (H^T kron 1)]
        + sum_nm h_nm [ (conj(L_m) kron L_n)
                        - (1 kron L_m' L_n) / 2
                        - ((L_m' L_n)^T kron 1) / 2 ].

Every kron/transpose placement above is pinned by the vectorisation identity
(see ``kron_identity_residual``), not taken on faith; the builder also
verifies trace preservation of the assembled generator.

The generator is assembled sparse (CSR, from sparse kron products): a damped
cavity at cutoff 30 has 1860 nonzeros out of 923k, on two diagonals.
Propagation is by time-ordered short steps exp(L dt) applied to vec(rho)
with Hermiticity restoration each step.  Each step is the scaled Taylor
series of the Fock oracle (``fock._taylor_step``) acting on the vector
through the CSR generator, so neither a dense generator nor a dense
exponential is formed.

The same dynamics is solved by the decoupling theorem.
``superalgebra_closure`` doubles operators into two-mode ladder polynomials
(mode a carries the transposed right factor, mode b the left factor) and
closes them under commutation; ``lindblad_problem`` writes the generator
in that closed basis as an ``engine.DecouplingProblem``, whose ordered
exponential, replayed on vec(rho0) by ``fock.apply_ansatz`` with cutoff
(c, c), gives vec(rho(t)) without the Liouville-space generator.  ``wnd run
open-damped`` checks that replay against ``propagate_density``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import engine, fock, ladder
from .errors import TraceDrift
from .signals import Constant


def vectorize(mat):
    """Column-stacked vector of a square matrix."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("vectorize expects a square matrix")
    return mat.flatten(order="F")


def devectorize(vec):
    """Inverse of :func:`vectorize`; exact round trip."""
    vec = np.asarray(vec)
    dim = int(round(np.sqrt(vec.size)))
    if dim * dim != vec.size:
        raise ValueError("vector length is not a perfect square")
    return vec.reshape((dim, dim), order="F")


def left_right_superop(left, right):
    """Matrix of rho -> left @ rho @ right under column stacking, in CSR."""
    return scipy.sparse.kron(np.asarray(right).T, np.asarray(left), format="csr")


def kron_identity_residual(a, b, c):
    """Max-norm residual of vec(A B C) = (C^T kron A) vec(B).

    This single identity pins the stacking convention for the whole module.
    """
    a, b, c = (np.asarray(m, dtype=complex) for m in (a, b, c))
    lhs = vectorize(a @ b @ c)
    rhs = left_right_superop(a, c) @ vectorize(b)
    return float(np.max(np.abs(lhs - rhs)))


def trace_functional(dim):
    """Row vector w with w @ vec(M) = tr M."""
    return vectorize(np.eye(dim)).astype(complex)


def _rate_matrix(rates, count):
    """The rate matrix h_nm as a complex (count, count) array; the identity
    when ``rates`` is None.  Warns when it is not Hermitian PSD."""
    if rates is None:
        rates = np.eye(count)
    rates = np.atleast_2d(np.asarray(rates, dtype=complex))
    if rates.shape != (count, count):
        raise ValueError("rate matrix shape must match the jump-operator count")
    if np.max(np.abs(rates - rates.conj().T), initial=0.0) > 1e-12:
        warnings.warn("rate matrix is not Hermitian", stacklevel=3)
    elif count and np.min(np.linalg.eigvalsh(rates)) < -1e-12:
        warnings.warn("rate matrix is not positive semidefinite", stacklevel=3)
    return rates


def build_lindbladian(hamiltonian, jump_ops, rates=None):
    """Sparse (CSR) generator matrix for the Markovian master equation.

    ``rates`` is the Hermitian PSD matrix h_nm (defaults to the identity,
    i.e. one unit-rate channel per jump operator; a single operator with
    rate kappa corresponds to rates=[[kappa]]).  A non-PSD rate matrix is
    flagged with a warning, not an error.  The assembled generator is
    checked for trace preservation (trace functional annihilates it to
    1e-10).
    """
    h = np.asarray(hamiltonian, dtype=complex)
    dim = h.shape[0]
    eye = np.eye(dim, dtype=complex)
    jump_ops = [np.asarray(op, dtype=complex) for op in jump_ops]
    rates = _rate_matrix(rates, len(jump_ops))

    # The terms are summed in the order of operations of -1j * (L - R) and
    # w * (sandwich - A1/2 - A2/2).  A sparse sum stores only the entries
    # some term reaches, each computed as in the dense expression, so the
    # generator equals its dense build entry for entry.
    gen = -1j * (left_right_superop(h, eye) - left_right_superop(eye, h))
    for n, l_n in enumerate(jump_ops):
        for m, l_m in enumerate(jump_ops):
            w = rates[n, m]
            if w == 0:
                continue
            anti = l_m.conj().T @ l_n
            gen = gen + w * (left_right_superop(l_n, l_m.conj().T)
                             - 0.5 * left_right_superop(anti, eye)
                             - 0.5 * left_right_superop(eye, anti))

    residual = np.max(np.abs(trace_functional(dim) @ gen))
    if residual > 1e-10:
        raise ValueError(
            f"assembled generator is not trace preserving (residual {residual:.2e})"
        )
    return gen


@dataclass
class DensityTrajectory:
    """Propagated density matrices on a grid; shape (len, dim, dim)."""

    times: np.ndarray
    matrices: np.ndarray
    trace_drift: float
    hermiticity_drift: float

    @property
    def final(self):
        return self.matrices[-1]

    def expectation(self, op):
        return np.array([np.trace(op @ rho) for rho in self.matrices])


def _check_density(rho):
    scale = max(np.max(np.abs(rho)), 1e-300)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10 * scale:
        raise ValueError("initial state is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-9:
        raise ValueError("initial state is not unit trace")
    if np.min(np.linalg.eigvalsh(rho)) < -1e-9:
        raise ValueError("initial state is not positive semidefinite")


def propagate_density(generator, rho0, t_final, dt=None, times=None,
                      trace_tol=1e-9, max_refinements=8):
    """Time-ordered short-step exponential propagation of a density matrix.

    ``generator`` is a Lindbladian matrix, dense or sparse, converted once
    to CSR, or a callable t -> matrix, converted at every step.  Each step
    applies exp(L(t_mid) dt) to vec(rho) by ``fock._taylor_step``: a Taylor
    series on the vector with the CSR generator i L, cut into ceil(dt
    ||L||_1) pieces of norm <= 1 and summed to roundoff, so no dense
    exponential is formed.  Each step restores Hermiticity by
    symmetrisation (the drift is logged on the trajectory).  A matrix is
    constant, so every step is exact to roundoff and one pass is returned;
    for a callable the step is halved until the endpoint moves by less than
    ``trace_tol``.  Raises TraceDrift when the trace wanders beyond
    tolerance, NonConvergent at the refinement floor or when a Taylor
    series meets a non-finite generator or state.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    _check_density(rho0)
    T = float(t_final)
    if times is None:
        times = np.linspace(0.0, T, 101)
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("output grid must start at 0 and increase strictly")
    if dt is None:
        dt = T / 2000.0
    if dt > T / 100.0:
        raise ValueError("dt must be at most span/100")
    n_steps = int(np.ceil(T / dt))
    static = None if callable(generator) else _taylor_generator(generator)

    def run(scale):
        herm_drift = trace_drift = 0.0

        def step(t_mid, sub_dt, rho):
            nonlocal herm_drift, trace_drift
            op, norm = static or _taylor_generator(generator(t_mid))
            rho = devectorize(fock._taylor_step(op, sub_dt, vectorize(rho), norm))
            sym = 0.5 * (rho + rho.conj().T)
            herm_drift = max(herm_drift, float(np.max(np.abs(rho - sym))))
            tr = np.trace(sym)
            trace_drift = max(trace_drift, abs(tr - 1.0))
            if abs(tr - 1.0) > 100 * max(trace_tol, 1e-12):
                raise TraceDrift(f"trace drifted to {tr:.12g} at t={t_mid:.6g}")
            return sym

        counts = fock._sub_steps(times, T / (n_steps * scale))
        matrices = np.array(fock._midpoint_pass(step, rho0, times, counts))
        return DensityTrajectory(times=times, matrices=matrices,
                                 trace_drift=trace_drift,
                                 hermiticity_drift=herm_drift)

    if static is not None:
        return run(1)
    return fock._refine(run, lambda traj: traj.matrices[-1], trace_tol,
                        max_refinements, "density propagation")


def _taylor_generator(gen):
    """i L in CSR and ||L||_1 (its largest column sum): exp(L dt) =
    exp(-i (i L) dt) is then a ``fock._taylor_step``.  ``gen`` is a dense
    or sparse matrix; it is not modified."""
    op = scipy.sparse.csr_matrix(gen, dtype=complex, copy=True)
    op.sum_duplicates()
    op.data *= 1j
    col_sums = np.bincount(op.indices, np.abs(op.data), op.shape[1])
    return op, float(col_sums.max())


# -- dissipative algebra closure ----------------------------------------------


def superop_polynomial(left, right):
    """Two-mode ladder image of the superoperator rho -> left rho right.

    Matches the column-stacked matrix representation exactly: mode a carries
    the transposed right factor (the outer kron index), mode b the left
    factor, so ``to_matrix`` of the result equals
    ``left_right_superop(to_matrix(left), to_matrix(right))`` and commutators
    of superoperators map to two-mode polynomial commutators.
    """
    if left.n_modes != 1 or right.n_modes != 1:
        raise ValueError("superoperator doubling expects single-mode operators")
    outer = right.transpose().promote(2)
    inner = _shift_to_second_mode(left)
    return outer * inner


def _shift_to_second_mode(poly):
    return ladder.LadderPolynomial(
        2, {((0, 0),) + sig: c for sig, c in poly.terms.items()}
    )


def superalgebra_closure(hamiltonian, jump_ops, max_dim=24):
    """Close the generator set of the vectorised master equation.

    ``hamiltonian`` and each jump operator are single-mode polynomials.  The
    doubled generators are H x 1, 1 x H^T, L_n x (L_m')^T and the
    anticommutator pieces L_m' L_n x 1, 1 x (L_m' L_n)^T for every channel
    pair.  Returns the closed basis with central elements flagged; raises
    ClosureOverflow past ``max_dim``.
    """
    one = ladder.identity()
    gens = [
        superop_polynomial(hamiltonian, one),
        superop_polynomial(one, hamiltonian),
    ]
    for l_n in jump_ops:
        for l_m in jump_ops:
            anti = l_m.dagger() * l_n
            gens.append(superop_polynomial(l_n, l_m.dagger()))
            gens.append(superop_polynomial(anti, one))
            gens.append(superop_polynomial(one, anti))
    return ladder.close_algebra(gens, max_dim=max_dim)


def lindblad_problem(hamiltonian, jump_ops, rates, t_final):
    """Decoupling problem of the master equation over its closed superalgebra.

    ``hamiltonian`` and each jump operator are single-mode polynomials and
    ``rates`` the constant matrix h_nm (None: one unit-rate channel per
    jump operator).  The generator is written in the doubled picture,

        L = -i (sp(H, 1) - sp(1, H))
            + sum_nm h_nm [sp(L_n, L_m') - sp(L_m' L_n, 1) / 2
                           - sp(1, L_m' L_n) / 2],

    with sp = :func:`superop_polynomial`, and expanded as L = sum_j c_j E_j
    over :func:`superalgebra_closure`.  d vec(rho)/dt = L vec(rho) is
    d vec(rho)/dt = -i (i L) vec(rho), so the problem's signals are the
    constants G_j = i c_j, and the ordered exponential of its solution,
    replayed on vec(rho0) with cutoff (c, c), gives vec(rho(t)).
    """
    rates = _rate_matrix(rates, len(jump_ops))
    one = ladder.identity()
    gen = -1j * (superop_polynomial(hamiltonian, one)
                 - superop_polynomial(one, hamiltonian))
    for n, l_n in enumerate(jump_ops):
        for m, l_m in enumerate(jump_ops):
            w = complex(rates[n, m])
            if w == 0:
                continue
            anti = l_m.dagger() * l_n
            gen = gen + w * (superop_polynomial(l_n, l_m.dagger())
                             - 0.5 * superop_polynomial(anti, one)
                             - 0.5 * superop_polynomial(one, anti))
    basis = superalgebra_closure(hamiltonian, jump_ops)
    coords = ladder.coordinates_in_basis(gen, basis.elements)
    return engine.DecouplingProblem(basis, [Constant(1j * c) for c in coords],
                                    t_final)
