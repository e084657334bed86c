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

The generator is assembled as a ``fock.Bands``, its nonzero diagonals: a
kron product of two banded matrices is banded (``Bands.kron``, the kron the
two-mode Fock images use too), so a damped cavity at cutoff 30 keeps 1860
numbers out of 923k, on two diagonals.  Propagation is driven by the Fock
oracle's driver (``fock._stepped``), which owns the grid, the step size and
the refinement; each sub-step is the scaled Taylor series of the Fock
oracle (``fock._taylor_step``) acting on vec(rho) through the banded
generator i L, whose norm ``Bands.norm1`` computes once, so neither a
dense generator nor a dense exponential is formed, and Hermiticity is
restored after each step.

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
    """Inverse of :func:`vectorize`; exact round trip.  A stack (..., n^2),
    such as a replayed density trajectory, gives (..., n, n) views."""
    vec = np.atleast_1d(vec)
    dim = int(round(np.sqrt(vec.shape[-1])))
    if dim * dim != vec.shape[-1]:
        raise ValueError("vector length is not a perfect square")
    return vec.reshape(vec.shape[:-1] + (dim, dim)).swapaxes(-1, -2)


def left_right_superop(left, right):
    """Matrix of rho -> left @ rho @ right under column stacking,
    kron(right^T, left), as a ``fock.Bands`` (``Bands.kron``)."""
    return fock.Bands.from_dense(np.asarray(right).T).kron(
        fock.Bands.from_dense(left))


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
    """Generator matrix of the Markovian master equation, as a ``fock.Bands``.

    ``hamiltonian`` and every jump operator are square matrices of one
    shape (a ValueError names the shapes otherwise).  ``rates`` is the
    Hermitian PSD matrix h_nm (defaults to the identity, i.e. one unit-rate
    channel per jump operator; a single operator with rate kappa corresponds
    to rates=[[kappa]]).  A non-PSD rate matrix is flagged with a warning,
    not an error.  The assembled generator is checked for trace
    preservation (trace functional annihilates it to 1e-10).
    """
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"Hamiltonian shape {h.shape} is not square (n, n)")
    jump_ops = [np.asarray(op, dtype=complex) for op in jump_ops]
    for op in jump_ops:
        if op.shape != h.shape:
            raise ValueError(f"jump operator shape {op.shape} differs from "
                             f"the Hamiltonian shape {h.shape}")
    dim = h.shape[0]
    eye = np.eye(dim, dtype=complex)
    rates = _rate_matrix(rates, len(jump_ops))

    # The terms are summed in the order of operations of -1j * (L - R) and
    # w * (sandwich - A1/2 - A2/2).  A band sum holds only the diagonals
    # some term reaches, each entry computed as in the dense expression, so
    # the generator equals its dense build entry for entry.
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
        return trace_products(op, self.matrices)


def trace_products(a, b):
    """tr(A B) over stacked (broadcast) square matrices: (A B)_ii =
    sum_j A_ij B_ji per row i, then the sum over i, as a trace of the
    product would take them."""
    return np.einsum("...ij,...ji->...i", a, b).sum(axis=-1)


def _check_density(rho):
    scale = max(np.max(np.abs(rho)), 1e-300)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10 * scale:
        raise ValueError("initial state is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-9:
        raise ValueError("initial state is not unit trace")
    if np.min(np.linalg.eigvalsh(rho)) < -1e-9:
        raise ValueError("initial state is not positive semidefinite")


def propagate_density(generator, rho0, t_final, dt=None, times=None,
                      trace_tol=1e-9, max_refinements=10):
    """Density-matrix trajectory of the Liouville oracle, stepped by the
    Fock oracle's driver ``fock._stepped`` with span ``t_final``.

    ``generator`` is a Lindbladian as a ``fock.Bands`` or a dense matrix
    (converted once through its nonzero diagonals), or a callable t -> either
    form; any other input raises TypeError.  ``trace_tol`` is the driver's
    refinement tolerance, and ``times`` defaults to 101 points on [0,
    t_final].  A sub-step applies exp(L dt) of a matrix, or the two CFM4
    exponents (``fock._cfm4_exponents``) of a callable's samples, to
    vec(rho) by ``fock._taylor_step``: the banded generator i L is cut into
    ceil(dt ||L||_1) pieces of norm <= 1 and summed to roundoff, so no dense
    exponential is formed.  Each sub-step then restores Hermiticity by
    symmetrisation.  The trajectory's ``trace_drift`` and
    ``hermiticity_drift`` are the largest over every sub-step of every
    refinement pass; a matrix L takes one pass.  Raises ValueError for a
    bad initial state, grid or dt, TraceDrift when the trace wanders past
    100 max(trace_tol, 1e-12), NonConvergent at the refinement floor or when
    a Taylor series meets a non-finite generator or state.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    _check_density(rho0)
    times = np.asarray(np.linspace(0.0, float(t_final), 101)
                       if times is None else times, dtype=float)
    constant = not callable(generator)
    if constant:
        generator = _taylor_generator(generator)
    herm_drift = trace_drift = 0.0

    def step(l1, l2, sub_dt, rho, t_mid):
        nonlocal herm_drift, trace_drift
        exponents = [l1] if constant else map(
            _taylor_generator, fock._cfm4_exponents(l1, l2))
        vec = vectorize(rho)
        for op in exponents:
            vec = fock._taylor_step(op, sub_dt, vec)
        rho = devectorize(vec)
        sym = 0.5 * (rho + rho.conj().T)
        herm_drift = max(herm_drift, float(np.max(np.abs(rho - sym))))
        tr = np.trace(sym)
        trace_drift = max(trace_drift, abs(tr - 1.0))
        if abs(tr - 1.0) > 100 * max(trace_tol, 1e-12):
            raise TraceDrift(f"trace drifted to {tr:.12g} at t={t_mid:.6g}")
        return sym

    matrices = fock._stepped(generator, rho0, times, dt, trace_tol,
                             max_refinements, "density propagation", step,
                             span=t_final)
    return DensityTrajectory(times=times, matrices=matrices,
                             trace_drift=trace_drift,
                             hermiticity_drift=herm_drift)


def _taylor_generator(gen):
    """i L as a ``fock.Bands``: exp(L dt) = exp(-i (i L) dt) is then a
    ``fock._taylor_step``, which takes ||L||_1 from the cached
    ``Bands.norm1``.  ``gen`` is a ``fock.Bands`` or a dense matrix; it is
    not modified."""
    if isinstance(gen, np.ndarray):
        gen = fock.Bands.from_dense(gen.astype(complex, copy=False))
    elif not isinstance(gen, fock.Bands):
        raise TypeError("a Lindbladian must be a fock.Bands, a dense matrix or "
                        f"a callable returning either, not {type(gen).__name__}")
    return 1j * gen


# -- dissipative algebra closure ----------------------------------------------


def superop_polynomial(left, right):
    """Two-mode ladder image of the superoperator rho -> left rho right.

    Matches the column-stacked matrix representation exactly: mode a carries
    the transposed right factor (the outer kron index), mode b the left
    factor, so ``to_matrix`` of the result equals
    ``left_right_superop(to_matrix(left), to_matrix(right)).toarray()`` and
    commutators
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


_CLOSURE_MAX_DIM = 24  # the largest superalgebra lindblad_problem closes


def _lindblad_terms(hamiltonian, jump_ops, rates):
    """The doubled generator as (weight, polynomial) terms,

        L = -i (sp(H, 1) - sp(1, H))
            + sum_nm h_nm [sp(L_n, L_m') - sp(L_m' L_n, 1) / 2
                           - sp(1, L_m' L_n) / 2],

    with sp = :func:`superop_polynomial` and h = ``rates`` (None: the
    identity).  Every channel pair is listed, zero rates included, so the
    polynomials do not depend on the rates.
    """
    rates = _rate_matrix(rates, len(jump_ops))
    one = ladder.identity()
    terms = [(-1j, superop_polynomial(hamiltonian, one)),
             (1j, superop_polynomial(one, hamiltonian))]
    for n, l_n in enumerate(jump_ops):
        for m, l_m in enumerate(jump_ops):
            w = complex(rates[n, m])
            anti = l_m.dagger() * l_n
            terms += [(w, superop_polynomial(l_n, l_m.dagger())),
                      (-0.5 * w, superop_polynomial(anti, one)),
                      (-0.5 * w, superop_polynomial(one, anti))]
    return terms


def superalgebra_closure(hamiltonian, jump_ops, max_dim=_CLOSURE_MAX_DIM):
    """Closed basis, central elements flagged, of the polynomials of
    :func:`_lindblad_terms`: H x 1, 1 x H^T, L_n x (L_m')^T, L_m' L_n x 1 and
    1 x (L_m' L_n)^T for every channel pair.  Raises ClosureOverflow past
    ``max_dim``."""
    return ladder.close_algebra(
        [poly for _, poly in _lindblad_terms(hamiltonian, jump_ops, None)],
        max_dim=max_dim)


def lindblad_problem(hamiltonian, jump_ops, rates, t_final):
    """Decoupling problem of the master equation over its closed superalgebra.

    ``hamiltonian`` and each jump operator are single-mode polynomials and
    ``rates`` the constant matrix h_nm (None: one unit-rate channel per
    jump operator).  The generator L, the weighted sum of
    :func:`_lindblad_terms`, is expanded as L = sum_j c_j E_j over the
    closure of their polynomials.  d vec(rho)/dt = L vec(rho) is
    d vec(rho)/dt = -i (i L) vec(rho), so the problem's signals are the
    constants G_j = i c_j, and the ordered exponential of its solution,
    replayed on vec(rho0) with cutoff (c, c), gives vec(rho(t)).
    """
    terms = _lindblad_terms(hamiltonian, jump_ops, rates)
    basis = ladder.close_algebra([poly for _, poly in terms],
                                 max_dim=_CLOSURE_MAX_DIM)
    gen = sum((w * poly for w, poly in terms), ladder.LadderPolynomial.zero(2))
    coords = ladder.coordinates_in_basis(gen, basis.elements)
    return engine.DecouplingProblem(basis, [Constant(1j * c) for c in coords],
                                    t_final)
