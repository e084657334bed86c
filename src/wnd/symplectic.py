"""Phase-space propagation of first moments for quadratic Hamiltonians.

Work in the first-moment vector X = (a, a')^T.  A quadratic Hamiltonian is
encoded by a symmetric 2x2 matrix H with H_op = (1/2) X^T H X up to a
central constant, and the Heisenberg evolution U' X U = S X obeys the linear
flow

    dS/dt = i W^T H(t) S,      S(0) = 1,

where W = [[0, 1], [-1, 0]] is the commutator Gram matrix [X_i, X_j] = W_ij.
The normalisation is pinned by free evolution (S = diag(e^{-it}, e^{it}))
and by oracle agreement; see the tests.  For Hermitian quadratic drives S
keeps the Bogoliubov block form [[u, v], [v*, u*]] with |u|^2 - |v|^2 = 1.

Displacement (linear) terms are deliberately not handled here: first moments
of driven systems are cross-checked through the Fock oracle instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import as_signal

# [X_i, X_j] for X = (a, a'):  [a, a'] = 1.
COMMUTATOR_GRAM = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Flow prefactor: dS/dt = FLOW @ H(t) @ S.
FLOW = 1j * COMMUTATOR_GRAM.T


def hamiltonian_matrix(lam_plus, lam_minus):
    """(H, central_shift) for a'a + l+ a'^2 + l- a^2 at a single instant.

    The free term is symmetrised as (a'a + aa')/2 - 1/2; the matrix encodes
    the symmetric part and ``central_shift`` carries the dropped -1/2, so
    that (1/2) X^T H X + central_shift reproduces the operator exactly.
    """
    h = np.array(
        [[2.0 * lam_minus, 1.0], [1.0, 2.0 * lam_plus]], dtype=complex
    )
    return h, -0.5


@dataclass
class SymplecticTrajectory:
    """First-moment transfer matrices S(t) on a grid; shape (len, 2, 2)."""

    times: np.ndarray
    matrices: np.ndarray

    @property
    def final(self):
        return self.matrices[-1]


def propagate_symplectic(lam_plus, lam_minus, t_final, rtol=1e-10, atol=1e-12,
                         times=None, n_out=129):
    """Integrate dS/dt = FLOW H(t) S from S(0) = 1 for quadratic drives."""
    from .engine import rk45_on_grid

    lam_plus = as_signal(lam_plus)
    lam_minus = as_signal(lam_minus)

    def rhs(t, s_flat):
        h, _ = hamiltonian_matrix(lam_plus(t), lam_minus(t))
        return (FLOW @ h @ s_flat.reshape(2, 2)).ravel()

    T = float(t_final)
    if times is None:
        times = np.linspace(0.0, T, n_out)
    times = np.asarray(times, dtype=float)
    mats, _, _ = rk45_on_grid(rhs, times, np.eye(2, dtype=complex).ravel(),
                              rtol, atol, T)
    return SymplecticTrajectory(times=times, matrices=mats.reshape(-1, 2, 2))


def first_moments(s, alpha):
    """(<a>, <a'>) for an initial coherent state alpha under S."""
    alpha = complex(alpha)
    vec = s @ np.array([alpha, np.conj(alpha)], dtype=complex)
    return complex(vec[0]), complex(vec[1])


def bogoliubov_defect(s):
    """| |u|^2 - |v|^2 - 1 | of the first row (0 for symplectic S)."""
    u, v = s[0, 0], s[0, 1]
    return float(abs(abs(u) ** 2 - abs(v) ** 2 - 1.0))


def conjugation_defect(s):
    """Deviation of the second row from the conjugate-swapped first row."""
    return float(np.max(np.abs(s[1] - np.conj(s[0, ::-1]))))


# -- images of the decoupled ansatz factors ----------------------------------


def su11_factor_images(xi_plus, xi_zero, xi_minus):
    """2x2 images of exp(-i xi+ K+), exp(-i xi0 K0), exp(-i xi- K-).

    Each matrix is the first-moment transfer of the single factor (the
    conjugation U' X U); central identity factors map to the identity.
    """
    s_plus = np.array([[1.0, -1j * xi_plus], [0.0, 1.0]], dtype=complex)
    s_zero = np.array(
        [[np.exp(-0.5j * xi_zero), 0.0], [0.0, np.exp(0.5j * xi_zero)]],
        dtype=complex,
    )
    s_minus = np.array([[1.0, 0.0], [1j * xi_minus, 1.0]], dtype=complex)
    return s_plus, s_zero, s_minus


def ansatz_symplectic(xi_plus, xi_zero, xi_minus):
    """Product of the factor images in ansatz order (simple matrix product).

    Closed form: u = e^{-i xi0/2} + xi+ xi- e^{i xi0/2}, v = -i xi+ e^{i xi0/2}.
    """
    s_plus, s_zero, s_minus = su11_factor_images(xi_plus, xi_zero, xi_minus)
    return s_plus @ s_zero @ s_minus


def bogoliubov_from_propagator(u_mat):
    """(u, v) read off a truncated-Fock propagator by conjugating a.

    U' a U = u a + v a' gives u = (U'aU)[0, 1] and v = (U'aU)[1, 0]; the
    lowest matrix elements are insensitive to the truncation.
    """
    dim = u_mat.shape[0]
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    conj = u_mat.conj().T @ a @ u_mat
    return complex(conj[0, 1]), complex(conj[1, 0])
