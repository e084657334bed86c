"""Quadratic drives: su(1,1) coefficients, squeezing, and three couplings.

The quadratic family H = a'a + l+(t) a'^2 + l-(t) a^2 lives on the algebra
K+ = a'^2/2, K0 = (2 a'a + 1)/4, K- = a^2/2.  The exact basis coordinates
are G = (2 l+, 2, 2 l-) plus a central -1/2, so the coefficient ODEs are

    dxi+/dt = 2 l+ - 2i xi+ - 2 l- xi+^2
    dxi0/dt = 2 - 4i l- xi+
    dxi-/dt = 2 l- exp(-i xi0)

For constant coefficients the closed form (with Gamma^2 = l+ l- - 1/4) is
evaluated by `oscillator_quadratic_constant`; a parametric modulation at
twice the free frequency squeezes one quadrature below the vacuum level.

Run:  python demos/squeezing.py
"""

import numpy as np

from wnd import fock, gaussian, symplectic
from wnd.signals import Constant, Sinusoid

# --- constant quadratic drive: ODE vs closed form ---------------------------

lam = 0.2
t_final = 2.0
traj = gaussian.quadratic_coefficients(Constant(lam), Constant(lam), t_final,
                                       n_out=5)
closed = gaussian.oscillator_quadratic_constant(lam, lam, t_final)
print(f"constant quadratic drive l+ = l- = {lam}, t = {t_final}")
print(f"  xi+ (ODE)        = {traj.xi_plus[-1]:.12f}")
print(f"  xi+ (closed form)= {closed.xi_plus:.12f}")
print(f"  difference       = {abs(traj.xi_plus[-1] - closed.xi_plus):.3e}")
print(f"  Gamma            = {closed.gamma:.6f} (oscillatory regime)\n")

# --- Bogoliubov picture: |u|^2 - |v|^2 = 1 ----------------------------------

s = symplectic.ansatz_symplectic(traj.xi_plus[-1], traj.xi_zero[-1],
                                 traj.xi_minus[-1])
u, v = s[0, 0], s[0, 1]
print("Bogoliubov coefficients of the evolution (a -> u a + v a'):")
print(f"  u = {u:.6f}, v = {v:.6f}")
print(f"  |u|^2 - |v|^2 - 1 = {abs(u) ** 2 - abs(v) ** 2 - 1:+.3e}\n")

# --- parametric resonance: modulate at twice the free frequency -------------

lam_t = Sinusoid(0.1, 2.0)
t_final = 6.0
cutoff = 60
times = np.linspace(0.0, t_final, 61)
qtraj = gaussian.quadratic_coefficients(lam_t, lam_t, t_final, times=times)

a = fock.destroy(cutoff)
h_free, h_up, h_dn = fock.number_op(cutoff), a.conj().T @ a.conj().T, a @ a
h = lambda t: h_free + complex(lam_t(t)).real * (h_up + h_dn)
psi0 = fock.coherent_state(0.0, cutoff)
states = fock.propagate_state(h, psi0, times, dt=t_final / 100, drift_tol=1e-6)
x_mat = fock.x_op(cutoff)
var_x = np.array([fock.variance(x_mat, s) for s in states])

print("parametric drive l(t) = 0.1 cos(2t): Var(X) along the evolution")
for i in range(0, len(times), 10):
    marker = "  <- below vacuum (1/2)" if var_x[i] < 0.5 else ""
    print(f"  t = {times[i]:5.2f}   Var(X) = {var_x[i]:.4f}{marker}")
print(f"\nminimum Var(X) = {np.min(var_x):.4f} (vacuum level is 0.5)")

mats = fock.ansatz_matrices(qtraj.raw.basis, cutoff)
fid = min(
    fock.fidelity(fock.apply_ansatz(qtraj.raw.values[:, i], mats, psi0),
                  states[i])
    for i in range(0, len(times), 10)
)
print(f"ansatz-vs-oracle fidelity along the way: >= {fid:.9f}")
