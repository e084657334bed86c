"""Most general Gaussian single-mode dynamics: linear plus quadratic drive.

The six-element algebra {K+, K0, K-, a', a, 1} closes, so the propagator
factorises as

    U(t) = e^{-i xi+ K+} e^{-i xi0 K0} e^{-i xi- K-} e^{-i F+ a'} e^{-i F- a}

up to a central phase.  The transfer matrix is block-triangular: the
su(1,1) coefficients solve their own subproblem, and the displacement
coefficients integrate the drive as seen from the quadratic rotating frame,
F+ = int mu, F- = int nu with

    mu = g+ e^{i xi0/2} - i g- xi+ e^{i xi0/2}
    nu = i g+ xi- e^{i xi0/2} + g- (e^{-i xi0/2} + xi+ xi- e^{i xi0/2}).

Run:  python demos/combined_drive.py
"""

import numpy as np

from wnd import fock, gaussian
from wnd.signals import Constant

g0 = lam = 0.1
t_final = 3.0
cutoff = 60
alpha = 1.0

times = np.linspace(0.0, t_final, 13)
traj = gaussian.gaussian_combined(
    Constant(g0), Constant(g0), Constant(lam), Constant(lam), t_final,
    times=times,
)

print(f"combined drive g = {g0}, l = {lam}, span [0, {t_final}]")
print(f"{'t':>6} {'xi+':>22} {'F+':>22}")
for i in range(0, len(times), 3):
    xp, fp = traj.xi_plus[i], traj.f_plus[i]
    print(f"{times[i]:6.2f} {xp.real:+11.6f}{xp.imag:+10.6f}j "
          f"{fp.real:+11.6f}{fp.imag:+10.6f}j")

# --- the five-factor product against the brute-force propagator -------------

a = fock.destroy(cutoff)
h = (fock.number_op(cutoff)
     + lam * (a.conj().T @ a.conj().T + a @ a)
     + g0 * (a.conj().T + a))
psi0 = fock.coherent_state(alpha, cutoff)
oracle = fock.propagate_state(h, psi0, times)
mats = fock.ansatz_matrices(traj.raw.basis, cutoff)
fids = [
    fock.fidelity(fock.apply_ansatz(traj.raw.values[:, i], mats, psi0),
                  oracle[i])
    for i in range(len(times))
]
print(f"\nfive-factor ansatz vs oracle: min fidelity = {min(fids):.9f}")

# --- subalgebra reductions ---------------------------------------------------

red = gaussian.gaussian_combined(
    Constant(g0), Constant(g0), Constant(0.0), Constant(0.0), t_final,
    times=times,
)
lin = gaussian.linear_coefficients(Constant(g0), Constant(g0), times)
print("lambda -> 0 reduction: max |F+ - linear F+| =",
      f"{np.max(np.abs(red.f_plus - lin.f_plus)):.3e}")

red_q = gaussian.gaussian_combined(
    Constant(0.0), Constant(0.0), Constant(lam), Constant(lam), t_final,
    times=times,
)
quad = gaussian.quadratic_coefficients(Constant(lam), Constant(lam), t_final,
                                       times=times)
print("g -> 0 reduction:      max |xi+ - quadratic xi+| =",
      f"{np.max(np.abs(red_q.xi_plus - quad.xi_plus)):.3e}")
