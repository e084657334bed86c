"""Open dynamics in Liouville space: vectorisation and a damped oscillator.

Column stacking turns the master equation into a linear ODE on vec(rho),
with the generator assembled from kron products; the single identity
vec(A B C) = (C^T kron A) vec(B) pins every transpose placement.  A damped
cavity (jump operator a, rate kappa) relaxes towards vacuum with
<a>(t) = alpha exp[(-i - kappa/2) t].

The dissipative algebra is also closed: doubling the generator set into
two-mode ladder polynomials (the vectorisation doubles the Hilbert space)
and commuting produces a finite basis, so the decoupling machinery applies
to open systems as well.  The demo solves the damped cavity that way and
replays the factors on vec(rho0), against the Liouville propagation.

Run:  python demos/open_system.py
"""

import numpy as np

from wnd import engine, fock, ladder, liouville

# --- the vectorisation identity ---------------------------------------------

rng = np.random.default_rng(5)
worst = max(
    liouville.kron_identity_residual(
        *(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
          for _ in range(3))
    )
    for _ in range(25)
)
print(f"vec(ABC) = (C^T kron A) vec(B): worst residual over 25 draws = {worst:.2e}\n")

# --- damped oscillator --------------------------------------------------------

cutoff, kappa, alpha, t_final = 30, 0.5, 1.0, 5.0
h = fock.number_op(cutoff)
a = fock.destroy(cutoff)
gen = liouville.build_lindbladian(h, [a], [[kappa]])
psi0 = fock.coherent_state(alpha, cutoff)
rho0 = np.outer(psi0, psi0.conj())
times = np.linspace(0.0, t_final, 11)
traj = liouville.propagate_density(gen, rho0, t_final, times=times)

a_mean = traj.expectation(a)
expected = alpha * np.exp((-1j - kappa / 2) * times)
print(f"damped cavity, kappa = {kappa}:")
print(f"{'t':>5} {'<a>':>22} {'|<a> - analytic|':>18} {'tr rho':>10}")
for i, t in enumerate(times):
    tr = np.trace(traj.matrices[i]).real
    print(f"{t:5.2f} {a_mean[i].real:+10.6f}{a_mean[i].imag:+10.6f}j "
          f"{abs(a_mean[i] - expected[i]):18.2e} {tr:10.6f}")
print(f"max trace drift: {traj.trace_drift:.2e}")
n_final = np.trace(h @ traj.matrices[-1]).real
print(f"<n>({t_final}) = {n_final:.4f} (pure decay exp(-kappa t) = "
      f"{np.exp(-kappa * t_final):.4f})\n")

# --- the dissipative algebra closes -------------------------------------------

basis = liouville.superalgebra_closure(ladder.number(), [ladder.annihilation()])
print("dissipative algebra of the damped cavity (doubled picture):")
for elem, central in zip(basis.elements, basis.central):
    print(f"  {elem.to_string()}   central={central}")
print("dimension:", len(basis))

# --- the decoupling theorem on the closed superalgebra -----------------------

problem = liouville.lindblad_problem(ladder.number(), [ladder.annihilation()],
                                     [[kappa]], t_final)
print("\nLiouvillian coordinates c_j (L = sum_j c_j E_j):")
for elem, g in zip(problem.basis, problem.g_vector(0.0)):
    c = -1j * g
    print(f"  {elem.to_string():>6}: {c.real + 0.0:+.4f}{c.imag + 0.0:+.4f}j")
# Output points clip the engine's steps; 101 of them keep it at its rtol.
fine = np.linspace(0.0, t_final, 101)
wn = engine.integrate(problem, times=fine)
mats = fock.ansatz_matrices(wn.basis, (cutoff, cutoff))
replay = np.array([
    liouville.devectorize(fock.apply_ansatz(wn.values[:, i], mats,
                                            liouville.vectorize(rho0)))
    for i in range(len(fine))
])
oracle = liouville.propagate_density(gen, rho0, t_final, times=fine)
replay_mean = np.array([np.trace(a @ rho) for rho in replay])
print(f"min |det Xi| ratio over the run: {np.min(wn.det_ratio):.6f}")
print("Wei-Norman replay vs Liouville propagation, max |rho entry diff|: "
      f"{np.max(np.abs(replay - oracle.matrices)):.2e}")
print("replayed <a> vs alpha exp[(-i - kappa/2) t], max diff: "
      f"{np.max(np.abs(replay_mean - alpha * np.exp((-1j - kappa / 2) * fine))):.2e}")
