"""Closed-form normal modes against a dense eigensolver.

The quadratic Hamiltonian has frequencies solving a biquadratic
lambda^4 - b lambda^2 + c = 0.  Both coefficients are invariants of H:
b = lambda1^2 + lambda2^2 = w1^2 + w2^2 + 8 nu1 nu2 and
c = lambda1^2 lambda2^2 = det H, each checked here against a dense
computation, and in the isotropic case lambda = w +- 2 nu makes the
cross coefficient 8 visible to the eye.
"""

import numpy as np

from ncho import (
    PhysicalParams,
    assemble_eigensystem,
    build_hamiltonian,
    build_omega,
    spectral_data,
    to_commutative,
)

p = PhysicalParams(m1=1.0, m2=1.5, wt1=1.0, wt2=2.0, theta=0.1, eta=0.4)
cp = to_commutative(p)
sd = spectral_data(cp)

ev = np.linalg.eigvals(build_omega(build_hamiltonian(cp)))
print("biquadratic coefficients")
print(f"  b = {sd.b!r}   (= lambda1^2 + lambda2^2 of the eigensolver = "
      f"{float(np.sum(ev.imag**2)) / 2!r})")
print(f"  c = {sd.c!r}   (= det H = {float(np.linalg.det(build_hamiltonian(cp)))!r})")

print("\nclosed-form mode frequencies")
print(f"  lambda1 = {sd.lambda1!r}")
print(f"  lambda2 = {sd.lambda2!r}")

print("\ndense eigensolver on the motion generator Omega = i Sigma_y H")
print("  eigenvalues:", np.sort_complex(ev))
lam_num = np.sort(ev.imag)[2:]
print(f"  |lambda1 - closed form| = {abs(lam_num[1] - sd.lambda1):.3e}")
print(f"  |lambda2 - closed form| = {abs(lam_num[0] - sd.lambda2):.3e}")

es = assemble_eigensystem(p, cp, sd)
print("\neigensystem identity residuals (eigenvectors, diagonalization, ladder; ladder also certifies Q^-1 Q = 1)")
for key, value in es.residuals.items():
    print(f"  {key:16s} {value:.3e}")

# isotropic-in-field point: lambda = w +- 2 nu exactly, so the 8 nu1 nu2
# cross coefficient is forced (a 6 nu1 nu2 variant misses by O(nu^2))
iso = to_commutative(PhysicalParams(1.3, 1.3, 0.9, 0.9, 0.2, 0.3))
sd_iso = spectral_data(iso)
nu = iso.nu1
print("\nisotropic check: m1 = m2, wt1 = wt2")
print(f"  lambda1 - (w + 2 nu) = {sd_iso.lambda1 - (iso.w1 + 2 * nu):+.3e}")
print(f"  lambda2 - (w - 2 nu) = {sd_iso.lambda2 - (iso.w1 - 2 * nu):+.3e}")
b6 = iso.w1**2 + iso.w2**2 + 6 * iso.nu1 * iso.nu2
lam6 = np.sqrt((b6 + np.sqrt(b6**2 - 4 * sd_iso.c)) / 2)
print(f"  with a 6 nu1 nu2 coefficient instead: lambda1 off by "
      f"{lam6 - (iso.w1 + 2 * nu):+.3e}")
