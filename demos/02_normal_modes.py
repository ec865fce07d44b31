"""Closed-form normal modes against a dense eigensolver.

The quadratic Hamiltonian has frequencies solving a biquadratic
lambda^4 - b lambda^2 + c = 0.  Both coefficients come in closed form;
the cross part of b is 8 nu1 nu2 (checked here two ways, including the
isotropic case where lambda = w +- 2 nu makes the coefficient visible
to the eye).
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

print("biquadratic coefficients")
print(f"  b = {sd.b!r}")
print(f"  c = {sd.c!r}   (= det H = {np.linalg.det(build_hamiltonian(cp))!r})")
print(f"  cross part (b - w1^2 - w2^2)/(nu1 nu2) = "
      f"{(sd.b - cp.w1**2 - cp.w2**2) / (cp.nu1 * cp.nu2)!r}")

print("\nclosed-form mode frequencies")
print(f"  lambda1 = {sd.lambda1!r}")
print(f"  lambda2 = {sd.lambda2!r}")

ev = np.linalg.eigvals(build_omega(build_hamiltonian(cp)))
print("\ndense eigensolver on the motion generator Omega = i Sigma_y H")
print("  eigenvalues:", np.sort_complex(ev))
lam_num = np.sort(ev.imag)[2:]
print(f"  |lambda1 - closed form| = {abs(lam_num[1] - sd.lambda1):.3e}")
print(f"  |lambda2 - closed form| = {abs(lam_num[0] - sd.lambda2):.3e}")

es = assemble_eigensystem(p, cp, sd)
print("\neigensystem identity residuals (eigenvectors, Q Q^-1, diagonalization, ladder)")
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
