"""Closed-form normal modes against a dense eigensolver.

The mode frequencies come from the physical inputs in factored form:
sigma = lambda1 + lambda2 and delta = lambda1 - lambda2 are hypots of
the entries of the scaled commutator table, and lambda1 lambda2 =
(sqrt(wt1 wt2) (1 - theta eta / 4))^2.  Here they are checked against
the eigenvalues of the dense motion generator Omega and against the two
invariants of H, b = lambda1^2 + lambda2^2 = w1^2 + w2^2 + 8 nu1 nu2 and
c = lambda1^2 lambda2^2 = det H; in the isotropic case lambda = w +- 2 nu
makes the cross coefficient 8 visible to the eye.
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
f = spectral_data(cp)

print("closed-form mode frequencies")
print(f"  sigma   = {float(f.sigma)!r}   (lambda1 + lambda2)")
print(f"  delta   = {float(f.delta)!r}   (lambda1 - lambda2)")
print(f"  lambda1 = {float(f.lambda1)!r}")
print(f"  lambda2 = {float(f.lambda2)!r}")

ev = np.linalg.eigvals(build_omega(build_hamiltonian(cp)))
print("\ndense eigensolver on the motion generator Omega = i Sigma_y H")
print("  eigenvalues:", np.sort_complex(ev))
lam_num = np.sort(ev.imag)[2:]
print(f"  |lambda1 - closed form| = {abs(lam_num[1] - f.lambda1):.3e}")
print(f"  |lambda2 - closed form| = {abs(lam_num[0] - f.lambda2):.3e}")

w1s, w2s = cp.w1**2, cp.w2**2
print("\ninvariants of H")
print(f"  b = w1^2 + w2^2 + 8 nu1 nu2 = {float(w1s + w2s + 8 * cp.nu1 * cp.nu2)!r}"
      f"   (lambda1^2 + lambda2^2 = {float(f.lambda1**2 + f.lambda2**2)!r})")
print(f"  c = det H = {float(np.linalg.det(build_hamiltonian(cp)))!r}"
      f"   ((lambda1 lambda2)^2 = {float((f.lambda1 * f.lambda2) ** 2)!r})")

es = assemble_eigensystem(p, f)
print("\neigensystem identity residuals, in the scaled frame (eigenvectors, diagonalization, ladder)")
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
lam6 = np.sqrt((b6 + np.sqrt(b6**2 - 4 * (sd_iso.lambda1 * sd_iso.lambda2) ** 2)) / 2)
print(f"  with a 6 nu1 nu2 coefficient instead: lambda1 off by "
      f"{lam6 - (iso.w1 + 2 * nu):+.3e}")
