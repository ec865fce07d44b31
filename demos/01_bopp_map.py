"""From deformed brackets to an ordinary two-body problem.

The model starts from a pair of oscillators whose coordinates and
momenta no longer commute among themselves:

    [X1, X2] = i theta        [P1, P2] = i eta

A linear change of variables (Bopp shift) rewrites everything in terms
of canonical operators, at the price of shifted masses, shifted
frequencies, an effective Planck constant and two velocity-type
couplings nu1, nu2.  This script prints the map for one parameter point
and verifies the bracket table numerically.
"""

import numpy as np

from ncho import PhysicalParams, bopp_matrix, effective_planck, to_commutative
from ncho.symplectic import I_SIGMA_Y

p = PhysicalParams(m1=1.0, m2=1.5, wt1=1.0, wt2=2.0, theta=0.1, eta=0.4)
print("physical parameters:", p)

print("\neffective Planck constant")
print(f"  hbar_e = 1 + theta eta / 4 = {effective_planck(p)!r}   (units with hbar = 1)")

cp = to_commutative(p)
print("\ncommutative image (masses, frequencies, couplings)")
print(f"  mu1 = {cp.mu1:.12f}   mu2 = {cp.mu2:.12f}")
print(f"  w1  = {cp.w1:.12f}   w2  = {cp.w2:.12f}")
print(f"  nu1 = {cp.nu1:.12f}   nu2 = {cp.nu2:.12f}")

# the shift matrix T maps canonical (x1,p1,x2,p2) to the deformed set;
# the deformed bracket table is then T (i Sigma_y) T^T
t = bopp_matrix(p)
table = t @ I_SIGMA_Y @ t.T
he = effective_planck(p)
want = np.array(
    [
        [0.0, he, p.theta, 0.0],
        [-he, 0.0, 0.0, p.eta],
        [-p.theta, 0.0, 0.0, he],
        [0.0, -p.eta, -he, 0.0],
    ]
)
print("\nbracket table reconstructed through the shift (want = deformed algebra)")
print(table)
print("max deviation:", np.max(np.abs(table - want)))

# the limit theta = eta = 0 returns the input parameters untouched
p0 = PhysicalParams(m1=1.0, m2=1.5, wt1=1.0, wt2=2.0, theta=0.0, eta=0.0)
cp0 = to_commutative(p0)
print("\nundeformed limit keeps the parameters:")
print(f"  mu = ({cp0.mu1}, {cp0.mu2})  w = ({cp0.w1}, {cp0.w2})  "
      f"nu = ({cp0.nu1}, {cp0.nu2})")
