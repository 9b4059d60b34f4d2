"""
Limit-point tables for the alpha-adjacency spectral radius
==========================================================

Every value eta_n(alpha) below is a limit of spectral radii of growing
trees, and the whole column climbs to the limiting value Psi(alpha).
"""

import numpy as np

from alphalimits import EPSILON_SURD, eta_n, gamma_n, limit_table, psi

# The classical adjacency story first: roots beta_n in (1, sqrt 2) feed
# the sequence 2 = eta_0 < eta_1 < ... -> sqrt(2 + sqrt 5).
table = limit_table("classic", 8)
print("classic sequence (alpha = 0)")
for row in table.rows:
    print(f"  n={row.n:2d}  root={row.gamma:.12f}  eta={row.eta:.12f}")
_, limit0 = table.limits[0]
print(f"  limit sqrt(2+sqrt5) = {limit0:.12f}")
print()

# The same ladder exists for every alpha in [0, 1): gamma_n solves a
# half-power polynomial in (0, 1) and eta_n is its symmetrized image.
print("eta_n(alpha) for a few alphas, n = 0..8")
alphas = (0.0, 0.25, 0.5, 0.75)
header = "  n " + "".join(f"  alpha={a:<12}" for a in alphas)
print(header)
for n in range(9):
    cells = "".join(f"  {eta_n(n, a):<16.12f}" for a in alphas)
    print(f"  {n:2d}{cells}")
print("  Psi" + "".join(f"  {psi(a):<16.12f}" for a in alphas))
print()

# The gamma roots themselves march monotonically toward theta(Psi)^2.
print("gamma_n(0.5), n = 1..8:",
      np.array([gamma_n(n, 0.5) for n in range(1, 9)]).round(8))
print()

# Doubling the alpha = 1/2 ladder gives the signless Laplacian ladder,
# whose own limit is the Guo/Wang constant 2 + epsilon.
lap = limit_table("laplacian", 6)
print("signless Laplacian sequence")
for row in lap.rows:
    print(f"  n={row.n:2d}  root={row.gamma:.12f}  xi={row.eta:.12f}")
print(f"  limit 2+epsilon = {2.0 + EPSILON_SURD:.12f}")
