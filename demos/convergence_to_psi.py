"""
Watching finite trees converge to the limit points
==================================================

The limit values are defined through sequences of actual graphs. Here we
build those graphs and watch the eigensolver agree with the root-finder.
"""

import numpy as np

from alphalimits import (
    attach_pendant_path,
    eta_n,
    omega1,
    omega2,
    p2_two_paths,
    path,
    psi,
    radius_of,
    star,
)

alpha = 0.25

# Two equal pendant paths on one edge: the radius climbs to Psi(alpha).
# Below 1e-12 a gap is rounding noise, so a ratio of two gaps is shown
# only while both lie above it; later rows are marked saturated.
SATURATION_FLOOR = 1e-12
print(f"rho of the two-equal-paths tree vs Psi({alpha})")
target = psi(alpha)
prev_gap = None
for m in (5, 10, 20, 40, 80, 160):
    g, _ = p2_two_paths(m, m)
    rho = radius_of(g, alpha)
    gap = target - rho
    if abs(gap) <= SATURATION_FLOOR:
        note = "  saturated at rounding level"
    elif prev_gap is not None and abs(prev_gap) > SATURATION_FLOOR:
        note = f"  gap ratio {gap / prev_gap:.4f}"
    else:
        note = ""
    print(f"  m={m:4d}  rho={rho:.12f}  gap={gap:.3e}{note}")
    prev_gap = gap
print(f"  Psi({alpha}) = {target:.12f}")
print()

# Freeze the short path at n and let the long one grow: the limit is the
# n-th limit point eta_n(alpha), one rung below Psi.
print("frozen short side: limits eta_n")
for n in (1, 2, 3):
    g, _ = p2_two_paths(400, n)
    print(f"  n={n}  rho(m=400)={radius_of(g, alpha):.12f}"
          f"  eta_{n}({alpha})={eta_n(n, alpha):.12f}")
print()

# A star sprouting one long path converges to omega1, which stays above
# Psi: these radii are NOT limit points of the two-path family.
print("star with a growing tail vs omega1")
for m in (50, 200, 800):
    g = attach_pendant_path(star(3), 0, m)
    print(f"  m={m:4d}  rho={radius_of(g, alpha):.12f}")
print(f"  omega1({alpha}) = {omega1(alpha):.12f}")
print()

# Same game on the middle vertex of P5 gives omega2, squeezed between
# Psi and omega1.
g = attach_pendant_path(path(5), 2, 800)
print(f"P5 with a tail at its centre: rho = {radius_of(g, alpha):.12f}")
print(f"omega2({alpha}) = {omega2(alpha):.12f}")
vals = np.array([psi(alpha), omega2(alpha), omega1(alpha)])
print("Psi < omega2 < omega1:", vals.round(10), bool(np.all(np.diff(vals) > 0)))
