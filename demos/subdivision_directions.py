"""
How edge subdivision moves the spectral radius
==============================================

Subdividing an edge on an internal path (both ends branching) pulls the
radius down; subdividing anywhere else pushes it up. Cycles and double
snakes at alpha = 0 are the two frozen exceptions.
"""

from alphalimits import (
    cycle,
    double_snake,
    edge_in_internal_path,
    internal_paths,
    lollipop,
    radius_of,
    subdivide_edge,
    wheel5,
)

alpha = 0.3

# A lollipop: triangle plus a pendant path. The cycle-to-path junction
# vertex branches, so the triangle arc through it is an internal path.
g = lollipop(7)
paths = internal_paths(g)
print("lollipop(7) internal paths:")
for p in paths:
    print(f"  {p.kind}: vertices {p.vertices}")
print()

print("subdividing each lollipop edge at alpha =", alpha)
base = radius_of(g, alpha)
for e in sorted(g.edges):
    after = radius_of(subdivide_edge(g, e), alpha)
    where = "internal" if edge_in_internal_path(g, e) else "outside "
    arrow = "down" if after < base else "up"
    print(f"  edge {e}  {where}  rho {base:.8f} -> {after:.8f}  ({arrow})")
print()

# The wheel has no degree-2 vertices at all, so every edge runs between
# two branch vertices and is itself a length-one internal path; each of
# the eight subdivisions pulls the radius down.
w = wheel5()
print("wheel5 has", len(internal_paths(w)), "internal paths")
e = sorted(w.edges)[0]
print(f"  subdividing {e}: rho {radius_of(w, alpha):.8f} ->",
      f"{radius_of(subdivide_edge(w, e), alpha):.8f} (down)")
print()

# Exception one: the cycle. Two-regular before and after, radius frozen at 2.
c = cycle(8)
e = sorted(c.edges)[0]
print(f"cycle(8): rho {radius_of(c, alpha):.12f} ->",
      f"{radius_of(subdivide_edge(c, e), alpha):.12f} (unchanged)")

# Exception two: the double snake at alpha = 0. Its central path is
# internal, yet the adjacency radius sits exactly at 2 and stays there.
ds = double_snake(8)
central = internal_paths(ds)[0]
mid = (central.vertices[2], central.vertices[3])
print(f"double_snake(8) at alpha=0: rho {radius_of(ds, 0.0):.12f} ->",
      f"{radius_of(subdivide_edge(ds, mid), 0.0):.12f} (unchanged)")
print("the same edge at alpha=0.3 does move:",
      f"{radius_of(ds, alpha):.8f} -> {radius_of(subdivide_edge(ds, mid), alpha):.8f}")
