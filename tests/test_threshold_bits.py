"""Bit-identity manifest of the tree thresholds.

tests/golden/tree_thresholds.hex holds, one per line, the float.hex of
radius_of on seeded trees and on the four convergence families at the six
tree alphas, and of both pendant-path operators on seeded trees at three
vertices and three alphas. A threshold is the least double at which a
pivot test passes, so a change to how its search is made moves the cost
and never a line here. Every pivot sums its children in ascending vertex
order, so neither does rebuilding a graph with its edge set laid out in
another order. Regenerate only when a change means to move bits
(and certify the moved values), with

    PYTHONPATH=src python tests/test_threshold_bits.py > tests/golden/tree_thresholds.hex
"""

from pathlib import Path

import numpy as np

from alphalimits.graphs import Graph, attach_pendant_path, p2_two_paths, path, star
from alphalimits.limits import pendant_path_limit, two_pendant_paths_limit
from alphalimits.spectral import radius_of
from alphalimits.verify import random_tree

MANIFEST = Path(__file__).parent / "golden" / "tree_thresholds.hex"
TREE_ALPHAS = (0.0, 0.25, 0.5, 0.8, 0.95, 1.0)
PENDANT_ALPHAS = (0.0, 0.5, 0.94)
FAMILIES = {
    "p2nn": lambda s: p2_two_paths(s, s),
    "p2mn": lambda s: p2_two_paths(s, 2),
    "k13": lambda s: attach_pendant_path(star(3), 0, s),
    "p5u": lambda s: attach_pendant_path(path(5), 2, s),
}


def seeded_tree(seed, n):
    rng = np.random.default_rng(seed)
    return Graph(n, frozenset((int(rng.integers(0, v)), v) for v in range(1, n)))


def relaid(g, rng):
    """g rebuilt from its edges in a shuffled order: an equal graph whose
    edge set may iterate in another order."""
    edges = sorted(g.edges)
    return Graph(g.n_vertices, frozenset(edges[i] for i in rng.permutation(len(edges))))


def manifest(rebuild=lambda g: g):
    """The manifest's lines, each 'label value.hex()', with every graph
    passed through rebuild first."""
    radii = [(f"seeded:{seed}:{n}", seeded_tree(seed, n))
             for seed, n in enumerate((2, 7, 31, 128, 200, 400, 700, 1000))]
    radii += [(f"{name}:{s}", build(s)) for name, build in FAMILIES.items()
              for s in (10, 63, 250, 800)]
    lines = [f"radius {label} alpha={alpha!r} {radius_of(rebuild(g), alpha).hex()}"
             for label, g in radii for alpha in TREE_ALPHAS]
    trees = [("prufer:3:300", random_tree(np.random.default_rng(3), 300), (0, 151, 299)),
             ("seeded:11:40", seeded_tree(11, 40), (0, 20, 39)),
             ("seeded:12:120", seeded_tree(12, 120), (0, 60, 119))]
    for label, g, vertices in trees:
        g = rebuild(g)
        for u in vertices:
            for alpha in PENDANT_ALPHAS:
                for name, op in (("one", pendant_path_limit), ("two", two_pendant_paths_limit)):
                    lines.append(f"{name}-path-limit {label} u={u} alpha={alpha!r} "
                                 f"{op(g, u, alpha).hex()}")
    return lines


def test_tree_thresholds_keep_their_bits():
    want = MANIFEST.read_text().splitlines()
    got = manifest()
    assert len(got) == len(want)
    moved = [(w, g) for w, g in zip(want, got) if w != g]
    assert not moved, moved[:5]


def test_tree_thresholds_do_not_read_the_edge_layout():
    want = MANIFEST.read_text().splitlines()
    rng = np.random.default_rng(0)
    for _ in range(5):
        got = manifest(lambda g: relaid(g, rng))
        moved = [(w, g) for w, g in zip(want, got) if w != g]
        assert not moved, moved[:5]


if __name__ == "__main__":
    print("\n".join(manifest()))
