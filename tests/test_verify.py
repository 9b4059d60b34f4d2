"""The lemma suite plans every radius, then solves once per matrix order.

A reference here computes every radius the four lemma checks compare as
the one-matrix dense solve of an explicitly built graph (_delete_edge,
_delete_vertex, subdivide_edge), picks subgraphs by trying each deletion in turn, and
judges the lemmas with its own copy of the comparisons, deciding a strict
one inside STRICT_MARGIN by its own exact test. The planned suite must give
the same radii bit for bit and the same PropertyResults.
"""

from __future__ import annotations

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import alphalimits
from alphalimits import limits, spectral, verify
from alphalimits.graphs import (
    Graph,
    cycle,
    double_snake,
    format_graph,
    internal_path_edges,
    internal_paths,
    is_double_snake,
    is_regular,
    lollipop,
    parse_graph,
    path,
    star,
    subdivide_edge,
    wheel5,
)
from alphalimits.spectral import assemble_a_alpha, degree_bounds, stack_radii, star_radius
from alphalimits.verify import (
    EQUALITY_TOL,
    LEMMA_ALPHAS,
    STRICT_MARGIN,
    PropertyResult,
    random_connected_graph,
    random_tree,
    run_lemma_suite,
)

# Seeds whose subdivision gaps at alpha 0.8 (+1.0e-13 to +2.5e-13) fall
# inside STRICT_MARGIN: the lemma holds, and a fixed margin alone would
# report FAIL. The exact test must pass them.
FALSE_FAIL_SEEDS = (1443400113, 1733762282, 1097657232)
# Graphs solved together: the verify workload's job size, so that a job is
# one chunk and a longer run's peak memory does not grow with --trials.
CHUNK = 20


def trial_deletion_subgraph(g, rng):
    """Try every deletion in turn: a shuffled edge, then a shuffled vertex."""
    edges = sorted(g.edges)
    rng.shuffle(edges)
    for e in edges:
        h = verify._delete_edge(g, e)
        if h.is_connected():
            return h
    verts = list(range(g.n_vertices))
    rng.shuffle(verts)
    for v in verts:
        h = verify._delete_vertex(g, v)
        if h.n_vertices >= 2 and h.is_connected():
            return h
    return None


def reference_inputs(seed, trials):
    rng = np.random.default_rng(seed)
    graphs = [random_connected_graph(rng) for _ in range(trials)]
    alphas = [LEMMA_ALPHAS[i % len(LEMMA_ALPHAS)] for i in range(trials)]
    subs = [trial_deletion_subgraph(g, rng) for g in graphs]
    return graphs, alphas, subs


def dense_radius(g, alpha):
    return stack_radii(assemble_a_alpha(g, alpha)[None])[0]


def reference_radii(graphs, alphas, subs):
    """Per graph: rho(G, alpha), rho(H, alpha) or None, rho(G, 0.2),
    rho(G, 0.7) and the radii of each edge subdivision in sorted edge order."""
    return [(dense_radius(g, a), None if h is None else dense_radius(h, a),
             dense_radius(g, verify.ALPHA_LO), dense_radius(g, verify.ALPHA_HI),
             [dense_radius(subdivide_edge(g, e), a) for e in sorted(g.edges)])
            for g, a, h in zip(graphs, alphas, subs)]


def exact_below(g, alpha, q):
    """Whether rho(A_alpha(g)) < q, by Sylvester's criterion: every leading
    principal minor of q*I - A_alpha, at the exact double alpha and scaled
    to integers, is positive. The minors come from one fraction-free
    (Bareiss) elimination over the private edge list."""
    a, q = Fraction(alpha), Fraction(q)
    n = g.n_vertices
    deg = [0] * n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    m = [[q - a * deg[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for u, v in g.edges:
        m[u][v] = m[v][u] = a - 1
    scale = math.lcm(*(x.denominator for row in m for x in row))
    m = [[int(x * scale) for x in row] for row in m]
    prev = 1
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return True


def strictly_above(r_hi, r_lo, upper, lower):
    """r_hi - r_lo > STRICT_MARGIN, or inside the margin, rho(lower) < q <=
    rho(upper) exactly at the dyadic midpoint q of the two doubles."""
    if r_hi - r_lo > STRICT_MARGIN:
        return True
    if r_hi - r_lo < -STRICT_MARGIN:
        return False
    q = (Fraction(r_hi) + Fraction(r_lo)) / 2
    return exact_below(*lower, q) and not exact_below(*upper, q)


def reference_results(graphs, alphas, subs, radii):
    bounds, strict, mono, subdiv = [], [], [], []
    n_subdiv = 0
    for g, alpha, h, (rho, rho_h, lo, hi, subdivided) in zip(graphs, alphas, subs, radii):
        dmax = float(g.degrees().max())
        lower = star_radius(dmax, alpha)
        if rho > dmax + EQUALITY_TOL or lower > rho + EQUALITY_TOL:
            bounds.append(f"alpha={alpha} rho={rho} bounds=({lower},{dmax}) "
                          f"g={format_graph(g)}")
        if h is not None and not strictly_above(rho, rho_h, (g, alpha), (h, alpha)):
            strict.append(f"alpha={alpha} g={format_graph(g)} h={format_graph(h)}")
        if is_regular(g):
            if abs(hi - lo) > EQUALITY_TOL:
                mono.append(f"regular but moved: {format_graph(g)}")
        elif not strictly_above(hi, lo, (g, 0.7), (g, 0.2)):
            mono.append(f"rho(0.7)={hi} <= rho(0.2)={lo}: {format_graph(g)}")
        internal = internal_path_edges(g)
        cycle = bool(np.all(g.degrees() == 2))
        snake_zero = is_double_snake(g) and alpha == 0.0
        for e, rho_sub in zip(sorted(g.edges), subdivided):
            n_subdiv += 1
            sub = (subdivide_edge(g, e), alpha)
            if e in internal:
                ok = (abs(rho_sub - rho) <= EQUALITY_TOL if snake_zero
                      else strictly_above(rho, rho_sub, (g, alpha), sub))
            else:
                ok = (abs(rho_sub - rho) <= EQUALITY_TOL if cycle
                      else strictly_above(rho_sub, rho, sub, (g, alpha)))
            if not ok:
                subdiv.append(f"alpha={alpha} edge={e} rho={rho} rho_sub={rho_sub} "
                              f"g={format_graph(g)}")
    n_subs = sum(h is not None for h in subs)
    return [
        PropertyResult("radius-bounds", not bounds, len(graphs), "; ".join(bounds[:3])),
        PropertyResult("subgraph-strict", not strict, n_subs, "; ".join(strict[:3])),
        PropertyResult("alpha-monotone", not mono, len(graphs), "; ".join(mono[:3])),
        PropertyResult("subdivision-direction", not subdiv, n_subdiv,
                       "; ".join(subdiv[:3])),
    ]


def hex_radii(radii):
    def hx(x):
        return None if x is None else float.hex(x)
    return [(hx(rho), hx(rho_h), hx(lo), hx(hi), [hx(x) for x in subdivided])
            for rho, rho_h, lo, hi, subdivided in radii]


@pytest.mark.parametrize("seed, trials", [
    (0, 200), (3, 200), (7, 200), (1234, 200), (7, 45),
    (FALSE_FAIL_SEEDS[0], 20), (FALSE_FAIL_SEEDS[1], 20), (FALSE_FAIL_SEEDS[2], 20),
])
def test_planned_suite_equals_the_per_graph_reference(seed, trials):
    graphs, alphas, subs = reference_inputs(seed, trials)
    ref = reference_radii(graphs, alphas, subs)
    assert hex_radii(verify.lemma_radii(graphs, alphas, subs)) == hex_radii(ref)
    results = run_lemma_suite(seed, trials)
    assert results == reference_results(graphs, alphas, subs, ref)
    assert [r.name for r in results if not r.passed] == []


def test_exceeds_agrees_with_the_reference_exact_test():
    """The suite's integer test decides q > rho as exact_below does, at the
    dense radius, one ulp either side and the dyadic midpoint above it, on
    seeded lemma graphs at every lemma alpha."""
    rng = np.random.default_rng(11)
    verdicts = set()
    for t in range(150):
        g = random_connected_graph(rng)
        alpha = LEMMA_ALPHAS[t % len(LEMMA_ALPHAS)]
        r = dense_radius(g, alpha)
        up = math.nextafter(r, math.inf)
        for q in (Fraction(math.nextafter(r, 0.0)), Fraction(r), Fraction(up),
                  (Fraction(r) + Fraction(up)) / 2):
            got = verify._exceeds(q, g, alpha)
            assert got == exact_below(g, alpha, q), (format_graph(g), alpha, q)
            verdicts.add(got)
    assert verdicts == {False, True}


def test_a_reversed_order_inside_the_margin_still_fails():
    """Planted: doubles 1e-13 apart in the lemma's direction, inside
    STRICT_MARGIN, for a pair whose exact order is the other way."""
    g = Graph(12, frozenset(
        tuple(map(int, e.split("-"))) for e in
        "0-1,0-2,0-3,0-6,0-9,1-9,2-10,4-7,4-10,5-8,6-9,7-8,8-11".split(",")))
    sub = subdivide_edge(g, (5, 8))
    rho, rho_sub = dense_radius(g, 0.8), dense_radius(sub, 0.8)
    # the subdivided graph's radius is the larger, by about 1e-13
    assert 0.0 < rho_sub - rho <= STRICT_MARGIN
    assert exact_below(g, 0.8, (Fraction(rho) + Fraction(rho_sub)) / 2)
    assert not exact_below(sub, 0.8, (Fraction(rho) + Fraction(rho_sub)) / 2)
    # sub passed as g's subgraph, its radius planted 1e-13 below g's
    result = verify.check_subgraph_monotonicity([g], [0.8], [rho], [sub], [rho - 1e-13])
    assert not result.passed
    # the true doubles in their true order, inside the margin, pass
    assert verify.check_subgraph_monotonicity([sub], [0.8], [rho_sub], [g], [rho]).passed


def test_subgraph_pick_matches_trial_deletion():
    draw = np.random.default_rng(20260)
    graphs = [random_connected_graph(draw) for _ in range(300)]
    graphs += [random_tree(draw, int(draw.integers(2, 13))) for _ in range(100)]
    # cycle-rich graphs, beyond the at most 3 extra edges of a random one
    k5 = Graph(5, frozenset((u, v) for u in range(5) for v in range(u + 1, 5)))
    two_cycles = parse_graph("9; 0-1,0-2,1-2,3-4,3-6,4-5,5-6,0-7,4-8,7-8")
    graphs += [wheel5(), k5, two_cycles, *map(cycle, range(3, 9)),
               *map(lollipop, range(4, 10))]
    trees = 0
    for k, g in enumerate(graphs):
        trees += g.n_edges == g.n_vertices - 1
        rng_new, rng_ref = np.random.default_rng(k), np.random.default_rng(k)
        assert verify._proper_connected_subgraph(g, rng_new) == \
            trial_deletion_subgraph(g, rng_ref), format_graph(g)
        assert rng_new.integers(2**62) == rng_ref.integers(2**62)
    assert trees >= 150


def count_eigensolves(monkeypatch):
    orders = []
    solve = spectral.full_spectrum

    def counting(m):
        orders.append(np.shape(m)[-1])
        return solve(m)
    monkeypatch.setattr(spectral, "full_spectrum", counting)
    monkeypatch.setattr(verify, "full_spectrum", counting)
    return orders


@pytest.mark.parametrize("seed, trials", [(0, 20), (3, 20), (FALSE_FAIL_SEEDS[0], 20),
                                         (7, 50)])
def test_lemma_suite_solves_once_per_matrix_order_and_chunk(seed, trials, monkeypatch):
    graphs, alphas, subs = reference_inputs(seed, trials)
    chunks = []
    for start in range(0, trials, CHUNK):
        part = slice(start, start + CHUNK)
        chunks.append({g.n_vertices for g in graphs[part]}
                      | {g.n_vertices + 1 for g in graphs[part]}
                      | {h.n_vertices for h in subs[part] if h is not None})
    orders = count_eigensolves(monkeypatch)
    run_lemma_suite(seed, trials)
    assert len(orders) == sum(len(chunk) for chunk in chunks)
    for chunk in chunks:
        assert set(orders[:len(chunk)]) == chunk
        orders = orders[len(chunk):]
    assert all(len(chunk) <= 11 for chunk in chunks)


def test_identity_suite_solves_its_spectra_by_order(monkeypatch):
    orders = count_eigensolves(monkeypatch)
    results = verify.run_identity_suite(0)
    assert all(r.passed for r in results)
    # L, then Q, of the trees (orders 4..12) by order; then the p2 pairs
    lq, p2 = orders[:-3], orders[-3:]
    half = len(lq) // 2
    assert p2 == [6, 9, 10]
    assert lq[:half] == lq[half:]
    assert len(set(lq[:half])) == half <= 9


def test_identity_suite_solves_each_root_once(monkeypatch):
    """470 bisections: version I's ladder, 10 alphas x n = 1..30 (gamma_0
    takes none), solved once by limit_table; route-equality's version II
    roots, 7 n x 10 alphas; the classic table's 30 beta_n; the laplacian
    table's 30 theta_n and laplacian-agreement's 30 mu_n (n = 0 takes
    none); and eta-converges' 10 eta_50. 300 + 70 + 30 + 30 + 30 + 10."""
    calls = []
    bisect = limits._bisect
    monkeypatch.setattr(limits, "_bisect", lambda *args: calls.append(1) or bisect(*args))
    verify.run_identity_suite(0)
    assert len(calls) == 470


def test_identity_suite_solves_psi_once_per_alpha(monkeypatch):
    # the ten values come from the versionI limit_table's limit rows, which
    # strict-chain, eta-converges and ordering-constants share
    calls = []
    psi = limits.psi
    monkeypatch.setattr(limits, "psi", lambda *args: calls.append(args) or psi(*args))
    verify.run_identity_suite(0)
    assert len(calls) <= 10


def test_route_equality_fails_on_a_version2_root_off_by_2_to_the_minus_48(monkeypatch):
    """gamma_n * gamma~_n = 1 is checked, not only eta: a version II root
    16 eps off, with its eta left as it was, fails the 8 eps bound."""
    table = limits.limit_table("versionI", 30, verify.ALPHA_GRID)
    ladder = {(row.n, row.alpha): (row.gamma, row.eta) for row in table.rows}
    assert verify.check_route_equality(ladder) == verify.PropertyResult(
        "route-equality", True, 140)
    term = limits._version2_term

    def off(n, alpha):
        root, eta = term(n, alpha)
        return root * (1.0 + 2.0**-48), eta

    monkeypatch.setattr(limits, "_version2_term", off)
    result = verify.check_route_equality(ladder)
    assert (result.passed, result.checked) == (False, 140)
    assert result.detail.startswith("n=1 alpha=0.0 roots ")
    assert "values" not in result.detail


def test_phi_increasing_fails_on_a_negative_middle_coefficient(monkeypatch):
    assert verify.check_phi_increasing() == verify.PropertyResult("phi-increasing", True, 25)
    build = limits.phi_version1

    def dented(n, alpha):
        c = list(build(n, alpha).coeffs)
        c[len(c) // 2] = -1e-9
        return limits.HalfPoly(tuple(c))

    monkeypatch.setattr(limits, "phi_version1", dented)
    result = verify.check_phi_increasing()
    assert (result.passed, result.checked) == (False, 25)
    assert result.detail == "n=1 alpha=0.0; n=1 alpha=0.25; n=1 alpha=0.5"


def test_ordering_constants_fail_on_an_omega2_closed_form_off_by_1e_6(monkeypatch):
    psis = {alpha: limits.psi(alpha) for alpha in verify.ALPHA_GRID}
    assert verify.check_ordering_constants(psis).passed
    closed = verify.omega2_closed_form
    monkeypatch.setattr(verify, "omega2_closed_form", lambda a: closed(a) + 1e-6)
    result = verify.check_ordering_constants(psis)
    assert not result.passed
    assert result.detail.startswith("alpha=0.0 omega2 off its closed form")


@pytest.mark.parametrize("name, checks", [
    ("phi_version2", (verify.check_duality,)),
    ("phi_version1", (verify.check_duality, verify.check_difference_identity)),
])
def test_identity_scales_catch_a_coefficient_off_by_1e_9(name, checks, monkeypatch):
    # the |coefficient| error scale is tight enough to see a wrong formula
    build = getattr(limits, name)

    def off(n, alpha):
        c = build(n, alpha).coeffs
        return limits.HalfPoly((c[0] * (1.0 + 1e-9),) + c[1:])
    for check in checks:
        assert check().passed
    monkeypatch.setattr(limits, name, off)
    for check in checks:
        assert not check().passed


def test_a_failing_check_reports_its_first_three_counterexamples():
    rng = np.random.default_rng(5)
    graphs = [random_connected_graph(rng) for _ in range(5)]
    alphas = [0.5] * 5
    result = verify.check_radius_bounds(graphs, alphas, [-1.0] * 5)
    lines = [f"alpha=0.5 rho=-1.0 bounds=({star_radius(float(g.degrees().max()), 0.5)},"
             f"{float(g.degrees().max())}) g={format_graph(g)}" for g in graphs]
    assert result == PropertyResult("radius-bounds", False, 5, "; ".join(lines[:3]))


def scalar_draw_tree(rng, n):
    """random_tree as it was with one scalar integers call per Pruefer
    entry and a linear leaf scan: the reference for the draw stream and
    for the edge set's layout."""
    if n < 2:
        raise ValueError("a tree needs at least 2 vertices")
    if n == 2:
        return Graph(2, frozenset({(0, 1)}))
    seq = [int(rng.integers(0, n)) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = set()
    for v in seq:
        for leaf in range(n):
            if degree[leaf] == 1:
                edges.add((min(leaf, v), max(leaf, v)))
                degree[leaf] -= 1
                degree[v] -= 1
                break
    last = [v for v in range(n) if degree[v] == 1]
    edges.add((min(last), max(last)))
    return Graph(n, frozenset(edges))


def scalar_draw_connected_graph(rng):
    n = int(rng.integers(4, 13))
    g = scalar_draw_tree(rng, n)
    edges = set(g.edges)
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u, v) not in edges]
    extra = int(rng.integers(0, 4))
    if extra and non_edges:
        idx = rng.choice(len(non_edges), size=min(extra, len(non_edges)),
                         replace=False)
        for i in sorted(int(j) for j in idx):
            edges.add(non_edges[i])
    return Graph(n, frozenset(edges))


def test_draws_and_edge_layout_match_the_scalar_draw_reference():
    # tree radii read the edge set's iteration order, so equal graphs are
    # not enough: list(g.edges) must match too
    for seed in range(300):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            g, h = random_connected_graph(rng), scalar_draw_connected_graph(ref)
            assert g == h and list(g.edges) == list(h.edges), (seed, format_graph(h))
        assert rng.integers(2**62) == ref.integers(2**62)
    for n in (2, 3, 60, 300):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        g, h = random_tree(rng, n), scalar_draw_tree(ref, n)
        assert g == h and list(g.edges) == list(h.edges), n
        assert rng.integers(2**62) == ref.integers(2**62)


def test_a_two_vertex_tree_leaves_the_stream_as_it_was():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g = random_tree(rng, 2)
        assert list(g.edges) == [(0, 1)]
        assert rng.integers(2**62) == np.random.default_rng(seed).integers(2**62)


def degree_array_double_snake(g):
    n = g.n_vertices
    if n < 6 or g.n_edges != n - 1 or not g.is_connected():
        return False
    deg = g.degrees()
    counts = np.bincount(deg, minlength=4)
    if counts[1] != 4 or counts[3] != 2 or counts[1] + counts[2] + counts[3] != n:
        return False
    return all(sum(deg[w] == 1 for w in g.adj[b]) == 2 for b in range(n) if deg[b] == 3)


def structure_cases():
    """Seeded graphs of order 1-14, connected or not, and the named cases."""
    rng = np.random.default_rng(2024)
    graphs = []
    for n in range(1, 15):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for p in (0.0, 0.15, 0.3, 0.6, 1.0):
            for _ in range(4):
                keep = rng.random(len(pairs)) < p
                graphs.append(Graph(n, frozenset(e for e, k in zip(pairs, keep) if k)))
        if n >= 2:
            graphs += [random_tree(rng, n) for _ in range(6)]
    graphs += [random_connected_graph(rng) for _ in range(100)]
    graphs += [path(n) for n in range(1, 9)] + [cycle(n) for n in range(3, 9)]
    graphs += [star(k) for k in range(1, 5)] + [lollipop(n) for n in range(4, 9)]
    graphs += [double_snake(n) for n in range(6, 11)]
    graphs += [
        wheel5(),
        Graph(5),                                                 # edgeless
        Graph(8, cycle(4).edges | {(4, 5), (5, 6)}),              # disconnected
        # a star and a lollipop: double-snake degree counts, n - 1 edges
        Graph(8, star(3).edges | {(4, 5), (5, 6), (4, 6), (4, 7)}),
        # two TypeI loops on one vertex, and a pendant
        Graph(6, frozenset({(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4), (0, 5)})),
    ]
    return graphs


def test_structure_helpers_equal_their_degree_array_forms():
    kinds = set()
    for g in structure_cases():
        deg = g.degrees()
        paths = internal_paths(g)
        union = {(min(a, b), max(a, b))
                 for p in paths for a, b in zip(p.vertices, p.vertices[1:])}
        kinds.update(p.kind for p in paths)
        assert internal_path_edges(g) == union, format_graph(g)
        assert is_regular(g) == bool(np.all(deg == deg[0])), format_graph(g)
        assert is_double_snake(g) == degree_array_double_snake(g), format_graph(g)
        assert verify._is_cycle(g) == (g.n_vertices >= 3 and bool(np.all(deg == 2))
                                       and g.is_connected()), format_graph(g)
        for alpha in LEMMA_ALPHAS:
            dmax = float(deg.max())
            assert degree_bounds(g, alpha) == (star_radius(dmax, alpha), dmax)
    assert kinds == {"TypeI", "TypeII"}


def test_lemma_suite_reads_degrees_only_to_assemble(monkeypatch):
    # one Graph.degrees call per assembly, of G and of its subgraph H; the
    # checks and the subgraph pick read g.adj
    calls = []
    degrees = Graph.degrees
    monkeypatch.setattr(Graph, "degrees", lambda g: calls.append(1) or degrees(g))
    run_lemma_suite(0, 20)
    assert len(calls) <= 2 * 20


def reference_internal_paths(g):
    """The key-dedupe form of internal_paths: every arc from each branch
    vertex, by sorted first step, kept if it ends at a branch vertex and its
    (end set, interior set) key is new."""
    deg = g.degrees()
    found, seen_keys = [], set()
    for v0 in range(g.n_vertices):
        if deg[v0] <= 2:
            continue
        for first in sorted(g.adj[v0]):
            walk = [v0, first]
            prev, cur = v0, first
            while deg[cur] == 2:
                a, b = g.adj[cur]
                prev, cur = cur, (b if a == prev else a)
                walk.append(cur)
            key = (frozenset((walk[0], walk[-1])), frozenset(walk[1:-1]))
            if deg[cur] <= 2 or key in seen_keys:
                continue
            seen_keys.add(key)
            found.append((tuple(walk), "TypeI" if walk[0] == walk[-1] else "TypeII"))
    return found


def test_internal_paths_equal_the_key_dedupe_walk():
    rng = np.random.default_rng(35)
    seeded = []
    for n in range(3, 12):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for _ in range(40):
            keep = rng.random(len(pairs)) < 0.35
            seeded.append(Graph(n, frozenset(e for e, k in zip(pairs, keep) if k)))
    named = [
        # two TypeI loops on one vertex, the second entered from its high end
        Graph(7, frozenset({(0, 1), (1, 2), (0, 2), (0, 6), (6, 5), (0, 5), (0, 3)})),
        # a branch-branch edge, and two TypeII arcs joining the same two ends
        Graph(7, frozenset({(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1),
                            (0, 5), (1, 6)})),
        # dead-end arcs on both ends of a TypeII arc, and a bare leaf
        Graph(9, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 6),
                            (6, 7), (3, 8)})),
        # a pure-cycle component beside K4, whose edges all join branch vertices
        Graph(9, cycle(5).edges | {(u, v) for u in range(5, 9) for v in range(u + 1, 9)}),
        # a loop hanging from the higher end of a TypeII arc, a path to a leaf
        Graph(10, frozenset({(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6),
                             (6, 4), (5, 7), (7, 8), (8, 9)})),
    ]
    kinds = set()
    for g in structure_cases() + seeded + named:
        paths = internal_paths(g)
        ref = reference_internal_paths(g)
        assert [(p.vertices, p.kind) for p in paths] == ref, format_graph(g)
        assert internal_path_edges(g) == {
            (min(a, b), max(a, b)) for w, _ in ref for a, b in zip(w, w[1:])}, format_graph(g)
        kinds.update(kind for _, kind in ref)
    assert kinds == {"TypeI", "TypeII"}
    assert [kind for _, kind in reference_internal_paths(named[0])] == ["TypeI"] * 2
    assert [kind for _, kind in reference_internal_paths(named[1])] == ["TypeII"] * 3


MOVED_ROUTES = ("tridiag_charpoly_recurrence", "path_charpoly_closed", "bn_charpoly_closed",
                "theta_substitution", "difference_poly_f", "omega2_closed_form")


def package_imports(module: str) -> set:
    """The sibling modules that alphalimits/<module>.py imports."""
    tree = ast.parse(Path(spectral.__file__).with_name(f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def test_cross_check_routes_live_in_verify_alone():
    for name in MOVED_ROUTES:
        assert getattr(alphalimits, name) is getattr(verify, name), name
    for name in MOVED_ROUTES + ("_path_tridiag", "DEGENERATE_DELTA"):
        assert hasattr(verify, name), name
        assert not hasattr(spectral, name), name
        assert not hasattr(limits, name), name
    assert package_imports("spectral") == {"graphs"}
    assert package_imports("limits") == {"graphs", "spectral"}
    assert "cli" not in package_imports("verify")


THRESHOLD_INTERNALS = {"_tree_thresholds", "_least_definite", "_secant_point", "_walk",
                       "_tree_plan", "_spider_plan", "_plan_thresholds", "_threshold_radius",
                       "_loaded_threshold"}


def names_in(path: Path) -> set:
    """Every name, attribute and imported name that a source file mentions."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_the_threshold_protocol_lives_in_spectral_alone():
    for path in Path(spectral.__file__).parent.glob("*.py"):
        if path.stem != "spectral":
            assert not names_in(path) & THRESHOLD_INTERNALS, path.name
    assert limits.BracketError is spectral.BracketError
    assert "vertex_resolvent" not in alphalimits.__all__
    assert "VertexResolvent" not in alphalimits.__all__


@pytest.mark.parametrize("call", (
    lambda: spectral.delta_of_lambda(math.nan, 0.3),
    lambda: verify.path_charpoly_closed(4, 0.3, math.nan),
    lambda: verify.bn_charpoly_closed(4, 0.3, math.nan),
    lambda: verify.theta_substitution(math.nan, 0.3),
    lambda: verify.difference_poly_f(math.nan, 0.3),
), ids=("delta_of_lambda", "path_charpoly_closed", "bn_charpoly_closed",
        "theta_substitution", "difference_poly_f"))
def test_range_guards_reject_nan(call):
    with pytest.raises(ValueError):
        call()
