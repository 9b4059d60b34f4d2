"""Matrix assembly, eigensolves and the closed characteristic-polynomial forms."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphalimits import spectral
from alphalimits.graphs import (
    Graph,
    attach_pendant_path,
    cycle,
    join_by_path,
    lollipop,
    p2_two_paths,
    path,
    star,
    subdivide_edge,
    wheel5,
)
from alphalimits.spectral import (
    alpha_stack,
    assemble_a_alpha,
    assemble_laplacian,
    bn_charpoly_closed,
    char_poly_eval,
    delta_of_lambda,
    full_spectrum,
    h_of_lambda,
    path_charpoly_closed,
    radius_of,
    solve_by_order,
    stack_radii,
    star_radius,
    subdivision_stack,
    tridiag_charpoly_recurrence,
)
from alphalimits.verify import ALPHA_GRID

TREE_ALPHAS = (0.0, 0.25, 0.5, 0.8, 0.95, 1.0)
GOLDEN = Path(__file__).parent / "golden"


def test_a_alpha_entries_exact():
    eig = assemble_a_alpha(wheel5(), 1.0 / 3.0)
    assert eig[0, 0] == (1.0 / 3.0) * 4
    for i in range(1, 5):
        assert eig[i, i] == 1.0
    assert eig[0, 1] == 1.0 - 1.0 / 3.0
    assert eig[1, 3] == 0.0


def test_a_alpha_endpoints_are_adjacency_and_degree():
    g = star(3)
    a0 = assemble_a_alpha(g, 0.0)
    assert np.array_equal(a0, g.adjacency())
    a1 = assemble_a_alpha(g, 1.0)
    assert np.array_equal(a1, np.diag(g.degrees().astype(float)))
    with pytest.raises(ValueError):
        assemble_a_alpha(g, 1.5)


def test_laplacians():
    g = wheel5()
    ell = assemble_laplacian(g, signless=False)
    assert np.allclose(ell.sum(axis=1), 0.0)
    assert list(np.diag(ell)) == [4.0, 3.0, 3.0, 3.0, 3.0]
    q = assemble_laplacian(g, signless=True)
    assert np.array_equal(q, 2.0 * assemble_a_alpha(g, 0.5))


def test_wheel_radius_surds():
    rho_third = radius_of(wheel5(), 1.0 / 3.0)
    assert abs(rho_third - (11.0 + math.sqrt(73.0)) / 6.0) < 1e-12
    rho_quarters = radius_of(wheel5(), 0.75)
    assert abs(rho_quarters - (23.0 + math.sqrt(17.0)) / 8.0) < 1e-12


def test_cycles_have_radius_two():
    for n in range(3, 11):
        assert abs(radius_of(cycle(n), 0.0) - 2.0) < 1e-12
        assert abs(radius_of(cycle(n), 0.6) - 2.0) < 1e-12


def test_p2_spectrum_and_radius():
    assert np.allclose(full_spectrum(assemble_a_alpha(path(2), 0.0)), [-1.0, 1.0])
    assert abs(radius_of(path(2), 0.0) - 1.0) < 1e-14


def test_trace_identity():
    g = wheel5()
    for alpha in (0.0, 0.3, 0.7, 1.0):
        eigs = full_spectrum(assemble_a_alpha(g, alpha))
        assert abs(sum(eigs) - alpha * g.degrees().sum()) < 1e-10


def deleted_det(g, u, alpha, lam):
    """det(lam*I - M) for M the principal minor of A_alpha(g) without row
    and column u: an inline LU determinant, the independent reference."""
    keep = [i for i in range(g.n_vertices) if i != u]
    m = assemble_a_alpha(g, alpha)[np.ix_(keep, keep)]
    return float(np.linalg.det(lam * np.eye(len(keep)) - m))


def test_spectral_radius_input_validation():
    lopsided = assemble_a_alpha(path(3), 0.2)
    lopsided[0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        full_spectrum(lopsided)
    for shape in ((3, 4), (3,), (2, 2, 2, 2)):
        with pytest.raises(ValueError, match="square"):
            full_spectrum(np.zeros(shape))


def test_char_poly_p2_formula():
    for alpha in (0.0, 0.25, 0.6):
        for lam in (0.0, 1.0, 2.5, 3.0):
            expect = (lam - alpha) ** 2 - (1 - alpha) ** 2
            assert abs(char_poly_eval(path(2), alpha, lam) - expect) < 1e-12
            assert abs(deleted_det(path(2), 0, alpha, lam) - (lam - alpha)) < 1e-12


def test_char_poly_p5_factored_form():
    # phi(P5) factors into a quadratic and a cubic in lambda
    for alpha in (0.0, 0.3, 0.8):
        for lam in (2.2, 2.9, 3.5):
            quad = lam * lam - 3 * alpha * lam + alpha * alpha + 2 * alpha - 1
            cubic = (lam ** 3 - 5 * alpha * lam ** 2
                     + (5 * alpha * alpha + 6 * alpha - 3) * lam
                     - 8 * alpha * alpha + 4 * alpha)
            got = char_poly_eval(path(5), alpha, lam)
            assert abs(got - quad * cubic) < 1e-10 * max(1.0, abs(got))
            got_mid = deleted_det(path(5), 2, alpha, lam)
            assert abs(got_mid - quad * quad) < 1e-10 * max(1.0, abs(got_mid))


def test_path_closed_form_small_case():
    # P2 at lambda=3, alpha=0 has determinant 9-1
    assert abs(path_charpoly_closed(2, 0.0, 3.0) - 8.0) < 1e-12


def test_path_closed_form_matches_determinant():
    lams = np.linspace(2.05, 4.0, 7)
    for k in (2, 3, 7, 15, 30):
        for alpha in (0.0, 0.2, 0.5, 0.9):
            for lam in lams:
                det = char_poly_eval(path(k), alpha, float(lam))
                closed = path_charpoly_closed(k, alpha, float(lam))
                assert abs(det - closed) <= 1e-10 * max(abs(det), 1.0)


def test_bn_closed_form_matches_determinant():
    lams = np.linspace(2.05, 4.0, 7)
    for k in (1, 2, 5, 12, 30):
        for alpha in (0.1, 0.4, 0.85):
            for lam in lams:
                det = deleted_det(path(k + 1), 0, alpha, float(lam))
                closed = bn_charpoly_closed(k, alpha, float(lam))
                assert abs(det - closed) <= 1e-9 * max(abs(det), 1.0)


def test_bn_smallest_case_is_linear():
    for alpha in (0.1, 0.5, 0.9):
        for lam in (2.0, 2.7, 3.3):
            assert abs(bn_charpoly_closed(1, alpha, lam) - (lam - alpha)) < 1e-12


def test_bn_rejects_alpha_zero():
    with pytest.raises(ValueError):
        bn_charpoly_closed(3, 0.0, 2.5)


def test_closed_forms_degenerate_dispatch():
    # at lambda=2, alpha=0 the discriminant vanishes; recurrence takes over
    val = path_charpoly_closed(4, 0.0, 2.0)
    det = char_poly_eval(path(4), 0.0, 2.0)
    assert abs(val - det) < 1e-10
    val_b = bn_charpoly_closed(3, 0.5, 2.0)
    det_b = deleted_det(path(4), 0, 0.5, 2.0)
    assert abs(val_b - det_b) < 1e-10


def test_closed_forms_reject_lambda_below_two():
    with pytest.raises(ValueError):
        path_charpoly_closed(4, 0.2, 1.5)


def test_tridiag_recurrence():
    for alpha in (0.0, 0.35, 0.8):
        for lam in (1.5, 2.0, 3.1):
            expect = (lam - alpha) ** 2 - (1 - alpha) ** 2
            got = tridiag_charpoly_recurrence([alpha, alpha], [1 - alpha], lam)
            assert abs(got - expect) < 1e-12
    diag = [0.0] * 60
    off = [1.0] * 59
    got = tridiag_charpoly_recurrence(diag, off, 2.5)
    det = char_poly_eval(path(60), 0.0, 2.5)
    assert abs(got - det) <= 1e-9 * abs(det)
    with pytest.raises(ValueError):
        tridiag_charpoly_recurrence([0.0, 0.0], [], 1.0)
    # The grid of verify's closed-form check, where the recurrence is the
    # reference: P_k, and B_k as P_{k+1} without its last row and column.
    for k in (2, 3, 5, 10, 25, 50):
        for alpha in ALPHA_GRID:
            diag, off = spectral._path_tridiag(k, alpha)
            diag_b, off_b = spectral._path_tridiag(k + 1, alpha)
            for lam in np.linspace(2.05, 4.0, 8):
                m = assemble_a_alpha(path(k), alpha)
                det = np.linalg.det(lam * np.eye(k) - m)
                got = tridiag_charpoly_recurrence(diag, off, lam)
                assert abs(got - det) <= 1e-12 * abs(det)
                det_b = deleted_det(path(k + 1), k, alpha, lam)
                got_b = tridiag_charpoly_recurrence(diag_b[:-1], off_b[:-1], lam)
                assert abs(got_b - det_b) <= 1e-12 * abs(det_b)


@pytest.mark.parametrize("name, tag", (("path_charpoly_closed", "path k="),
                                       ("bn_charpoly_closed", "bn k=")))
def test_closed_form_check_fails_on_a_perturbed_form(name, tag, monkeypatch):
    from alphalimits import verify

    assert verify.check_closed_form_charpoly().passed
    exact = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *a: exact(*a) * (1.0 + 1e-8))
    result = verify.check_closed_form_charpoly()
    assert not result.passed
    assert result.checked == 912
    assert result.detail.startswith(tag)


def test_delta_and_h():
    assert delta_of_lambda(2.0, 0.0) == 0.0
    assert abs(h_of_lambda(2.0, 0.0) - 1.0) < 1e-14
    for lam in (2.0, 2.5, 4.0):
        expect = (lam - math.sqrt(lam * lam - 4)) / 2
        assert abs(h_of_lambda(lam, 0.0) - expect) < 1e-13
    with pytest.raises(ValueError):
        delta_of_lambda(1.0, 0.0)


# ---------------------------------------------------------------------------
# radius_of: leaf-to-root elimination for every tree
# ---------------------------------------------------------------------------


def dense_radius(g, alpha):
    """The independent reference: one plain eigvalsh of the assembled matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(assemble_a_alpha(g, alpha)))))


def seeded_tree(seed, n):
    rng = np.random.default_rng(seed)
    return Graph(n, frozenset((int(rng.integers(0, v)), v) for v in range(1, n)))


@st.composite
def random_trees(draw, min_n, max_n):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(min_value=0, max_value=v - 1)), v))
    return Graph(n, frozenset(edges))


def no_dense(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("dense eigensolve on a tree")
    monkeypatch.setattr(spectral, "stack_radii", fail)


def no_elimination(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("tree elimination off a tree")
    monkeypatch.setattr(spectral, "_tree_radius", fail)


def reference_leaves_first(g):
    """The unfolded leaves-first orders from a private neighbour-list build
    and a private BFS, independent of Graph.adj and of graphs' traversals:
    the reference.
    """
    n = g.n_vertices
    if g.n_edges != n - 1:
        return None
    adj = [[] for _ in range(n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(a) for a in adj]

    def bfs_leaves_first(root):
        parent = [-1] * n
        parent[root] = n
        order = [root]
        for u in order:
            for w in adj[u]:
                if parent[w] == -1:
                    parent[w] = u
                    order.append(w)
        if len(order) != n:
            return None
        return [(v, parent[v], degree[v]) for v in reversed(order)]

    check = bfs_leaves_first(0)
    if check is None:
        return None
    hub = degree.index(max(degree))
    return check, (check if hub == 0 else bfs_leaves_first(hub))


def reference_definite(steps, c, lam):
    """The pivot test as a plain pass over every vertex of an unfolded order."""
    acc = [0.0] * (len(steps) + 1)
    for v, p, d in steps:
        f = lam - d - acc[v]
        if f <= 0.0:
            return False
        acc[p] += c / f
    return True


def reference_root_pivot(steps, c, lam):
    """(f_u, f_u') as a plain pass over every vertex of an unfolded order."""
    acc = [0.0] * (len(steps) + 1)
    slope = [0.0] * (len(steps) + 1)
    for v, p, d in steps[:-1]:
        f = lam - d - acc[v]
        if f <= 0.0:
            return None
        q = c / f
        acc[p] += q
        slope[p] += q * (1.0 + slope[v]) / f
    u, _, d = steps[-1]
    return lam - d - acc[u], 1.0 + slope[u]


def scaled(order, alpha):
    """An order or plan with each degree replaced by alpha * degree."""
    return [(v, p, alpha * d, *rest) for v, p, d, *rest in order]


def reference_radius(g, alpha):
    """Plain bisection on [0, max degree] with the vertex-0 pivot test.

    The tree route before the Newton search, kept as the reference that
    radius_of must equal bit for bit.
    """
    steps = scaled(reference_leaves_first(g)[0], alpha)
    c = (1.0 - alpha) ** 2
    lo, hi = 0.0, float(g.degrees().max())
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if reference_definite(steps, c, mid):
            hi = mid
        else:
            lo = mid


def exact_definite(g, alpha, lam):
    """Whether lam*I - A_alpha(g) of a tree is positive definite, by a
    leaves-first elimination of the private reversed-BFS order in exact
    rational arithmetic at the exact double values of alpha and lam."""
    alpha, lam = Fraction(alpha), Fraction(lam)
    c = (1 - alpha) ** 2
    acc = [Fraction(0)] * (g.n_vertices + 1)
    for v, p, d in reference_leaves_first(g)[0]:
        f = lam - alpha * d - acc[v]
        if f <= 0:
            return False
        acc[p] += c / f
    return True


# The goldens' radii that moved from the dense route to elimination:
# (golden file, size, graph, alpha).
MOVED_GOLDEN_RADII = [
    ("convergence_p2nn", s, p2_two_paths(s, s)[0], 0.25) for s in (10, 20, 40)
] + [("convergence_p2mn", s, p2_two_paths(s, 2)[0], 0.0) for s in (50, 100)]


@pytest.mark.parametrize("name, size, g, alpha", MOVED_GOLDEN_RADII,
                         ids=[f"{name}-{size}" for name, size, _, _ in MOVED_GOLDEN_RADII])
def test_moved_golden_radii_are_rho_rounded_up(name, size, g, alpha):
    r = radius_of(g, alpha)
    assert f"\n{size},{r:.15g}," in (GOLDEN / f"{name}.out").read_text()
    assert exact_definite(g, alpha, r)
    assert not exact_definite(g, alpha, math.nextafter(r, 0.0))


def count_eliminations(monkeypatch):
    """Counter of elimination passes, pivot test and Newton pass alike."""
    counter = {"passes": 0}
    for name in ("_definite", "_root_pivot"):
        def counted(*args, _pass=getattr(spectral, name)):
            counter["passes"] += 1
            return _pass(*args)
        monkeypatch.setattr(spectral, name, counted)
    return counter


# The four convergence families at orders 128, about 500, and 802-1602.
CONVERGENCE_FAMILIES = {
    "p2nn": (lambda s: p2_two_paths(s, s)[0], (63, 250, 800)),
    "p2mn": (lambda s: p2_two_paths(s, 2)[0], (124, 500, 800)),
    "k13": (lambda s: attach_pendant_path(star(3), 0, s), (124, 500, 800)),
    "p5u": (lambda s: attach_pendant_path(path(5), 2, s), (123, 500, 800)),
}


@pytest.mark.parametrize("family, size", [
    (family, size) for family, (_, sizes) in sorted(CONVERGENCE_FAMILIES.items())
    for size in sizes])
def test_tree_radius_matches_dense_on_convergence_families(family, size):
    g = CONVERGENCE_FAMILIES[family][0](size)
    assert 128 <= g.n_vertices <= 1602
    for alpha in TREE_ALPHAS:
        rho = radius_of(g, alpha)
        assert rho == reference_radius(g, alpha)
        assert abs(rho - dense_radius(g, alpha)) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_tree_radius_matches_dense_on_seeded_trees(seed):
    g = seeded_tree(seed, (128, 129, 200, 400, 700, 1000)[seed])
    for alpha in TREE_ALPHAS:
        rho = radius_of(g, alpha)
        assert rho == reference_radius(g, alpha)
        assert abs(rho - dense_radius(g, alpha)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_trees(1, 400), st.sampled_from(TREE_ALPHAS))
def test_tree_radius_matches_dense_property(g, alpha):
    rho = radius_of(g, alpha)
    assert rho == reference_radius(g, alpha)
    assert abs(rho - dense_radius(g, alpha)) <= 1e-12


def test_tree_radius_equals_reference_with_tied_hubs():
    # Two equal stars joined by a long path: removing one hub leaves the
    # other, so rho(G - u) sits just below rho, and at alpha = 1 on it.
    for k, m in ((1, 3), (5, 200), (40, 100), (128, 10)):
        g = join_by_path(star(k), 0, star(k), 0, m)
        for alpha in TREE_ALPHAS:
            assert radius_of(g, alpha) == reference_radius(g, alpha)


def test_tree_radius_equals_reference_on_stars():
    # The Newton search starts at star_radius, which is rho itself here.
    for k in (1, 2, 7, 127, 300):
        for alpha in TREE_ALPHAS:
            assert radius_of(star(k), alpha) == reference_radius(star(k), alpha)


def test_tree_radius_at_order_1602_takes_few_eliminations(monkeypatch):
    g = p2_two_paths(800, 800)[0]
    counter = count_eliminations(monkeypatch)
    for alpha in TREE_ALPHAS:
        counter["passes"] = 0
        radius_of(g, alpha)
        assert 1 <= counter["passes"] <= 15, (alpha, counter["passes"])


def expand(g, plan):
    """(vertex, parent) of every vertex of a plan, each folded run written out.

    Up a run, the next vertex is the one neighbour of the last that is not
    yet listed; leaves-first, there is exactly one.
    """
    out, seen = [], set()
    for v, p, d, k in plan:
        assert d == len(g.adj[v])
        run = [v]
        for _ in range(k):
            (up,) = [w for w in g.adj[run[-1]] if w not in seen and w not in run]
            assert len(g.adj[up]) == 2
            run.append(up)
        seen.update(run)
        out += zip(run, run[1:] + [p])
    return out


def spider(arms):
    """A hub, vertex 0, with one pendant path of each length in arms."""
    g = Graph(1)
    for m in arms:
        g = attach_pendant_path(g, 0, m)
    return g


def test_leaves_first_orders():
    # vertex 3, the centre of the star, is the one vertex of degree 5
    g = join_by_path(path(3), 2, star(4), 0, 128)
    check, search = spectral._leaves_first(g)
    for plan in (check, search):
        order = expand(g, plan)
        assert sorted(v for v, _ in order) == list(range(g.n_vertices))
        seen = set()
        for v, p in order:
            assert v not in seen and (p == g.n_vertices or p in g.adj[v])
            assert all(w in seen for w in g.adj[v] if w != p)
            seen.add(v)
        assert order[-1] == (plan[-1][0], g.n_vertices) and plan[-1][3] == 0
    assert check[-1][:2] == (0, g.n_vertices)
    hub = int(np.argmax(g.degrees()))
    assert search[-1][:2] == (hub, g.n_vertices) and hub == 3
    g0 = attach_pendant_path(star(3), 0, 128)
    check, search = spectral._leaves_first(g0)
    assert search is check


def test_leaves_first_pivots_match_the_private_build():
    """Each pass over a folded plan gives the verdict and the (f_u, f_u')
    of a plain pass over the private reversed-BFS order, bit for bit, at
    lam near rho, where folded runs are cut short, and across [0, max degree].
    """
    rng = np.random.default_rng(13)
    graphs = [g for size in (64, 200, 800) for g in (
        p2_two_paths(size, size)[0], attach_pendant_path(star(3), 0, size),
        attach_pendant_path(path(5), 2, size))]
    graphs += [seeded_tree(seed, int(rng.integers(128, 1001))) for seed in range(12)]
    graphs += [spider(range(40, 40 + 3 * arms, 3)[::-1]) for arms in (3, 4, 6, 9)]
    graphs += [path(n) for n in (128, 500, 1602)]
    graphs.append(join_by_path(star(40), 0, star(40), 0, 100))
    shifts = [sign * 10.0 ** -k for k in range(2, 16) for sign in (1, -1)]
    for g in graphs:
        top = float(g.degrees().max())
        plans = spectral._leaves_first(g)
        orders = reference_leaves_first(g)
        for alpha in TREE_ALPHAS:
            c, d2 = (1.0 - alpha) ** 2, 2.0 * alpha
            rho = radius_of(g, alpha)
            lams = [rho * (1.0 + e) for e in shifts] + list(rng.uniform(0.0, top, 4))
            for plan, order in zip(plans, orders):
                plan, order = scaled(plan, alpha), scaled(order, alpha)
                for lam in lams:
                    got = spectral._definite(plan, c, d2, lam)
                    assert got is reference_definite(order, c, lam), (alpha, lam)
                    got = spectral._root_pivot(plan, c, d2, lam)
                    want = reference_root_pivot(order, c, lam)
                    assert (got is None) == (want is None), (alpha, lam)
                    if got is not None:
                        assert [x.hex() for x in got] == [x.hex() for x in want]
    for g in (cycle(128), Graph(129, cycle(128).edges),
              unicyclic_200(), cycle_plus_path_200()):
        assert spectral._leaves_first(g) is None


def test_two_long_pendant_paths_plan_in_few_steps():
    check, search = spectral._leaves_first(p2_two_paths(800, 800)[0])
    assert search is check and len(check) <= 8


def test_pendant_pivots_repeat_within_150_vertices_at_rho():
    """The folded runs pay off on the convergence families: at rho, the
    pivot and slope sum up a pendant path, from its leaf, repeat exactly
    within 150 vertices, far short of the path's 800."""
    for family in ("p2nn", "p2mn", "k13", "p5u"):
        g = CONVERGENCE_FAMILIES[family][0](800)
        for alpha in TREE_ALPHAS:
            lam = radius_of(g, alpha)
            c, e = (1.0 - alpha) ** 2, lam - 2.0 * alpha
            f, s = lam - alpha, 0.0
            for _ in range(150):
                q = c / f
                f_next, s_next = e - q, q * (1.0 + s) / f
                if f_next == f and s_next == s:
                    break
                f, s = f_next, s_next
            else:
                raise AssertionError(f"no repeat in 150 steps: {family}, alpha {alpha}")


def test_trees_skip_the_dense_solve(monkeypatch):
    no_dense(monkeypatch)
    for g in (Graph(1), path(2), star(3), seeded_tree(6, 20), path(128), seeded_tree(0, 500),
              p2_two_paths(800, 800)[0]):
        assert radius_of(g, 0.3) == reference_radius(g, 0.3)


def test_tree_radius_path_anchor():
    for n in (2, 3, 10, 128, 500, 1602):
        assert abs(radius_of(path(n), 0.0) - 2 * math.cos(math.pi / (n + 1))) <= 1e-12


def test_tree_radius_star_anchor():
    for k in (1, 5, 127, 300, 1000):
        for alpha in TREE_ALPHAS:
            rad = alpha * alpha * (k + 1) ** 2 + 4 * k * (1 - 2 * alpha)
            expect = 0.5 * (alpha * (k + 1) + math.sqrt(rad))
            assert abs(radius_of(star(k), alpha) - expect) <= 1e-12 * expect


def test_tree_radius_at_alpha_one_is_max_degree_exactly():
    for g in (path(2), star(5), seeded_tree(8, 30), path(128), star(127), seeded_tree(3, 600),
              attach_pendant_path(star(3), 0, 800)):
        assert radius_of(g, 1.0) == float(g.degrees().max())


def test_tree_radius_validates_alpha():
    for alpha in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            radius_of(path(5), alpha)


def unicyclic_200():
    return Graph(200, path(200).edges | {(0, 199)})


def cycle_plus_path_200():
    # a 150-cycle and a 50-path: 150 + 49 = 199 edges on 200 vertices
    edges = cycle(150).edges | {(150 + i, 151 + i) for i in range(49)}
    return Graph(200, frozenset(edges))


def test_unicyclic_graph_stays_dense(monkeypatch):
    g = unicyclic_200()
    no_elimination(monkeypatch)
    for alpha in TREE_ALPHAS:
        assert radius_of(g, alpha) == dense_radius(g, alpha)


def test_disconnected_graph_with_n_minus_one_edges_stays_dense(monkeypatch):
    g = cycle_plus_path_200()
    assert g.n_edges == g.n_vertices - 1
    no_elimination(monkeypatch)
    for alpha in TREE_ALPHAS:
        assert radius_of(g, alpha) == dense_radius(g, alpha)


def test_trees_of_every_small_order_equal_the_reference():
    for n in range(2, 128):
        g = seeded_tree(n, n)
        for alpha in TREE_ALPHAS:
            rho = radius_of(g, alpha)
            assert rho == reference_radius(g, alpha), (n, alpha)
            assert abs(rho - dense_radius(g, alpha)) <= 1e-12, (n, alpha)


def test_smallest_trees_at_every_alpha():
    # K_1 has A_alpha = [0]; K_2 = P_2 = K_{1,1} has eigenvalues alpha +- (1 - alpha)
    for alpha in TREE_ALPHAS:
        assert radius_of(Graph(1), alpha) == reference_radius(Graph(1), alpha) == 0.0
        for g in (path(2), star(1)):
            assert radius_of(g, alpha) == reference_radius(g, alpha) == 1.0


def test_non_trees_never_reach_elimination(monkeypatch):
    # a tree plus one edge: n edges on n vertices, one cycle
    tree_plus_edge = Graph(30, seeded_tree(9, 30).edges | {(0, 29)})
    graphs = [wheel5(), lollipop(4), lollipop(9), tree_plus_edge] + [cycle(n) for n in (3, 4, 9)]
    assert all(g.n_edges >= g.n_vertices for g in graphs)
    no_elimination(monkeypatch)
    for g in graphs:
        for alpha in TREE_ALPHAS:
            assert radius_of(g, alpha) == dense_radius(g, alpha)


def test_star_radius_is_the_star_and_a_lower_bound():
    for alpha in (0.0, 0.3, 0.5, 0.9, 1.0):
        for k in (1, 3, 7):
            assert abs(star_radius(k, alpha) - dense_radius(star(k), alpha)) < 1e-12
        assert star_radius(4, alpha) <= radius_of(wheel5(), alpha) + 1e-12
        assert star_radius(0, alpha) == radius_of(Graph(1), alpha) == 0.0


# ---------------------------------------------------------------------------
# batched radii: one eigensolve call per stack, bit for bit radius_of
# ---------------------------------------------------------------------------

BATCH_ALPHAS = (0.0, 0.2, 0.5, 0.8, 1.0)


def test_radius_of_equals_its_route_exactly():
    graphs = [wheel5(), path(4), cycle(9), star(5), seeded_tree(1, 12),
              p2_two_paths(2, 3)[0], path(7), seeded_tree(2, 200),
              unicyclic_200(), cycle_plus_path_200()]
    for g in graphs:
        tree = spectral._leaves_first(g)
        batched = stack_radii(alpha_stack(g, BATCH_ALPHAS))
        for alpha, dense in zip(BATCH_ALPHAS, batched):
            r = radius_of(g, alpha)
            assert type(r) is float
            assert r == (dense if tree is None else spectral._tree_radius(tree, alpha))


def test_radius_of_sends_large_trees_to_elimination(monkeypatch):
    g = seeded_tree(4, 300)
    expected = reference_radius(g, 0.3)
    no_dense(monkeypatch)
    assert radius_of(g, 0.3) == expected


@pytest.mark.parametrize("g", [wheel5(), cycle(5), seeded_tree(5, 9),
                               p2_two_paths(1, 2)[0]])
def test_subdivision_stack_slices_are_the_subdivided_matrices(g):
    edges = sorted(g.edges)
    for alpha in BATCH_ALPHAS:
        stack = subdivision_stack(g, alpha, assemble_a_alpha(g, alpha))
        assert stack.shape == (len(edges), g.n_vertices + 1, g.n_vertices + 1)
        for e, m in zip(edges, stack):
            assert np.array_equal(m, assemble_a_alpha(subdivide_edge(g, e), alpha))
        singles = [assemble_a_alpha(subdivide_edge(g, e), alpha)[None] for e in edges]
        assert stack_radii(stack) == [stack_radii(m)[0] for m in singles]


def test_alpha_stack_slices_are_the_assembled_matrices():
    for g in (wheel5(), cycle(5), seeded_tree(7, 11), Graph(3)):
        stack = alpha_stack(g, BATCH_ALPHAS)
        assert stack.shape == (len(BATCH_ALPHAS), g.n_vertices, g.n_vertices)
        for m, alpha in zip(stack, BATCH_ALPHAS):
            assert np.array_equal(m, assemble_a_alpha(g, alpha))
            assert np.array_equal(subdivision_stack(g, alpha, m),
                                  subdivision_stack(g, alpha, assemble_a_alpha(g, alpha)))
    with pytest.raises(ValueError, match="alpha"):
        alpha_stack(wheel5(), (0.5, 1.5))


def test_solve_by_order_keeps_input_order_and_each_slice_alone():
    graphs = [wheel5(), path(4), cycle(5), star(3), p2_two_paths(1, 2)[0], path(5)]
    blocks = [subdivision_stack(g, alpha, assemble_a_alpha(g, alpha))
              for g in graphs for alpha in (0.0, 0.5)]
    blocks += [assemble_a_alpha(g, 0.8)[None] for g in graphs]
    blocks.insert(3, subdivision_stack(Graph(4), 0.5, np.zeros((4, 4))))  # empty, order 5
    matrices = [m for block in blocks for m in block]
    assert solve_by_order(stack_radii, blocks) == [stack_radii(m[None])[0] for m in matrices]
    spectra = solve_by_order(full_spectrum, blocks)
    assert len(spectra) == len(matrices)
    for row, m in zip(spectra, matrices):
        assert np.array_equal(row, full_spectrum(m))
    calls = []

    def counting(stack):
        calls.append(stack.shape)
        return stack_radii(stack)
    solve_by_order(counting, blocks)
    assert sorted(shape[-1] for shape in calls) == [4, 5, 6]
    assert sum(shape[0] for shape in calls) == len(matrices)
    assert solve_by_order(stack_radii, []) == []


def test_subdivision_stack_of_an_edgeless_graph_is_empty():
    stack = subdivision_stack(Graph(3), 0.5, np.zeros((3, 3)))
    assert stack.shape == (0, 4, 4)
    assert stack_radii(stack) == []


def test_stack_radii_rejects_non_symmetric_and_non_square_input():
    stack = np.stack([assemble_a_alpha(wheel5(), 0.3)] * 3)
    stack[1, 0, 2] += 1.0
    with pytest.raises(ValueError, match="symmetric"):
        stack_radii(stack)
    with pytest.raises(ValueError, match="square"):
        stack_radii(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="square"):
        stack_radii(np.zeros((3, 3)))


def test_full_spectrum_of_a_stack_equals_each_slice_alone():
    graphs = [wheel5(), cycle(5), seeded_tree(6, 5), p2_two_paths(1, 2)[0]]
    stack = np.stack([assemble_a_alpha(g, alpha) for g in graphs for alpha in BATCH_ALPHAS])
    rows = full_spectrum(stack)
    assert rows.shape == stack.shape[:2]
    for row, m in zip(rows, stack):
        assert np.array_equal(row, full_spectrum(m))
    stack[3, 0, 1] += 1.0
    with pytest.raises(ValueError, match="symmetric"):
        full_spectrum(stack)
