"""Property suites: structural lemmas on random graphs, polynomial identities on grids.

Two suites back the `verify` subcommand. The lemma suite samples seeded
random connected graphs of order 4 to 12 and checks the spectral-radius
bounds, the two monotonicity statements and the subdivision direction on
every edge. It plans, then solves: it draws the graphs, then one connected
proper subgraph per graph (from one bridge pass, building only the chosen
subgraph), assembles every matrix the four checks need, and solves them by
order with one eigensolve call per order, LEMMA_CHUNK graphs at a time
(lemma_radii). The check functions only compare the solved radii. The
identity suite evaluates the polynomial and closed-form identities on
deterministic grids, plus the bipartite spectra check on random trees,
whose spectra are solved by order the same way. Its checks solve each root
once, and bound float error by the polynomial with absolute coefficients.
Every check reports a PropertyResult; a failing one carries a counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import limits
from .graphs import (
    Graph,
    bridges,
    format_graph,
    internal_path_edges,
    internal_paths,
    is_bipartite,
    is_double_snake,
    is_regular,
    p2_two_paths,
    subdivide_edge,
)
from .spectral import (
    _path_tridiag,
    alpha_stack,
    assemble_a_alpha,
    assemble_laplacian,
    bn_charpoly_closed,
    degree_bounds,
    full_spectrum,
    h_of_lambda,
    path_charpoly_closed,
    solve_by_order,
    stack_radii,
    subdivision_stack,
    tridiag_charpoly_recurrence,
)

STRICT_MARGIN = 1e-12
EQUALITY_TOL = 1e-10
LEMMA_ALPHAS = (0.0, 0.2, 0.5, 0.8)
ALPHA_LO, ALPHA_HI = 0.2, 0.7  # the alpha-monotonicity pair
# Graphs whose matrices lemma_radii solves together. The verify workload's
# jobs are this size; larger runs are solved in chunks of it, so memory
# stays flat in --trials.
LEMMA_CHUNK = 20


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    checked: int
    detail: str = ""


def _result(name: str, checked: int, bad: list) -> PropertyResult:
    """The check passes iff bad is empty; the detail joins its first three
    counterexamples."""
    return PropertyResult(name, not bad, checked, "; ".join(bad[:3]))


# ---------------------------------------------------------------------------
# seeded graph generation
# ---------------------------------------------------------------------------


def random_tree(rng: np.random.Generator, n: int) -> Graph:
    """Uniform labeled tree by Pruefer decoding."""
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


def random_connected_graph(rng: np.random.Generator) -> Graph:
    """Random tree on 4..12 vertices plus a few random extra edges."""
    n = int(rng.integers(4, 13))
    g = random_tree(rng, n)
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


def _delete_vertex(g: Graph, v: int) -> Graph:
    keep = [u for u in range(g.n_vertices) if u != v]
    relabel = {u: i for i, u in enumerate(keep)}
    edges = {(min(relabel[a], relabel[b]), max(relabel[a], relabel[b]))
             for (a, b) in g.edges if a != v and b != v}
    return Graph(g.n_vertices - 1, frozenset(edges))


def _delete_edge(g: Graph, e: tuple) -> Graph:
    return Graph(g.n_vertices, g.edges - {(min(e), max(e))})


def _proper_connected_subgraph(g: Graph, rng: np.random.Generator) -> Graph | None:
    """A random connected proper subgraph of a connected g: drop a cycle
    edge or a non-cut vertex.

    The sorted edges are shuffled and the first one that is not a bridge
    (one low-link pass, see bridges) is dropped. If every edge is a bridge,
    g is a tree: a shuffled vertex list is drawn and its first leaf is
    dropped, unless that would leave a single vertex. These are the draws
    and the subgraph of trying each deletion in turn for connectivity;
    only the chosen subgraph is built.
    """
    edges = sorted(g.edges)
    rng.shuffle(edges)
    cut = bridges(g)
    for e in edges:
        if e not in cut:
            return _delete_edge(g, e)
    verts = list(range(g.n_vertices))
    rng.shuffle(verts)
    if g.n_vertices >= 3:
        deg = g.degrees()
        for v in verts:
            if deg[v] == 1:
                return _delete_vertex(g, v)
    return None


def _is_cycle(g: Graph) -> bool:
    return g.n_vertices >= 3 and bool(np.all(g.degrees() == 2)) and g.is_connected()


# ---------------------------------------------------------------------------
# lemma suite
# ---------------------------------------------------------------------------


def check_radius_bounds(graphs: list, alphas: list, rhos: list) -> PropertyResult:
    """Degree-based lower and upper bounds on the spectral radius.

    rhos[i] is rho(A_alpha(graphs[i])) at alphas[i]; the subgraph and
    subdivision checks take the same list.
    """
    bad = []
    checked = 0
    for g, alpha, rho in zip(graphs, alphas, rhos):
        lower, dmax = degree_bounds(g, alpha)
        checked += 1
        if rho > dmax + EQUALITY_TOL or lower > rho + EQUALITY_TOL:
            bad.append(f"alpha={alpha} rho={rho} bounds=({lower},{dmax}) "
                       f"g={format_graph(g)}")
    return _result("radius-bounds", checked, bad)


def check_subgraph_monotonicity(graphs: list, alphas: list, rhos: list,
                                subs: list, sub_rhos: list) -> PropertyResult:
    """A connected proper subgraph has strictly smaller radius.

    subs[i] is a connected proper subgraph of graphs[i], or None if it has
    none; sub_rhos[i] is its radius at alphas[i].
    """
    bad = []
    checked = 0
    for g, alpha, rho, h, rho_h in zip(graphs, alphas, rhos, subs, sub_rhos):
        if h is None:
            continue
        checked += 1
        if rho - rho_h <= STRICT_MARGIN:
            bad.append(f"alpha={alpha} g={format_graph(g)} h={format_graph(h)}")
    return _result("subgraph-strict", checked, bad)


def check_alpha_monotonicity(graphs: list, lo_rhos: list, hi_rhos: list) -> PropertyResult:
    """Radius grows with alpha from ALPHA_LO to ALPHA_HI; constant exactly on
    regular graphs. lo_rhos and hi_rhos are the radii at the two alphas.
    """
    bad = []
    for g, r_lo, r_hi in zip(graphs, lo_rhos, hi_rhos):
        if is_regular(g):
            if abs(r_hi - r_lo) > EQUALITY_TOL:
                bad.append(f"regular but moved: {format_graph(g)}")
        elif r_hi - r_lo <= STRICT_MARGIN:
            bad.append(f"rho({ALPHA_HI})={r_hi} <= rho({ALPHA_LO})={r_lo}: "
                       f"{format_graph(g)}")
    return _result("alpha-monotone", len(graphs), bad)


def check_subdivision_direction(graphs: list, alphas: list, rhos: list,
                                subdivided: list) -> PropertyResult:
    """Subdividing internal-path edges lowers the radius, other edges raise it.

    subdivided[i] lists the radii of graphs[i] with each edge subdivided,
    in sorted edge order. Cycles are the equality case of the raising
    direction; the double snake at alpha 0 is the equality case of the
    lowering direction.
    """
    bad = []
    checked = 0
    for g, alpha, rho, rho_subs in zip(graphs, alphas, rhos, subdivided):
        internal = internal_path_edges(g)
        cycle = _is_cycle(g)
        snake_zero = is_double_snake(g) and alpha == 0.0
        for e, rho_sub in zip(sorted(g.edges), rho_subs):
            checked += 1
            if e in internal:
                ok = (abs(rho_sub - rho) <= EQUALITY_TOL if snake_zero
                      else rho - rho_sub > STRICT_MARGIN)
            else:
                ok = (abs(rho_sub - rho) <= EQUALITY_TOL if cycle
                      else rho_sub - rho > STRICT_MARGIN)
            if not ok:
                bad.append(f"alpha={alpha} edge={e} rho={rho} rho_sub={rho_sub} "
                           f"g={format_graph(g)}")
    return _result("subdivision-direction", checked, bad)


@dataclass(frozen=True)
class LemmaRadii:
    """Every radius the lemma checks compare, aligned with the graph list."""

    rhos: list        # rho(G, alpha)
    sub_rhos: list    # rho(H, alpha) for the subgraph H, None where there is none
    lo_rhos: list     # rho(G, ALPHA_LO)
    hi_rhos: list     # rho(G, ALPHA_HI)
    subdivided: list  # per graph, rho of each edge subdivision in sorted edge order


def lemma_radii(graphs: list, alphas: list, subs: list) -> LemmaRadii:
    """Plan every matrix the lemma checks need, then solve once per order.

    For each graph: A_alpha(G) at alpha, ALPHA_LO and ALPHA_HI from one
    assembly (alpha_stack), every edge subdivision derived from A_alpha(G)
    (subdivision_stack), and A_alpha(H) for its subgraph. LEMMA_CHUNK
    graphs at a time, these go to solve_by_order, one stack_radii call per
    matrix order, so peak memory does not grow with the number of graphs.
    """
    out = LemmaRadii([], [], [], [], [])
    for start in range(0, len(graphs), LEMMA_CHUNK):
        chunk = range(start, min(start + LEMMA_CHUNK, len(graphs)))
        blocks = []
        for i in chunk:
            g, alpha, h = graphs[i], alphas[i], subs[i]
            at_alphas = alpha_stack(g, (alpha, ALPHA_LO, ALPHA_HI))
            blocks += [at_alphas, subdivision_stack(g, alpha, at_alphas[0])]
            if h is not None:
                blocks.append(assemble_a_alpha(h, alpha)[None])
        radii = iter(solve_by_order(stack_radii, blocks))
        for i in chunk:
            out.rhos.append(next(radii))
            out.lo_rhos.append(next(radii))
            out.hi_rhos.append(next(radii))
            out.subdivided.append([next(radii) for _ in range(graphs[i].n_edges)])
            out.sub_rhos.append(None if subs[i] is None else next(radii))
    return out


def run_lemma_suite(seed: int, trials: int = 200) -> list:
    """Sample seeded random connected graphs and run every lemma check.

    The graphs are drawn first, then one subgraph per graph in graph order;
    lemma_radii solves every radius, and the checks compare them.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    graphs = [random_connected_graph(rng) for _ in range(trials)]
    alphas = [LEMMA_ALPHAS[i % len(LEMMA_ALPHAS)] for i in range(trials)]
    subs = [_proper_connected_subgraph(g, rng) for g in graphs]
    radii = lemma_radii(graphs, alphas, subs)
    return [
        check_radius_bounds(graphs, alphas, radii.rhos),
        check_subgraph_monotonicity(graphs, alphas, radii.rhos, subs, radii.sub_rhos),
        check_alpha_monotonicity(graphs, radii.lo_rhos, radii.hi_rhos),
        check_subdivision_direction(graphs, alphas, radii.rhos, radii.subdivided),
    ]


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

ALPHA_GRID = tuple(round(0.1 * k, 1) for k in range(10))  # 0.0 .. 0.9
X_GRID = tuple(round(0.05 + 0.09 * k, 4) for k in range(11))  # 0.05 .. 0.95


def _magnitudes(p: limits.HalfPoly) -> limits.HalfPoly:
    """p with absolute coefficients: at t >= 0, the float error scale of p."""
    return limits.HalfPoly(tuple(abs(c) for c in p.coeffs))


def check_phi_increasing() -> PropertyResult:
    """Finite differences of the version I polynomial are positive for x > 0."""
    bad = []
    checked = 0
    xs = np.linspace(1e-3, 1.5, 60)
    for n in (1, 2, 5, 10, 20):
        for alpha in (0.0, 0.25, 0.5, 0.75, 0.9):
            vals = limits.phi_version1(n, alpha)(xs)
            checked += len(xs) - 1
            if not np.all(np.diff(vals) > 0):
                bad.append(f"n={n} alpha={alpha}")
    return _result("phi-increasing", checked, bad)


def check_duality() -> PropertyResult:
    """Version I and II polynomials are reciprocal transforms of each other."""
    bad = []
    checked = 0
    for n in (1, 2, 3, 5, 10, 20):
        for alpha in ALPHA_GRID:
            p1 = limits.phi_version1(n, alpha)
            p2 = limits.phi_version2(n, alpha)
            m1, m2 = _magnitudes(p1), _magnitudes(p2)
            for x in X_GRID:
                t = math.sqrt(x)
                lhs = p1.eval_t(t)
                rhs = x ** (n + 1) * p2.eval_t(1.0 / t)
                scale = m1.eval_t(t) + x ** (n + 1) * m2.eval_t(1.0 / t)
                checked += 1
                if abs(lhs + rhs) > 1e-12 * scale:
                    bad.append(f"n={n} alpha={alpha} x={x} residual={lhs + rhs}")
    return _result("duality", checked, bad)


def check_route_equality() -> PropertyResult:
    """eta through gamma agrees with eta through the reciprocal root."""
    bad = []
    checked = 0
    for n in (1, 2, 3, 5, 10, 20, 30):
        for alpha in ALPHA_GRID:
            e1 = limits._eta_from_root(limits.gamma_n(n, alpha), alpha)
            e2 = limits._eta_from_root(1.0 / limits.gamma_tilde_n(n, alpha), alpha)
            checked += 1
            if abs(e1 - e2) > 1e-12:
                bad.append(f"n={n} alpha={alpha} diff={e1 - e2}")
    return _result("route-equality", checked, bad)


def _strict_until_saturated(gaps) -> bool:
    """Strictly positive gaps until they shrink past the resolvable floor, 1e-12.

    The consecutive differences decay geometrically and eventually fall
    below what doubles can represent against values near 2; from the
    first sub-floor gap onward only ulp-level non-decrease is demanded.
    """
    saturated = False
    for gap in gaps:
        if not saturated and gap < 1e-12:
            saturated = True
        if gap <= (0.0 if not saturated else -5e-15):
            return False
    return True


def check_strict_chain() -> PropertyResult:
    """eta_0 < eta_1 < ... up to Psi; the alpha=0 chain ties at the start.

    Strictness is enforced while the geometric gap decay stays above the
    double-precision floor; past that the chain must still never
    decrease, and it must never overshoot Psi by more than noise.
    """
    bad = []
    checked = 0
    cfg = limits.RootConfig(tol=1e-15)
    for alpha in ALPHA_GRID[1:]:
        etas = [limits.eta_n(n, alpha, cfg) for n in range(31)]
        gaps = np.diff(etas)
        checked += len(gaps) + 1
        if not _strict_until_saturated(gaps):
            bad.append(f"alpha={alpha} min gap={gaps.min()}")
        if etas[-1] > limits.psi(alpha, cfg) + 1e-12:
            bad.append(f"alpha={alpha} eta_30 overshoots psi")
    etas0 = [limits.eta_n(n, 0.0, cfg) for n in range(31)]
    checked += 3
    if abs(etas0[0] - 2.0) > 1e-12 or abs(etas0[1] - 2.0) > 1e-12:
        bad.append("alpha=0 chain does not start at 2, 2")
    if not _strict_until_saturated(np.diff(etas0[1:])):
        bad.append("alpha=0 chain not strict beyond the tie")
    return _result("strict-chain", checked, bad)


def check_eta_convergence(psis: dict) -> PropertyResult:
    """eta_50 sits within 1e-3 of Psi = psis[alpha] across the alpha grid."""
    bad = []
    for alpha in ALPHA_GRID:
        gap = psis[alpha] - limits.eta_n(50, alpha)
        if abs(gap) >= 1e-3:
            bad.append(f"alpha={alpha} gap={gap}")
    return _result("eta-converges", len(ALPHA_GRID), bad)


def check_classic_routes() -> PropertyResult:
    """Classical, alpha=0 and new-version routes give one sequence; roots are reciprocal."""
    bad = []
    checked = 0
    for n in range(1, 31):
        b = limits.beta_n(n)
        ec = limits._eta_from_root(b, 0.0)
        e0 = limits.eta_n(n, 0.0)
        d, z = limits.new_version_sequence(n)
        checked += 3
        if abs(ec - e0) > 1e-12 or abs(z - e0) > 1e-12:
            bad.append(f"n={n} eta routes {ec} {e0} {z}")
        if abs(d * b - 1.0) > 1e-12:
            bad.append(f"n={n} delta*beta={d * b}")
    return _result("classic-routes", checked, bad)


def check_laplacian_agreement() -> PropertyResult:
    """xi_n = kappa_n = 2 eta_n(1/2) and the roots are reciprocal, n <= 30."""
    bad = []
    checked = 0
    for n in range(31):
        mu, kappa = limits.laplacian_guo_wang(n)
        th, xi = limits.laplacian_new(n)
        eta = limits._eta_from_root(th, 0.5)  # 2 exactly at theta_0 = 1
        checked += 3
        if abs(xi - kappa) > 1e-11 or abs(xi - 2 * eta) > 1e-11:
            bad.append(f"n={n} xi={xi} kappa={kappa}")
        if abs(mu * th - 1.0) > 1e-11:
            bad.append(f"n={n} mu*theta={mu * th}")
    return _result("laplacian-agreement", checked, bad)


def check_ordering_constants(psis: dict) -> PropertyResult:
    """Psi = psis[alpha] < omega1 on the grid; omega2 never dips below Psi
    and lies within 1e-7 of its closed form."""
    bad = []
    checked = 0
    for alpha in ALPHA_GRID:
        p = psis[alpha]
        o2 = limits.omega2(alpha)
        checked += 3
        if not p < limits.omega1(alpha):
            bad.append(f"alpha={alpha} psi >= omega1")
        if o2 < p - 1e-9:
            bad.append(f"alpha={alpha} omega2 below psi")
        if abs(o2 - limits.omega2_closed_form(alpha)) > 1e-7:
            bad.append(f"alpha={alpha} omega2 off its closed form")
    return _result("ordering-constants", checked, bad)


def check_difference_identity() -> PropertyResult:
    """The one-step difference of consecutive version I polynomials is n-free."""
    bad = []
    checked = 0
    for n in range(1, 11):
        for alpha in (0.0, 0.3, 0.6, 0.9):
            pn = limits.phi_version1(n, alpha)
            pn1 = limits.phi_version1(n + 1, alpha)
            mn, mn1 = _magnitudes(pn), _magnitudes(pn1)
            for x in (0.1, 0.35, 0.6, 0.85):
                t = math.sqrt(x)
                lhs = pn1.eval_t(t) - x * pn.eval_t(t)
                rhs = limits.difference_poly_f(x, alpha)
                scale = mn1.eval_t(t) + x * mn.eval_t(t)
                checked += 1
                if abs(lhs - rhs) > 1e-12 * max(scale, 1.0):
                    bad.append(f"n={n} alpha={alpha} x={x}")
    return _result("difference-identity", checked, bad)


def check_theta_h_identity() -> PropertyResult:
    """h at the substituted lambda collapses to theta/(1 - alpha(1 - theta))."""
    bad = []
    checked = 0
    for alpha in ALPHA_GRID:
        for theta in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95):
            lam = limits.theta_substitution(theta, alpha)
            if lam <= 2.0:
                continue
            h = h_of_lambda(lam, alpha)
            checked += 1
            if abs(h - theta / (1 - alpha * (1 - theta))) > 1e-12:
                bad.append(f"alpha={alpha} theta={theta}")
        for n in (1, 3, 7):
            g = limits.gamma_n(n, alpha)
            checked += 1
            if abs(limits.theta_substitution(math.sqrt(g), alpha)
                   - limits._eta_from_root(g, alpha)) > 1e-11:
                bad.append(f"eta mismatch n={n} alpha={alpha}")
    return _result("theta-h-identity", checked, bad)


def check_closed_form_charpoly() -> PropertyResult:
    """Path and deleted-path closed forms track the three-term recurrence.

    The reference for phi(P_k) is tridiag_charpoly_recurrence on the path
    matrix of order k; for phi(B_k) it is the same on the path matrix of
    order k + 1 without its last row and column. On this grid delta >= 0.15,
    so the closed forms never fall back to the recurrence themselves.
    """
    bad = []
    checked = 0
    lams = [float(lam) for lam in np.linspace(2.05, 4.0, 8)]
    for k in (2, 3, 5, 10, 25, 50):
        for alpha in ALPHA_GRID:
            diag, off = _path_tridiag(k, alpha)
            diag_b, off_b = _path_tridiag(k + 1, alpha)
            for lam in lams:
                ref = tridiag_charpoly_recurrence(diag, off, lam)
                closed = path_charpoly_closed(k, alpha, lam)
                checked += 1
                if abs(ref - closed) > 1e-9 * max(abs(ref), 1.0):
                    bad.append(f"path k={k} alpha={alpha} lam={lam:.3f}")
                if alpha == 0.0:
                    continue
                ref_b = tridiag_charpoly_recurrence(diag_b[:-1], off_b[:-1], lam)
                closed_b = bn_charpoly_closed(k, alpha, lam)
                checked += 1
                if abs(ref_b - closed_b) > 1e-9 * max(abs(ref_b), 1.0):
                    bad.append(f"bn k={k} alpha={alpha} lam={lam:.3f}")
    return _result("closed-form-charpoly", checked, bad)


def check_q_is_scaled_half(graphs: list) -> PropertyResult:
    """Signless Laplacian equals twice the half-alpha matrix, exactly."""
    bad = []
    for g in graphs:
        q = assemble_laplacian(g, signless=True)
        a_half = assemble_a_alpha(g, 0.5)
        if not np.array_equal(q, 2.0 * a_half):
            bad.append(format_graph(g))
    return _result("q-scaled-half", len(graphs), bad)


def check_bipartite_spectra(rng: np.random.Generator) -> PropertyResult:
    """L and Q spectra coincide on 100 random trees (bipartite graphs).

    The trees' L matrices are solved by order in one full_spectrum call
    each, and so are their Q matrices.
    """
    n_trees = 100
    bad = []
    trees = [random_tree(rng, int(rng.integers(4, 13))) for _ in range(n_trees)]
    sls = solve_by_order(full_spectrum, [assemble_laplacian(g)[None] for g in trees])
    sqs = solve_by_order(full_spectrum,
                         [assemble_laplacian(g, signless=True)[None] for g in trees])
    for g, sl, sq in zip(trees, sls, sqs):
        if not is_bipartite(g):
            bad.append(f"tree not bipartite: {format_graph(g)}")
        elif np.max(np.abs(sl - sq)) > 1e-10:
            bad.append(format_graph(g))
    return _result("bipartite-l-q", n_trees, bad)


def check_graph_structure(graphs: list) -> PropertyResult:
    """Constructor invariants: symmetric two-path trees, subdivision counts, path degrees."""
    bad = []
    checked = 0
    pairs = ((1, 3), (2, 5), (4, 4))
    p2s = [(p2_two_paths(m, n)[0], p2_two_paths(n, m)[0]) for m, n in pairs]
    spectra = iter(solve_by_order(full_spectrum, [assemble_a_alpha(g, 0.3)[None]
                                                  for pair in p2s for g in pair]))
    for (m, n), (g1, g2) in zip(pairs, p2s):
        checked += 1
        if sorted(g1.degrees()) != sorted(g2.degrees()):
            bad.append(f"p2 degree sequences differ at ({m},{n})")
        if np.max(np.abs(next(spectra) - next(spectra))) > 1e-10:
            bad.append(f"p2 spectra differ at ({m},{n})")
    for g in graphs:
        e = sorted(g.edges)[0]
        gs = subdivide_edge(g, e)
        checked += 1
        if gs.n_vertices != g.n_vertices + 1 or gs.n_edges != g.n_edges + 1:
            bad.append(f"subdivision counts wrong on {format_graph(g)}")
        deg = g.degrees()
        for p in internal_paths(g):
            checked += 1
            ends_ok = deg[p.vertices[0]] > 2 and deg[p.vertices[-1]] > 2
            interior_ok = all(deg[v] == 2 for v in p.vertices[1:-1])
            if not (ends_ok and interior_ok):
                bad.append(f"bad internal path {p.vertices} in {format_graph(g)}")
    return _result("graph-structure", checked, bad)


def run_identity_suite(seed: int) -> list:
    """Deterministic identity grid checks plus the random-tree spectra check."""
    rng = np.random.default_rng(seed + 1)
    sample_graphs = [random_connected_graph(rng) for _ in range(20)]
    psis = {alpha: limits.psi(alpha) for alpha in ALPHA_GRID}
    return [
        check_phi_increasing(),
        check_duality(),
        check_route_equality(),
        check_strict_chain(),
        check_eta_convergence(psis),
        check_classic_routes(),
        check_laplacian_agreement(),
        check_ordering_constants(psis),
        check_difference_identity(),
        check_theta_h_identity(),
        check_closed_form_charpoly(),
        check_q_is_scaled_half(sample_graphs),
        check_bipartite_spectra(rng),
        check_graph_structure(sample_graphs),
    ]


def run_suite(suite: str, seed: int, trials: int = 200) -> list:
    """Dispatch for the verify subcommand; suite is lemmas, identities or all."""
    if suite == "lemmas":
        return run_lemma_suite(seed, trials)
    if suite == "identities":
        return run_identity_suite(seed)
    if suite == "all":
        return run_lemma_suite(seed, trials) + run_identity_suite(seed)
    raise ValueError(f"unknown suite {suite!r}")
