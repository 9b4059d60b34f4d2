"""Property suites: structural lemmas on random graphs, polynomial identities on grids.

Two suites back the `verify` subcommand. The lemma suite samples seeded
random connected graphs of order 4 to 12 and checks the spectral-radius
bounds, the two monotonicity statements and the subdivision direction on
every edge. The identity suite evaluates the polynomial and closed-form
identities on deterministic grids, plus the bipartite spectra check on
random trees. Every check reports a PropertyResult; a failing result
carries a serialized counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import limits
from .graphs import (
    Graph,
    edge_in_internal_path,
    format_graph,
    internal_paths,
    is_bipartite,
    is_double_snake,
    is_regular,
    p2_two_paths,
    subdivide_edge,
)
from .spectral import (
    assemble_a_alpha,
    assemble_laplacian,
    bn_charpoly_closed,
    char_poly_eval,
    char_poly_eval_deleted,
    full_spectrum,
    h_of_lambda,
    path_charpoly_closed,
    radius_of,
    star_radius,
)

STRICT_MARGIN = 1e-12
EQUALITY_TOL = 1e-10
LEMMA_ALPHAS = (0.0, 0.2, 0.5, 0.8)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    checked: int
    detail: str = ""


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


def random_connected_graph(rng: np.random.Generator, n_min: int = 4,
                           n_max: int = 12) -> Graph:
    """Random tree on 4..12 vertices plus a few random extra edges."""
    n = int(rng.integers(n_min, n_max + 1))
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
    """A random connected proper subgraph: drop a cycle edge or a non-cut vertex."""
    edges = sorted(g.edges)
    rng.shuffle(edges)
    for e in edges:
        h = _delete_edge(g, e)
        if h.is_connected():
            return h
    verts = list(range(g.n_vertices))
    rng.shuffle(verts)
    for v in verts:
        h = _delete_vertex(g, v)
        if h.n_vertices >= 2 and h.is_connected():
            return h
    return None


def _is_cycle(g: Graph) -> bool:
    return g.n_vertices >= 3 and bool(np.all(g.degrees() == 2)) and g.is_connected()


# ---------------------------------------------------------------------------
# lemma suite
# ---------------------------------------------------------------------------


def check_radius_bounds(graphs: list, alphas: list) -> PropertyResult:
    """Degree-based lower and upper bounds on the spectral radius."""
    bad = []
    checked = 0
    for g, alpha in zip(graphs, alphas):
        dmax = float(g.degrees().max())
        rho = radius_of(g, alpha)
        lower = star_radius(dmax, alpha)
        checked += 1
        if rho > dmax + EQUALITY_TOL or lower > rho + EQUALITY_TOL:
            bad.append(f"alpha={alpha} rho={rho} bounds=({lower},{dmax}) "
                       f"g={format_graph(g)}")
    return PropertyResult("radius-bounds", not bad, checked, "; ".join(bad[:3]))


def check_subgraph_monotonicity(graphs: list, alphas: list,
                                rng: np.random.Generator) -> PropertyResult:
    """A connected proper subgraph has strictly smaller radius."""
    bad = []
    checked = 0
    for g, alpha in zip(graphs, alphas):
        h = _proper_connected_subgraph(g, rng)
        if h is None:
            continue
        checked += 1
        if radius_of(g, alpha) - radius_of(h, alpha) <= STRICT_MARGIN:
            bad.append(f"alpha={alpha} g={format_graph(g)} h={format_graph(h)}")
    return PropertyResult("subgraph-strict", not bad, checked, "; ".join(bad[:3]))


def check_alpha_monotonicity(graphs: list, pair=(0.2, 0.7)) -> PropertyResult:
    """Radius grows with alpha; constant exactly on regular graphs."""
    lo, hi = pair
    bad = []
    for g in graphs:
        r_lo, r_hi = radius_of(g, lo), radius_of(g, hi)
        if is_regular(g):
            if abs(r_hi - r_lo) > EQUALITY_TOL:
                bad.append(f"regular but moved: {format_graph(g)}")
        elif r_hi - r_lo <= STRICT_MARGIN:
            bad.append(f"rho({hi})={r_hi} <= rho({lo})={r_lo}: {format_graph(g)}")
    return PropertyResult("alpha-monotone", not bad, len(graphs), "; ".join(bad[:3]))


def check_subdivision_direction(graphs: list, alphas: list) -> PropertyResult:
    """Subdividing internal-path edges lowers the radius, other edges raise it.

    Cycles are the equality case of the raising direction; the double
    snake at alpha 0 is the equality case of the lowering direction.
    """
    bad = []
    checked = 0
    for g, alpha in zip(graphs, alphas):
        paths = internal_paths(g)
        rho = radius_of(g, alpha)
        cycle = _is_cycle(g)
        snake_zero = is_double_snake(g) and alpha == 0.0
        for e in sorted(g.edges):
            rho_sub = radius_of(subdivide_edge(g, e), alpha)
            checked += 1
            if edge_in_internal_path(g, e, paths):
                ok = (abs(rho_sub - rho) <= EQUALITY_TOL if snake_zero
                      else rho - rho_sub > STRICT_MARGIN)
            else:
                ok = (abs(rho_sub - rho) <= EQUALITY_TOL if cycle
                      else rho_sub - rho > STRICT_MARGIN)
            if not ok:
                bad.append(f"alpha={alpha} edge={e} rho={rho} rho_sub={rho_sub} "
                           f"g={format_graph(g)}")
    return PropertyResult("subdivision-direction", not bad, checked, "; ".join(bad[:3]))


def run_lemma_suite(seed: int, trials: int = 200) -> list:
    """Sample seeded random connected graphs and run every lemma check."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    graphs = [random_connected_graph(rng) for _ in range(trials)]
    alphas = [LEMMA_ALPHAS[i % len(LEMMA_ALPHAS)] for i in range(trials)]
    return [
        check_radius_bounds(graphs, alphas),
        check_subgraph_monotonicity(graphs, alphas, rng),
        check_alpha_monotonicity(graphs),
        check_subdivision_direction(graphs, alphas),
    ]


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

ALPHA_GRID = tuple(round(0.1 * k, 1) for k in range(10))  # 0.0 .. 0.9
X_GRID = tuple(round(0.05 + 0.09 * k, 4) for k in range(11))  # 0.05 .. 0.95


def _abs_scale(p: limits.HalfPoly, t: float) -> float:
    """Evaluation of p with absolute coefficients; the float error scale."""
    return float(np.polynomial.polynomial.polyval(t, np.abs(np.asarray(p.coeffs))))


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
    return PropertyResult("phi-increasing", not bad, checked, "; ".join(bad[:3]))


def check_duality() -> PropertyResult:
    """Version I and II polynomials are reciprocal transforms of each other."""
    bad = []
    checked = 0
    for n in (1, 2, 3, 5, 10, 20):
        for alpha in ALPHA_GRID:
            p1 = limits.phi_version1(n, alpha)
            p2 = limits.phi_version2(n, alpha)
            for x in X_GRID:
                t = math.sqrt(x)
                lhs = p1.eval_t(t)
                rhs = x ** (n + 1) * p2.eval_t(1.0 / t)
                scale = _abs_scale(p1, t) + x ** (n + 1) * _abs_scale(p2, 1.0 / t)
                checked += 1
                if abs(lhs + rhs) > 1e-12 * scale:
                    bad.append(f"n={n} alpha={alpha} x={x} residual={lhs + rhs}")
    return PropertyResult("duality", not bad, checked, "; ".join(bad[:3]))


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
    return PropertyResult("route-equality", not bad, checked, "; ".join(bad[:3]))


def _strict_until_saturated(gaps, floor: float = 1e-12) -> bool:
    """Strictly positive gaps until they shrink past the resolvable floor.

    The consecutive differences decay geometrically and eventually fall
    below what doubles can represent against values near 2; from the
    first sub-floor gap onward only ulp-level non-decrease is demanded.
    """
    saturated = False
    for gap in gaps:
        if not saturated and gap < floor:
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
    return PropertyResult("strict-chain", not bad, checked, "; ".join(bad[:3]))


def check_eta_convergence() -> PropertyResult:
    """eta_50 sits within 1e-3 of Psi across the alpha grid."""
    bad = []
    for alpha in ALPHA_GRID:
        gap = limits.psi(alpha) - limits.eta_n(50, alpha)
        if abs(gap) >= 1e-3:
            bad.append(f"alpha={alpha} gap={gap}")
    return PropertyResult("eta-converges", not bad, len(ALPHA_GRID), "; ".join(bad[:3]))


def check_classic_routes() -> PropertyResult:
    """Classical, alpha=0 and new-version routes give one sequence; roots are reciprocal."""
    bad = []
    checked = 0
    for n in range(1, 31):
        ec = limits.eta_classic(n)
        e0 = limits.eta_n(n, 0.0)
        d, z = limits.new_version_sequence(n)
        b = limits.beta_n(n)
        checked += 3
        if abs(ec - e0) > 1e-12 or abs(z - e0) > 1e-12:
            bad.append(f"n={n} eta routes {ec} {e0} {z}")
        if abs(d * b - 1.0) > 1e-12:
            bad.append(f"n={n} delta*beta={d * b}")
    return PropertyResult("classic-routes", not bad, checked, "; ".join(bad[:3]))


def check_laplacian_agreement() -> PropertyResult:
    """xi_n = kappa_n = 2 eta_n(1/2) and the roots are reciprocal, n <= 30."""
    bad = []
    checked = 0
    for n in range(31):
        mu, kappa = limits.laplacian_guo_wang(n)
        th, xi = limits.laplacian_new(n)
        checked += 3
        if abs(xi - kappa) > 1e-11 or abs(xi - 2 * limits.eta_n(n, 0.5)) > 1e-11:
            bad.append(f"n={n} xi={xi} kappa={kappa}")
        if abs(mu * th - 1.0) > 1e-11:
            bad.append(f"n={n} mu*theta={mu * th}")
    return PropertyResult("laplacian-agreement", not bad, checked, "; ".join(bad[:3]))


def check_ordering_constants() -> PropertyResult:
    """Psi < omega1 everywhere; omega2 never dips below Psi."""
    bad = []
    checked = 0
    for alpha in ALPHA_GRID:
        p = limits.psi(alpha)
        checked += 2
        if not p < limits.omega1(alpha):
            bad.append(f"alpha={alpha} psi >= omega1")
        if limits.omega2(alpha) < p - 1e-9:
            bad.append(f"alpha={alpha} omega2 below psi")
    return PropertyResult("ordering-constants", not bad, checked, "; ".join(bad[:3]))


def check_difference_identity() -> PropertyResult:
    """The one-step difference of consecutive version I polynomials is n-free."""
    bad = []
    checked = 0
    for n in range(1, 11):
        for alpha in (0.0, 0.3, 0.6, 0.9):
            pn = limits.phi_version1(n, alpha)
            pn1 = limits.phi_version1(n + 1, alpha)
            for x in (0.1, 0.35, 0.6, 0.85):
                t = math.sqrt(x)
                lhs = pn1.eval_t(t) - x * pn.eval_t(t)
                rhs = limits.difference_poly_f(x, alpha)
                scale = _abs_scale(pn1, t) + x * _abs_scale(pn, t)
                checked += 1
                if abs(lhs - rhs) > 1e-12 * max(scale, 1.0):
                    bad.append(f"n={n} alpha={alpha} x={x}")
    return PropertyResult("difference-identity", not bad, checked, "; ".join(bad[:3]))


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
                   - limits.eta_n(n, alpha)) > 1e-11:
                bad.append(f"eta mismatch n={n} alpha={alpha}")
    return PropertyResult("theta-h-identity", not bad, checked, "; ".join(bad[:3]))


def check_closed_form_charpoly() -> PropertyResult:
    """Path and deleted-path closed forms track the determinant route."""
    from .graphs import path

    bad = []
    checked = 0
    lams = np.linspace(2.05, 4.0, 8)
    for k in (2, 3, 5, 10, 25, 50):
        g = path(k)
        for alpha in ALPHA_GRID:
            for lam in lams:
                det = char_poly_eval(g, alpha, float(lam))
                closed = path_charpoly_closed(k, alpha, float(lam))
                checked += 1
                if abs(det - closed) > 1e-9 * max(abs(det), 1.0):
                    bad.append(f"path k={k} alpha={alpha} lam={lam:.3f}")
                if alpha == 0.0:
                    continue
                det_b = char_poly_eval_deleted(path(k + 1), 0, alpha, float(lam))
                closed_b = bn_charpoly_closed(k, alpha, float(lam))
                checked += 1
                if abs(det_b - closed_b) > 1e-9 * max(abs(det_b), 1.0):
                    bad.append(f"bn k={k} alpha={alpha} lam={lam:.3f}")
    return PropertyResult("closed-form-charpoly", not bad, checked, "; ".join(bad[:3]))


def check_q_is_scaled_half(graphs: list) -> PropertyResult:
    """Signless Laplacian equals twice the half-alpha matrix, exactly."""
    bad = []
    for g in graphs:
        q = assemble_laplacian(g, signless=True).entries
        a_half = assemble_a_alpha(g, 0.5).entries
        if not np.array_equal(q, 2.0 * a_half):
            bad.append(format_graph(g))
    return PropertyResult("q-scaled-half", not bad, len(graphs), "; ".join(bad[:3]))


def check_bipartite_spectra(rng: np.random.Generator, n_trees: int = 100) -> PropertyResult:
    """L and Q spectra coincide on trees (bipartite graphs)."""
    bad = []
    for _ in range(n_trees):
        g = random_tree(rng, int(rng.integers(4, 13)))
        if not is_bipartite(g):
            bad.append(f"tree not bipartite: {format_graph(g)}")
            continue
        sl = full_spectrum(assemble_laplacian(g, signless=False)).eigenvalues
        sq = full_spectrum(assemble_laplacian(g, signless=True)).eigenvalues
        if np.max(np.abs(np.asarray(sl) - np.asarray(sq))) > 1e-10:
            bad.append(format_graph(g))
    return PropertyResult("bipartite-l-q", not bad, n_trees, "; ".join(bad[:3]))


def check_graph_structure(graphs: list) -> PropertyResult:
    """Constructor invariants: symmetric two-path trees, subdivision counts, path degrees."""
    bad = []
    checked = 0
    for m, n in ((1, 3), (2, 5), (4, 4)):
        g1, _ = p2_two_paths(m, n)
        g2, _ = p2_two_paths(n, m)
        checked += 1
        if sorted(g1.degrees()) != sorted(g2.degrees()):
            bad.append(f"p2 degree sequences differ at ({m},{n})")
        s1 = full_spectrum(assemble_a_alpha(g1, 0.3)).eigenvalues
        s2 = full_spectrum(assemble_a_alpha(g2, 0.3)).eigenvalues
        if np.max(np.abs(np.asarray(s1) - np.asarray(s2))) > 1e-10:
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
    return PropertyResult("graph-structure", not bad, checked, "; ".join(bad[:3]))


def run_identity_suite(seed: int) -> list:
    """Deterministic identity grid checks plus the random-tree spectra check."""
    rng = np.random.default_rng(seed + 1)
    sample_graphs = [random_connected_graph(rng) for _ in range(20)]
    return [
        check_phi_increasing(),
        check_duality(),
        check_route_equality(),
        check_strict_chain(),
        check_eta_convergence(),
        check_classic_routes(),
        check_laplacian_agreement(),
        check_ordering_constants(),
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
