"""Property suites: structural lemmas on random graphs, polynomial identities on grids.

Two suites back the `verify` subcommand. The lemma suite samples seeded
random connected graphs of order 4 to 12 and checks the spectral-radius
bounds, the two monotonicity statements and the subdivision direction on
every edge. It plans, then solves: it draws the graphs (each Pruefer
sequence in one integers call), then one connected proper subgraph per
graph (it drops the first shuffled edge that a walk on g.adj finds on a
cycle, walks nothing on a tree and builds only the chosen subgraph),
assembles every matrix the four checks need, and solves them by order
with one eigensolve call per order, LEMMA_CHUNK graphs at a time
(lemma_radii, one record of radii per graph, unzipped into the lists the
check functions take). The checks compare the solved radii; a strict
comparison that lands inside STRICT_MARGIN is decided exactly instead, by
the signs of the leading principal minors of q*I - A_alpha, scaled to
integers, for the one matrix pair involved (_above, _exceeds). The
structure the checks and the subgraph pick need (degrees, regularity,
cycles, double snakes, internal path edges) is read from the graph's
adjacency lists, with no numpy; only the two assemblies, of G and of H,
build a degree array. The
identity suite evaluates the polynomial and closed-form identities on
deterministic grids, plus the bipartite spectra check on random trees,
whose spectra are solved by order the same way. It solves version I's
ladder once, as limit_table("versionI", 30, ALPHA_GRID), whose rows and
Psi limit rows the ladder checks share. Its three two-route checks are one
rule (_routes_agree): values within 4 ulps and roots reciprocal within
8 eps, which for route-equality checks gamma_n * gamma~_n = 1. Of its 470
bisections 37 repeat a root: the laplacian table's 30 theta_n, whose row
rule rounds xi differently from 2 eta, and the 7 mu_n = gamma~_n(1/2)
route-equality also solves. The polynomial identities bound float error
by the polynomial with absolute coefficients.
Every check reports a PropertyResult; a failing one carries a counterexample.

The routes that exist only to cross-check limits and spectral live here,
off the hot path: the s,t closed forms of the path and deleted-end path
characteristic polynomials (path_charpoly_closed, bn_charpoly_closed) and
the exact three-term tridiagonal recurrence they are checked against
(tridiag_charpoly_recurrence), the theta substitution lambda(theta)
(theta_substitution), the n-free difference of consecutive version I
polynomials (difference_poly_f) and the surd form of omega2
(omega2_closed_form).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import limits
from .graphs import (
    Graph,
    format_graph,
    internal_path_edges,
    internal_paths,
    is_double_snake,
    is_regular,
    p2_two_paths,
    subdivide_edge,
)
from .spectral import (
    _validate_alpha,
    alpha_stack,
    assemble_a_alpha,
    assemble_laplacian,
    degree_bounds,
    delta_of_lambda,
    full_spectrum,
    h_of_lambda,
    solve_by_order,
    stack_radii,
    subdivision_stack,
)

# delta below which the path closed forms take the recurrence (s = t)
DEGENERATE_DELTA = 1e-9
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
    """Uniform labeled tree by Pruefer decoding.

    The sequence is one integers call of n - 2 draws, the same stream as
    n - 2 scalar calls; at n = 2 it draws nothing and leaves the stream as
    it was. Edges are added to the set in decoding order; no number read
    off the tree depends on the order in which the set then iterates.
    """
    if n < 2:
        raise ValueError("a tree needs at least 2 vertices")
    seq = rng.integers(0, n, size=n - 2).tolist()
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = set()
    for v in seq:
        leaf = degree.index(1)  # the least leaf
        edges.add((leaf, v) if leaf < v else (v, leaf))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [v for v in range(n) if degree[v] == 1]
    edges.add((last[0], last[1]))
    return Graph(n, frozenset(edges))


def random_connected_graph(rng: np.random.Generator) -> Graph:
    """Random tree on 4..12 vertices plus a few random extra edges."""
    n = int(rng.integers(4, 13))
    g = random_tree(rng, n)
    edges = set(g.edges)
    extra = int(rng.integers(0, 4))
    if extra:
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if (u, v) not in edges]
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


def _on_a_cycle(g: Graph, e: tuple) -> bool:
    """Whether edge e = (u, v) of g lies on a cycle: a depth-first walk on
    g.adj from u that never takes e itself reaches v."""
    u, v = e
    adj = g.adj
    stack = [w for w in adj[u] if w != v]
    seen = {u, *stack}
    while stack:
        for w in adj[stack.pop()]:
            if w == v:
                return True
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def _proper_connected_subgraph(g: Graph, rng: np.random.Generator) -> Graph | None:
    """A random connected proper subgraph of a connected g: drop a cycle
    edge or a non-cut vertex.

    The sorted edges are shuffled and the first one that lies on a cycle
    (one walk per tried edge, see _on_a_cycle) is dropped. If none does,
    g is a tree: a shuffled vertex list is drawn and its first leaf is
    dropped, unless that would leave a single vertex. A connected g with
    n - 1 edges is a tree, so it skips the edge walks. These are the draws
    and the subgraph of trying each deletion in turn for connectivity;
    only the chosen subgraph is built.
    """
    edges = sorted(g.edges)
    rng.shuffle(edges)
    if g.n_edges != g.n_vertices - 1:
        for e in edges:
            if _on_a_cycle(g, e):
                return _delete_edge(g, e)
    verts = list(range(g.n_vertices))
    rng.shuffle(verts)
    if g.n_vertices >= 3:
        for v in verts:
            if len(g.adj[v]) == 1:
                return _delete_vertex(g, v)
    return None


def _is_cycle(g: Graph) -> bool:
    return (g.n_vertices >= 3 and all(len(nbrs) == 2 for nbrs in g.adj)
            and g.is_connected())


# ---------------------------------------------------------------------------
# lemma suite
# ---------------------------------------------------------------------------


def _exceeds(q: Fraction, g: Graph, alpha: float) -> bool:
    """Whether q > rho(A_alpha(g)), in exact arithmetic at the exact double alpha.

    q*I - A_alpha is positive definite iff every leading principal minor is
    positive (Sylvester). With s the least common denominator of q and
    alpha (both dyadic, so the larger), s*(q*I - A_alpha) is an integer
    matrix whose minors have the same signs, and fraction-free (Bareiss)
    elimination in vertex order leaves its k-th minor as the k-th pivot,
    each division exact. The verdict is that of an LDL^T in Fraction
    arithmetic, whose pivots are ratios of consecutive minors, in Python
    integers alone.
    """
    a = Fraction(alpha)
    s = math.lcm(q.denominator, a.denominator)
    qs, as_ = int(q * s), int(a * s)
    n = g.n_vertices
    m = [[0] * n for _ in range(n)]
    for u, nbrs in enumerate(g.adj):
        m[u][u] = qs - as_ * len(nbrs)
        for w in nbrs:
            m[u][w] = as_ - s
    prev = 1
    for k in range(n):
        pivot, row = m[k][k], m[k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            mi = m[i]
            r = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - r * row[j]) // prev
        prev = pivot
    return True


def _above(r_hi: float, r_lo: float, pair) -> bool:
    """Whether the radius with the double r_hi exceeds the one with r_lo.

    Outside STRICT_MARGIN the doubles decide. Inside it, pair() gives the
    two (graph, alpha) they are the radii of, upper then lower, and an
    exact test decides at q, the dyadic midpoint of the two doubles: it
    passes only if q exceeds the lower radius and not the upper one, so
    rho_lower < q <= rho_upper.
    """
    if abs(r_hi - r_lo) > STRICT_MARGIN:
        return r_hi > r_lo
    (g_hi, a_hi), (g_lo, a_lo) = pair()
    q = (Fraction(r_hi) + Fraction(r_lo)) / 2
    return _exceeds(q, g_lo, a_lo) and not _exceeds(q, g_hi, a_hi)


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
        if not _above(rho, rho_h, lambda: ((g, alpha), (h, alpha))):
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
        elif not _above(r_hi, r_lo, lambda: ((g, ALPHA_HI), (g, ALPHA_LO))):
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
                ok = (abs(rho_sub - rho) <= EQUALITY_TOL if snake_zero else _above(
                    rho, rho_sub, lambda: ((g, alpha), (subdivide_edge(g, e), alpha))))
            else:
                ok = (abs(rho_sub - rho) <= EQUALITY_TOL if cycle else _above(
                    rho_sub, rho, lambda: ((subdivide_edge(g, e), alpha), (g, alpha))))
            if not ok:
                bad.append(f"alpha={alpha} edge={e} rho={rho} rho_sub={rho_sub} "
                           f"g={format_graph(g)}")
    return _result("subdivision-direction", checked, bad)


def lemma_radii(graphs: list, alphas: list, subs: list) -> list:
    """Plan every matrix the lemma checks need, then solve once per order.

    For each graph: A_alpha(G) at alpha, ALPHA_LO and ALPHA_HI from one
    assembly (alpha_stack), every edge subdivision derived from A_alpha(G)
    (subdivision_stack), and A_alpha(H) for its subgraph. LEMMA_CHUNK
    graphs at a time, these go to solve_by_order, one stack_radii call per
    matrix order, so peak memory does not grow with the number of graphs.
    Returns one record per graph: (rho(G, alpha), rho(H, alpha) or None,
    rho(G, ALPHA_LO), rho(G, ALPHA_HI), the radii of G with each edge
    subdivided in sorted edge order).
    """
    out = []
    for start in range(0, len(graphs), LEMMA_CHUNK):
        chunk = slice(start, start + LEMMA_CHUNK)
        blocks = []
        for g, alpha, h in zip(graphs[chunk], alphas[chunk], subs[chunk]):
            at_alphas = alpha_stack(g, (alpha, ALPHA_LO, ALPHA_HI))
            blocks += [at_alphas, subdivision_stack(g, alpha, at_alphas[0])]
            if h is not None:
                blocks.append(assemble_a_alpha(h, alpha)[None])
        radii = iter(solve_by_order(stack_radii, blocks))
        for h in subs[chunk]:
            (rho, lo, hi), subdivided = next(radii), next(radii)
            out.append((rho, None if h is None else next(radii)[0], lo, hi, subdivided))
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
    rhos, sub_rhos, lo_rhos, hi_rhos, subdivided = zip(*lemma_radii(graphs, alphas, subs))
    return [
        check_radius_bounds(graphs, alphas, rhos),
        check_subgraph_monotonicity(graphs, alphas, rhos, subs, sub_rhos),
        check_alpha_monotonicity(graphs, lo_rhos, hi_rhos),
        check_subdivision_direction(graphs, alphas, rhos, subdivided),
    ]


# ---------------------------------------------------------------------------
# cross-check routes
# ---------------------------------------------------------------------------


def tridiag_charpoly_recurrence(diag, offdiag, lam: float) -> float:
    """det(lam*I - T) for a symmetric tridiagonal T, by three-term recurrence.

    p_k = (lam - d_k) p_{k-1} - e_{k-1}^2 p_{k-2} with p_0 = 1. Exact for
    every lam, including points where the closed path forms degenerate.
    """
    diag = list(diag)
    offdiag = list(offdiag)
    if len(offdiag) != max(len(diag) - 1, 0):
        raise ValueError("offdiag must be one shorter than diag")
    p_prev, p = 1.0, 1.0
    for k, d in enumerate(diag):
        p_next = (lam - d) * p - (offdiag[k - 1] ** 2 * p_prev if k > 0 else 0.0)
        p_prev, p = p, p_next
    return p


def _path_tridiag(k: int, alpha: float):
    if k == 1:
        return [0.0], []
    diag = [alpha] + [2.0 * alpha] * (k - 2) + [alpha]
    off = [1.0 - alpha] * (k - 1)
    return diag, off


def _path_roots(lam: float, alpha: float) -> tuple | None:
    """(delta, s, t) with s, t = (lam - 2*alpha +- delta) / 2, the bases of
    the path closed forms; None where delta < DEGENERATE_DELTA (s = t).
    Rejects lam < 2 or NaN, where delta is not real."""
    if not (lam >= 2.0):
        raise ValueError("closed form is only evaluated at lambda >= 2")
    d = delta_of_lambda(lam, alpha)
    if d < DEGENERATE_DELTA:
        return None
    return d, (lam - 2.0 * alpha + d) / 2.0, (lam - 2.0 * alpha - d) / 2.0


def path_charpoly_closed(n_plus_1: int, alpha: float, lam: float) -> float:
    """phi(P_{n+1}) evaluated at lam through the s,t closed form.

    Valid for lam >= 2 where delta is real; a near-zero delta (confluent
    s = t) dispatches to the tridiagonal recurrence, which needs no limit.
    """
    k = n_plus_1
    if k < 1:
        raise ValueError("path order must be at least 1")
    _validate_alpha(alpha, upper_open=True)
    roots = _path_roots(lam, alpha)
    if roots is None:
        return tridiag_charpoly_recurrence(*_path_tridiag(k, alpha), lam)
    d, s, t = roots
    n = k - 1
    return ((s + alpha) ** 2 * s**n - (t + alpha) ** 2 * t**n) / d


def bn_charpoly_closed(n_plus_1: int, alpha: float, lam: float) -> float:
    """phi(B_{n+1}): path matrix of order n+2 with one end row/column deleted.

    The closed form divides by alpha, so alpha = 0 is rejected; at alpha = 0
    the deleted matrix is just the path matrix of lower order and callers
    should use path_charpoly_closed there.
    """
    k = n_plus_1
    if k < 1:
        raise ValueError("order must be at least 1")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"closed form needs alpha in (0,1), got {alpha}")
    roots = _path_roots(lam, alpha)
    if roots is None:
        diag, off = _path_tridiag(k + 1, alpha)
        return tridiag_charpoly_recurrence(diag[:-1], off[:-1], lam)
    d, s, t = roots
    n = k - 1
    c = (1.0 - alpha) ** 2 / alpha
    scale = alpha / (alpha * (lam - 2.0) + 1.0)
    return scale * ((s + alpha) ** 2 * (s + c) * s**n - (t + alpha) ** 2 * (t + c) * t**n) / d


def theta_substitution(theta: float, alpha: float) -> float:
    """lambda = (1-a) theta + (1-a)/theta + 2a; theta and 1/theta agree."""
    if not (theta > 0):
        raise ValueError("theta must be positive")
    return (1.0 - alpha) * theta + (1.0 - alpha) / theta + 2.0 * alpha


def difference_poly_f(x: float, alpha: float) -> float:
    """(x^2 - 2x^(3/2) + 2x - 1) a^2 + 2(1 - x + x^(3/2) - x^2) a + x^2 + x - 1.

    Equals phi_version1(n+1, a)(x) - x * phi_version1(n, a)(x) for every n.
    """
    if not (x >= 0):
        raise ValueError("x must be non-negative")
    a = alpha
    r = math.sqrt(x)
    return ((x * x - 2 * x * r + 2 * x - 1) * a * a
            + 2 * (1 - x + x * r - x * x) * a
            + x * x + x - 1)


def omega2_closed_form(alpha: float) -> float:
    """Quartic-solution surd form of omega2; cross-check for the root route.

    An imaginary residue above 1e-7 raises BranchSelectionError.
    """
    _validate_alpha(alpha, upper_open=True)
    a = alpha
    h1 = 4 - 8 * a - 3 * a * a
    h2 = 19 * a * a + 8 * a - 4
    h3 = 13 * a**4 - 32 * a**3 + 32 * a * a - 16 * a + 4
    rad = (172800 - 2073600 * a + 11453184 * a**2 - 38499840 * a**3
           + 87733584 * a**4 - 142826112 * a**5 + 170398080 * a**6
           - 150197760 * a**7 + 97143840 * a**8 - 44993664 * a**9
           + 14176512 * a**10 - 2730240 * a**11 + 243216 * a**12)
    inner = (-416 + 2496 * a - 6300 * a**2 + 8560 * a**3 - 6624 * a**4
             + 2784 * a**5 - 502 * a**6) - cmath.sqrt(complex(rad))
    h4 = complex(inner) ** (1.0 / 3.0)
    h5 = (h2 + 2 ** (1.0 / 3.0) * h3 / h4 + 2 ** (-1.0 / 3.0) * h4) / 3.0
    h6 = 512 * a**3 - 32 * a * h2 + 112 * (-a + 2 * a * a + a**3)
    h7 = 13 * a * a - 8 * a + 4
    s1 = cmath.sqrt(h1 + h5)
    val = 2 * a + 0.5 * s1 + 0.5 * cmath.sqrt(h7 - h5 + h6 / (4.0 * s1))
    return limits._real_part(val, alpha, 1e-7)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

ALPHA_GRID = tuple(round(0.1 * k, 1) for k in range(10))  # 0.0 .. 0.9
X_GRID = tuple(round(0.05 + 0.09 * k, 4) for k in range(11))  # 0.05 .. 0.95


def _magnitudes(p: limits.HalfPoly) -> limits.HalfPoly:
    """p with absolute coefficients: at t >= 0, the float error scale of p."""
    return limits.HalfPoly(tuple(abs(c) for c in p.coeffs))


def check_phi_increasing() -> PropertyResult:
    """The version I polynomial rises for x > 0: its constant is negative
    and every other coefficient non-negative, at least one positive, so it
    rises in t > 0 and so in x = t^2."""
    bad = []
    pairs = [(n, alpha) for n in (1, 2, 5, 10, 20) for alpha in (0.0, 0.25, 0.5, 0.75, 0.9)]
    for n, alpha in pairs:
        constant, *rest = limits.phi_version1(n, alpha).coeffs
        if not (constant < 0 and min(rest) >= 0 and max(rest) > 0):
            bad.append(f"n={n} alpha={alpha}")
    return _result("phi-increasing", len(pairs), bad)


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


def _routes_agree(name: str, cases) -> PropertyResult:
    """Two routes to one ladder agree: values within 4 ulps, roots reciprocal.

    cases yields (label, (root, value), (root2, value2)), the first pair
    from one route and the second from the other; the value bound is on
    ulps of the first value. Each route bisects its t to adjacent doubles,
    within one ulp, a relative eps (eps = ulp(1)), of its root, so t and
    the reciprocal of the other route's t are a relative 2 eps apart at
    most. The roots are squares of the t's, so root * root2 is within 4 eps
    of 1 at the bisection, plus three roundings of eps/2: under 8 eps. Each
    value is c + k(t + 1/t) with c, k >= 0, and t + 1/t moves relatively
    less than t, since |t - 1/t| < t + 1/t: the two values are under
    2 eps v apart. Every value here lies in [2^e, 1.6 * 2^e) (eta of
    version I and zeta_n below 3.2, xi_n in [4, 4.5)), where one ulp is
    2^e eps, so that is under 3.2 ulps of v; the fourth ulp is the
    rounding of the two values themselves.
    """
    bad = []
    checked = 0
    for label, (r1, v1), (r2, v2) in cases:
        checked += 2
        if abs(v1 - v2) > 4 * math.ulp(v1):
            bad.append(f"{label} values {v1} {v2}")
        if abs(r1 * r2 - 1.0) > 8 * math.ulp(1.0):
            bad.append(f"{label} roots {r1} * {r2} = {r1 * r2}")
    return _result(name, checked, bad)


def check_route_equality(ladder: dict) -> PropertyResult:
    """Version I's ladder[n, alpha] = (gamma_n, eta_n) against version II's
    (gamma~_n, eta_n) from the reciprocal root, by _routes_agree: gamma_n
    gamma~_n = 1 is the duality version II rests on."""
    return _routes_agree("route-equality", (
        (f"n={n} alpha={alpha}", ladder[n, alpha], limits._version2_term(n, alpha))
        for n in (1, 2, 3, 5, 10, 20, 30) for alpha in ALPHA_GRID))


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


def check_strict_chain(ladder: dict, psis: dict) -> PropertyResult:
    """eta_0 < eta_1 < ... up to Psi = psis[alpha]; the alpha=0 chain ties
    at the start. ladder[n, alpha] = (gamma_n, eta_n).

    Strictness is enforced while the geometric gap decay stays above the
    double-precision floor; past that the chain must still never
    decrease, and it must never overshoot Psi by more than noise.
    """
    bad = []
    checked = 0
    for alpha in ALPHA_GRID:
        etas = [ladder[n, alpha][1] for n in range(31)]
        checked += 1
        if etas[-1] > psis[alpha] + 1e-12:
            bad.append(f"alpha={alpha} eta_30 overshoots psi")
        if alpha == 0.0:
            checked += 3
            if abs(etas[0] - 2.0) > 1e-12 or abs(etas[1] - 2.0) > 1e-12:
                bad.append("alpha=0 chain does not start at 2, 2")
            if not _strict_until_saturated(np.diff(etas[1:])):
                bad.append("alpha=0 chain not strict beyond the tie")
        else:
            gaps = np.diff(etas)
            checked += len(gaps)
            if not _strict_until_saturated(gaps):
                bad.append(f"alpha={alpha} min gap={gaps.min()}")
    return _result("strict-chain", checked, bad)


def check_eta_convergence(psis: dict) -> PropertyResult:
    """eta_50 sits within 1e-3 of Psi = psis[alpha] across the alpha grid."""
    bad = []
    for alpha in ALPHA_GRID:
        gap = psis[alpha] - limits.eta_n(50, alpha)
        if abs(gap) >= 1e-3:
            bad.append(f"alpha={alpha} gap={gap}")
    return _result("eta-converges", len(ALPHA_GRID), bad)


def check_classic_routes(ladder: dict) -> PropertyResult:
    """Version I's ladder at alpha = 0, (delta_n, zeta_n), against Hoffman's
    classical (beta_n, eta_n) rows, n = 1..30, by _routes_agree."""
    return _routes_agree("classic-routes", (
        (f"n={row.n}", ladder[row.n, 0.0], (row.gamma, row.eta))
        for row in limits.limit_table("classic", 30).rows))


def check_laplacian_agreement() -> PropertyResult:
    """The laplacian table's (theta_n, xi_n) rows against Guo-Wang's
    (mu_n, kappa_n), n = 0..30, by _routes_agree."""
    return _routes_agree("laplacian-agreement", (
        (f"n={row.n}", (row.gamma, row.eta), limits.laplacian_guo_wang(row.n))
        for row in limits.limit_table("laplacian", 30).rows))


def check_ordering_constants(psis: dict) -> PropertyResult:
    """Psi = psis[alpha] < omega1 on the grid; omega2 never dips below Psi.
    Psi lies within EQUALITY_TOL of psi_closed_form and omega2 within 1e-7
    of omega2_closed_form, each constant's second route."""
    bad = []
    checked = 0
    for alpha in ALPHA_GRID:
        p = psis[alpha]
        o2 = limits.omega2(alpha)
        checked += 4
        if abs(p - limits.psi_closed_form(alpha)) > EQUALITY_TOL:
            bad.append(f"alpha={alpha} psi off its closed form")
        if not p < limits.omega1(alpha):
            bad.append(f"alpha={alpha} psi >= omega1")
        if o2 < p - 1e-9:
            bad.append(f"alpha={alpha} omega2 below psi")
        if abs(o2 - omega2_closed_form(alpha)) > 1e-7:
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
                rhs = difference_poly_f(x, alpha)
                scale = mn1.eval_t(t) + x * mn.eval_t(t)
                checked += 1
                if abs(lhs - rhs) > 1e-12 * max(scale, 1.0):
                    bad.append(f"n={n} alpha={alpha} x={x}")
    return _result("difference-identity", checked, bad)


def check_theta_h_identity(ladder: dict) -> PropertyResult:
    """h at the substituted lambda collapses to theta/(1 - alpha(1 - theta));
    at theta = sqrt(gamma_n), lambda is eta_n, both from ladder[n, alpha]."""
    bad = []
    checked = 0
    for alpha in ALPHA_GRID:
        for theta in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95):
            lam = theta_substitution(theta, alpha)
            if lam <= 2.0:
                continue
            h = h_of_lambda(lam, alpha)
            checked += 1
            if abs(h - theta / (1 - alpha * (1 - theta))) > 1e-12:
                bad.append(f"alpha={alpha} theta={theta}")
        for n in (1, 3, 7):
            g, eta = ladder[n, alpha]
            checked += 1
            if abs(theta_substitution(math.sqrt(g), alpha) - eta) > 1e-11:
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
    """L and Q spectra coincide on 100 random trees.

    A tree is bipartite by construction, so its L and Q are similar. The
    trees' L matrices are solved by order in one full_spectrum call
    each, and so are their Q matrices.
    """
    n_trees = 100
    bad = []
    trees = [random_tree(rng, int(rng.integers(4, 13))) for _ in range(n_trees)]
    sls = solve_by_order(full_spectrum, [assemble_laplacian(g)[None] for g in trees])
    sqs = solve_by_order(full_spectrum,
                         [assemble_laplacian(g, signless=True)[None] for g in trees])
    for g, (sl,), (sq,) in zip(trees, sls, sqs):
        if np.max(np.abs(sl - sq)) > 1e-10:
            bad.append(format_graph(g))
    return _result("bipartite-l-q", n_trees, bad)


def check_graph_structure(graphs: list) -> PropertyResult:
    """Constructor invariants: symmetric two-path trees, subdivision counts, path degrees."""
    bad = []
    checked = 0
    pairs = ((1, 3), (2, 5), (4, 4))
    p2s = [(p2_two_paths(m, n), p2_two_paths(n, m)) for m, n in pairs]
    spectra = solve_by_order(full_spectrum, [
        np.stack([assemble_a_alpha(g, 0.3) for g in pair]) for pair in p2s])
    for (m, n), (g1, g2), (s1, s2) in zip(pairs, p2s, spectra):
        checked += 1
        if sorted(g1.degrees()) != sorted(g2.degrees()):
            bad.append(f"p2 degree sequences differ at ({m},{n})")
        if np.max(np.abs(s1 - s2)) > 1e-10:
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
    """Deterministic identity grid checks plus the random-tree spectra check.

    Version I's ladder is solved once, as limit_table("versionI", 30,
    ALPHA_GRID): its rows, keyed (n, alpha), give (gamma_n, eta_n) to the
    checks that read the ladder, and its limit rows give Psi per alpha.
    """
    rng = np.random.default_rng(seed + 1)
    sample_graphs = [random_connected_graph(rng) for _ in range(20)]
    table = limits.limit_table("versionI", 30, ALPHA_GRID)
    ladder = {(row.n, row.alpha): (row.gamma, row.eta) for row in table.rows}
    psis = dict(table.limits)
    return [
        check_phi_increasing(),
        check_duality(),
        check_route_equality(ladder),
        check_strict_chain(ladder, psis),
        check_eta_convergence(psis),
        check_classic_routes(ladder),
        check_laplacian_agreement(),
        check_ordering_constants(psis),
        check_difference_identity(),
        check_theta_h_identity(ladder),
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
