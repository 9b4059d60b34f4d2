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
rule (_routes_agree), two cases per pair: values within 4 ulps and roots
reciprocal within 8 eps, which for route-equality checks gamma_n *
gamma~_n = 1. Of its 480
bisections 37 repeat a root: the laplacian table's 30 theta_n, whose row
rule rounds xi differently from 2 eta, and the 7 mu_n = gamma~_n(1/2)
route-equality also solves. ordering-constants holds omega2 against the
bisected root of its quartic, a second route with a derived bound. The
polynomial identities bound float error by the polynomial with absolute
coefficients, duality by a multiple of it derived from its roundings.

Every check is a generator of its cases, and _tally, the one
count-and-report rule, turns it into the function that returns its
PropertyResult: a case yields None if it holds, or its counterexample,
formatted only then. checked counts the cases; a failing result's detail
joins its first three counterexamples.

The routes that exist only to cross-check limits and spectral live here,
off the hot path: the s,t closed forms of the path and deleted-end path
characteristic polynomials (path_charpoly_closed, bn_charpoly_closed) and
the exact three-term tridiagonal recurrence they are checked against
(tridiag_charpoly_recurrence), the theta substitution lambda(theta)
(theta_substitution), the n-free difference of consecutive version I
polynomials (difference_poly_f) and omega2 from its quartic
(_omega2_from_quartic).
"""

from __future__ import annotations

import functools
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


def _tally(name: str):
    """The one count-and-report rule, as a decorator: a check written as a
    generator of its cases becomes the function that returns its
    PropertyResult.

    Each case yields None if it holds, or its counterexample, formatted
    only then; a case that can fail two ways yields a tuple with one entry,
    None or a counterexample, per way. checked counts the cases, the check
    passes iff none fails, and the detail joins the first three
    counterexamples.
    """
    def decorate(cases):
        @functools.wraps(cases)
        def check(*args, **kwargs) -> PropertyResult:
            checked, bad = 0, []
            for case in cases(*args, **kwargs):
                checked += 1
                if case is not None:
                    bad += ([c for c in case if c is not None]
                            if isinstance(case, tuple) else [case])
            return PropertyResult(name, not bad, checked, "; ".join(bad[:3]))
        return check
    return decorate


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


@_tally("radius-bounds")
def check_radius_bounds(graphs: list, alphas: list, rhos: list):
    """Degree-based lower and upper bounds on the spectral radius.

    rhos[i] is rho(A_alpha(graphs[i])) at alphas[i]; the subgraph and
    subdivision checks take the same list.
    """
    for g, alpha, rho in zip(graphs, alphas, rhos):
        lower, dmax = degree_bounds(g, alpha)
        yield (f"alpha={alpha} rho={rho} bounds=({lower},{dmax}) g={format_graph(g)}"
               if rho > dmax + EQUALITY_TOL or lower > rho + EQUALITY_TOL else None)


@_tally("subgraph-strict")
def check_subgraph_monotonicity(graphs: list, alphas: list, rhos: list,
                                subs: list, sub_rhos: list):
    """A connected proper subgraph has strictly smaller radius.

    subs[i] is a connected proper subgraph of graphs[i], or None if it has
    none, and then no case; sub_rhos[i] is its radius at alphas[i].
    """
    for g, alpha, rho, h, rho_h in zip(graphs, alphas, rhos, subs, sub_rhos):
        if h is not None:
            yield (None if _above(rho, rho_h, lambda: ((g, alpha), (h, alpha)))
                   else f"alpha={alpha} g={format_graph(g)} h={format_graph(h)}")


@_tally("alpha-monotone")
def check_alpha_monotonicity(graphs: list, lo_rhos: list, hi_rhos: list):
    """Radius grows with alpha from ALPHA_LO to ALPHA_HI; constant exactly on
    regular graphs. lo_rhos and hi_rhos are the radii at the two alphas.
    """
    for g, r_lo, r_hi in zip(graphs, lo_rhos, hi_rhos):
        if is_regular(g):
            yield (f"regular but moved: {format_graph(g)}"
                   if abs(r_hi - r_lo) > EQUALITY_TOL else None)
        else:
            yield (None if _above(r_hi, r_lo, lambda: ((g, ALPHA_HI), (g, ALPHA_LO)))
                   else f"rho({ALPHA_HI})={r_hi} <= rho({ALPHA_LO})={r_lo}: {format_graph(g)}")


@_tally("subdivision-direction")
def check_subdivision_direction(graphs: list, alphas: list, rhos: list,
                                subdivided: list):
    """Subdividing internal-path edges lowers the radius, other edges raise it.

    subdivided[i] lists the radii of graphs[i] with each edge subdivided,
    in sorted edge order. Cycles are the equality case of the raising
    direction; the double snake at alpha 0 is the equality case of the
    lowering direction.
    """
    for g, alpha, rho, rho_subs in zip(graphs, alphas, rhos, subdivided):
        internal = internal_path_edges(g)
        cycle = _is_cycle(g)
        snake_zero = is_double_snake(g) and alpha == 0.0
        for e, rho_sub in zip(sorted(g.edges), rho_subs):
            if e in internal:
                ok = (abs(rho_sub - rho) <= EQUALITY_TOL if snake_zero else _above(
                    rho, rho_sub, lambda: ((g, alpha), (subdivide_edge(g, e), alpha))))
            else:
                ok = (abs(rho_sub - rho) <= EQUALITY_TOL if cycle else _above(
                    rho_sub, rho, lambda: ((subdivide_edge(g, e), alpha), (g, alpha))))
            yield (None if ok else f"alpha={alpha} edge={e} rho={rho} rho_sub={rho_sub} "
                                  f"g={format_graph(g)}")


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


def _omega2_from_quartic(alpha: float) -> float:
    """omega2 from the root theta in (0, 1) of its quartic
    G = (1-a) theta^4 + a theta^3 + (1-a) theta^2 + a theta - (1-a),
    bisected as the ladder's roots are: lambda = 2a + (1-a)(theta + 1/theta)."""
    s = 1.0 - alpha
    theta = limits._bisect(limits.HalfPoly((-s, alpha, s, alpha, s)).eval_t, 0.0, 1.0)
    return limits._eta_from_root(theta * theta, alpha)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

ALPHA_GRID = tuple(round(0.1 * k, 1) for k in range(10))  # 0.0 .. 0.9
X_GRID = tuple(round(0.05 + 0.09 * k, 4) for k in range(11))  # 0.05 .. 0.95


def _magnitudes(p: limits.HalfPoly) -> limits.HalfPoly:
    """p with absolute coefficients: at t >= 0, the float error scale of p."""
    return limits.HalfPoly(tuple(abs(c) for c in p.coeffs))


@_tally("phi-increasing")
def check_phi_increasing():
    """The version I polynomial rises for x > 0: its constant is negative
    and every other coefficient non-negative, at least one positive, so it
    rises in t > 0 and so in x = t^2."""
    for n in (1, 2, 5, 10, 20):
        for alpha in (0.0, 0.25, 0.5, 0.75, 0.9):
            constant, *rest = limits.phi_version1(n, alpha).coeffs
            yield (None if constant < 0 and min(rest) >= 0 and max(rest) > 0
                   else f"n={n} alpha={alpha}")


@_tally("duality")
def check_duality():
    """Version I and II polynomials are reciprocal transforms of each other:
    phi_version1(n)(x) + x^(n+1) phi_version2(n)(1/x) = 0.

    The two coefficient lists are each other's negated reversal, built from
    the same doubles, so the identity holds exactly for the stored
    coefficients and only evaluation errs. To first order in u = eps/2
    (eps = ulp(1)), with D = 2n + 2 the degree in t and m1, m2 the
    polynomials with absolute coefficients (_magnitudes), whose terms at
    the exact t = sqrt(x) are m1(t) = x^(n+1) m2(1/t), half of scale each.
    The left side: Horner's D products and D sums err by at most 2D u m1(t),
    and fl(sqrt(x)) is a relative u off t, which moves t^k by k u <= D u:
    3D u m1(t). The right side: fl(1/fl(t)) is a relative 2u off 1/t, which
    moves its powers by 2D u, and Horner adds 2D u; x ** (n + 1) is within
    an ulp, 2u, and the product rounds once, u: (4D + 3) u x^(n+1) m2(1/t).
    The residual's true value is 0, so the rounding of the sum is second
    order. Each side is within (4D + 3) u of its half of scale: the
    residual is within (4D + 3) u scale.
    """
    for n in (1, 2, 3, 5, 10, 20):
        bound = (4 * (2 * n + 2) + 3) * math.ulp(1.0) / 2
        for alpha in ALPHA_GRID:
            p1 = limits.phi_version1(n, alpha)
            p2 = limits.phi_version2(n, alpha)
            m1, m2 = _magnitudes(p1), _magnitudes(p2)
            for x in X_GRID:
                t = math.sqrt(x)
                lhs = p1.eval_t(t)
                rhs = x ** (n + 1) * p2.eval_t(1.0 / t)
                scale = m1.eval_t(t) + x ** (n + 1) * m2.eval_t(1.0 / t)
                yield (f"n={n} alpha={alpha} x={x} residual={lhs + rhs}"
                       if abs(lhs + rhs) > bound * scale else None)


def _routes_agree(cases):
    """Two routes to one ladder agree: values within 4 ulps, roots reciprocal.

    cases yields (label, (root, value), (root2, value2)), the first pair
    from one route and the second from the other; each pair is two cases,
    the values and the roots. The value bound is on ulps of the first
    value. Each route bisects its t to adjacent doubles,
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
    for label, (r1, v1), (r2, v2) in cases:
        yield f"{label} values {v1} {v2}" if abs(v1 - v2) > 4 * math.ulp(v1) else None
        yield (f"{label} roots {r1} * {r2} = {r1 * r2}"
               if abs(r1 * r2 - 1.0) > 8 * math.ulp(1.0) else None)


@_tally("route-equality")
def check_route_equality(ladder: dict):
    """Version I's ladder[n, alpha] = (gamma_n, eta_n) against version II's
    (gamma~_n, eta_n) from the reciprocal root, by _routes_agree: gamma_n
    gamma~_n = 1 is the duality version II rests on."""
    yield from _routes_agree(
        (f"n={n} alpha={alpha}", ladder[n, alpha], limits._version2_term(n, alpha))
        for n in (1, 2, 3, 5, 10, 20, 30) for alpha in ALPHA_GRID)


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


@_tally("strict-chain")
def check_strict_chain(ladder: dict, psis: dict):
    """eta_0 < eta_1 < ... up to Psi = psis[alpha]; the alpha=0 chain ties
    at the start. ladder[n, alpha] = (gamma_n, eta_n).

    Strictness is enforced while the geometric gap decay stays above the
    double-precision floor; past that the chain must still never
    decrease, and it must never overshoot Psi by more than noise. Each
    gap is a case, but one walk over the chain decides them all, and its
    verdict is reported once, on the first: the rest yield None. At
    alpha = 0 the tie eta_0 = eta_1 = 2 is two cases with one verdict.
    """
    for alpha in ALPHA_GRID:
        etas = [ladder[n, alpha][1] for n in range(31)]
        yield f"alpha={alpha} eta_30 overshoots psi" if etas[-1] > psis[alpha] + 1e-12 else None
        if alpha == 0.0:
            yield ("alpha=0 chain does not start at 2, 2"
                   if abs(etas[0] - 2.0) > 1e-12 or abs(etas[1] - 2.0) > 1e-12 else None)
            yield None
            yield (None if _strict_until_saturated(np.diff(etas[1:]))
                   else "alpha=0 chain not strict beyond the tie")
        else:
            gaps = np.diff(etas)
            yield None if _strict_until_saturated(gaps) else f"alpha={alpha} min gap={gaps.min()}"
            yield from [None] * (len(gaps) - 1)


@_tally("eta-converges")
def check_eta_convergence(psis: dict):
    """eta_50 sits within 1e-3 of Psi = psis[alpha] across the alpha grid."""
    for alpha in ALPHA_GRID:
        gap = psis[alpha] - limits.eta_n(50, alpha)
        yield f"alpha={alpha} gap={gap}" if abs(gap) >= 1e-3 else None


@_tally("classic-routes")
def check_classic_routes(ladder: dict):
    """Version I's ladder at alpha = 0, (delta_n, zeta_n), against Hoffman's
    classical (beta_n, eta_n) rows, n = 1..30, by _routes_agree."""
    yield from _routes_agree(
        (f"n={row.n}", ladder[row.n, 0.0], (row.gamma, row.eta))
        for row in limits.limit_table("classic", 30).rows)


@_tally("laplacian-agreement")
def check_laplacian_agreement():
    """The laplacian table's (theta_n, xi_n) rows against Guo-Wang's
    (mu_n, kappa_n), n = 0..30, by _routes_agree."""
    yield from _routes_agree(
        (f"n={row.n}", (row.gamma, row.eta), limits.laplacian_guo_wang(row.n))
        for row in limits.limit_table("laplacian", 30).rows)


@_tally("ordering-constants")
def check_ordering_constants(psis: dict):
    """Psi = psis[alpha] < omega1 on the grid, and Psi lies within
    EQUALITY_TOL of psi_closed_form. omega2 is at most 2 ulps below Psi and
    at most 13 ulps from its quartic route, _omega2_from_quartic.

    Both thresholds lie in (r, r + 2 ulps] of their exact root r: each is
    at most an ulp above the least double at which its exact loaded pivot
    is positive (pinned in the tests), which is at most an ulp above r.
    omega2's root is at least Psi's (equal at alpha 0), so omega2 > its
    root >= Psi's root >= Psi - 2 ulps.

    The quartic route, to first order in eps = ulp(1), with u = eps/2 and
    s = 1 - a. G's one negative coefficient is -s, so at the root G's
    positive terms sum to s. Rounding s moves G there by at most u s;
    Horner's first seven roundings, all on positive values, move it by at
    most 7u s, and its last, the subtraction of s, is exact there
    (Sterbenz). theta G'(theta) >= s at the root, so G's computed sign is
    the true one beyond a relative 4 eps of theta, and bisection to
    adjacent doubles lands within a relative 5 eps. lambda = 2a +
    s(theta + 1/theta) has |theta dlambda/dtheta| = s(1/theta - theta) <
    lambda - 2a, so lambda moves under 5 eps (lambda - 2a). Computing it,
    t = sqrt(fl(theta^2)) is theta exactly, and the roundings of s, 1/t,
    t + 1/t and the product add 2 eps (lambda - 2a), the sum with 2a
    eps lambda / 2. That is under 7.5 eps lambda. omega2 lies in [2, 3],
    3 bounding every A_alpha radius of maximum degree 3 (row sums), and an
    ulp there is 2 eps: under 11.25 ulps. With the threshold's 2 ulps the
    routes are under 13.25 ulps apart, and doubles in [2, 4) are a whole
    number of ulps apart: at most 13.
    """
    for alpha in ALPHA_GRID:
        p = psis[alpha]
        o2 = limits.omega2(alpha)
        yield (f"alpha={alpha} psi off its closed form"
               if abs(p - limits.psi_closed_form(alpha)) > EQUALITY_TOL else None)
        yield None if p < limits.omega1(alpha) else f"alpha={alpha} psi >= omega1"
        yield f"alpha={alpha} omega2 below psi" if o2 < p - 2 * math.ulp(p) else None
        yield (f"alpha={alpha} omega2 off its quartic root"
               if abs(o2 - _omega2_from_quartic(alpha)) > 13 * math.ulp(o2) else None)


@_tally("difference-identity")
def check_difference_identity():
    """The one-step difference of consecutive version I polynomials is n-free."""
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
                yield (f"n={n} alpha={alpha} x={x}"
                       if abs(lhs - rhs) > 1e-12 * max(scale, 1.0) else None)


@_tally("theta-h-identity")
def check_theta_h_identity(ladder: dict):
    """h at the substituted lambda collapses to theta/(1 - alpha(1 - theta));
    at theta = sqrt(gamma_n), lambda is eta_n, both from ladder[n, alpha].
    Every substituted lambda on this grid exceeds 2 by 2.6e-4 or more."""
    for alpha in ALPHA_GRID:
        for theta in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95):
            h = h_of_lambda(theta_substitution(theta, alpha), alpha)
            yield (f"alpha={alpha} theta={theta}"
                   if abs(h - theta / (1 - alpha * (1 - theta))) > 1e-12 else None)
        for n in (1, 3, 7):
            g, eta = ladder[n, alpha]
            yield (f"eta mismatch n={n} alpha={alpha}"
                   if abs(theta_substitution(math.sqrt(g), alpha) - eta) > 1e-11 else None)


@_tally("closed-form-charpoly")
def check_closed_form_charpoly():
    """Path and deleted-path closed forms track the three-term recurrence.

    The reference for phi(P_k) is tridiag_charpoly_recurrence on the path
    matrix of order k; for phi(B_k) it is the same on the path matrix of
    order k + 1 without its last row and column. On this grid delta >= 0.15,
    so the closed forms never fall back to the recurrence themselves.
    """
    lams = [float(lam) for lam in np.linspace(2.05, 4.0, 8)]
    for k in (2, 3, 5, 10, 25, 50):
        for alpha in ALPHA_GRID:
            diag, off = _path_tridiag(k, alpha)
            diag_b, off_b = _path_tridiag(k + 1, alpha)
            for lam in lams:
                ref = tridiag_charpoly_recurrence(diag, off, lam)
                closed = path_charpoly_closed(k, alpha, lam)
                yield (f"path k={k} alpha={alpha} lam={lam:.3f}"
                       if abs(ref - closed) > 1e-9 * max(abs(ref), 1.0) else None)
                if alpha != 0.0:
                    ref_b = tridiag_charpoly_recurrence(diag_b[:-1], off_b[:-1], lam)
                    closed_b = bn_charpoly_closed(k, alpha, lam)
                    yield (f"bn k={k} alpha={alpha} lam={lam:.3f}"
                           if abs(ref_b - closed_b) > 1e-9 * max(abs(ref_b), 1.0) else None)


@_tally("q-scaled-half")
def check_q_is_scaled_half(graphs: list):
    """Signless Laplacian equals twice the half-alpha matrix, exactly."""
    for g in graphs:
        q = assemble_laplacian(g, signless=True)
        yield None if np.array_equal(q, 2.0 * assemble_a_alpha(g, 0.5)) else format_graph(g)


@_tally("bipartite-l-q")
def check_bipartite_spectra(rng: np.random.Generator):
    """L and Q spectra coincide on 100 random trees.

    A tree is bipartite by construction, so its L and Q are similar. The
    trees' L matrices are solved by order in one full_spectrum call
    each, and so are their Q matrices.
    """
    trees = [random_tree(rng, int(rng.integers(4, 13))) for _ in range(100)]
    sls = solve_by_order(full_spectrum, [assemble_laplacian(g)[None] for g in trees])
    sqs = solve_by_order(full_spectrum,
                         [assemble_laplacian(g, signless=True)[None] for g in trees])
    for g, (sl,), (sq,) in zip(trees, sls, sqs):
        yield format_graph(g) if np.max(np.abs(sl - sq)) > 1e-10 else None


@_tally("graph-structure")
def check_graph_structure(graphs: list):
    """Constructor invariants: symmetric two-path trees, subdivision counts, path degrees.

    Each p2 pair is one case that fails two ways, its degree sequences and
    its spectra."""
    pairs = ((1, 3), (2, 5), (4, 4))
    p2s = [(p2_two_paths(m, n), p2_two_paths(n, m)) for m, n in pairs]
    spectra = solve_by_order(full_spectrum, [
        np.stack([assemble_a_alpha(g, 0.3) for g in pair]) for pair in p2s])
    for (m, n), (g1, g2), (s1, s2) in zip(pairs, p2s, spectra):
        yield (f"p2 degree sequences differ at ({m},{n})"
               if sorted(g1.degrees()) != sorted(g2.degrees()) else None,
               f"p2 spectra differ at ({m},{n})" if np.max(np.abs(s1 - s2)) > 1e-10 else None)
    for g in graphs:
        gs = subdivide_edge(g, sorted(g.edges)[0])
        yield (f"subdivision counts wrong on {format_graph(g)}"
               if gs.n_vertices != g.n_vertices + 1 or gs.n_edges != g.n_edges + 1 else None)
        deg = g.degrees()
        for p in internal_paths(g):
            ends_ok = deg[p.vertices[0]] > 2 and deg[p.vertices[-1]] > 2
            interior_ok = all(deg[v] == 2 for v in p.vertices[1:-1])
            yield (None if ends_ok and interior_ok
                   else f"bad internal path {p.vertices} in {format_graph(g)}")


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
