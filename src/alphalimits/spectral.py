"""Interpolating adjacency matrices and their spectra.

The one-parameter family alpha*D + (1-alpha)*A interpolates between the
adjacency matrix (alpha=0) and the degree matrix (alpha=1); twice its
value at alpha=1/2 is the signless Laplacian. Matrices are plain numpy
arrays. Radii take one of two routes, chosen in radius_of alone by
structure. Every tree goes to leaf-to-root elimination in O(n) memory,
one walk that returns the last pivot. Two spectral thresholds are found
that way: a radius (radius_of) and, beside it, the limit of rho as
pendant paths at a vertex u grow without bound (_pendant_limit, which
limits' pendant-path operators call), the threshold of u's root pivot
loaded with the paths (_path_load). The elimination has one seam:
_tree_plan builds a tree's plan from Graph.adj, once per threshold, and
_plan_thresholds scales it by alpha and returns (check, search, top) to
radius_of (through _threshold_radius) and _pendant_limit (through
_loaded_threshold), which read nothing else of it; a pendant limit passes
it the number of paths, and a radius none. Every pivot sums its
children's terms in ascending vertex order, so no threshold depends on the
layout of Graph.edges. A spider's plan, a hub with pendant paths, needs
no walk and no graph: _spider_plan builds it from the arm lengths in
O(arms), the very list _tree_plan returns, for _spider_radius, the
convergence families' radius, and _spider_limit, the pendant limit at a
spider's hub (limits' psi and omega2). _least_definite is the one
threshold search: secant steps on the search pivot pick a point,
and the sign of the check certifies the least double at which it is
positive, the value plain bisection ends on. Both are _walk, the one
elimination pass. The check is the exact walk of the plan rooted where
the certificate is (vertex 0 for a radius, u for a pendant-path limit, a
loaded root pivot). A radius's search walks the same plan contracted to
its steps and re-rooted at the hub, a max-degree vertex, in O(steps)
(_rerooted), with no second plan and no degree pass; a pendant limit
searches on its check. Each plan folds every run of degree-2 vertices
into the vertex below it. The exact walk steps a run only until its
pivot repeats bit for bit, after which the rest of the run repeats it
too, so near the radius a pendant path of any length costs tens of steps
and every pivot is the one of a plain pass over all n vertices. The
radius's search advances a run in O(1) above lam = 2, from the fixed
points of the run map (_fixed_points, written once and read by
_run_constants and _path_load; _advance), and steps it otherwise. A
graph with a cycle or more than one component is solved densely for its
radius: full_spectrum is the one checked symmetric eigensolve, of a
matrix or of a (k, n, n) stack, stack_radii reads each slice's radius
off it, and solve_by_order, the one place matrices are grouped by order,
makes one such call per order for stacks of mixed orders and hands back
one result list per stack.
alpha_stack assembles a graph's matrix at several alphas at once
(assemble_a_alpha is its one-alpha slice), and subdivision_stack builds
every edge subdivision of a graph as one stack straight from its matrix.
The resolvent diagonal [(lam*I - A_alpha)^-1]_uu is 1 / f_u, the check
pivot of _tree_thresholds rooted at u; on a graph with a cycle
_pendant_limit takes it from one eigendecomposition instead.
char_poly_eval, an LU determinant, has no caller in the package; the
benchmark harness (bench/worker.py) calls it to warm up LAPACK.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from .graphs import Graph

# Predicted relative error at which the tree-radius secant search stops.
SECANT_ERROR = 2.0 ** -50


class BracketError(RuntimeError):
    """No sign change where a root was asserted to exist."""


def _validate_alpha(alpha: float, upper_open: bool = False) -> None:
    if not (0.0 <= alpha <= 1.0) or (upper_open and alpha == 1.0):
        hi = "1)" if upper_open else "1]"
        raise ValueError(f"alpha must lie in [0,{hi}, got {alpha}")


def assemble_a_alpha(g: Graph, alpha: float) -> np.ndarray:
    """alpha*D(g) + (1-alpha)*A(g), assembled exactly."""
    return alpha_stack(g, (alpha,))[0]


def alpha_stack(g: Graph, alphas) -> np.ndarray:
    """A_alpha(g) at each of alphas as one (k, n, n) stack, from one
    adjacency and one degree pass: (1-alpha)*A(g) off the diagonal,
    alpha*D(g) on it, each product exact.
    """
    a = g.adjacency()
    d = g.degrees()
    out = np.empty((len(alphas), g.n_vertices, g.n_vertices))
    for m, alpha in zip(out, alphas):
        _validate_alpha(alpha)
        np.multiply(a, 1.0 - alpha, out=m)
        np.fill_diagonal(m, alpha * d)
    return out


def assemble_laplacian(g: Graph, signless: bool = False) -> np.ndarray:
    """D - A, or D + A when signless (equal to 2*A_{1/2} entrywise)."""
    a = g.adjacency()
    d = np.diag(g.degrees().astype(float))
    return d + a if signless else d - a


def full_spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, or of each matrix in a
    (k, n, n) stack, by the dense symmetric solver at machine precision.

    Each slice of a stack is solved on its own, so its row equals the
    spectrum of that slice alone bit for bit.
    """
    e = np.asarray(m, dtype=float)
    if e.ndim not in (2, 3) or e.shape[-1] != e.shape[-2]:
        raise ValueError("matrix must be square")
    if not np.array_equal(e, e.swapaxes(-1, -2)):
        raise ValueError("matrix must be symmetric")
    return np.linalg.eigvalsh(e)


def stack_radii(stack: np.ndarray) -> list:
    """Spectral radius (largest eigenvalue magnitude) of each matrix in a
    (k, n, n) stack, as Python floats, from one full_spectrum call.

    For the nonnegative matrices of connected graphs the radius is the
    Perron value, the top eigenvalue itself.
    """
    if np.ndim(stack) != 3:
        raise ValueError("stack must hold square matrices")
    return np.abs(full_spectrum(stack)).max(axis=1).tolist()


def solve_by_order(solve, blocks) -> list:
    """solve called once per matrix order on every matrix of blocks.

    blocks is a sequence of (k, n, n) stacks of any orders n. The stacks of
    one order are concatenated and passed to solve (stack_radii or
    full_spectrum) in one call, orders in the order they first appear.
    Returns one list per block, in input order, of its slices' results.
    Each slice is solved on its own, so each result is the one its matrix
    gives alone, bit for bit.
    """
    blocks = list(blocks)
    by_order = {}
    for i, block in enumerate(blocks):
        by_order.setdefault(block.shape[-1], []).append(i)
    out = [None] * len(blocks)
    for idx in by_order.values():
        results = iter(solve(np.concatenate([blocks[i] for i in idx])))
        for i in idx:
            out[i] = list(islice(results, len(blocks[i])))
    return out


def subdivision_stack(g: Graph, alpha: float, m: np.ndarray) -> np.ndarray:
    """A_alpha(subdivide_edge(g, e)) for each edge e of g in sorted order.

    One (n_edges, n+1, n+1) stack, built from m = A_alpha(g) padded by a
    zero row and column for the new vertex w = n: zero (u, v), set (u, w)
    and (v, w) to 1 - alpha and (w, w) to 2*alpha. The degrees of u and v
    do not change, so every slice equals the assembled matrix of the
    subdivided graph exactly.
    """
    n = g.n_vertices
    padded = np.zeros((n + 1, n + 1))
    padded[:n, :n] = m
    u, v = np.array(sorted(g.edges), dtype=int).reshape(-1, 2).T
    k = np.arange(len(u))
    stack = np.repeat(padded[None], len(u), axis=0)
    stack[k, u, v] = stack[k, v, u] = 0.0
    stack[k, u, n] = stack[k, n, u] = 1.0 - alpha
    stack[k, v, n] = stack[k, n, v] = 1.0 - alpha
    stack[:, n, n] = 2.0 * alpha
    return stack


def radius_of(g: Graph, alpha: float) -> float:
    """Spectral radius of A_alpha(g), by the one choice of route.

    A graph with a cycle or more than one component gets the value of
    stack_radii on a one-matrix stack. A tree goes to leaf-to-root
    elimination, which returns the least double at which elimination finds
    lam*I - A_alpha positive definite, or the max degree if it is less: the
    upper end of the one-ulp bracket that plain bisection on the vertex-0
    pivot test, from [0, max degree], ends on. It is within 1e-12 of the
    dense value on the tested orders 1-1602, and the max degree exactly at
    alpha = 1.

    lam > rho iff lam*I - A_alpha is positive definite. Eliminating leaves
    first leaves the pivot f_v = lam - alpha*deg(v) - sum over children c
    of (1-alpha)^2 / f_c at every vertex, and the matrix is positive
    definite iff every pivot is positive (Jacobs & Trevisan, "Locating the
    eigenvalues of trees", LAA 434, 2011). rho <= max degree for every
    alpha in [0,1].

    Search. Rooted at a max-degree vertex u, the lowest index on ties (on
    a path, vertex 0, as only its ends and vertex 0 are plan steps), the
    pivots below u are all positive on (rho(G - u), inf), where rho(G - u)
    is the top eigenvalue of A_alpha with row and column u deleted, and
    rho(G - u) < rho. There f_u = phi(G) / phi(G - u) = lam - alpha*deg(u)
    - (1-alpha)^2 * sum over children c of [(lam*I - B_c)^-1]_cc, with B_c
    the block of c's subtree; each such resolvent entry is a sum of
    q^2 / (lam - mu) over eigenvalues mu < lam, so positive, decreasing and
    convex: f_u is increasing and concave, and so is f_u - lam. So
    rho <= lam - f_u at any lam of the window (rho(G - u), rho], and a
    chord through two points of the window, extended to the right, lies
    above f_u: its zero lies in (lam, rho], and secant steps climb
    monotonically to rho. The search starts at star_radius(max degree), a
    lower bound on rho. Its pivot comes from the vertex-0 plan contracted
    to its steps and re-rooted at u (_tree_thresholds), so the max degree,
    u and the search's plan all come from the one plan walk.

    Certification. _least_definite returns the least double at which f_u
    of the vertex-0 plan is positive, as plain bisection on [0, max degree].

    Cost. One _tree_plan walk, then one _walk per probe, with no
    derivative. A spider of known shape skips the walk and the graph:
    _spider_radius builds the same plan from its arm lengths in O(arms),
    and returns this radius bit for bit.
    A search probe costs one step per plan step: above lam = 2 the run map
    f -> (lam - 2*alpha) - (1-alpha)^2 / f has the fixed points tau+- of
    _run_constants, and a folded run whose first pivot is above tau- is
    advanced to its top in closed form. A check steps each run:
    near rho its pivots approach tau+ and, in doubles, reach it after tens
    of vertices, and the check skips the rest of the run, so it costs about
    the number of branch vertices and leaves plus those tens per run, not
    n. On the four convergence families at order 800-1602 a radius takes
    1-2 checks. Below lam = 2 the run map has no fixed point, as at rho of
    a path at alpha = 0: no pivot repeats, and both walks step each run in
    full.
    """
    _validate_alpha(alpha)
    thresholds = _tree_thresholds(g, 0, alpha)
    if thresholds is None:
        return stack_radii(assemble_a_alpha(g, alpha)[None])[0]
    return _threshold_radius(thresholds, alpha)


def _spider_radius(hub: int, arms: list, root: int, alpha: float) -> float:
    """The radius of the spider with these hub, arms and root, as
    _spider_plan takes them, from its plan with no Graph: radius_of(g, alpha)
    of the built spider g bit for bit when root is vertex 0, where radius_of
    roots its check."""
    _validate_alpha(alpha)
    return _threshold_radius(_plan_thresholds(_spider_plan(hub, arms, root), alpha), alpha)


def _threshold_radius(thresholds: tuple, alpha: float) -> float:
    """The radius that a tree's (check, search, top) certifies: the least
    double at which check is positive, searched from star_radius(top)."""
    check, search, top = thresholds
    return _least_definite(check, search, star_radius(top, alpha), top)


def _pendant_limit(g: Graph, u: int, alpha: float, paths: int) -> float:
    """The least double at which u's root pivot f_u, loaded with `paths`
    infinite pendant paths, is positive; 2.0 if it is not negative at 2.

    For lambda >= 2 the pivots up a long pendant path settle on tau+ of
    _fixed_points, the attracting fixed point of
    f -> (lambda - 2a) - (1-a)^2 / f, so each infinite path adds a to u's
    diagonal and (1-a)^2 / tau+ = (1-a) theta, theta = (1-a) / tau+, to the
    sum over its children (_path_load). The loaded pivot
    f_u - paths * (a + (1-a) theta) is the characteristic equation
    (1 - a h) phi(G) - paths (a - (2a-1) h) phi(G)_u divided by
    (1 - a h) phi(G)_u, since (a - (2a-1) h) / (1 - a h) = a + (1-a) theta.
    f_u rises where the pivots below u are positive and the load falls, so
    the threshold is the one root above max(2, rho(G)), found as a tree
    radius is, by _least_definite on [2, _degree_bound].

    On a tree _tree_thresholds makes the one elimination plan, rooted at u,
    with no eigendecomposition, and returns the loaded f_u as both check
    and search. A search on the plan re-rooted at the hub, as a radius's
    is, takes fewer probes on most trees but more on some: the
    lowest-indexed max-degree vertex can lack a secant window as a leaf u
    does, and then its bisection can cost more probes than u's. Any other
    graph takes f_u = 1 / r(lambda) above rho(G), and None at or below it,
    as both check and search: with A_alpha(g) = Q diag(w) Q^T from one
    eigendecomposition, r(lambda) = [(lambda*I - A_alpha)^-1]_uu =
    sum_i Q_ui^2 / (lambda - w_i), one O(n) dot product per lambda. The
    load is None below 2, and so is the pivot.
    """
    _validate_alpha(alpha, upper_open=True)
    # a tree's plan reaches every vertex, so it shows g connected
    thresholds = _tree_thresholds(g, u, alpha, paths) if 0 <= u < g.n_vertices else None
    if thresholds is None:
        if not g.is_connected():
            raise ValueError("pendant-path limits need a connected graph")
        if not (0 <= u < g.n_vertices):
            raise ValueError(f"vertex {u} not in graph")
        w, q = np.linalg.eigh(assemble_a_alpha(g, alpha))
        weights, rho = q[u] ** 2, float(w[-1])

        def check(lam: float) -> float | None:
            extra = _path_load(lam, alpha, paths)
            if extra is None or lam <= rho:
                return None
            return 1.0 / float(np.dot(weights, 1.0 / (lam - w))) - extra

        thresholds = check, check, degree_bounds(g, alpha)[1]
    return _loaded_threshold(*thresholds, len(g.adj[u]), paths)


def _spider_limit(hub: int, arms: list, alpha: float, paths: int) -> float:
    """_pendant_limit at hub of the spider with these arms, as _spider_plan
    takes them, from its plan rooted at hub: no Graph and no _tree_plan.
    It equals _pendant_limit(g, hub, alpha, paths) of the built spider g bit
    for bit."""
    _validate_alpha(alpha, upper_open=True)
    plan = _spider_plan(hub, arms, hub)
    return _loaded_threshold(*_plan_thresholds(plan, alpha, paths), len(arms), paths)


def _loaded_threshold(check, search, top: float, degree: int, paths: int) -> float:
    """The least double at which the loaded pivot check is positive, or 2.0
    if it is not negative at 2, searched on [2, _degree_bound]; degree is
    that of the loaded vertex."""
    f = check(2.0)
    if f is not None and f >= 0.0:
        return 2.0
    top = _degree_bound(top, degree, paths)
    f = check(top)
    if f is None or f <= 0.0:
        raise BracketError(f"loaded pivot not positive at the degree bound {top}")
    return _least_definite(check, search, 2.0, top)


def _degree_bound(top: float, degree: int, added_degree: int) -> float:
    """Strictly above the largest degree of g, top, and of u, degree, plus the
    paths at u, which bounds every rho(G + pendant paths) and so the limit."""
    return max(top, degree + added_degree, 2) + 0.25


def _tree_plan(g: Graph, root: int) -> list | None:
    """The folded leaves-first elimination plan of a tree rooted at root,
    or None unless g is a tree: n - 1 edges and every vertex reached.

    A plan is a list of (vertex, parent, degree, k) steps with every child
    before its parent and root last, its parent n a spare slot. The k
    vertices above a step's vertex are a run of degree-2 vertices folded
    into it: each has one child, the one below it, and parent is the parent
    of the run's top. Every degree-2 vertex but root is folded, so a path
    is two steps and a spider one per arm plus its hub. root must be a
    vertex of g.

    The plan is a depth-first preorder, reversed. Children are pushed in
    g.adj order, ascending, so the largest is taken first: a subtree is one
    contiguous stretch, and a vertex's children come before it in ascending
    order, the one order in which every pivot sums their terms. A sum over
    three or more children depends on its order, so fixing it here makes
    every pivot, and every threshold, depend on g alone and not on the
    layout of g.edges. A vertex is marked when it is reached, so the walk
    ends on any graph.
    """
    n = g.n_vertices
    if g.n_edges != n - 1:
        return None
    adj = g.adj
    parent = [-1] * n
    parent[root] = n
    steps = []
    stack = [root]
    while stack:
        u = stack.pop()
        v, k = u, 0
        if u != root:
            ends = adj[v]
            while len(ends) == 2:  # v's parent is marked; step to its child
                a, b = ends
                w = a if parent[a] == -1 else b
                if parent[w] != -1:
                    break
                parent[w] = v
                v, k = w, k + 1
                ends = adj[v]
        steps.append((v, parent[u], len(adj[v]), k))
        for w in adj[v]:
            if parent[w] == -1:
                parent[w] = v
                stack.append(w)
    if -1 in parent:
        return None
    steps.reverse()
    return steps


def _spider_plan(hub: int, arms: list, root: int) -> list:
    """_tree_plan(g, root) of a spider g, in O(arms), with no walk.

    g is hub with paths (arms) hung from it. arms lists each one as
    (end, vertices), end its leaf, in ascending order of its first vertex,
    hub's neighbour on it. root is hub, or the end of an arm when hub has
    degree 3 or more. Each arm is one step at its end, with its other
    vertices folded above it. The plan is the arms in that order, then hub,
    which sums them in it. Rooted at hub, hub's parent is the spare slot n,
    the vertex count. Rooted at an end, that arm is no step: hub takes root
    as its parent, with the arm's other vertices folded into hub's step,
    and root's own step comes last.
    """
    n = 1 + sum(count for _, count in arms)
    steps = [(end, hub, 1, count - 1) for end, count in arms if end != root]
    if root == hub:
        return steps + [(hub, n, len(arms), 0)]
    (count,) = [count for end, count in arms if end == root]
    return steps + [(hub, root, len(arms), count - 1), (root, n, 1, 0)]


def _tree_thresholds(g: Graph, root: int, alpha: float, paths: int = 0):
    """_plan_thresholds of the tree g's one plan rooted at root, or None
    unless g is a tree."""
    plan = _tree_plan(g, root)
    return None if plan is None else _plan_thresholds(plan, alpha, paths)


def _plan_thresholds(plan: list, alpha: float, paths: int = 0) -> tuple:
    """(check, search, top) of a tree from its plan, as _tree_plan or
    _spider_plan gives it, rooted at root, its last step.

    top is the tree's max degree, as a float. check(lam) is f_root, the
    root pivot of the plan at lam with every run stepped (see _walk): the
    certificate. search(lam) is the root pivot of the same plan re-rooted
    at the hub, the lowest-indexed step vertex of the largest degree (see
    _rerooted), with runs advanced in closed form above lam = 2. Every
    vertex of degree 3 or more is a step, so on any tree but a path the hub
    is the lowest-indexed max-degree vertex; every step of a path is an end
    or root, and a path's hub is an end or root.

    With paths > 0, root carries that many infinite pendant paths: check
    is f_root - _path_load(lam, alpha, paths), or None where either is, and
    search is check: the hub can lack the secant window that a leaf root
    lacks, and then costs more probes than root (see _pendant_limit).

    The one place a plan is scaled by alpha: each degree becomes
    alpha*degree, with c = (1-alpha)^2 and d2 = 2*alpha.
    """
    root = plan[-1][0]
    top = max(d for _, _, d, _ in plan)
    hub = min(v for v, _, d, _ in plan if d == top)
    if any(k for _, _, _, k in plan):  # a folded vertex has degree 2
        top = max(top, 2)
    c, d2 = (1.0 - alpha) ** 2, 2.0 * alpha
    steps = _scaled(plan, alpha)
    if paths:
        def loaded(lam):
            extra = _path_load(lam, alpha, paths)
            f = None if extra is None else _walk(steps, c, d2, lam)
            return None if f is None else f - extra
        return loaded, loaded, float(top)
    searched = steps if hub == root else _scaled(_rerooted(plan, hub), alpha)

    def check(lam):
        return _walk(steps, c, d2, lam)

    def search(lam):
        return _walk(searched, c, d2, lam, _run_constants(lam, c, d2) if lam > 2.0 else _STEPPED)
    return check, search, float(top)


def _rerooted(plan: list, hub: int) -> list:
    """plan, a _tree_plan, re-rooted at hub, one of its step vertices, in
    O(steps).

    The steps on the way from hub up to the root turn over: each takes the
    one it was the parent of as its parent, with that step's folded run,
    whose vertices all have degree 2, so the run folds into the other end;
    hub becomes the root, its parent the spare slot. The other steps keep
    their parents and their order, and the turned steps follow them, from
    the old root down to hub, so every child still comes before its parent.
    Each vertex keeps its degree and stays a step or folded as it was.
    """
    up = {v: (p, d, k) for v, p, d, k in plan}
    spare = plan[-1][1]
    turned = {}  # vertex on the way -> its new (parent, run)
    v, p, k = hub, spare, 0
    while v != spare:
        turned[v] = (p, k)
        p, k, v = v, up[v][2], up[v][0]
    rest = [step for step in plan if step[0] not in turned]
    return rest + [(v, p, up[v][1], k) for v, (p, k) in reversed(turned.items())]


def _scaled(plan: list, alpha: float) -> list:
    """plan with each degree scaled to alpha*degree, and each vertex and
    parent replaced by its step's position, the root's parent by len(plan):
    a walk's accumulators then take one slot per step, not per vertex."""
    position = {v: i for i, (v, _, _, _) in enumerate(plan)}
    position[plan[-1][1]] = len(plan)
    return [(i, position[p], alpha * d, k) for i, (_, p, d, k) in enumerate(plan)]


# Run constants (tau-, delta, log q) under which _walk steps every run.
_STEPPED = (math.inf, 0.0, 0.0)


def _walk(steps: list, c: float, d2: float, lam: float,
          runs: tuple = _STEPPED) -> float | None:
    """f_u, the pivot at the root u of one leaves-first elimination at lam.

    None once a pivot below u is not positive. steps is a plan as _scaled
    gives it, (slot, parent slot, alpha*degree, k) steps; the pivot is
    f_v = lam - alpha*deg(v) - sum over children w of c / f_w, with
    c = (1-alpha)^2. Up a folded run each pivot is f -> (lam - d2) - c / f
    of the one below, d2 = 2*alpha: the one child's sum is 0.0 + c / f,
    which is c / f exactly. A run is stepped: that map reads the previous
    pivot alone, so once a pivot repeats bit for bit every later one on the
    run equals it, and the rest of the run is skipped. Given the
    _run_constants of lam > 2 as runs, a run whose first pivot exceeds tau-
    ends instead where _advance puts it, in O(1) whatever its length, and
    every pivot on it stays above tau- >= 0. Under _STEPPED, tau- = inf,
    every run is stepped, and the walk is the exact pivot test.
    """
    tau_minus, delta, log_q = runs
    e = lam - d2
    acc = [0.0] * (steps[-1][1] + 1)
    for v, p, d, k in steps[:-1]:
        f = lam - d - acc[v]
        if f <= 0.0:
            return None
        if k and f > tau_minus:
            f = _advance(f, k, tau_minus, delta, log_q)
        else:
            for _ in range(k):
                f_next = e - c / f
                if f_next == f:
                    break
                if f_next <= 0.0:
                    return None
                f = f_next
        acc[p] += c / f
    u, _, d, _ = steps[-1]
    return lam - d - acc[u]


def _fixed_points(lam: float, alpha: float) -> tuple:
    """(delta, tau+) of the run map f -> (lam - 2*alpha) - (1-alpha)^2 / f
    at lam >= 2: its fixed points are tau+- = (lam - 2*alpha +- delta) / 2,
    delta = delta_of_lambda(lam, alpha), with tau+ * tau- = (1-alpha)^2."""
    delta = delta_of_lambda(lam, alpha)
    return delta, 0.5 * (lam - 2.0 * alpha + delta)


def _path_load(lam: float, alpha: float, paths: int) -> float | None:
    """What `paths` infinite pendant paths at a vertex take off its pivot
    at lam: alpha*paths on the diagonal and (1-alpha)^2 / tau+ per path in
    the sum over children (see _pendant_limit). None below 2, where a long
    path's pivots settle on no fixed point; paths exactly at 2."""
    if lam < 2.0:
        return None
    s = 1.0 - alpha
    return paths * (alpha + s * (s / _fixed_points(lam, alpha)[1]))


def _run_constants(lam: float, c: float, d2: float) -> tuple:
    """(tau-, delta, log q) of the run map f -> (lam - d2) - c / f at lam > 2.

    delta and tau+ are _fixed_points at alpha = d2 / 2, delta > 0, and
    tau- is taken as c / tau+, free of cancellation. q = tau- / tau+ = 1 - delta / tau+
    lies in [0, 1), and log q is log1p(-delta / tau+), or -inf at q = 0
    (alpha = 1, where c = 0).
    """
    delta, tau = _fixed_points(lam, 0.5 * d2)
    ratio = delta / tau
    return c / tau, delta, (math.log1p(-ratio) if ratio < 1.0 else -math.inf)


def _advance(f: float, k: int, tau_minus: float, delta: float, log_q: float) -> float:
    """The pivot k steps of the run map up from f > tau- (see _run_constants).

    The map takes (f - tau+) / (f - tau-) to q times itself, so
    h = 1 / (f - tau-) goes to q^k * h + (1 - q^k) / delta, a sum of two
    positive terms, with q^k = exp(k log q) and 1 - q^k = -expm1(k log q).
    """
    x = k * log_q
    return tau_minus + 1.0 / (math.exp(x) / (f - tau_minus) - math.expm1(x) / delta)


def _secant_point(pivot, start: float, top: float) -> float:
    """An estimate of rho, the least lam at which pivot(lam) > 0, by secant
    steps from start.

    pivot is None below some point and past it increasing and concave, with
    pivot - lam increasing (see radius_of). A probe where it is None lies
    under rho, and one where it is positive above: either halves the
    bracket, which starts as [0, top]. Anywhere else pivot <= 0, and
    rho <= lam - pivot caps the bracket. The first such probe pairs with
    one 2^-26 * lam to its right, at most halfway to the cap, and each later
    one with the one before; the chord through the pair meets zero in
    (lam, rho]. The search stops once step * (step / prev), prev the step
    before it (the bracket width after a halving), is at most
    SECANT_ERROR * lam.
    """
    lo, hi = 0.0, top
    lam, prev = start, top
    x0 = f0 = None
    while True:
        f = pivot(lam)
        if f is None:
            lo = lam
        elif f > 0.0:
            hi = lam
        else:
            lo, hi = lam, min(hi, lam - f)
            if x0 is None:
                step = min(lam * 2.0 ** -26, 0.5 * (hi - lam))
            elif f == f0:  # a flat chord: lam is within rounding of rho
                return lam
            else:
                step = f * (lam - x0) / (f0 - f)
                if step * (step / prev) <= SECANT_ERROR * lam:
                    return min(lam + step, hi)
            x0, f0 = lam, f
            lam, prev = lam + step, step
            if not lam < hi:
                return hi
            continue
        lam, prev = 0.5 * (lo + hi), hi - lo
        if lam == lo or lam == hi:
            return hi


def _least_definite(check, search, start: float, top: float) -> float:
    """The least double at which check(lam) is a positive pivot, or top.

    Pivots are built from IEEE operations monotone in lam, so the passing
    doubles form an up-set. From the _secant_point of search the check
    steps down or up, 1, 8, 64, ... ulps, until it holds a failing double
    and a passing one (0 and top count as such untested), then bisects
    that bracket to adjacent doubles and returns the upper end, the value
    plain bisection on [0, top] returns: the search decides only the cost.
    """
    def definite(lam):
        f = check(lam)
        return f is not None and f > 0.0

    x = min(_secant_point(search, start, top), top)
    step = math.ulp(x)
    if x == top or definite(x):
        lo, hi = max(x - step, 0.0), x
        while lo > 0.0 and definite(lo):
            step *= 8.0
            lo, hi = max(lo - step, 0.0), lo
    else:
        lo, hi = x, min(x + step, top)
        while hi < top and not definite(hi):
            step *= 8.0
            lo, hi = hi, min(hi + step, top)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if definite(mid):
            hi = mid
        else:
            lo = mid


def degree_bounds(g: Graph, alpha: float) -> tuple:
    """Bounds (star_radius(max degree), max degree) on rho(A_alpha(g))."""
    dmax = float(max(len(nbrs) for nbrs in g.adj))
    return star_radius(dmax, alpha), dmax


def star_radius(k: float, alpha: float) -> float:
    """rho(A_alpha(K_{1,k})), a lower bound for every graph of maximum degree k.

    The star K_{1,k} is a subgraph of any graph with a vertex of degree k.
    K_{1,0} is a single vertex, whose A_alpha is [0], so k = 0 gives 0.
    """
    if k == 0:
        return 0.0
    rad = alpha * alpha * (k + 1) ** 2 + 4 * k * (1 - 2 * alpha)
    return 0.5 * (alpha * (k + 1) + math.sqrt(max(rad, 0.0)))


def char_poly_eval(g: Graph, alpha: float, lam: float) -> float:
    """det(lam*I - A_alpha(g)) by LU factorization with partial pivoting."""
    m = assemble_a_alpha(g, alpha)
    return float(np.linalg.det(lam * np.eye(g.n_vertices) - m))


# ---------------------------------------------------------------------------
# closed forms on paths
# ---------------------------------------------------------------------------


def delta_of_lambda(lam: float, alpha: float) -> float:
    """sqrt((lam - 4*alpha + 2)(lam - 2)); rejects a negative or NaN radicand."""
    rad = (lam - 4.0 * alpha + 2.0) * (lam - 2.0)
    if not (rad >= 0.0):
        raise ValueError(f"negative or NaN radicand at lambda={lam}, alpha={alpha}")
    return math.sqrt(rad)


def h_of_lambda(lam: float, alpha: float) -> float:
    """(lam - delta) / (2*alpha*(lam-2) + 2)."""
    return (lam - delta_of_lambda(lam, alpha)) / (2.0 * alpha * (lam - 2.0) + 2.0)
