"""Interpolating adjacency matrices and their spectra.

The one-parameter family alpha*D + (1-alpha)*A interpolates between the
adjacency matrix (alpha=0) and the degree matrix (alpha=1); twice its
value at alpha=1/2 is the signless Laplacian. Matrices are plain numpy
arrays. Radii take one of two routes, chosen in radius_of alone by
structure. Every tree goes to leaf-to-root elimination in O(n) memory:
Newton's method on the last pivot of an elimination rooted at a
max-degree vertex finds the radius in about ten passes, and the pivot
test of the elimination rooted at vertex 0 certifies the same one-ulp
bracket a plain bisection ends on, returning its upper end. Each pass
follows a plan in which every run of degree-2 vertices is folded into
the vertex below it, and walks a run only until its pivot repeats bit
for bit, after which the rest of the run repeats it too; near the radius
a pendant path of any length then costs tens of steps, and every pivot
is the one of a plain pass over all n vertices. A graph with a cycle or
more than one component is solved densely: full_spectrum is the one
checked symmetric eigensolve, of a matrix or of a (k, n, n) stack,
stack_radii reads each slice's radius off it, and solve_by_order, the
one place matrices are grouped by order, makes one such call per order
for stacks of mixed orders.
alpha_stack assembles a graph's matrix at several alphas at once
(assemble_a_alpha is its one-alpha slice), and subdivision_stack builds
every edge subdivision of a graph as one stack straight from its matrix.
The resolvent diagonal [(lam*I - A_alpha)^-1]_uu comes from one
eigendecomposition. The characteristic polynomials of the
path matrix and of the deleted-end path B_{n+1} have s,t closed forms,
which verify checks against the exact three-term tridiagonal recurrence.
char_poly_eval, an LU determinant, has no caller in the package; the
benchmark harness (bench/worker.py) calls it to warm up LAPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, folded_preorder

DEGENERATE_DELTA = 1e-9
# Predicted relative error at which the tree-radius Newton search stops.
NEWTON_ERROR = 2.0 ** -50


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
    full_spectrum) in one call. Returns one result per matrix, block by
    block and slice by slice in input order. Each slice is solved on its
    own, so each result is the one its matrix gives alone, bit for bit.
    """
    blocks = list(blocks)
    starts = [0]
    by_order = {}
    for i, block in enumerate(blocks):
        starts.append(starts[-1] + len(block))
        by_order.setdefault(block.shape[-1], []).append(i)
    out = [None] * starts[-1]
    for idx in by_order.values():
        stack = (blocks[idx[0]] if len(idx) == 1
                 else np.concatenate([blocks[i] for i in idx]))
        results = solve(stack)
        pos = 0
        for i in idx:
            k = starts[i + 1] - starts[i]
            out[starts[i]:starts[i + 1]] = results[pos:pos + k]
            pos += k
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

    A tree goes to leaf-to-root elimination, which returns the upper end
    of the one-ulp bracket that plain bisection on the vertex-0 pivot test,
    from [0, max degree], ends on (see _tree_radius): within 1e-12 of the
    dense value on the tested orders 1-1602, and the max degree exactly at
    alpha = 1. A graph with a cycle or more than one component gets the
    value of stack_radii on a one-matrix stack.
    """
    tree = _leaves_first(g)
    if tree is None:
        return stack_radii(assemble_a_alpha(g, alpha)[None])[0]
    _validate_alpha(alpha)
    return _tree_radius(tree, alpha)


def _leaves_first(g: Graph) -> tuple | None:
    """Two leaves-first elimination plans of a tree: (check, search), or None.

    A plan is a list of (vertex, parent, degree, k) steps with every child
    before its parent and the root last, its parent n a spare slot. The k
    vertices above a step's vertex are a run of degree-2 vertices folded
    into it: each has one child, the one below it, and parent is the parent
    of the run's top. Every degree-2 vertex but the root is folded, so a
    path is two steps and a spider one per arm plus its hub. check is
    rooted at vertex 0; search is rooted at a vertex u of maximum degree
    (the lowest index on ties), so its last step holds the max degree, and
    is check itself when u = 0. Returns None unless g is a tree: n - 1
    edges and every vertex reached by the search.

    Each plan is graphs.folded_preorder reversed, so a vertex's children
    come in reverse g.adj order, the order in which a reversed BFS order
    feeds them. A pivot's sum over three or more children depends on that
    order, and with it every pivot equals, bit for bit, the one of the
    unfolded reversed-BFS elimination.
    """
    n = g.n_vertices
    if g.n_edges != n - 1:
        return None
    degree = [len(a) for a in g.adj]

    def plan(root: int) -> list | None:
        runs = folded_preorder(g, root)
        if len(runs) + sum(k for _, _, k in runs) != n:
            return None
        return [(v, p, degree[v], k) for v, p, k in reversed(runs)]

    check = plan(0)
    if check is None:
        return None
    hub = degree.index(max(degree))
    return check, (check if hub == 0 else plan(hub))


def _definite(steps: list, c: float, d2: float, lam: float) -> bool:
    """Whether every pivot of one leaves-first elimination at lam is positive.

    steps holds (vertex, parent, alpha*degree, k) steps of a plan (see
    _leaves_first); the pivot is f_v = lam - alpha*deg(v) - sum over
    children w of c / f_w, with c = (1-alpha)^2. Up a folded run each pivot
    is f -> (lam - d2) - c / f of the one below, d2 = 2*alpha: the one
    child's sum is 0.0 + c / f, which is c / f exactly. That map reads the
    previous pivot alone, so once a pivot repeats bit for bit every later
    one on the run equals it, and the rest of the run is skipped.
    """
    e = lam - d2
    acc = [0.0] * (steps[-1][1] + 1)
    for v, p, d, k in steps:
        f = lam - d - acc[v]
        if f <= 0.0:
            return False
        for _ in range(k):
            f_next = e - c / f
            if f_next == f:
                break
            if f_next <= 0.0:
                return False
            f = f_next
        acc[p] += c / f
    return True


def _root_pivot(steps: list, c: float, d2: float, lam: float) -> tuple | None:
    """(f_u, f_u') at the root u of one leaves-first elimination at lam.

    None once a pivot below the root is not positive. Next to each pivot
    the pass carries its derivative in lam, f_v' = 1 + sum over children w
    of c * f_w' / f_w^2, held as the sum s_v. Up a folded run the pair
    (f, s) follows a map of the previous pair alone (see _definite), so
    the rest of a run is skipped once f and s both repeat bit for bit.
    """
    e = lam - d2
    acc = [0.0] * (steps[-1][1] + 1)
    slope = acc.copy()
    for v, p, d, k in steps[:-1]:
        f = lam - d - acc[v]
        if f <= 0.0:
            return None
        s = slope[v]
        q = c / f
        for _ in range(k):
            f_next = e - q
            s_next = q * (1.0 + s) / f
            if f_next == f and s_next == s:
                break
            if f_next <= 0.0:
                return None
            f, s = f_next, s_next
            q = c / f
        acc[p] += q
        slope[p] += q * (1.0 + s) / f
    u, _, d, _ = steps[-1]
    return lam - d - acc[u], 1.0 + slope[u]


def _newton_point(steps: list, c: float, d2: float, start: float, top: float) -> float:
    """An estimate of rho by Newton's method on the root pivot f_u.

    steps is the search plan, rooted at u. A probe where a pivot below u
    fails lies under rho(G - u), and one where f_u > 0 lies above rho:
    either halves the bracket, which starts as [0, top]. Anywhere else f_u
    is increasing and concave (see _tree_radius), so the Newton point lies
    in (lam, rho]. With steps d_k, the error left after step k is about
    d_k^3 / d_(k-1)^2 (the bracket width standing in for d_(k-1) after a
    halving); the search stops once that is below NEWTON_ERROR * lam.
    """
    lo, hi = 0.0, top
    lam, prev = start, top
    while True:
        pivot = _root_pivot(steps, c, d2, lam)
        if pivot is None:
            lo = lam
        elif pivot[0] > 0.0:
            hi = lam
        else:
            lo = lam
            step = -pivot[0] / pivot[1]
            nxt = lam + step
            if not nxt < hi:
                return hi
            ratio = step / prev
            if step * ratio * ratio <= NEWTON_ERROR * lam:
                return nxt
            lam, prev = nxt, step
            continue
        lam, prev = 0.5 * (lo + hi), hi - lo
        if lam == lo or lam == hi:
            return hi


def _tree_radius(tree: tuple, alpha: float) -> float:
    """rho(A_alpha(tree)), the least double at which elimination finds
    lam*I - A_alpha positive definite, or the max degree if it is less.

    lam > rho iff lam*I - A_alpha is positive definite. Eliminating leaves
    first leaves the pivot f_v = lam - alpha*deg(v) - sum over children c
    of (1-alpha)^2 / f_c at every vertex, and the matrix is positive
    definite iff every pivot is positive (Jacobs & Trevisan, "Locating the
    eigenvalues of trees", LAA 434, 2011). rho <= max degree for every
    alpha in [0,1].

    Search. Rooted at a max-degree vertex u, the pivots below u are all
    positive on (rho(G - u), inf), where rho(G - u) is the top eigenvalue
    of A_alpha with row and column u deleted, and rho(G - u) < rho. There
    f_u = phi(G) / phi(G - u) = lam - alpha*deg(u) - (1-alpha)^2 * sum over
    children c of [(lam*I - B_c)^-1]_cc, with B_c the block of c's
    subtree; each such resolvent entry is a sum of q^2 / (lam - mu) over
    eigenvalues mu < lam, so positive, decreasing and convex, and f_u is
    increasing and concave. Its tangent lies above it, so Newton's method
    from any point of (rho(G - u), rho] climbs monotonically to rho. The
    search starts at star_radius(max degree), a lower bound on rho.

    Certification. The vertex-0 plan is the only judge, as in a plain
    bisection on [0, max degree]. Each pivot is built from IEEE operations
    monotone in lam, so the doubles at which every pivot is positive form
    an up-set, and its least element (capped at the max degree) is the
    value returned. From the Newton point the check steps down or up,
    1, 8, 64, ... ulps, until it holds a failing double and a passing one
    (0 and the max degree count as such untested), then bisects that
    bracket to adjacent doubles and returns the upper end. The value is
    therefore the one bisection from [0, max degree] returns, bit for bit;
    the search only decides how many eliminations it takes.

    Cost. Near rho, the pivots up a long pendant path approach the
    attracting fixed point of f -> (lam - 2*alpha) - (1-alpha)^2 / f and,
    in doubles, reach it after tens of vertices; the passes skip the rest
    of each folded run (see _definite), so a pass costs about the number
    of branch vertices and leaves plus those tens per run, not n. Below
    lam = 2 that map has no fixed point, as at rho of a path at alpha = 0:
    no pivot repeats, and each run is walked in full.
    """
    check, search = ([(v, p, alpha * d, k) for v, p, d, k in plan] for plan in tree)
    c = (1.0 - alpha) ** 2
    d2 = 2.0 * alpha
    top = float(tree[1][-1][2])  # the search root's degree, the max degree
    x = min(_newton_point(search, c, d2, star_radius(top, alpha), top), top)
    step = math.ulp(x)
    if x == top or _definite(check, c, d2, x):
        lo, hi = max(x - step, 0.0), x
        while lo > 0.0 and _definite(check, c, d2, lo):
            step *= 8.0
            lo, hi = max(lo - step, 0.0), lo
    else:
        lo, hi = x, min(x + step, top)
        while hi < top and not _definite(check, c, d2, hi):
            step *= 8.0
            lo, hi = hi, min(hi + step, top)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if _definite(check, c, d2, mid):
            hi = mid
        else:
            lo = mid


def degree_bounds(g: Graph, alpha: float) -> tuple:
    """Bounds (star_radius(max degree), max degree) on rho(A_alpha(g))."""
    dmax = float(g.degrees().max())
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


@dataclass(frozen=True)
class VertexResolvent:
    """r(lam) = [(lam*I - A_alpha(g))^-1]_uu for one vertex u.

    With A_alpha(g) = Q diag(w) Q^T, r(lam) = sum_i Q_ui^2 / (lam - w_i),
    which equals det(lam*I - M_u) / det(lam*I - A_alpha(g)) at every lam
    off the spectrum, with M_u the principal minor of A_alpha(g) without
    row and column u. Each evaluation is one O(n) dot product.
    """

    eigenvalues: np.ndarray  # ascending
    weights: np.ndarray      # Q_ui^2, aligned with eigenvalues

    @property
    def top(self) -> float:
        """Largest eigenvalue: the pole of r nearest to +infinity."""
        return float(self.eigenvalues[-1])

    def __call__(self, lam: float) -> float:
        return float(np.dot(self.weights, 1.0 / (lam - self.eigenvalues)))


def vertex_resolvent(g: Graph, u: int, alpha: float) -> VertexResolvent:
    """The resolvent diagonal entry at u, from one dense eigendecomposition."""
    if not (0 <= u < g.n_vertices):
        raise ValueError(f"vertex {u} not in graph")
    w, q = np.linalg.eigh(assemble_a_alpha(g, alpha))
    return VertexResolvent(w, q[u] ** 2)


def char_poly_eval(g: Graph, alpha: float, lam: float) -> float:
    """det(lam*I - A_alpha(g)) by LU factorization with partial pivoting."""
    m = assemble_a_alpha(g, alpha)
    return float(np.linalg.det(lam * np.eye(g.n_vertices) - m))


# ---------------------------------------------------------------------------
# closed forms on paths
# ---------------------------------------------------------------------------


def delta_of_lambda(lam: float, alpha: float) -> float:
    """sqrt((lam - 4*alpha + 2)(lam - 2)); rejects a negative radicand."""
    rad = (lam - 4.0 * alpha + 2.0) * (lam - 2.0)
    if rad < 0:
        raise ValueError(f"negative radicand at lambda={lam}, alpha={alpha}")
    return math.sqrt(rad)


def h_of_lambda(lam: float, alpha: float) -> float:
    """(lam - delta) / (2*alpha*(lam-2) + 2)."""
    return (lam - delta_of_lambda(lam, alpha)) / (2.0 * alpha * (lam - 2.0) + 2.0)


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


def path_charpoly_closed(n_plus_1: int, alpha: float, lam: float) -> float:
    """phi(P_{n+1}) evaluated at lam through the s,t closed form.

    Valid for lam >= 2 where delta is real; a near-zero delta (confluent
    s = t) dispatches to the tridiagonal recurrence, which needs no limit.
    """
    k = n_plus_1
    if k < 1:
        raise ValueError("path order must be at least 1")
    _validate_alpha(alpha, upper_open=True)
    if lam < 2.0:
        raise ValueError("closed form is only evaluated at lambda >= 2")
    d = delta_of_lambda(lam, alpha)
    if abs(d) < DEGENERATE_DELTA:
        return tridiag_charpoly_recurrence(*_path_tridiag(k, alpha), lam)
    n = k - 1
    s = (lam - 2.0 * alpha + d) / 2.0
    t = (lam - 2.0 * alpha - d) / 2.0
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
    if lam < 2.0:
        raise ValueError("closed form is only evaluated at lambda >= 2")
    d = delta_of_lambda(lam, alpha)
    if abs(d) < DEGENERATE_DELTA:
        diag, off = _path_tridiag(k + 1, alpha)
        return tridiag_charpoly_recurrence(diag[:-1], off[:-1], lam)
    n = k - 1
    s = (lam - 2.0 * alpha + d) / 2.0
    t = (lam - 2.0 * alpha - d) / 2.0
    c = (1.0 - alpha) ** 2 / alpha
    scale = alpha / (alpha * (lam - 2.0) + 1.0)
    return scale * ((s + alpha) ** 2 * (s + c) * s**n - (t + alpha) ** 2 * (t + c) * t**n) / d
