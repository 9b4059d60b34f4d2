"""Interpolating adjacency matrices and their spectra.

The one-parameter family alpha*D + (1-alpha)*A interpolates between the
adjacency matrix (alpha=0) and the degree matrix (alpha=1); twice its
value at alpha=1/2 is the signless Laplacian. radius_of takes a tree of
order TREE_MIN_ORDER or more by leaf-to-root elimination in O(n) memory
and O(n) time per bisection step, and returns the upper end of a one-ulp
bracket; every other graph, and the matrix-level spectral_radius and
full_spectrum, use a dense symmetric eigensolver. Many small radii are
cheaper batched: radii_of stacks graphs by order and stack_radii solves a
whole stack in one eigensolve call, equal to the one-by-one values bit for
bit; subdivision_stack builds every edge subdivision of a graph as one
such stack straight from its matrix. Characteristic polynomial
values come from LU determinants, the resolvent diagonal
[(lam*I - A_alpha)^-1]_uu from one eigendecomposition, and the
path/truncated-path matrices also have closed-form evaluations used
throughout the limit-point computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph

DEGENERATE_DELTA = 1e-9
# Order from which radius_of sends trees to leaf-to-root elimination.
TREE_MIN_ORDER = 128


@dataclass(frozen=True)
class AlphaMatrix:
    """Dense symmetric matrix tagged with the alpha it was assembled at."""

    entries: np.ndarray
    alpha: float

    @property
    def order(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectralResult:
    radius: float
    eigenvalues: np.ndarray | None


def _validate_alpha(alpha: float, upper_open: bool = False) -> None:
    if not (0.0 <= alpha <= 1.0) or (upper_open and alpha == 1.0):
        hi = "1)" if upper_open else "1]"
        raise ValueError(f"alpha must lie in [0,{hi}, got {alpha}")


def assemble_a_alpha(g: Graph, alpha: float) -> AlphaMatrix:
    """alpha*D(g) + (1-alpha)*A(g), assembled exactly."""
    _validate_alpha(alpha)
    a = g.adjacency() * (1.0 - alpha)
    np.fill_diagonal(a, alpha * g.degrees())
    return AlphaMatrix(a, alpha)


def assemble_laplacian(g: Graph, signless: bool = False) -> AlphaMatrix:
    """D - A, or D + A when signless (equal to 2*A_{1/2} entrywise)."""
    a = g.adjacency()
    d = np.diag(g.degrees().astype(float))
    return AlphaMatrix(d + a if signless else d - a, 0.5 if signless else 1.0)


def _check_symmetric(m: AlphaMatrix) -> np.ndarray:
    e = np.asarray(m.entries, dtype=float)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(e, e.T):
        raise ValueError("matrix must be symmetric")
    return e


def spectral_radius(m: AlphaMatrix) -> SpectralResult:
    """Largest eigenvalue magnitude via the dense symmetric solver.

    The solver works at machine precision. For the nonnegative matrices of
    connected graphs the radius is the Perron value, i.e. the top
    eigenvalue itself.
    """
    e = _check_symmetric(m)
    w = np.linalg.eigvalsh(e)
    return SpectralResult(float(np.max(np.abs(w))), None)


def full_spectrum(m: AlphaMatrix) -> SpectralResult:
    """All eigenvalues, sorted ascending."""
    e = _check_symmetric(m)
    w = np.linalg.eigvalsh(e)
    return SpectralResult(float(np.max(np.abs(w))), w)


def stack_radii(stack: np.ndarray) -> list:
    """Spectral radius of each symmetric matrix in a (k, n, n) stack.

    One dense eigensolve call for the whole stack; each radius equals
    spectral_radius of its slice bit for bit, as a Python float.
    """
    e = np.asarray(stack, dtype=float)
    if e.ndim != 3 or e.shape[1] != e.shape[2]:
        raise ValueError("stack must hold square matrices")
    if not np.array_equal(e, e.swapaxes(-1, -2)):
        raise ValueError("matrix must be symmetric")
    return np.abs(np.linalg.eigvalsh(e)).max(axis=1).tolist()


def radii_of(pairs) -> list:
    """radius_of(g, alpha) for every (g, alpha) pair, in input order.

    Graphs below TREE_MIN_ORDER are assembled and stacked by order, one
    stack_radii call per order; larger ones go to radius_of one by one.
    Every value equals radius_of's bit for bit.
    """
    pairs = list(pairs)
    out = [0.0] * len(pairs)
    by_order = {}
    for i, (g, alpha) in enumerate(pairs):
        if g.n_vertices >= TREE_MIN_ORDER:
            out[i] = radius_of(g, alpha)
        else:
            by_order.setdefault(g.n_vertices, []).append(i)
    for idx in by_order.values():
        stack = np.stack([assemble_a_alpha(*pairs[i]).entries for i in idx])
        for i, r in zip(idx, stack_radii(stack)):
            out[i] = r
    return out


def subdivision_stack(g: Graph, alpha: float) -> np.ndarray:
    """A_alpha(subdivide_edge(g, e)) for each edge e of g in sorted order.

    One (n_edges, n+1, n+1) stack, built from g's matrix padded by a zero
    row and column for the new vertex w = n: zero (u, v), set (u, w) and
    (v, w) to 1 - alpha and (w, w) to 2*alpha. The degrees of u and v do
    not change, so every slice equals the assembled matrix of the
    subdivided graph exactly.
    """
    n = g.n_vertices
    padded = np.zeros((n + 1, n + 1))
    padded[:n, :n] = assemble_a_alpha(g, alpha).entries
    u, v = np.array(sorted(g.edges), dtype=int).reshape(-1, 2).T
    k = np.arange(len(u))
    stack = np.repeat(padded[None], len(u), axis=0)
    stack[k, u, v] = stack[k, v, u] = 0.0
    stack[k, u, n] = stack[k, n, u] = 1.0 - alpha
    stack[k, v, n] = stack[k, n, v] = 1.0 - alpha
    stack[:, n, n] = 2.0 * alpha
    return stack


def radius_of(g: Graph, alpha: float) -> float:
    """Spectral radius of A_alpha(g), by the cheaper of two routes.

    A tree of order TREE_MIN_ORDER or more goes to leaf-to-root
    elimination: bisection on whether lam*I - A_alpha is positive definite,
    from the bracket [0, max degree] until its ends are adjacent doubles.
    The result is the upper end: a double at which the elimination finds
    the matrix definite, one ulp above a double at which it does not (or
    the max degree itself). It agrees with the dense value to rounding
    (within 1e-12 on the tested orders 128-1602) and is the max degree
    exactly at alpha = 1. Any other graph, and every graph below
    TREE_MIN_ORDER, where dense is faster, gets the dense eigensolve of
    spectral_radius bit for bit.
    """
    if g.n_vertices >= TREE_MIN_ORDER:
        tree = _leaves_first(g)
        if tree is not None:
            _validate_alpha(alpha)
            return _tree_radius(tree, alpha)
    return spectral_radius(assemble_a_alpha(g, alpha)).radius


def _leaves_first(g: Graph) -> list | None:
    """(vertex, parent, degree) triples, every child before its parent.

    The root (vertex 0) comes last with parent n, a spare slot. Returns
    None unless g is a tree: n - 1 edges and every vertex reached by BFS.
    """
    n = g.n_vertices
    if g.n_edges != n - 1:
        return None
    adj = [[] for _ in range(n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    parent[0] = n
    bfs = [0]
    for u in bfs:  # grows while it is walked: a BFS queue
        for w in adj[u]:
            if parent[w] == -1:
                parent[w] = u
                bfs.append(w)
    if len(bfs) != n:
        return None
    return [(v, parent[v], len(adj[v])) for v in reversed(bfs)]


def _tree_radius(tree: list, alpha: float) -> float:
    """rho(A_alpha(tree)), the upper end of a one-ulp bisection bracket.

    lam > rho iff lam*I - A_alpha is positive definite. Eliminating leaves
    first leaves the pivot f_v = lam - alpha*deg(v) - sum over children c
    of (1-alpha)^2 / f_c at every vertex, and the matrix is positive
    definite iff every pivot is positive (Jacobs & Trevisan, "Locating the
    eigenvalues of trees", LAA 434, 2011). rho <= max degree for every
    alpha in [0,1], so [0, max degree] brackets it.
    """
    steps = [(v, p, alpha * d) for v, p, d in tree]
    c = (1.0 - alpha) ** 2
    size = len(steps) + 1

    def definite(lam: float) -> bool:
        acc = [0.0] * size
        for v, p, d in steps:
            f = lam - d - acc[v]
            if f <= 0.0:
                return False
            acc[p] += c / f
        return True

    lo, hi = 0.0, float(max(d for _, _, d in tree))
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if definite(mid):
            hi = mid
        else:
            lo = mid


def star_radius(k: float, alpha: float) -> float:
    """rho(A_alpha(K_{1,k})), a lower bound for every graph of maximum degree k.

    The star K_{1,k} is a subgraph of any graph with a vertex of degree k.
    """
    rad = alpha * alpha * (k + 1) ** 2 + 4 * k * (1 - 2 * alpha)
    return 0.5 * (alpha * (k + 1) + math.sqrt(max(rad, 0.0)))


@dataclass(frozen=True)
class VertexResolvent:
    """r(lam) = [(lam*I - A_alpha(g))^-1]_uu for one vertex u.

    With A_alpha(g) = Q diag(w) Q^T, r(lam) = sum_i Q_ui^2 / (lam - w_i),
    which equals char_poly_eval_deleted / char_poly_eval at every lam off
    the spectrum. Each evaluation is one O(n) dot product.
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
    w, q = np.linalg.eigh(assemble_a_alpha(g, alpha).entries)
    return VertexResolvent(w, q[u] ** 2)


def char_poly_eval(g: Graph, alpha: float, lam: float) -> float:
    """det(lam*I - A_alpha(g)) by LU factorization with partial pivoting."""
    m = assemble_a_alpha(g, alpha).entries
    return float(np.linalg.det(lam * np.eye(g.n_vertices) - m))


def char_poly_eval_deleted(g: Graph, u: int, alpha: float, lam: float) -> float:
    """Same determinant with row and column u removed first.

    The diagonal keeps the degrees of the full graph, so this is the
    principal minor of A_alpha(g), not the matrix of the deleted subgraph.
    """
    if not (0 <= u < g.n_vertices):
        raise ValueError(f"vertex {u} not in graph")
    if g.n_vertices == 1:
        return 1.0
    m = assemble_a_alpha(g, alpha).entries
    keep = [i for i in range(g.n_vertices) if i != u]
    sub = m[np.ix_(keep, keep)]
    return float(np.linalg.det(lam * np.eye(len(keep)) - sub))


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
