"""Interpolating adjacency matrices and their spectra.

The one-parameter family alpha*D + (1-alpha)*A interpolates between the
adjacency matrix (alpha=0) and the degree matrix (alpha=1); twice its
value at alpha=1/2 is the signless Laplacian. Spectral radii come from a
dense symmetric eigensolver, characteristic polynomial values from LU
determinants, the resolvent diagonal [(lam*I - A_alpha)^-1]_uu from one
eigendecomposition, and the path/truncated-path matrices also have
closed-form evaluations used throughout the limit-point computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph

DEGENERATE_DELTA = 1e-9


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
    method: str


@dataclass(frozen=True)
class CharPolyContext:
    """The quantities delta, h, s, t attached to a point (lambda, alpha).

    delta^2 = (lam - 4*alpha + 2)(lam - 2), s and t are the two roots of
    z^2 - (lam - 2*alpha) z + (1-alpha)^2, so s + t = lam - 2*alpha,
    s - t = delta and s*t = (1-alpha)^2.
    """

    lam: float
    alpha: float
    delta: float
    h: float
    s: float
    t: float


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


def spectral_radius(m: AlphaMatrix, tol: float = 1e-12) -> SpectralResult:
    """Largest eigenvalue magnitude via the dense symmetric solver.

    The solver works at machine precision; tol is only validated as a
    positive accuracy floor to keep the contract explicit. For the
    nonnegative matrices of connected graphs the radius is the Perron
    value, i.e. the top eigenvalue itself.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    e = _check_symmetric(m)
    w = np.linalg.eigvalsh(e)
    return SpectralResult(float(np.max(np.abs(w))), None, "dense_eigvalsh")


def full_spectrum(m: AlphaMatrix, tol: float = 1e-12) -> SpectralResult:
    """All eigenvalues, sorted ascending."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    e = _check_symmetric(m)
    w = np.linalg.eigvalsh(e)
    return SpectralResult(float(np.max(np.abs(w))), w, "dense_eigvalsh")


def radius_of(g: Graph, alpha: float) -> float:
    """Convenience: spectral radius of the alpha matrix of g."""
    return spectral_radius(assemble_a_alpha(g, alpha)).radius


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


def charpoly_context(lam: float, alpha: float) -> CharPolyContext:
    d = delta_of_lambda(lam, alpha)
    return CharPolyContext(
        lam=lam,
        alpha=alpha,
        delta=d,
        h=h_of_lambda(lam, alpha),
        s=(lam - 2.0 * alpha + d) / 2.0,
        t=(lam - 2.0 * alpha - d) / 2.0,
    )


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
