"""Limit points of the alpha-adjacency spectral radius.

Every limit value here is the root of an explicit polynomial or of a
characteristic equation in lambda. Expressions carrying half-integer
powers of x are stored as ordinary polynomials in t with x = t*t, so root
isolation is plain bisection in t. Two builders, phi_version1 and
phi_version2, give every sequence polynomial: Hoffman's classical
polynomial is phi_version2 at alpha 0, and the signless Laplacian
polynomials are phi_version1 and phi_version2 at alpha 1/2, a quarter of
their usual integer forms, so those sequences are beta_n, gamma_n and
gamma_tilde_n at one alpha. The psi and omega2 equations change sign once
on a fixed bracket (see their docstrings), so each root is one bisection
there. The pendant-path limit operators work on any connected graph;
each limit is the least double at which u's root pivot, loaded with the
infinite paths, is positive, found as a tree radius is (spectral's
_least_definite). On a tree that pivot comes from a leaves-first
elimination rooted at u, O(n) per lambda; any other graph takes it from
one eigendecomposition.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .spectral import (_least_definite, _tree_pivot, _validate_alpha, degree_bounds,
                       delta_of_lambda, h_of_lambda, vertex_resolvent)


class BracketError(RuntimeError):
    """No sign change where a root was asserted to exist."""


class BranchSelectionError(RuntimeError):
    """A closed-form surd combination failed to come out real."""


@dataclass(frozen=True)
class RootConfig:
    """Bisection stops below tol in the bisected variable: t = sqrt(x) for
    the sequence polynomials, lambda for psi and omega2. The pendant limits
    are exact thresholds and take no tol."""

    tol: float = 1e-13

    def __post_init__(self):
        if not (0 < self.tol < math.inf):
            raise ValueError("tol must be positive and finite")


DEFAULT_CONFIG = RootConfig()
MAX_HALVINGS = 200  # _bisect raises after this many halvings
PSI_RESIDUE_TOL = 1e-8  # largest imaginary residue psi_closed_form accepts


@dataclass(frozen=True)
class HalfPoly:
    """Polynomial in t representing an expression in x with x = t*t.

    Integer powers x^k sit at t^(2k), half powers x^(k+1/2) at t^(2k+1).
    Evaluation at x >= 0 goes through t = sqrt(x). Coefficients are Python
    floats, so evaluation at a float overflows to inf without a warning.
    """

    coeffs: tuple

    def eval_t(self, t):
        """Horner's rule in t, at a float or elementwise on an array."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * t + c
        return acc

    def __call__(self, x):
        return self.eval_t(np.sqrt(x))


# ---------------------------------------------------------------------------
# root isolation
# ---------------------------------------------------------------------------


def _bisect(f, lo: float, hi: float, cfg: RootConfig) -> float:
    """Bisection on [lo, hi]; endpoints may sit exactly on the root.

    Stops once the bracket is narrower than cfg.tol, or once it can no
    longer be halved in double precision; raises BracketError when
    MAX_HALVINGS halvings reach neither.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise BracketError(f"no sign change on [{lo}, {hi}]")
    for _ in range(MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) < cfg.tol:
            return mid
        if (flo < 0) != (fmid < 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    raise BracketError(
        f"bracket [{lo}, {hi}] still wider than tol={cfg.tol} after "
        f"{MAX_HALVINGS} iterations")


# ---------------------------------------------------------------------------
# defining polynomials
# ---------------------------------------------------------------------------


def phi_version1(n: int, alpha: float) -> HalfPoly:
    """The increasing half-power polynomial whose root in (0,1) drives eta_n.

    (1-a)^2 x^(n+1) + 2a(1-a) * sum_{i=0}^{n-1} x^(n-i+1/2)
    + (1-2a+2a^2) * sum_{i=0}^{n-2} x^(i+2) + a^2 x - (1-a)^2.
    """
    _validate_alpha(alpha, upper_open=True)
    if n < 1:
        raise ValueError("n must be at least 1")
    a = float(alpha)
    c = [0.0] * (2 * n + 3)
    c[2 * n + 2] += (1 - a) ** 2
    for i in range(n):
        c[2 * (n - i) + 1] += 2 * a * (1 - a)
    for i in range(n - 1):
        c[2 * i + 4] += 1 - 2 * a + 2 * a * a
    c[2] += a * a
    c[0] -= (1 - a) ** 2
    return HalfPoly(tuple(c))


def phi_version2(n: int, alpha: float) -> HalfPoly:
    """Companion polynomial whose root greater than 1 is 1/gamma_n.

    (1-a)^2 x^(n+1) - a^2 x^n - 2a(1-a) * sum_{i=1}^{n} x^(n-i+1/2)
    - (1-2a+2a^2) * sum_{i=1}^{n-1} x^i - (1-a)^2.
    """
    _validate_alpha(alpha, upper_open=True)
    if n < 1:
        raise ValueError("n must be at least 1")
    a = float(alpha)
    c = [0.0] * (2 * n + 3)
    c[2 * n + 2] += (1 - a) ** 2
    c[2 * n] -= a * a
    for i in range(1, n + 1):
        c[2 * (n - i) + 1] -= 2 * a * (1 - a)
    for i in range(1, n):
        c[2 * i] -= 1 - 2 * a + 2 * a * a
    c[0] -= (1 - a) ** 2
    return HalfPoly(tuple(c))


def difference_poly_f(x: float, alpha: float) -> float:
    """(x^2 - 2x^(3/2) + 2x - 1) a^2 + 2(1 - x + x^(3/2) - x^2) a + x^2 + x - 1.

    Equals phi_version1(n+1, a)(x) - x * phi_version1(n, a)(x) for every n.
    """
    if x < 0:
        raise ValueError("x must be non-negative")
    a = alpha
    r = math.sqrt(x)
    return ((x * x - 2 * x * r + 2 * x - 1) * a * a
            + 2 * (1 - x + x * r - x * x) * a
            + x * x + x - 1)


# ---------------------------------------------------------------------------
# the eta sequences and their relatives
# ---------------------------------------------------------------------------


def beta_n(n: int, cfg: RootConfig = DEFAULT_CONFIG) -> float:
    """Unique root >= 1 of x^(n+1) - (1 + x + ... + x^(n-1)); beta_1 = 1.

    That is Hoffman's classical sequence polynomial, phi_version2(n, 0).
    """
    p = phi_version2(n, 0.0)
    t = _bisect(p.eval_t, 1.0, math.sqrt(2.0), cfg)
    return t * t


def eta_classic(n: int, cfg: RootConfig = DEFAULT_CONFIG) -> float:
    """beta_n^(1/2) + beta_n^(-1/2); starts at 2 and climbs to sqrt(2+sqrt5)."""
    return _eta_from_root(beta_n(n, cfg), 0.0)


def gamma_n(n: int, alpha: float, cfg: RootConfig = DEFAULT_CONFIG) -> float:
    """The root of phi_version1 in (0,1]; gamma_0 = 1 by definition."""
    _validate_alpha(alpha, upper_open=True)
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1.0
    p = phi_version1(n, alpha)
    t = _bisect(p.eval_t, 0.0, 1.0, cfg)
    return t * t


def gamma_tilde_n(n: int, alpha: float, cfg: RootConfig = DEFAULT_CONFIG) -> float:
    """The root of phi_version2 in [1, inf); equals 1/gamma_n.

    hi doubles from 2 until p(hi) > 0. At the root t = sqrt(x),
    2a + (1-a)(t + 1/t) = eta_n < psi(a) < 3.2, so a hi above
    (3.2 - 2a)/(1 - a) with p(hi) <= 0 raises BracketError. Only the
    leading coefficient is positive, so once a Horner partial sum is
    negative it stays negative, and an overflow keeps the true sign of p.
    """
    _validate_alpha(alpha, upper_open=True)
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1.0
    p = phi_version2(n, alpha)
    bound = (3.2 - 2.0 * alpha) / (1.0 - alpha)
    hi = 2.0
    while p.eval_t(hi) <= 0.0:
        if hi > bound:
            raise BracketError(f"phi_version2({n}, {alpha}) <= 0 at t={hi} > {bound}")
        hi *= 2.0
    t = _bisect(p.eval_t, 1.0, hi, cfg)
    return t * t


def _eta_from_root(x: float, alpha: float) -> float:
    t = math.sqrt(x)
    return 2.0 * alpha + (1.0 - alpha) * (t + 1.0 / t)


def _version1_term(n: int, alpha: float, cfg: RootConfig) -> tuple:
    """(gamma_n, eta_n); eta_0 = 2 by definition."""
    root = gamma_n(n, alpha, cfg)
    return root, 2.0 if n == 0 else _eta_from_root(root, alpha)


def eta_n(n: int, alpha: float, cfg: RootConfig = DEFAULT_CONFIG) -> float:
    """2a + (1-a) (sqrt(g) + 1/sqrt(g)) at g = gamma_n(alpha).

    g is the root of phi_version1(n, alpha) in (0,1). Every coefficient of
    that polynomial is non-negative except its constant -(1-a)^2, so it has
    exactly one positive root, and bisection returns only at a sign change.
    The companion route through gamma_tilde_n is compared with this one in
    verify (route-equality), not here.
    """
    return _version1_term(n, alpha, cfg)[1]


def new_version_sequence(n: int, cfg: RootConfig = DEFAULT_CONFIG) -> tuple:
    """(delta_n, zeta_n): the alpha = 0 specialization of (gamma_n, eta_n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _version1_term(n, 0.0, cfg)


def laplacian_guo_wang(n: int, cfg: RootConfig = DEFAULT_CONFIG) -> tuple:
    """(mu_n, kappa_n): largest root of the Q-limit polynomial, kappa = 2 + sqrt(mu) + 1/sqrt(mu).

    The Q-limit polynomial x^(n+1) - (1 + x + ... + x^(n-1)) (sqrt(x) + 1)^2
    is 4 phi_version2(n, 1/2), so mu_n = gamma_tilde_n(n, 1/2).
    """
    mu = gamma_tilde_n(n, 0.5, cfg)
    t = math.sqrt(mu)
    return mu, 2.0 + t + 1.0 / t


def laplacian_new(n: int, cfg: RootConfig = DEFAULT_CONFIG) -> tuple:
    """(theta_n, xi_n) from the half-alpha polynomial; theta_0 = 1, xi_0 = 4.

    theta_n is the root in (0,1) of phi_version1(n, 1/2), a quarter of
    x^(n+1) + 2 sum_{i=0}^{n-1} x^(n-i+1/2) + 2 sum_{i=0}^{n-2} x^(i+2) + x - 1,
    so theta_n = gamma_n(n, 1/2) and xi_n = 2 eta_n(1/2).
    """
    theta = gamma_n(n, 0.5, cfg)
    t = math.sqrt(theta)
    return theta, 2.0 + t + 1.0 / t


# ---------------------------------------------------------------------------
# the limiting value Psi and the closed forms
# ---------------------------------------------------------------------------


def _psi_equation(lam: float, alpha: float) -> float:
    h = h_of_lambda(lam, alpha)
    a = alpha
    return ((1 - a * h) * lam * lam
            + 2 * ((a * a + 2 * a - 1) * h - 2 * a) * lam
            - (6 * a * a - 3 * a) * h + 2 * a * a + 2 * a - 1)


def psi(alpha: float, cfg: RootConfig = DEFAULT_CONFIG) -> float:
    """Supremum of the eta_n sequence: root of the pendant-pair equation on (2, 3].

    At lambda = (1-a)(theta + 1/theta) + 2a, theta in (0, 1), the equation is
    (a - 1) F(theta) / (theta^2 (1 - a + a theta)) with F(theta) =
    difference_poly_f(theta^2, a). Only the constant of F is negative, so F
    rises on theta > 0 and the equation, from a - 1 at lambda = 2, changes
    sign once on (2, inf): one bisection on [2, 3.2]. At lambda = 2 the
    bisection takes that proved value a - 1, which the float form can round
    to the wrong sign (at a = 1 - 2^-53 it gives +2.2e-16). psi(1) = 3.
    """
    _validate_alpha(alpha)
    if alpha == 1.0:
        return 3.0
    return _bisect(lambda l: alpha - 1.0 if l == 2.0 else _psi_equation(l, alpha),
                   2.0, 3.2, cfg)


def _psi_surds(alpha: float) -> dict:
    """The g0..g5 ingredients of the closed form, on principal branches."""
    a = alpha
    g0 = 11 * a**2 - 16 * a + 8
    g1 = (a - 1) ** 2 * (2 * a**2 + 2 * a - 1)
    g2 = math.sqrt(27.0) * a * (7 * a**2 - 12 * a + 6)
    g3 = (11 * a**6 - 86 * a**5 + 275 * a**4 - 432 * a**3 + 358 * a**2
          - 150 * a + 25)
    inner = complex((a - 1) * (17 * a**2 - 52 * a + 26)) - cmath.sqrt(complex(27 * g3))
    g4 = (1 - a) * inner ** (1.0 / 3.0)
    g5 = g0 - 2 * (g1 / g4 - g4)
    return {"g0": g0, "g1": g1, "g2": g2, "g3": g3, "g4": g4, "g5": g5}


def _real_part(val: complex, alpha: float, residue_tol: float) -> float:
    """val.real, or BranchSelectionError when |val.imag| > residue_tol."""
    if abs(val.imag) > residue_tol:
        raise BranchSelectionError(
            f"imaginary residue {val.imag:.3e} at alpha={alpha}"
        )
    return val.real


def psi_closed_form(alpha: float) -> float:
    """Surd expression for psi, evaluated in complex arithmetic.

    All fractional powers take the principal branch, in particular
    (-a)^(1/3) = a^(1/3) e^(i pi/3) for a > 0. The combination must come
    out real; a residue above PSI_RESIDUE_TOL raises BranchSelectionError.
    """
    _validate_alpha(alpha, upper_open=True)
    g = _psi_surds(alpha)
    val = (1.5 * alpha
           + cmath.sqrt(g["g0"] + g["g1"] / g["g4"] + g["g2"] / cmath.sqrt(g["g5"]) - g["g4"]) / math.sqrt(6.0)
           + cmath.sqrt(g["g5"] / 12.0))
    return _real_part(val, alpha, PSI_RESIDUE_TOL)


def omega1(alpha: float) -> float:
    """Limit of the star-with-tail family: (5a + 3 sqrt(2 - 4a + 3a^2)) / 2."""
    _validate_alpha(alpha, upper_open=True)
    return 0.5 * (5.0 * alpha + 3.0 * math.sqrt(2.0 - 4.0 * alpha + 3.0 * alpha**2))


def _omega2_equation(lam: float, alpha: float) -> float:
    a = alpha
    q = lam * lam - 3 * a * lam + a * a + 2 * a - 1
    cubic = lam**3 - 5 * a * lam**2 + (5 * a * a + 6 * a - 3) * lam - 8 * a * a + 4 * a
    h = h_of_lambda(lam, a)
    return (1 - a * h) * q * cubic - (a - (2 * a - 1) * h) * q * q


def omega2(alpha: float, cfg: RootConfig = DEFAULT_CONFIG) -> float:
    """Limit of the five-path-with-center-tail family: the root on (2, 3.5].

    Under psi's substitution the equation is (1-a)^3 G G2 / theta^5 with
    G = (1-a) theta^4 + a theta^3 + (1-a) theta^2 + a theta - (1-a) and
    G2 = -(G + 2(1-a)) < 0 on theta > 0. G rises there, so the equation
    changes sign once on (2, inf): one bisection on [2, 3.5]. At a = 0,
    G = F and omega2(0) = psi(0).
    """
    _validate_alpha(alpha, upper_open=True)
    return _bisect(lambda l: _omega2_equation(l, alpha), 2.0, 3.5, cfg)


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
    return _real_part(val, alpha, 1e-7)


# ---------------------------------------------------------------------------
# pendant-path limit operators
# ---------------------------------------------------------------------------


def _degree_bound(g: Graph, u: int, alpha: float, added_degree: int) -> float:
    """Strictly above the largest degree of g plus the paths at u, which
    bounds every rho(G + pendant paths) and so the limit."""
    return max(degree_bounds(g, alpha)[1], len(g.adj[u]) + added_degree, 2) + 0.25


def _pendant_limit(g: Graph, u: int, alpha: float, paths: int) -> float:
    """The least double at which u's root pivot f_u, loaded with `paths`
    infinite pendant paths, is positive; 2.0 if it is not negative at 2.

    For lambda >= 2 the pivots up a long pendant path settle on
    tau = (lambda - 2a + delta(lambda)) / 2, the attracting fixed point of
    f -> (lambda - 2a) - (1-a)^2 / f, so each infinite path adds a to u's
    diagonal and (1-a)^2 / tau = (1-a) theta, theta = (1-a) / tau, to the
    sum over its children. The loaded pivot f_u - paths * (a + (1-a) theta)
    is the characteristic equation (1 - a h) phi(G) - paths (a - (2a-1) h)
    phi(G)_u divided by (1 - a h) phi(G)_u, since (a - (2a-1) h) / (1 - a h)
    = a + (1-a) theta. f_u rises where the pivots below u are positive and
    the load falls, so the threshold is the one root above max(2, rho(G)).

    On a tree f_u is spectral._tree_pivot rooted at u, with no
    eigendecomposition; any other graph takes 1 / r(lambda) from
    spectral.vertex_resolvent above rho(G), and None at or below it. The
    loaded pivot is None below 2 too, and spectral._least_definite, the
    tree radius's search and certificate, returns its threshold.
    """
    _validate_alpha(alpha, upper_open=True)
    if not g.is_connected():
        raise ValueError("pendant-path limits need a connected graph")
    if not (0 <= u < g.n_vertices):
        raise ValueError(f"vertex {u} not in graph")
    pivot = _tree_pivot(g, u, alpha)
    if pivot is None:
        r = vertex_resolvent(g, u, alpha)

        def pivot(lam: float) -> float | None:
            return 1.0 / r(lam) if lam > r.top else None

    s = 1.0 - alpha

    def loaded(lam: float) -> float | None:
        f = pivot(lam) if lam >= 2.0 else None
        if f is None:
            return None
        tau = 0.5 * (lam - 2.0 * alpha + delta_of_lambda(lam, alpha))
        return f - paths * (alpha + s * (s / tau))  # f - paths exactly at 2

    f = loaded(2.0)
    if f is not None and f >= 0.0:
        return 2.0
    top = _degree_bound(g, u, alpha, paths)
    f = loaded(top)
    if f is None or f <= 0.0:
        raise BracketError(
            f"loaded pivot not positive at the degree bound {top} "
            f"(u={u}, alpha={alpha})")
    return _least_definite(loaded, loaded, 2.0, top)


def pendant_path_limit(g: Graph, u: int, alpha: float) -> float:
    """Limit of rho as one pendant path at u grows without bound.

    The largest root above 2 of
    (1 - a h) phi(G) - (a - (2a - 1) h) phi(G)_u = 0,
    or 2 when there is none (the path-like case): the least double at which
    u's root pivot, loaded with one infinite path, is positive (see
    _pendant_limit). A tree takes no eigendecomposition, any other graph
    one. Raises ValueError for alpha outside [0, 1), a disconnected G (the
    resolvent would see only the component of u) or u not a vertex of G,
    checked in that order, and BracketError when the loaded pivot is not
    positive at the degree bound, instead of returning a wrong value.
    """
    return _pendant_limit(g, u, alpha, 1)


def two_pendant_paths_limit(g: Graph, u: int, alpha: float) -> float:
    """Limit of rho as two pendant paths at u grow without bound.

    The largest root above 2 of
    (1 - a h) ((1 - a h) phi(G) - 2a phi(G)_u + 2(2a - 1) h phi(G)_u) = 0,
    or 2 when none exists. The factor 1 - a h is positive, so it is the
    threshold of u's root pivot loaded with two infinite paths, by the same
    routes and errors as pendant_path_limit.
    """
    return _pendant_limit(g, u, alpha, 2)


# ---------------------------------------------------------------------------
# substitutions
# ---------------------------------------------------------------------------


def theta_substitution(theta: float, alpha: float) -> float:
    """lambda = (1-a) theta + (1-a)/theta + 2a; theta and 1/theta agree."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    return (1.0 - alpha) * theta + (1.0 - alpha) / theta + 2.0 * alpha


# ---------------------------------------------------------------------------
# limit tables
# ---------------------------------------------------------------------------

EPSILON_SURD = ((54 - 6 * math.sqrt(33.0)) ** (1.0 / 3.0)
                + (54 + 6 * math.sqrt(33.0)) ** (1.0 / 3.0)) / 3.0


@dataclass(frozen=True)
class TableRow:
    n: int
    alpha: float
    gamma: float
    eta: float


@dataclass(frozen=True)
class LimitTable:
    rows: tuple
    limits: tuple = ()  # (alpha, value) pairs


def _classic_term(n: int, alpha: float, cfg: RootConfig) -> tuple:
    b = beta_n(n, cfg)
    return b, _eta_from_root(b, 0.0)


def _version2_term(n: int, alpha: float, cfg: RootConfig) -> tuple:
    root = gamma_tilde_n(n, alpha, cfg)
    return root, 2.0 if n == 0 else _eta_from_root(1.0 / root, alpha)


@dataclass(frozen=True)
class _TableKind:
    """Everything limit_table knows about one kind of table."""

    n_min: int
    term: object  # (n, alpha, cfg) -> (root, eta-like value) of row n
    fixed: tuple | None = None  # (alpha, limit) of a kind run at one alpha


_HOFFMAN_LIMIT = (0.0, math.sqrt(2.0 + math.sqrt(5.0)))
_TABLES = {
    "classic": _TableKind(1, _classic_term, _HOFFMAN_LIMIT),
    "versionI": _TableKind(0, _version1_term),
    "versionII": _TableKind(0, _version2_term),
    "new": _TableKind(1, _version1_term, _HOFFMAN_LIMIT),
    "laplacian": _TableKind(0, lambda n, alpha, cfg: laplacian_new(n, cfg),
                            (0.5, 2.0 + EPSILON_SURD)),
}
TABLE_KINDS = tuple(_TABLES)


def limit_table(kind: str, n_max: int, alphas=None,
                cfg: RootConfig = DEFAULT_CONFIG) -> LimitTable:
    """Rows (n, alpha, root, eta-like value) plus the limiting value rows.

    Each kind's first n, row term and limit are its _TABLES entry. classic
    and new start at n = 1 at alpha 0, with limit sqrt(2 + sqrt 5), and
    laplacian (2 eta at alpha 1/2) ends in 2 + EPSILON_SURD; these three
    take no alphas (ValueError). versionI and versionII start at n = 0, run
    at each of alphas, any iterable read once (default 0; none at all is a
    ValueError), and end in psi(alpha).
    """
    spec = _TABLES.get(kind)
    if spec is None:
        raise ValueError(f"unknown table kind {kind!r}")
    if n_max < spec.n_min:
        raise ValueError(f"{kind} table needs n_max >= {spec.n_min}")
    if spec.fixed is not None and alphas is not None:
        raise ValueError(f"{kind} table runs at alpha {spec.fixed[0]:g} only")
    if alphas is None:
        alphas = (0.0,) if spec.fixed is None else (spec.fixed[0],)
    alphas = tuple(alphas)  # rows and limits both walk it
    if not alphas:
        raise ValueError(f"{kind} table needs at least one alpha")
    rows = tuple(TableRow(n, alpha, *spec.term(n, alpha, cfg))
                 for alpha in alphas for n in range(spec.n_min, n_max + 1))
    limits = (spec.fixed,) if spec.fixed is not None else tuple(
        (alpha, psi(alpha, cfg)) for alpha in alphas)
    return LimitTable(rows, limits)
