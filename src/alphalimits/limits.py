"""Limit points of the alpha-adjacency spectral radius.

Every sequence value here is the root of an explicit polynomial.
Expressions carrying half-integer powers of x are stored as ordinary
polynomials in t with x = t*t, so root isolation is plain bisection in t
to adjacent doubles, with no tolerance to set.
Two builders, phi_version1 and phi_version2, give every sequence
polynomial: Hoffman's classical polynomial is phi_version2 at alpha 0, and
the signless Laplacian polynomials are phi_version1 and phi_version2 at
alpha 1/2, a quarter of their usual integer forms, so those sequences are
beta_n, gamma_n and gamma_tilde_n at one alpha. Psi, omega2 and the
pendant-path limits are spectral thresholds instead, found in spectral
beside the tree radius, by the same search and certificate: the least
double at which a vertex's root pivot, loaded with infinite pendant paths,
is positive. The pendant-path limit operators work on any connected graph;
psi and omega2 are such limits on P_2 and P_5, taken from their spider
plans with no graph. The routes kept only to cross-check these (the theta
substitution, omega2's closed form and the one-step difference of
phi_version1) live in verify. BracketError is spectral's, the one class
both modules raise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .spectral import BracketError, _pendant_limit, _spider_limit, _validate_alpha


class BranchSelectionError(RuntimeError):
    """A closed-form surd combination failed to come out real."""


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


def _bisect(f, lo: float, hi: float) -> float:
    """Bisection on [lo, hi] to adjacent doubles; endpoints may sit exactly
    on the root.

    Stops when f is zero at the midpoint or when the bracket is two
    adjacent doubles, so the double returned is within one ulp of where
    f's computed sign changes; raises BracketError when MAX_HALVINGS
    halvings reach neither.
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
        if fmid == 0.0:
            return mid
        if (flo < 0) != (fmid < 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    raise BracketError(
        f"bracket [{lo}, {hi}] not down to adjacent doubles after "
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


# ---------------------------------------------------------------------------
# the eta sequences and their relatives
# ---------------------------------------------------------------------------


def beta_n(n: int) -> float:
    """Unique root >= 1 of x^(n+1) - (1 + x + ... + x^(n-1)); beta_1 = 1.

    That is Hoffman's classical sequence polynomial, phi_version2(n, 0).
    """
    p = phi_version2(n, 0.0)
    t = _bisect(p.eval_t, 1.0, math.sqrt(2.0))
    return t * t


def eta_classic(n: int) -> float:
    """beta_n^(1/2) + beta_n^(-1/2); starts at 2 and climbs to sqrt(2+sqrt5)."""
    return _eta_from_root(beta_n(n), 0.0)


def gamma_n(n: int, alpha: float) -> float:
    """The root of phi_version1 in (0,1]; gamma_0 = 1 by definition."""
    _validate_alpha(alpha, upper_open=True)
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1.0
    p = phi_version1(n, alpha)
    t = _bisect(p.eval_t, 0.0, 1.0)
    return t * t


def gamma_tilde_n(n: int, alpha: float) -> float:
    """The root of phi_version2 in [1, inf); equals 1/gamma_n.

    At the root t = sqrt(x), 2a + (1-a)(t + 1/t) = eta_n < psi(a) < 3.2,
    so t lies in [1, (3.2 - 2a)/(1 - a)), and that bracket is bisected with
    no search for it; _bisect's sign check raises BracketError if p does
    not change sign on it. Only the leading coefficient is positive, so
    once a Horner partial sum is negative it stays negative, and an
    overflow keeps the true sign of p.
    """
    _validate_alpha(alpha, upper_open=True)
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1.0
    p = phi_version2(n, alpha)
    t = _bisect(p.eval_t, 1.0, (3.2 - 2.0 * alpha) / (1.0 - alpha))
    return t * t


def _eta_from_root(x: float, alpha: float) -> float:
    t = math.sqrt(x)
    return 2.0 * alpha + (1.0 - alpha) * (t + 1.0 / t)


def _version1_term(n: int, alpha: float) -> tuple:
    """(gamma_n, eta_n); gamma_0 = 1 gives eta_0 = 2 exactly, as
    2a + 2 fl(1 - a) rounds to 2 for every a in [0, 1)."""
    root = gamma_n(n, alpha)
    return root, _eta_from_root(root, alpha)


def eta_n(n: int, alpha: float) -> float:
    """2a + (1-a) (sqrt(g) + 1/sqrt(g)) at g = gamma_n(alpha).

    g is the root of phi_version1(n, alpha) in (0,1). Every coefficient of
    that polynomial is non-negative except its constant -(1-a)^2, so it has
    exactly one positive root, and bisection returns only at a sign change.
    The companion route through gamma_tilde_n is compared with this one in
    verify (route-equality), not here.
    """
    return _version1_term(n, alpha)[1]


def new_version_sequence(n: int) -> tuple:
    """(delta_n, zeta_n): the alpha = 0 specialization of (gamma_n, eta_n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _version1_term(n, 0.0)


def laplacian_guo_wang(n: int) -> tuple:
    """(mu_n, kappa_n): largest root of the Q-limit polynomial, kappa = 2 + sqrt(mu) + 1/sqrt(mu).

    The Q-limit polynomial x^(n+1) - (1 + x + ... + x^(n-1)) (sqrt(x) + 1)^2
    is 4 phi_version2(n, 1/2), so mu_n = gamma_tilde_n(n, 1/2).
    """
    mu = gamma_tilde_n(n, 0.5)
    t = math.sqrt(mu)
    return mu, 2.0 + t + 1.0 / t


def laplacian_new(n: int) -> tuple:
    """(theta_n, xi_n) from the half-alpha polynomial; theta_0 = 1, xi_0 = 4.

    theta_n is the root in (0,1) of phi_version1(n, 1/2), a quarter of
    x^(n+1) + 2 sum_{i=0}^{n-1} x^(n-i+1/2) + 2 sum_{i=0}^{n-2} x^(i+2) + x - 1,
    so theta_n = gamma_n(n, 1/2) and xi_n = 2 eta_n(1/2).
    """
    theta = gamma_n(n, 0.5)
    t = math.sqrt(theta)
    return theta, 2.0 + t + 1.0 / t


# ---------------------------------------------------------------------------
# the limiting value Psi and its closed form
# ---------------------------------------------------------------------------


def psi(alpha: float) -> float:
    """Supremum of the eta_n sequence: the limit of rho of p2_two_paths(n, n).

    The spectral threshold of vertex 0 of P_2 loaded with two infinite
    pendant paths, two_pendant_paths_limit(path(2), 0, alpha) bit for bit,
    from that spider's plan (spectral._spider_limit), with no graph and no
    tol: the least double at which the loaded pivot
    W(lambda) = delta(lambda) - alpha - (1-alpha)^2 / (lambda - alpha) is
    positive. Its root is lambda = (1-a)(theta + 1/theta) + 2a at the root
    theta in (0, 1) of F(theta) = verify.difference_poly_f(theta^2, a).
    psi(1) = 3.
    """
    _validate_alpha(alpha)
    if alpha == 1.0:
        return 3.0
    return _spider_limit(0, [(1, 1)], alpha, 2)


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


def omega2(alpha: float) -> float:
    """Limit of the five-path-with-center-tail family.

    The spectral threshold of the middle vertex of P_5 loaded with one
    infinite pendant path, pendant_path_limit(path(5), 2, alpha) bit for
    bit, from that spider's plan (spectral._spider_limit) with no graph and
    no tol. Under psi's substitution theta is the root in (0, 1) of
    G = (1-a) theta^4 + a theta^3 + (1-a) theta^2 + a theta - (1-a). At
    a = 0, G = F and omega2(0) = psi(0).
    """
    return _spider_limit(2, [(0, 2), (4, 2)], alpha, 1)


# ---------------------------------------------------------------------------
# pendant-path limit operators
# ---------------------------------------------------------------------------


def pendant_path_limit(g: Graph, u: int, alpha: float) -> float:
    """Limit of rho as one pendant path at u grows without bound.

    The largest root above 2 of
    (1 - a h) phi(G) - (a - (2a - 1) h) phi(G)_u = 0,
    or 2 when there is none (the path-like case): the least double at which
    u's root pivot, loaded with one infinite path, is positive (see
    spectral._pendant_limit). A tree takes no eigendecomposition, any
    other graph one. Raises ValueError for alpha outside [0, 1), a
    disconnected G (the resolvent would see only the component of u) or u
    not a vertex of G, checked in that order, and BracketError when the
    loaded pivot is not positive at the degree bound, instead of returning
    a wrong value.
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


def _classic_term(n: int, alpha: float) -> tuple:
    b = beta_n(n)
    return b, _eta_from_root(b, 0.0)


def _version2_term(n: int, alpha: float) -> tuple:
    root = gamma_tilde_n(n, alpha)
    return root, _eta_from_root(1.0 / root, alpha)


@dataclass(frozen=True)
class _TableKind:
    """Everything limit_table knows about one kind of table."""

    n_min: int
    term: object  # (n, alpha) -> (root, eta-like value) of row n
    fixed: tuple | None = None  # (alpha, limit) of a kind run at one alpha


_HOFFMAN_LIMIT = (0.0, math.sqrt(2.0 + math.sqrt(5.0)))
_TABLES = {
    "classic": _TableKind(1, _classic_term, _HOFFMAN_LIMIT),
    "versionI": _TableKind(0, _version1_term),
    "versionII": _TableKind(0, _version2_term),
    "new": _TableKind(1, _version1_term, _HOFFMAN_LIMIT),
    "laplacian": _TableKind(0, lambda n, alpha: laplacian_new(n),
                            (0.5, 2.0 + EPSILON_SURD)),
}
TABLE_KINDS = tuple(_TABLES)


def limit_table(kind: str, n_max: int, alphas=None) -> LimitTable:
    """Rows (n, alpha, root, eta-like value) plus the limiting value rows.

    Each kind's first n, row term and limit are its _TABLES entry. classic
    and new start at n = 1 at alpha 0, with limit sqrt(2 + sqrt 5), and
    laplacian (2 eta at alpha 1/2) ends in 2 + EPSILON_SURD; these three
    take no alphas (ValueError). versionI and versionII start at n = 0, run
    at each of alphas in the given order, any iterable read once (default
    0; none at all, or one alpha given twice, is a ValueError), and end in
    psi(alpha).
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
    if len(set(alphas)) < len(alphas):
        raise ValueError(f"{kind} table got a repeated alpha")
    rows = tuple(TableRow(n, alpha, *spec.term(n, alpha))
                 for alpha in alphas for n in range(spec.n_min, n_max + 1))
    limits = (spec.fixed,) if spec.fixed is not None else tuple(
        (alpha, psi(alpha)) for alpha in alphas)
    return LimitTable(rows, limits)
