"""Limit points of the alpha-adjacency spectral radius.

Every limit value here is the root of an explicit polynomial or of a
characteristic equation in lambda. Expressions carrying half-integer
powers of x are stored as ordinary polynomials in t with x = t*t, so root
isolation is plain bisection in t. Two builders, phi_version1 and
phi_version2, give every sequence polynomial: Hoffman's classical
polynomial is phi_version2 at alpha 0, and the signless Laplacian
polynomials are phi_version1 and phi_version2 at alpha 1/2, a quarter of
their usual integer forms. The largest roots of the psi, omega2
and Q-limit equations are bracketed by a descending scan and then
bisected. The pendant-path limit operators work on any connected graph:
they divide their characteristic equation by phi(G), which leaves the
resolvent entry r(lambda) = [(lambda I - A_alpha(G))^-1]_uu from one
eigendecomposition, and bisect on (max(2, rho(G)), degree bound].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .spectral import delta_of_lambda, h_of_lambda, vertex_resolvent


class BracketError(RuntimeError):
    """No sign change where a root was asserted to exist."""


class BranchSelectionError(RuntimeError):
    """A closed-form surd combination failed to come out real."""


@dataclass(frozen=True)
class RootConfig:
    """Tolerances for root isolation (tol applies to the t variable)."""

    tol: float = 1e-13
    max_iter: int = 200

    def __post_init__(self):
        if not (0 < self.tol < math.inf):
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_CONFIG = RootConfig()
# Grid points of the descending scan that brackets a largest root.
SCAN_POINTS = 512


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

    @property
    def degree_t(self) -> int:
        return len(self.coeffs) - 1


# ---------------------------------------------------------------------------
# root isolation
# ---------------------------------------------------------------------------


def _bisect(f, lo: float, hi: float, cfg: RootConfig) -> float:
    """Bisection on [lo, hi]; endpoints may sit exactly on the root.

    Stops once the bracket is narrower than cfg.tol, or once it can no
    longer be halved in double precision; raises BracketError when
    cfg.max_iter halvings reach neither.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise BracketError(f"no sign change on [{lo}, {hi}]")
    for _ in range(cfg.max_iter):
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
        f"{cfg.max_iter} iterations")


def _largest_root_descending(f, hi: float, lo: float, cfg: RootConfig) -> float | None:
    """First sign change scanning from hi down to lo, refined by bisection."""
    grid = np.linspace(hi, lo, SCAN_POINTS)
    prev_x = grid[0]
    prev_v = f(prev_x)
    if prev_v == 0.0:
        return float(prev_x)
    for x in grid[1:]:
        v = f(x)
        if v == 0.0:
            return float(x)
        if prev_v * v < 0:
            return _bisect(f, float(x), float(prev_x), cfg)
        prev_x, prev_v = x, v
    return None


# ---------------------------------------------------------------------------
# defining polynomials
# ---------------------------------------------------------------------------


def phi_version1(n: int, alpha: float) -> HalfPoly:
    """The increasing half-power polynomial whose root in (0,1) drives eta_n.

    (1-a)^2 x^(n+1) + 2a(1-a) * sum_{i=0}^{n-1} x^(n-i+1/2)
    + (1-2a+2a^2) * sum_{i=0}^{n-2} x^(i+2) + a^2 x - (1-a)^2.
    """
    _check_alpha_unit(alpha)
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
    _check_alpha_unit(alpha)
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


def _check_alpha_unit(alpha: float) -> None:
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0,1), got {alpha}")


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
    t = math.sqrt(beta_n(n, cfg))
    return t + 1.0 / t


def gamma_n(n: int, alpha: float, cfg: RootConfig = DEFAULT_CONFIG) -> float:
    """The root of phi_version1 in (0,1]; gamma_0 = 1 by definition."""
    _check_alpha_unit(alpha)
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1.0
    p = phi_version1(n, alpha)
    t = _bisect(p.eval_t, 0.0, 1.0, cfg)
    return t * t


def gamma_tilde_n(n: int, alpha: float, cfg: RootConfig = DEFAULT_CONFIG) -> float:
    """The root of phi_version2 in [1, inf); equals 1/gamma_n."""
    _check_alpha_unit(alpha)
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1.0
    p = phi_version2(n, alpha)
    if p.eval_t(1.0) == 0.0:
        return 1.0
    hi = 2.0
    while p.eval_t(hi) <= 0.0:
        hi *= 2.0
        if hi > 2.0**24:
            raise BracketError("no positive value found while expanding the bracket")
    t = _bisect(p.eval_t, 1.0, hi, cfg)
    return t * t


def _eta_from_root(x: float, alpha: float) -> float:
    t = math.sqrt(x)
    return 2.0 * alpha + (1.0 - alpha) * (t + 1.0 / t)


def eta_n(n: int, alpha: float, cfg: RootConfig = DEFAULT_CONFIG) -> float:
    """2a + (1-a) (sqrt(g) + 1/sqrt(g)) at g = gamma_n(alpha).

    g is the root of phi_version1(n, alpha) in (0,1). Every coefficient of
    that polynomial is non-negative except its constant -(1-a)^2, so it has
    exactly one positive root, and bisection returns only at a sign change.
    The companion route through gamma_tilde_n is compared with this one in
    verify (route-equality), not here.
    """
    _check_alpha_unit(alpha)
    if n == 0:
        return 2.0
    return _eta_from_root(gamma_n(n, alpha, cfg), alpha)


def new_version_sequence(n: int, cfg: RootConfig = DEFAULT_CONFIG) -> tuple:
    """(delta_n, zeta_n): the alpha = 0 specialization of (gamma_n, eta_n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    d = gamma_n(n, 0.0, cfg)
    return d, _eta_from_root(d, 0.0)


def laplacian_guo_wang(n: int, cfg: RootConfig = DEFAULT_CONFIG) -> tuple:
    """(mu_n, kappa_n): largest root of the Q-limit polynomial, kappa = 2 + sqrt(mu) + 1/sqrt(mu).

    The Q-limit polynomial x^(n+1) - (1 + x + ... + x^(n-1)) (sqrt(x) + 1)^2
    is 4 phi_version2(n, 1/2); its root is scanned for on t in [1, 2].
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1.0, 4.0
    p = phi_version2(n, 0.5)
    t = _largest_root_descending(p.eval_t, 2.0, 1.0, cfg)
    if t is None:
        raise BracketError(f"no root of the Q-limit polynomial found for n={n}")
    return t * t, 2.0 + t + 1.0 / t


def laplacian_new(n: int, cfg: RootConfig = DEFAULT_CONFIG) -> tuple:
    """(theta_n, xi_n) from the half-alpha polynomial; theta_0 = 1, xi_0 = 4.

    theta_n is the root in (0,1) of phi_version1(n, 1/2), a quarter of
    x^(n+1) + 2 sum_{i=0}^{n-1} x^(n-i+1/2) + 2 sum_{i=0}^{n-2} x^(i+2) + x - 1,
    and xi_n = 2 eta_n(1/2).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1.0, 4.0
    p = phi_version1(n, 0.5)
    t = _bisect(p.eval_t, 0.0, 1.0, cfg)
    return t * t, 2.0 + t + 1.0 / t


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
    """Supremum of the eta_n sequence: largest root of the quadratic-in-lambda
    pendant-pair equation on (2, 3]; psi(1) = 3 by continuity."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    if alpha == 1.0:
        return 3.0
    r = _largest_root_descending(lambda l: _psi_equation(l, alpha), 3.2, 2.0, cfg)
    if r is None:
        raise BracketError(f"no root of the psi equation found for alpha={alpha}")
    return r


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


def psi_closed_form(alpha: float, residue_tol: float = 1e-8) -> float:
    """Surd expression for psi, evaluated in complex arithmetic.

    All fractional powers take the principal branch, in particular
    (-a)^(1/3) = a^(1/3) e^(i pi/3) for a > 0. The combination must come
    out real; a larger imaginary residue raises BranchSelectionError.
    """
    _check_alpha_unit(alpha)
    g = _psi_surds(alpha)
    val = (1.5 * alpha
           + cmath.sqrt(g["g0"] + g["g1"] / g["g4"] + g["g2"] / cmath.sqrt(g["g5"]) - g["g4"]) / math.sqrt(6.0)
           + cmath.sqrt(g["g5"] / 12.0))
    if abs(val.imag) > residue_tol:
        raise BranchSelectionError(
            f"imaginary residue {val.imag:.3e} at alpha={alpha}"
        )
    return val.real


def omega1(alpha: float) -> float:
    """Limit of the star-with-tail family: (5a + 3 sqrt(2 - 4a + 3a^2)) / 2."""
    _check_alpha_unit(alpha)
    return 0.5 * (5.0 * alpha + 3.0 * math.sqrt(2.0 - 4.0 * alpha + 3.0 * alpha**2))


def _omega2_equation(lam: float, alpha: float) -> float:
    a = alpha
    q = lam * lam - 3 * a * lam + a * a + 2 * a - 1
    cubic = lam**3 - 5 * a * lam**2 + (5 * a * a + 6 * a - 3) * lam - 8 * a * a + 4 * a
    h = h_of_lambda(lam, a)
    return (1 - a * h) * q * cubic - (a - (2 * a - 1) * h) * q * q


def omega2(alpha: float, cfg: RootConfig = DEFAULT_CONFIG) -> float:
    """Limit of the five-path-with-center-tail family: largest root on (2, 3.5]."""
    _check_alpha_unit(alpha)
    r = _largest_root_descending(lambda l: _omega2_equation(l, alpha), 3.5, 2.0, cfg)
    if r is None:
        raise BracketError(f"no root of the omega2 equation found for alpha={alpha}")
    return r


def omega2_closed_form(alpha: float, residue_tol: float = 1e-7) -> float:
    """Quartic-solution surd form of omega2; cross-check for the root route."""
    _check_alpha_unit(alpha)
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
    if abs(val.imag) > residue_tol:
        raise BranchSelectionError(
            f"imaginary residue {val.imag:.3e} at alpha={alpha}"
        )
    return val.real


# ---------------------------------------------------------------------------
# pendant-path limit operators
# ---------------------------------------------------------------------------


def _degree_bound(g: Graph, u: int, added_degree: int) -> float:
    """Strictly above the largest degree of g plus the paths at u, which
    bounds every rho(G + pendant paths) and so the limit."""
    degs = g.degrees()
    return float(max(int(degs.max(initial=0)), int(degs[u]) + added_degree, 2)) + 0.25


def _pendant_limit(g: Graph, u: int, alpha: float, paths: int,
                   cfg: RootConfig) -> float:
    """Largest root of (1 - a h) - paths * (a - (2a - 1) h) r(lambda) above 2.

    This is the characteristic equation of G with `paths` pendant paths at
    u grown without bound, divided by phi(G) > 0. The coefficient
    a - (2a - 1) h = a (1 - h) + h (1 - a) is positive since h lies in
    (0, 1] for lambda >= 2, and r(lambda) rises to +infinity as lambda
    falls to rho(G), so the left side falls to -infinity there. Deleting u
    from G + P_k leaves blocks with spectra at most max(2, rho(G)), so by
    interlacing at most one eigenvalue of G + P_k, and hence at most one
    root of the limit equation, lies above that point.
    """
    _check_alpha_unit(alpha)
    if not g.is_connected():
        raise ValueError("pendant-path limits need a connected graph")
    r = vertex_resolvent(g, u, alpha)
    rho = r.top

    def eq(lam: float) -> float:
        if lam <= rho:
            return -math.inf  # at or below the pole
        h = h_of_lambda(lam, alpha)
        return (1 - alpha * h) - paths * (alpha - (2 * alpha - 1) * h) * r(lam)

    if rho < 2.0 and eq(2.0) >= 0.0:
        return 2.0
    top = _degree_bound(g, u, paths)
    if eq(top) <= 0.0:
        raise BracketError(
            f"pendant equation not positive at the degree bound {top} "
            f"(u={u}, alpha={alpha})")
    return _bisect(eq, max(2.0, rho), top, cfg)


def pendant_path_limit(g: Graph, u: int, alpha: float,
                       cfg: RootConfig = DEFAULT_CONFIG) -> float:
    """Limit of rho as one pendant path at u grows without bound.

    The largest root above 2 of
    (1 - a h) phi(G) - (a - (2a - 1) h) phi(G)_u = 0,
    or 2 when the equation has no root there (the path-like case). It is
    found as the root of (1 - a h) - (a - (2a - 1) h) r(lambda) on
    (max(2, rho(G)), degree bound], with r(lambda) = phi(G)_u / phi(G)
    the resolvent entry at u from one eigendecomposition of A_alpha(G).
    G must be connected (ValueError otherwise: the resolvent would see only
    the component of u). Raises BracketError when the equation is not
    positive at the degree bound, instead of returning a wrong value.
    """
    return _pendant_limit(g, u, alpha, 1, cfg)


def two_pendant_paths_limit(g: Graph, u: int, alpha: float,
                            cfg: RootConfig = DEFAULT_CONFIG) -> float:
    """Limit of rho as two pendant paths at u grow without bound.

    The largest root above 2 of
    (1 - a h) ((1 - a h) phi(G) - 2a phi(G)_u + 2(2a - 1) h phi(G)_u) = 0,
    or 2 when none exists. The factor 1 - a h is positive, so it is found
    as the root of (1 - a h) - 2 (a - (2a - 1) h) r(lambda), by the same
    resolvent route, bracket and errors as pendant_path_limit.
    """
    return _pendant_limit(g, u, alpha, 2, cfg)


# ---------------------------------------------------------------------------
# substitutions
# ---------------------------------------------------------------------------


def theta_substitution(theta: float, alpha: float) -> float:
    """lambda = (1-a) theta + (1-a)/theta + 2a; theta and 1/theta agree."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    return (1.0 - alpha) * theta + (1.0 - alpha) / theta + 2.0 * alpha


def theta_from_lambda(lam: float, alpha: float) -> float:
    """The branch of the inverse substitution inside (0,1); needs lambda > 2."""
    if lam <= 2.0:
        raise ValueError("inverse substitution needs lambda > 2")
    if alpha >= 1.0:
        raise ValueError("inverse substitution needs alpha < 1")
    return ((lam - 2.0 * alpha) - delta_of_lambda(lam, alpha)) / (2.0 * (1.0 - alpha))


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


def _version1_term(n: int, alpha: float, cfg: RootConfig) -> tuple:
    root = gamma_n(n, alpha, cfg)
    return root, 2.0 if n == 0 else _eta_from_root(root, alpha)


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
    "new": _TableKind(1, lambda n, alpha, cfg: new_version_sequence(n, cfg),
                      _HOFFMAN_LIMIT),
    "laplacian": _TableKind(0, lambda n, alpha, cfg: laplacian_new(n, cfg),
                            (0.5, 2.0 + EPSILON_SURD)),
}
TABLE_KINDS = tuple(_TABLES)


def limit_table(kind: str, n_max: int, alphas=(0.0,),
                cfg: RootConfig = DEFAULT_CONFIG) -> LimitTable:
    """Rows (n, alpha, root, eta-like value) plus the limiting value rows.

    Each kind's first n, row term and limit are its _TABLES entry. classic
    and new start at n = 1 and run at alpha 0 regardless of the alphas
    argument, with limit sqrt(2 + sqrt 5); laplacian is the signless
    Laplacian sequence (2 eta at alpha 1/2), with limit 2 + EPSILON_SURD;
    versionI and versionII start at n = 0 and end in psi(alpha).
    """
    spec = _TABLES.get(kind)
    if spec is None:
        raise ValueError(f"unknown table kind {kind!r}")
    if n_max < spec.n_min:
        raise ValueError(f"{kind} table needs n_max >= {spec.n_min}")
    if spec.fixed is not None:
        alphas = (spec.fixed[0],)
    rows = tuple(TableRow(n, alpha, *spec.term(n, alpha, cfg))
                 for alpha in alphas for n in range(spec.n_min, n_max + 1))
    limits = (spec.fixed,) if spec.fixed is not None else tuple(
        (alpha, psi(alpha, cfg)) for alpha in alphas)
    return LimitTable(rows, limits)
