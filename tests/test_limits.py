"""Root sequences, limiting values, closed forms and the pendant-path operators.

Derived reference values are cross-checked against independent routes:
companion-matrix eigenvalues (numpy.roots) for polynomial roots, exact
surd expressions where one exists, frozen regression decimals that
were produced by a separate bisection implementation, and, for the
pendant-path limits, the determinant form of their equation, the
radii of long finite paths and, on trees, the dense resolvent route.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from alphalimits.graphs import Graph, attach_pendant_path, cycle, parse_graph, path, star
from alphalimits.spectral import (
    assemble_a_alpha,
    char_poly_eval,
    h_of_lambda,
    radius_of,
    vertex_resolvent,
)
from alphalimits.verify import random_connected_graph, random_tree
from alphalimits import limits as L
from alphalimits import spectral
from alphalimits.limits import (
    BracketError,
    BranchSelectionError,
    HalfPoly,
    RootConfig,
    beta_n,
    difference_poly_f,
    eta_classic,
    eta_n,
    gamma_n,
    gamma_tilde_n,
    laplacian_guo_wang,
    laplacian_new,
    limit_table,
    new_version_sequence,
    omega1,
    omega2,
    omega2_closed_form,
    pendant_path_limit,
    phi_version1,
    phi_version2,
    psi,
    psi_closed_form,
    theta_substitution,
    two_pendant_paths_limit,
)

SQRT_2_PLUS_SQRT5 = math.sqrt(2.0 + math.sqrt(5.0))


def roots_oracle(coeffs_ascending):
    """Real positive roots via the companion matrix, an independent route."""
    r = np.roots(list(reversed(coeffs_ascending)))
    real = r[np.abs(r.imag) < 1e-9].real
    return sorted(float(x) for x in real if x > 0)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def test_half_poly_evaluation():
    p = HalfPoly((0.0, 1.0, 2.0))  # sqrt(x) + 2x
    assert abs(p(4.0) - (2.0 + 8.0)) < 1e-14
    assert abs(p.eval_t(3.0) - (3.0 + 18.0)) < 1e-14


def test_root_config_validation():
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            RootConfig(tol=tol)


def test_bisect_raises_without_sign_change():
    with pytest.raises(BracketError):
        L._bisect(lambda t: t * t + 1.0, 0.0, 1.0, L.DEFAULT_CONFIG)


def test_bisect_raises_when_iterations_run_out(monkeypatch):
    monkeypatch.setattr(L, "MAX_HALVINGS", 5)
    with pytest.raises(BracketError):
        gamma_n(3, 0.3)


def test_bisect_stops_at_double_resolution():
    fine = RootConfig(tol=1e-300)
    t = L._bisect(lambda x: x * x - 2.0, 1.0, 2.0, fine)
    assert abs(t - math.sqrt(2.0)) <= math.ulp(t)
    assert abs(psi(0.3, fine) - psi(0.3)) < 1e-13


def test_classic_polynomial_values():
    p = phi_version2(3, 0.0)  # x^4 - x^2 - x - 1
    assert abs(p(2.0) - (16.0 - 4.0 - 2.0 - 1.0)) < 1e-12
    assert abs(p(1.0) - (1 - 3)) < 1e-12


def test_version1_polynomial_against_direct_sum():
    for n in (1, 2, 6):
        for alpha in (0.0, 0.3, 0.75):
            for x in (0.2, 0.5, 0.9):
                a = alpha
                direct = ((1 - a) ** 2 * x ** (n + 1)
                          + 2 * a * (1 - a) * sum(x ** (n - i + 0.5) for i in range(n))
                          + (1 - 2 * a + 2 * a * a) * sum(x ** (i + 2) for i in range(n - 1))
                          + a * a * x - (1 - a) ** 2)
                assert abs(phi_version1(n, alpha)(x) - direct) < 1e-13


def test_version2_polynomial_against_direct_sum():
    for n in (1, 2, 6):
        for alpha in (0.0, 0.3, 0.75):
            for x in (1.1, 1.6, 2.5):
                a = alpha
                direct = ((1 - a) ** 2 * x ** (n + 1) - a * a * x ** n
                          - 2 * a * (1 - a) * sum(x ** (n - i + 0.5) for i in range(1, n + 1))
                          - (1 - 2 * a + 2 * a * a) * sum(x ** i for i in range(1, n))
                          - (1 - a) ** 2)
                assert abs(phi_version2(n, alpha)(x) - direct) < 1e-12


def test_version1_at_alpha_zero_collapses():
    # x^(n+1) + x^n + ... + x^2 - 1, all half powers gone
    for n in (1, 4):
        for x in (0.3, 0.8):
            expect = sum(x ** k for k in range(2, n + 2)) - 1.0
            assert abs(phi_version1(n, 0.0)(x) - expect) < 1e-14


def test_version1_value_at_one():
    for n in (1, 2, 5, 12):
        for a in (0.0, 0.25, 0.5, 0.9):
            expect = 2 * a * (1 - a) * n + (1 - 2 * a + 2 * a * a) * (n - 1) + a * a
            assert abs(phi_version1(n, a)(1.0) - expect) < 1e-12
            if n == 1 and a == 0.0:
                assert expect == 0.0  # the single case whose root is exactly 1
            else:
                assert expect > 0


def test_classic_to_version1_transform():
    # phi_version1 at alpha=0 is -x^(n+1) times the classic polynomial at 1/x
    for n in (1, 3, 8):
        for x in (0.2, 0.6, 0.9):
            lhs = phi_version1(n, 0.0)(x)
            rhs = -(x ** (n + 1)) * phi_version2(n, 0.0)(1.0 / x)
            assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# the root sequences
# ---------------------------------------------------------------------------


def test_beta_sequence_anchors():
    assert abs(beta_n(1) - 1.0) < 1e-13
    plastic = roots_oracle([-1.0, -1.0, 0.0, 1.0])[-1]  # x^3 - x - 1
    assert abs(beta_n(2) - plastic) < 5e-13
    assert abs(eta_classic(1) - 2.0) < 1e-12
    t = math.sqrt(plastic)
    assert abs(eta_classic(2) - (t + 1.0 / t)) < 5e-13


def test_eta_classic_approaches_the_supremum():
    vals = [eta_classic(n) for n in (5, 10, 20, 40)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < SQRT_2_PLUS_SQRT5
    assert SQRT_2_PLUS_SQRT5 - vals[-1] < 1e-7


def test_eta_zero_validates_alpha():
    assert eta_n(0, 0.4) == 2.0
    for alpha in (5.0, -1.0, 1.0, math.nan):
        with pytest.raises(ValueError):
            eta_n(0, alpha)


def test_gamma_edges():
    assert gamma_n(0, 0.4) == 1.0
    assert gamma_n(1, 0.0) == 1.0
    assert gamma_tilde_n(1, 0.0) == 1.0
    with pytest.raises(ValueError):
        gamma_n(2, 1.0)
    with pytest.raises(ValueError):
        gamma_n(-1, 0.3)


def test_gamma_against_companion_matrix():
    # integer t-power coefficients feed an independent eigenvalue root-finder
    for n, alpha in ((2, 0.25), (4, 0.5), (7, 0.8)):
        coeffs = phi_version1(n, alpha).coeffs
        cands = [x for x in roots_oracle(list(coeffs)) if x < 1.0 - 1e-9]
        assert cands, "expected a root below 1"
        t_root = cands[-1]
        assert abs(gamma_n(n, alpha) - t_root * t_root) < 5e-12


def test_gamma_reciprocal_duality():
    for n in (1, 3, 9, 22):
        for alpha in (0.0, 0.2, 0.55, 0.9):
            assert abs(gamma_n(n, alpha) * gamma_tilde_n(n, alpha) - 1.0) < 1e-11


@pytest.mark.parametrize("k", (24, 30, 40, 52))
def test_gamma_tilde_n_near_alpha_one_is_certified(k):
    # the root in t is about 1/(1 - alpha) = 2^k, at or past a fixed 2^24
    # bracket cap; the phi_version2 coefficients are evaluated exactly
    alpha = 1.0 - 2.0**-k
    t = Fraction(math.sqrt(gamma_tilde_n(30, alpha)))
    width = Fraction(max(L.DEFAULT_CONFIG.tol, 2 * math.ulp(float(t))))
    coeffs = [Fraction(c) for c in phi_version2(30, alpha).coeffs]

    def exact(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    assert exact(t - width) < 0 < exact(t + width)


def test_eta_honours_a_coarse_tol():
    # the gamma route alone: no fixed-width comparison with a second route
    cfg = RootConfig(tol=1e-6)
    t = math.sqrt(gamma_n(30, 0.9, cfg))
    assert eta_n(30, 0.9, cfg) == 2 * 0.9 + (1 - 0.9) * (t + 1.0 / t)


def test_eta_never_takes_the_companion_route(monkeypatch):
    def companion(*args):
        raise AssertionError("eta_n reached gamma_tilde_n")

    monkeypatch.setattr(L, "gamma_tilde_n", companion)
    for n, alpha in ((1, 0.0), (5, 0.3), (30, 0.9)):
        t = math.sqrt(gamma_n(n, alpha))
        assert eta_n(n, alpha) == 2 * alpha + (1 - alpha) * (t + 1.0 / t)


def test_eta_frozen_regression_values():
    # produced by a separate bisection implementation, kept as anchors
    frozen = {
        (2, 0.25): 2.06585393512966,
        (3, 0.5): 2.18652545597598,
        (7, 0.75): 2.43252331399066,
        (30, 0.9): 2.72729745062279,
    }
    for (n, alpha), want in frozen.items():
        assert abs(eta_n(n, alpha) - want) < 5e-12


def test_eta_matches_growing_path_eigenvalues():
    from alphalimits.graphs import p2_two_paths
    from alphalimits.spectral import radius_of

    for n, alpha in ((1, 0.3), (3, 0.6)):
        g, _ = p2_two_paths(300, n)
        assert abs(radius_of(g, alpha) - eta_n(n, alpha)) < 1e-8


def test_new_version_is_the_alpha_zero_column():
    for n in (1, 2, 9, 30):
        d, z = new_version_sequence(n)
        assert abs(d - gamma_n(n, 0.0)) < 1e-13
        assert abs(z - eta_n(n, 0.0)) < 1e-13
        assert abs(d * beta_n(n) - 1.0) < 1e-12
    assert abs(new_version_sequence(1)[1] - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# the limiting value and closed forms
# ---------------------------------------------------------------------------


def test_psi_anchors():
    assert abs(psi(0.0) - SQRT_2_PLUS_SQRT5) < 1e-10
    eps = ((54 - 6 * math.sqrt(33.0)) ** (1 / 3)
           + (54 + 6 * math.sqrt(33.0)) ** (1 / 3)) / 3.0
    assert abs(2.0 * psi(0.5) - (2.0 + eps)) < 1e-10
    assert psi(1.0) == 3.0
    with pytest.raises(ValueError):
        psi(-0.1)


def test_psi_strictly_increasing_in_alpha():
    grid = [psi(a) for a in np.linspace(0.0, 0.95, 20)]
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_psi_closed_form_agrees_with_root_finder():
    for alpha in np.arange(0.0, 0.96, 0.05):
        a = float(alpha)
        assert abs(psi_closed_form(a) - psi(a)) < 1e-8


def test_psi_closed_form_branch_values():
    g = L._psi_surds(0.0)
    assert abs(g["g4"] - complex(1.0 + math.sqrt(3.0) / 2.0,
                                 1.5 + math.sqrt(3.0))) < 1e-12
    assert abs(g["g5"] - complex(12.0, 6.0)) < 1e-10
    assert abs(abs(g["g4"]) - (2.0 + math.sqrt(3.0))) < 1e-12


def test_psi_closed_form_residue_guard(monkeypatch):
    monkeypatch.setattr(L, "PSI_RESIDUE_TOL", -1.0)
    with pytest.raises(BranchSelectionError):
        psi_closed_form(0.3)


def test_omega1_surds():
    assert abs(omega1(0.0) - 3.0 * math.sqrt(2.0) / 2.0) < 1e-14
    assert abs(omega1(0.5) - 0.5 * (2.5 + 1.5 * math.sqrt(3.0))) < 1e-14
    for a in np.arange(0.0, 0.96, 0.05):
        assert psi(float(a)) < omega1(float(a))


def test_omega2_anchors_and_closed_form():
    assert abs(omega2(0.0) - SQRT_2_PLUS_SQRT5) < 1e-9
    for a in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9):
        o = omega2(a)
        assert abs(o - omega2_closed_form(a)) < 1e-7
        assert o >= psi(a) - 1e-9


def _quartics(theta, a):
    """F and G of the psi and omega2 docstrings, and the absolute-value
    forms that bound their rounding."""
    f = difference_poly_f(theta * theta, a)
    f_abs = f + 2 * (1 - a) ** 2
    g = (1 - a) * theta**4 + a * theta**3 + (1 - a) * theta**2 + a * theta - (1 - a)
    g_abs = g + 2 * (1 - a)
    return f, f_abs, g, g_abs


def test_lambda_equations_factor_through_the_theta_quartics():
    # the identities behind the one-sign-change argument of psi and omega2;
    # residuals are measured against the size of the terms, which the
    # lambda form cancels to O(1 - a)
    for a in np.linspace(0.0, 0.95, 20):
        a = float(a)
        for theta in np.linspace(0.05, 0.95, 19):
            theta = float(theta)
            lam = theta_substitution(theta, a)
            f, f_abs, g, g_abs = _quartics(theta, a)
            den = theta**2 * (1 - a + a * theta)
            psi_rhs = (a - 1) * f / den
            assert abs(L._psi_equation(lam, a) - psi_rhs) <= 1e-12 * (1 - a) * f_abs / den
            omega2_rhs = (1 - a) ** 3 * g * -g_abs / theta**5
            assert (abs(L._omega2_equation(lam, a) - omega2_rhs)
                    <= 1e-12 * (1 - a) ** 3 * g_abs * g_abs / theta**5)


def test_lambda_equations_change_sign_across_their_brackets():
    # the brackets psi and omega2 bisect on, up to alpha = 1 - 2^-39
    alphas = [float(a) for a in np.linspace(0.0, 1.0, 2001)[:-1]]
    alphas += [1.0 - 2.0**-k for k in range(1, 40)]
    for a in alphas:
        assert L._psi_equation(2.0, a) < 0.0 < L._psi_equation(3.2, a)
        assert L._omega2_equation(2.0, a) < 0.0 < L._omega2_equation(3.5, a)


def _count_calls(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("root, equation", ((psi, "_psi_equation"),
                                            (omega2, "_omega2_equation")))
def test_psi_and_omega2_are_one_bisection(monkeypatch, root, equation):
    # a 512-point scan took about 435 evaluations per root
    calls = _count_calls(monkeypatch, L, equation)
    for a in np.linspace(0.0, 0.95, 40):
        calls.clear()
        root(float(a))
        assert 0 < len(calls) <= 64


def test_laplacian_guo_wang_is_one_bisection(monkeypatch):
    calls = _count_calls(monkeypatch, HalfPoly, "eval_t")
    laplacian_guo_wang(30)
    assert 0 < len(calls) <= 64


def own_bisection_laplacian_guo_wang(n, cfg):
    """The Q-limit sequence by its own bisection on t in [1, 2]: the reference."""
    if n == 0:
        return 1.0, 4.0
    t = L._bisect(phi_version2(n, 0.5).eval_t, 1.0, 2.0, cfg)
    return t * t, 2.0 + t + 1.0 / t


def own_bisection_laplacian_new(n, cfg):
    """The half-alpha sequence by its own bisection on t in [0, 1]: the reference."""
    if n == 0:
        return 1.0, 4.0
    t = L._bisect(phi_version1(n, 0.5).eval_t, 0.0, 1.0, cfg)
    return t * t, 2.0 + t + 1.0 / t


def own_sqrt_eta_classic(n, cfg):
    """beta_n^(1/2) + beta_n^(-1/2) written out: the reference."""
    t = math.sqrt(beta_n(n, cfg))
    return t + 1.0 / t


@pytest.mark.parametrize("tol", (L.DEFAULT_CONFIG.tol, 1e-16))
def test_corollary_sequences_match_their_own_bisections_bit_for_bit(tol):
    # laplacian_new, laplacian_guo_wang and eta_classic are gamma_n,
    # gamma_tilde_n and beta_n at one alpha, each taking t back as
    # sqrt(t*t); that equals t for every double t (no over- or underflow
    # here), so the match holds at any tol. tol 1e-16 runs each bisection
    # to the last bit, where t has no trailing zero bits.
    cfg = RootConfig(tol=tol)

    def hexes(values):
        return [float.hex(v) for v in values]

    for n in range(501):
        assert (hexes(laplacian_new(n, cfg))
                == hexes(own_bisection_laplacian_new(n, cfg))), n
        assert (hexes(laplacian_guo_wang(n, cfg))
                == hexes(own_bisection_laplacian_guo_wang(n, cfg))), n
        if n >= 1:
            assert eta_classic(n, cfg).hex() == own_sqrt_eta_classic(n, cfg).hex(), n


# ---------------------------------------------------------------------------
# pendant-path limit operators
# ---------------------------------------------------------------------------


def test_one_growing_path_on_a_star_gives_omega1():
    for alpha in (0.0, 0.33, 0.7):
        assert abs(pendant_path_limit(star(3), 0, alpha) - omega1(alpha)) < 1e-9


def test_one_growing_path_mid_p5_gives_omega2():
    for alpha in (0.0, 0.4, 0.8):
        assert abs(pendant_path_limit(path(5), 2, alpha) - omega2(alpha)) < 1e-9


def test_growing_path_on_a_path_stays_at_two():
    assert pendant_path_limit(path(2), 1, 0.0) == 2.0
    assert pendant_path_limit(path(1), 0, 0.35) == 2.0
    # Two paths at a lone vertex make one path: the loaded pivot at 2 is
    # 2 - 2 exactly, at every alpha.
    for k in range(100):
        assert two_pendant_paths_limit(path(1), 0, k / 100) == 2.0


def test_growing_path_on_a_cycle_matches_eigenvalues():
    from alphalimits.graphs import attach_pendant_path
    from alphalimits.spectral import radius_of

    for alpha in (0.0, 0.5):
        limit = pendant_path_limit(cycle(4), 0, alpha)
        approx = radius_of(attach_pendant_path(cycle(4), 0, 400), alpha)
        assert abs(limit - approx) < 1e-8


def test_two_growing_paths_on_an_edge_give_psi():
    for alpha in (0.0, 0.25, 0.6, 0.9):
        assert abs(two_pendant_paths_limit(path(2), 0, alpha) - psi(alpha)) < 1e-10


def test_two_paths_dominate_one_path():
    for g, u in ((path(2), 0), (star(3), 0), (cycle(5), 2)):
        for alpha in (0.0, 0.45):
            one = pendant_path_limit(g, u, alpha)
            two = two_pendant_paths_limit(g, u, alpha)
            assert two >= one - 1e-12


def test_pendant_limit_on_a_small_tree_at_high_alpha():
    # A descending determinant scan returned the fallback 2.0 here.
    g = parse_graph("11; 0-8,1-3,1-5,2-7,2-8,3-6,4-5,5-10,6-9,8-9")
    alpha = 0.941875
    limit = pendant_path_limit(g, 4, alpha)
    assert abs(limit - radius_of(attach_pendant_path(g, 4, 200), alpha)) < 1e-9


def test_pendant_limit_on_an_order_300_tree_at_high_alpha():
    # Determinants of order 300 overflow; on this tree a scan over them
    # stopped at 3.84, a smaller root.
    g = random_tree(np.random.default_rng(3), 300)
    alpha = 0.936
    limit = pendant_path_limit(g, 0, alpha)
    assert abs(limit - radius_of(attach_pendant_path(g, 0, 300), alpha)) < 1e-9


def deleted_det(g, u, alpha, lam):
    """det(lam*I - M) for M the principal minor of A_alpha(g) without row
    and column u: an inline LU determinant."""
    keep = [i for i in range(g.n_vertices) if i != u]
    m = assemble_a_alpha(g, alpha)[np.ix_(keep, keep)]
    return float(np.linalg.det(lam * np.eye(len(keep)) - m))


def _determinant_equation(g, u, alpha, paths, lam):
    """The pendant equation before division by phi(G), from two determinants."""
    h = h_of_lambda(lam, alpha)
    return ((1 - alpha * h) * char_poly_eval(g, alpha, lam)
            - paths * (alpha - (2 * alpha - 1) * h)
            * deleted_det(g, u, alpha, lam))


@pytest.mark.parametrize("paths", (1, 2))
def test_pendant_limits_solve_the_determinant_equation(paths):
    op = pendant_path_limit if paths == 1 else two_pendant_paths_limit
    rng = np.random.default_rng(20 + paths)
    # Paths grown at the end of P_4, or two at a single vertex, make a
    # longer path: the limit is 2.
    cases = [(path(4) if paths == 1 else path(1), 0, 0.3)]
    for _ in range(12):
        g = random_connected_graph(rng)
        cases.append((g, int(rng.integers(g.n_vertices)), float(rng.uniform(0.0, 0.95))))
    # Trees, which take the elimination route, including P_4 at an inner
    # vertex (rho < 2, limit above 2) and the stars.
    cases += [(path(4), 1, 0.3), (star(4), 0, 0.6), (star(4), 2, 0.0)]
    for _ in range(8):
        g = random_tree(rng, int(rng.integers(2, 13)))
        cases.append((g, int(rng.integers(g.n_vertices)), float(rng.uniform(0.0, 0.95))))
    for g, u, alpha in cases:
        limit = op(g, u, alpha)
        eq = lambda lam: _determinant_equation(g, u, alpha, paths, lam)
        if limit > 2.0:
            assert eq(limit - 1e-9) < 0.0 < eq(limit + 1e-9)
        else:
            assert limit == 2.0 and eq(2.0) >= 0.0
        top = float(g.degrees().max()) + paths + 1.0
        assert all(eq(lam) > 0.0 for lam in np.linspace(limit + 1e-9, top, 500))


def test_pendant_limits_need_a_connected_graph():
    g = Graph(4, frozenset({(0, 1), (2, 3)}))
    with pytest.raises(ValueError):
        pendant_path_limit(g, 0, 0.3)
    with pytest.raises(ValueError):
        two_pendant_paths_limit(g, 0, 0.3)


PENDANT_OPS = (pendant_path_limit, two_pendant_paths_limit)


@pytest.mark.parametrize("op", PENDANT_OPS)
@pytest.mark.parametrize("g", (star(3), cycle(5)), ids=("tree", "cycle"))
def test_pendant_limit_input_errors_in_order(op, g, monkeypatch):
    for u in (-1, g.n_vertices):
        with pytest.raises(ValueError, match=f"vertex {u} not in graph"):
            op(g, u, 0.3)
    # alpha is checked first, then connectivity, then u.
    with pytest.raises(ValueError, match="alpha"):
        op(g, -1, 1.0)
    lonely = Graph(g.n_vertices + 1, g.edges)  # plus an isolated vertex
    with pytest.raises(ValueError, match="connected"):
        op(lonely, -1, 0.3)
    with pytest.raises(ValueError, match="alpha"):
        op(g, 0, -0.1)
    # A degree bound below the root is a BracketError, not a wrong value.
    monkeypatch.setattr(L, "_degree_bound", lambda g, u, alpha, added: 2.0 + 2.0 ** -20)
    with pytest.raises(BracketError, match="degree bound"):
        op(g, 0, 0.3)


def reference_pendant_limit(g, u, alpha, paths, tol=L.DEFAULT_CONFIG.tol):
    """The dense route: r(lambda) from one eigendecomposition, bisected on
    (max(2, rho(G)), top] until the bracket is narrower than tol, where top
    bounds every rho(G + paths). Kept as the reference that the tree
    elimination route must stay within 2*tol of."""
    r = vertex_resolvent(g, u, alpha)

    def eq(lam):
        if lam <= r.top:
            return -math.inf
        h = h_of_lambda(lam, alpha)
        return (1 - alpha * h) - paths * (alpha - (2 * alpha - 1) * h) * r(lam)

    if eq(2.0) >= 0.0:
        return 2.0
    lo, hi = max(2.0, r.top), float(g.degrees().max()) + paths + 1.0
    assert eq(hi) > 0.0
    while hi - lo >= tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if eq(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def seeded_trees():
    """(tree, u) pairs: orders 2-60 and one of order 300, at seeded vertices."""
    rng = np.random.default_rng(5)
    trees = [random_tree(rng, int(n)) for n in rng.integers(2, 61, size=30)]
    trees += [random_tree(rng, n) for n in (2, 60, 300)]
    return [(g, int(rng.integers(g.n_vertices))) for g in trees]


@pytest.mark.parametrize("paths", (1, 2))
@pytest.mark.parametrize("alpha", (0.0, 0.3, 0.5, 0.75, 0.94))
def test_tree_pendant_limits_match_the_dense_route(alpha, paths):
    op = PENDANT_OPS[paths - 1]
    tol = L.DEFAULT_CONFIG.tol
    for g, u in seeded_trees():
        limit = op(g, u, alpha)
        reference = reference_pendant_limit(g, u, alpha, paths)
        assert abs(limit - reference) <= 2 * tol, (g.n_vertices, u)


@pytest.mark.parametrize("paths", (1, 2))
@pytest.mark.parametrize("alpha", (0.0, 0.3, 0.5, 0.75, 0.94))
def test_tree_and_dense_routes_agree_to_1e_14(alpha, paths, monkeypatch):
    op = PENDANT_OPS[paths - 1]
    cases = seeded_trees()
    tree = [op(g, u, alpha) for g, u in cases]
    monkeypatch.setattr(L, "_tree_pivot", lambda g, root, alpha: None)
    for (g, u), limit in zip(cases, tree):
        assert abs(op(g, u, alpha) - limit) <= 1e-14, (g.n_vertices, u)


def test_tree_pendant_limits_take_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a tree took the dense route")

    g = random_tree(np.random.default_rng(3), 300)
    # The leaf 151 has no secant window (rho(G - u), rho(G) and the limit
    # agree to a few ulps there), so its search is bisection-bound.
    walks = {151: 60, 0: 40}
    expected = {(u, paths): reference_pendant_limit(g, u, 0.5, paths)
                for u in walks for paths in (1, 2)}
    monkeypatch.setattr(L, "vertex_resolvent", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    counter = {"walks": 0}
    walk = spectral._root_pivot

    def counted(*args):
        counter["walks"] += 1
        return walk(*args)
    monkeypatch.setattr(spectral, "_root_pivot", counted)
    for (u, paths), reference in expected.items():
        counter["walks"] = 0
        assert abs(PENDANT_OPS[paths - 1](g, u, 0.5) - reference) <= 2 * L.DEFAULT_CONFIG.tol
        assert counter["walks"] <= walks[u], (u, paths, counter["walks"])


def test_the_path_load_is_the_h_form_coefficient_exactly():
    """(a - (2a-1) h) / (1 - a h) = a + (1-a)^2 / tau = a + (1-a) theta at
    h = theta / (1 - a + a theta) and tau = (1-a) / theta, the values of h
    and of the pendant path's fixed-point pivot at
    lambda = (1-a)(theta + 1/theta) + 2a."""
    for a in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(17, 20), Fraction(99, 100)):
        for theta in (Fraction(1, 100), Fraction(1, 3), Fraction(5, 7), Fraction(99, 100)):
            h = theta / (1 - a + a * theta)
            tau = (1 - a) / theta
            assert (a - (2 * a - 1) * h) / (1 - a * h) == a + (1 - a) ** 2 / tau == a + (1 - a) * theta


def test_graphs_with_a_cycle_keep_the_resolvent_route(monkeypatch):
    calls = []

    def spy(g, u, alpha):
        calls.append(u)
        return vertex_resolvent(g, u, alpha)

    monkeypatch.setattr(L, "vertex_resolvent", spy)
    for op in PENDANT_OPS:
        op(cycle(4), 0, 0.5)
        op(attach_pendant_path(cycle(3), 1, 4), 5, 0.3)
    assert calls == [0, 5, 0, 5]


# ---------------------------------------------------------------------------
# Laplacian corollary sequences
# ---------------------------------------------------------------------------


def test_laplacian_sequence_anchors():
    mu0, kap0 = laplacian_guo_wang(0)
    assert (mu0, kap0) == (1.0, 4.0)
    th0, xi0 = laplacian_new(0)
    assert (th0, xi0) == (1.0, 4.0)
    mu1, kap1 = laplacian_guo_wang(1)
    golden_sq = (3.0 + math.sqrt(5.0)) / 2.0
    assert abs(mu1 - golden_sq) < 1e-12
    root = math.sqrt(golden_sq)
    assert abs(kap1 - (2.0 + root + 1.0 / root)) < 1e-12


def guo_wang_coeffs(n):
    """x^(n+1) - (1 + x + ... + x^(n-1)) (sqrt(x) + 1)^2 in t = sqrt(x)."""
    geometric = [1.0 - k % 2 for k in range(2 * n - 1)]  # 1 + t^2 + ... + t^(2n-2)
    c = np.zeros(2 * n + 3)
    c[2 * n + 2] = 1.0
    prod = np.polynomial.polynomial.polymul(geometric, [1.0, 2.0, 1.0])
    c[:len(prod)] -= prod
    return c


def half_alpha_coeffs(n):
    """x^(n+1) + 2 sum_{i<n} x^(n-i+1/2) + 2 sum_{i<n-1} x^(i+2) + x - 1 in t."""
    c = np.zeros(2 * n + 3)
    c[2 * n + 2] = 1.0
    for i in range(n):
        c[2 * (n - i) + 1] += 2.0
    for i in range(n - 1):
        c[2 * i + 4] += 2.0
    c[2] += 1.0
    c[0] -= 1.0
    return c


def test_guo_wang_poly_is_four_times_version2():
    for n in (1, 2, 3, 7, 20):
        four = 4.0 * np.asarray(phi_version2(n, 0.5).coeffs)
        assert np.array_equal(guo_wang_coeffs(n), four)


def test_laplacian_guo_wang_against_companion_matrix():
    t_root = roots_oracle(list(guo_wang_coeffs(3)))[-1]
    mu3, _ = laplacian_guo_wang(3)
    assert abs(mu3 - t_root * t_root) < 5e-12


def test_laplacian_sequences_agree():
    eps = ((54 - 6 * math.sqrt(33.0)) ** (1 / 3)
           + (54 + 6 * math.sqrt(33.0)) ** (1 / 3)) / 3.0
    kappas = []
    for n in range(0, 31):
        mu, kappa = laplacian_guo_wang(n)
        th, xi = laplacian_new(n)
        assert abs(mu * th - 1.0) < 1e-11
        assert abs(xi - kappa) < 1e-11
        assert abs(xi - 2.0 * eta_n(n, 0.5)) < 1e-11
        assert kappa < 2.0 + eps + 1e-12
        kappas.append(kappa)
    # strictly increasing until the gaps shrink below double resolution,
    # then at worst flat (the tail rides the limit at machine precision)
    saturated = False
    for prev, cur in zip(kappas, kappas[1:]):
        gap = cur - prev
        if not saturated and gap < 1e-12:
            saturated = True
        if saturated:
            assert gap >= -5e-15
        else:
            assert gap > 0.0


def test_half_alpha_poly_is_four_times_version1():
    for n in (1, 2, 7, 20):
        four = 4.0 * np.asarray(phi_version1(n, 0.5).coeffs)
        assert np.array_equal(half_alpha_coeffs(n), four)


def test_guo_wang_transform_to_half_alpha():
    # x^(n+1) f_n(1/x) = -phi_n(x) with f_n the Guo-Wang polynomial and phi_n
    # the half-alpha polynomial, each built from its paper formula above
    for n in (1, 3, 6):
        guo_wang = HalfPoly(tuple(guo_wang_coeffs(n)))
        half_alpha = HalfPoly(tuple(half_alpha_coeffs(n)))
        for x in (0.25, 0.5, 0.85):
            lhs = x ** (n + 1) * guo_wang(1.0 / x)
            rhs = -half_alpha(x)
            assert abs(lhs - rhs) < 1e-11


# ---------------------------------------------------------------------------
# substitutions and the difference polynomial
# ---------------------------------------------------------------------------


def test_theta_substitution_basics():
    for alpha in (0.0, 0.4, 0.9):
        assert abs(theta_substitution(1.0, alpha) - 2.0) < 1e-14
        for th in (0.2, 0.7):
            assert abs(theta_substitution(th, alpha)
                       - theta_substitution(1.0 / th, alpha)) < 1e-12
    with pytest.raises(ValueError):
        theta_substitution(0.0, 0.3)


def test_theta_substitution_hits_eta():
    for n, alpha in ((1, 0.2), (4, 0.5), (9, 0.8)):
        lam = theta_substitution(math.sqrt(gamma_n(n, alpha)), alpha)
        assert abs(lam - eta_n(n, alpha)) < 1e-11


def test_difference_polynomial_identity():
    for n in range(1, 11):
        for alpha in (0.0, 0.35, 0.7, 0.95):
            for x in (0.15, 0.5, 0.85):
                lhs = phi_version1(n + 1, alpha)(x) - x * phi_version1(n, alpha)(x)
                assert abs(lhs - difference_poly_f(x, alpha)) < 1e-12


def test_difference_polynomial_spot_value():
    assert abs(difference_poly_f(1.0, 0.0) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        difference_poly_f(-0.5, 0.2)


def test_first_step_difference_is_a_square():
    # phi_2 - phi_1 = x^2 ((1-a) sqrt(x) + a)^2, positive on (0,1)
    for alpha in (0.0, 0.3, 0.6, 0.9):
        for x in (0.2, 0.5, 0.9):
            lhs = phi_version1(2, alpha)(x) - phi_version1(1, alpha)(x)
            rhs = x * x * ((1 - alpha) * math.sqrt(x) + alpha) ** 2
            assert abs(lhs - rhs) < 1e-13
            assert lhs > 0


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_limit_table_classic():
    t = limit_table("classic", 2)
    assert [r.n for r in t.rows] == [1, 2]
    assert abs(t.rows[0].eta - 2.0) < 1e-12
    assert abs(t.rows[1].eta - 2.01980088709048) < 1e-11
    assert len(t.limits) == 1
    assert abs(t.limits[0][1] - SQRT_2_PLUS_SQRT5) < 1e-12


def test_limit_table_version_columns_match_new():
    tv = limit_table("versionI", 6, alphas=(0.0,))
    tn = limit_table("new", 6)
    v_etas = {r.n: r.eta for r in tv.rows if r.n >= 1}
    n_etas = {r.n: r.eta for r in tn.rows}
    for n, e in n_etas.items():
        assert abs(v_etas[n] - e) < 1e-12


def test_limit_table_laplacian_start():
    t = limit_table("laplacian", 0)
    assert t.rows[0].eta == 4.0
    eps = ((54 - 6 * math.sqrt(33.0)) ** (1 / 3)
           + (54 + 6 * math.sqrt(33.0)) ** (1 / 3)) / 3.0
    assert abs(t.limits[0][1] - (2.0 + eps)) < 1e-11


def test_limit_table_validation():
    with pytest.raises(ValueError):
        limit_table("classic", 0)
    with pytest.raises(ValueError):
        limit_table("nope", 3)


def test_limit_table_rejects_an_empty_alpha_sequence():
    for kind in ("versionI", "versionII"):
        for alphas in ((), [], iter(())):
            with pytest.raises(ValueError, match="at least one alpha"):
                limit_table(kind, 3, alphas)
    # any iterable is read once: each alpha gets its rows and its limit
    t = limit_table("versionI", 2, (a for a in (0.1, 0.2)))
    assert [r.alpha for r in t.rows] == [0.1] * 3 + [0.2] * 3
    assert [a for a, _ in t.limits] == [0.1, 0.2]


def test_eta_all_values_below_limit():
    for kind, bound_idx in (("versionI", 0), ("versionII", 0)):
        t = limit_table(kind, 12, alphas=(0.3,))
        lim = t.limits[0][1]
        assert all(r.eta < lim for r in t.rows)
