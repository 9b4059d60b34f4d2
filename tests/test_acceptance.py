"""Acceptance gate: ten numbered criteria, one recorded verdict line each.

Each test computes its condition fully, records a PASS/FAIL line through
conftest.record_criterion, then asserts. Tolerances are pinned in place.
Pinned values are derived, not read off the program's output: criteria 1,
2 and 9 pin surds, and criterion 10 compares against exact rationals. It
decides the strict eta chain in integer arithmetic, because the chain's gaps
lie far below one ulp of a double.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

from conftest import record_criterion
from test_golden import EXAMPLES

from alphalimits.cli import build_parser
from alphalimits.graphs import attach_pendant_path, p2_two_paths, star, wheel5
from alphalimits.limits import (
    EPSILON_SURD,
    PSI_RESIDUE_TOL,
    beta_n,
    eta_classic,
    eta_n,
    gamma_n,
    gamma_tilde_n,
    limit_table,
    new_version_sequence,
    laplacian_guo_wang,
    laplacian_new,
    omega1,
    omega2,
    phi_version1,
    phi_version2,
    psi,
    psi_closed_form,
)
from alphalimits.spectral import radius_of
from alphalimits.verify import run_lemma_suite

ALPHA_GRID_05 = tuple(round(0.05 * k, 2) for k in range(20))  # 0.00 .. 0.95
NEAR_ONE = tuple(1.0 - 2.0**-k for k in (10, 20, 30, 40, 52, 53))


def test_criterion_01_wheel_spot_values():
    r13 = radius_of(wheel5(), 1.0 / 3.0)
    r34 = radius_of(wheel5(), 0.75)
    d1 = abs(r13 - (11.0 + math.sqrt(73.0)) / 6.0)
    d2 = abs(r34 - (23.0 + math.sqrt(17.0)) / 8.0)
    ok = d1 < 1e-12 and d2 < 1e-12
    line = record_criterion(
        1, ok,
        f"wheel radii match surds, deviations {d1:.1e} and {d2:.1e} (tol 1e-12)")
    assert ok, line


def test_criterion_02_psi_anchors():
    d1 = abs(psi(0.0) - math.sqrt(2.0 + math.sqrt(5.0)))
    d2 = abs(2.0 * psi(0.5) - (2.0 + EPSILON_SURD))
    ok = d1 < 1e-10 and d2 < 1e-10
    line = record_criterion(
        2, ok,
        f"psi(0) and 2 psi(1/2) match surd anchors, deviations {d1:.1e} "
        f"and {d2:.1e} (tol 1e-10)")
    assert ok, line


def test_criterion_03_closed_form_agrees_with_root_finder():
    assert PSI_RESIDUE_TOL == 1e-8
    worst = 0.0
    failures = []
    for a in ALPHA_GRID_05:
        try:
            # the closed form rejects any imaginary residue above
            # PSI_RESIDUE_TOL = 1e-8 itself
            diff = abs(psi_closed_form(a) - psi(a))
        except Exception as exc:
            failures.append(f"alpha={a}: {exc}")
            continue
        worst = max(worst, diff)
        if diff >= 1e-8:
            failures.append(f"alpha={a}: diff {diff:.2e}")
    ok = not failures
    detail = (f"largest closed-form vs root-finder difference {worst:.2e} "
              f"over 20 alphas (tol 1e-8)")
    if failures:
        detail += "; " + "; ".join(failures)
    line = record_criterion(3, ok, detail)
    assert ok, line


def test_criterion_04_three_routes_for_the_classic_sequence():
    worst = 0.0
    for n in range(1, 31):
        e1 = eta_classic(n)
        e2 = eta_n(n, 0.0)
        delta, zeta = new_version_sequence(n)
        worst = max(worst, abs(e1 - e2), abs(e1 - zeta),
                    abs(delta * beta_n(n) - 1.0))
    ok = worst < 1e-12
    line = record_criterion(
        4, ok,
        f"classic route spread and delta*beta distance from 1 at most "
        f"{worst:.1e} for n=1..30 (tol 1e-12)")
    assert ok, line


def test_criterion_05_reciprocal_roots_and_duality():
    alphas = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)
    xs = (0.2, 0.35, 0.5, 0.65, 0.8)
    worst_eta = 0.0
    worst_res = 0.0
    for a in alphas:
        for n in range(1, 21):
            g = gamma_n(n, a)
            gt = gamma_tilde_n(n, a)
            e_direct = 2 * a + (1 - a) * (math.sqrt(g) + 1 / math.sqrt(g))
            e_tilde = 2 * a + (1 - a) * (math.sqrt(gt) + 1 / math.sqrt(gt))
            worst_eta = max(worst_eta, abs(e_direct - e_tilde))
            p = phi_version1(n, a)
            pt = phi_version2(n, a)
            for x in xs:
                res = abs(p(x) + x ** (n + 1) * pt(1.0 / x))
                worst_res = max(worst_res, res)
    ok = worst_eta < 1e-12 and worst_res < 1e-12
    line = record_criterion(
        5, ok,
        f"reciprocal-root eta spread {worst_eta:.1e}, duality residual "
        f"{worst_res:.1e}, n<=20 (tol 1e-12)")
    assert ok, line


def test_criterion_06_laplacian_agreement():
    worst = 0.0
    for n in range(0, 31):
        mu, kappa = laplacian_guo_wang(n)
        th, xi = laplacian_new(n)
        worst = max(worst, abs(xi - kappa), abs(xi - 2.0 * eta_n(n, 0.5)),
                    abs(th * mu - 1.0))
    xi0 = laplacian_new(0)[1]
    ok = worst < 1e-11 and abs(xi0 - 4.0) < 1e-15
    line = record_criterion(
        6, ok,
        f"xi = kappa = 2 eta(1/2) and theta*mu = 1 within {worst:.1e} for "
        f"n=0..30 (tol 1e-11); xi_0 = {xi0}")
    assert ok, line


def test_criterion_07_convergence_experiments():
    alphas = (0.0, 0.25, 0.5, 0.75)
    problems = []
    start = time.perf_counter()
    for a in alphas:
        rhos = [radius_of(p2_two_paths(m, m), a) for m in range(2, 11)]
        if not all(hi > lo for lo, hi in zip(rhos, rhos[1:])):
            problems.append(f"two-path radii not strictly increasing at alpha={a}")
        big = radius_of(p2_two_paths(800, 800), a)
        if abs(big - psi(a)) >= 1e-3:
            problems.append(f"limit gap {abs(big - psi(a)):.2e} at alpha={a}")
        for n in range(1, 6):
            r = radius_of(p2_two_paths(800, n), a)
            if abs(r - eta_n(n, a)) >= 1e-3:
                problems.append(f"eta_{n} gap at alpha={a}")
        r = radius_of(attach_pendant_path(star(3), 0, 800), a)
        if abs(r - omega1(a)) >= 1e-3:
            problems.append(f"omega1 gap at alpha={a}")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 300.0
    detail = (f"two-path and star tails at order about 800 land within 1e-3 "
              f"of their limits for four alphas in {elapsed:.1f}s")
    if problems:
        detail = "; ".join(problems)
    line = record_criterion(7, ok, detail)
    assert ok, line


def test_criterion_08_lemma_property_suite():
    start = time.perf_counter()
    results = run_lemma_suite(seed=1234, trials=200)
    elapsed = time.perf_counter() - start
    bad = [r for r in results if not r.passed]
    checked = sum(r.checked for r in results)
    ok = not bad and elapsed < 120.0
    detail = (f"{len(results)} lemma properties over 200 seeded graphs, "
              f"{checked} checks, zero violations in {elapsed:.1f}s")
    if bad:
        detail = "; ".join(f"{r.name}: {r.detail}" for r in bad)
    line = record_criterion(8, ok, detail)
    assert ok, line


def test_criterion_09_remark_reproductions():
    diffs = [(psi(a) - omega1(a), a) for a in ALPHA_GRID_05]
    max_diff, arg = max(diffs)
    # Psi(0) = sqrt(2 + sqrt 5) (Hoffman) and omega1(0) = 3 sqrt 2 / 2 (K_{1,4}
    # with one arm growing: t = sqrt 2, lambda = t + 1/t) fix the value at
    # alpha = 0, and the difference decreases from there.
    expected = math.sqrt(2.0 + math.sqrt(5.0)) - 3.0 * math.sqrt(2.0) / 2.0
    clause1 = abs(max_diff - expected) < 2e-3 and arg == 0.0
    clause2 = all(omega2(a) >= psi(a) - 1e-9 for a in ALPHA_GRID_05)
    clause3 = abs(omega2(0.0) - math.sqrt(2.0 + math.sqrt(5.0))) < 1e-9
    ok = clause1 and clause2 and clause3
    detail = (f"grid maximum of psi - omega1 is {max_diff:.6f} at alpha={arg}, "
              f"surd value sqrt(2+sqrt5) - 3sqrt2/2 = {expected:.6f} within 2e-3 "
              f"at alpha=0: {clause1}; "
              f"omega2 >= psi - 1e-9 on grid: {clause2}; "
              f"omega2(0) matches sqrt(2+sqrt5) within 1e-9: {clause3}")
    line = record_criterion(9, ok, detail)
    assert ok, line


# Exact certificates. Every alpha here is a rational p/d (k/10 in criterion
# 10, and every double is a dyadic one), so the polynomials below, scaled by
# d^2 or d, carry integer coefficients in t, with x = t*t, low to high.


def _phi_version1_exact(n: int, a: Fraction) -> list:
    """d^2 phi_version1(n, p/d), built from the phi_version1 docstring."""
    p, d = a.numerator, a.denominator
    c = [0] * (2 * n + 3)
    c[2 * n + 2] = (d - p) ** 2
    for i in range(n):
        c[2 * (n - i) + 1] = 2 * p * (d - p)
    for i in range(n - 1):
        c[2 * i + 4] = d * d - 2 * p * d + 2 * p * p
    c[2] = p * p
    c[0] = -(d - p) ** 2
    return c


def _psi_quartic_exact(a: Fraction) -> list:
    """d^2 F(t), F = (1-a)^2 t^4 + 2a(1-a) t^3 + (1-2a+2a^2) t^2 - (1-a)^2,
    the quartic of the difference_poly_f docstring."""
    p, d = a.numerator, a.denominator
    return [-(d - p) ** 2, 0, d * d - 2 * p * d + 2 * p * p, 2 * p * (d - p),
            (d - p) ** 2]


def _scaled_value(c: list, m: int, b: int) -> int:
    """2**(b*d) * P(m / 2**b) for P of degree d, in integer Horner steps."""
    d = len(c) - 1
    acc = c[d]
    for i in range(d - 1, -1, -1):
        acc = acc * m + (c[i] << (b * (d - i)))
    return acc


def _is_increasing_with_root_in_unit_interval(c: list) -> bool:
    """Negative constant and non-negative other coefficients: P rises on t > 0,
    so P(0) < 0 < P(1) leaves exactly one root in (0, 1)."""
    return c[0] < 0 and all(ci >= 0 for ci in c[1:]) and sum(c) > 0


def _dyadic_brackets(c: list):
    """Halve (m/2**b, (m+1)/2**b] around the root in (0, 1) of an increasing P,
    keeping P(m/2**b) < 0 <= P((m+1)/2**b), and yield (m, b) at each step."""
    m, b = 0, 0
    while True:
        m, b = 2 * m + 1, b + 1
        if _scaled_value(c, m, b) >= 0:
            m -= 1
        yield m, b


def _eta_of_t(t, a):
    return 2 * a + (1 - a) * (t + 1 / t)


def _deviation_from_root(value: float, c: list, a: Fraction, bits: int = 64):
    """Bound on |value - eta(t)| at the root t of c, and t: eta falls with t on
    (0, 1), so eta(t) lies between eta at the two ends of a dyadic bracket."""
    for m, b in _dyadic_brackets(c):
        if b >= bits:
            break
    lo, hi = Fraction(m, 2 ** b), Fraction(m + 1, 2 ** b)
    v = Fraction(value)
    dev = max(abs(v - _eta_of_t(lo, a)), abs(v - _eta_of_t(hi, a)))
    return float(dev), float(lo)


def _eta_bound(alpha: float, t: float, eta: float) -> float:
    """Criterion 10's bound on |eta - exact| at the root t: the bisection's
    2 ulps of t, through d eta/dt = (1-a)(1 - 1/t^2), plus 4 ulps of eta."""
    return (1 - alpha) * abs(1 - 1 / t ** 2) * 2 * math.ulp(t) + 4 * math.ulp(eta)


def test_criterion_10_strict_ordering_of_the_eta_chain():
    """eta_0 <= eta_1 < ... < eta_30 < Psi, proved in exact arithmetic.

    The true gaps at larger alpha lie far below one ulp of a double, so the
    floats eta_n returns cannot show them. With t_n the root in (0, 1) of
    P_n = phi_version1(n, alpha) in t, eta_n = 2a + (1-a)(t_n + 1/t_n) falls
    with t_n, so eta_n < eta_{n+1} is t_{n+1} < t_n: a dyadic s with
    P_n(s) < 0 < P_{n+1}(s). P_{n+1} - t^2 P_n = F has its root in (0, 1) at
    the limit t of the chain, where eta = Psi, so eta_30 < Psi is an s with
    P_30(s) < 0 < F(s). The returned doubles are then held to the exact
    values: eta_n within what 2 ulps of t move it, plus 4 ulps, and Psi, a
    threshold, within 2 ulps.
    """
    problems = []
    bits_needed = []
    worst = (0.0, 0.0, 1.0)  # (ratio, deviation, bound) of the eta_n check
    worst_psi = (0.0, 1.0)
    for k in range(1, 10):
        a, af = Fraction(k, 10), k / 10
        scale = a.denominator ** 2  # of the exact coefficients
        f = _psi_quartic_exact(a)
        chain = [_phi_version1_exact(n, a) for n in range(1, 31)] + [f]
        for n, c in enumerate(chain, start=1):
            if not _is_increasing_with_root_in_unit_interval(c):
                problems.append(f"alpha={af}: P_{n} not increasing with one root in (0,1)")
        for n in range(1, 30):
            shifted = [0, 0] + chain[n - 1]
            if [p - q for p, q in zip(chain[n], shifted)] != f + [0] * (2 * n):
                problems.append(f"alpha={af}: P_{n + 1} - t^2 P_{n} differs from F")
        # eta_0 = 2 < eta_1, since P_1(1) > 0 puts t_1 below t_0 = 1
        if sum(chain[0]) <= 0 or eta_n(0, af) != 2.0:
            problems.append(f"alpha={af}: eta_1 not above eta_0 = 2")
        top = 0
        for n in range(1, 31):
            c, nxt = chain[n - 1], chain[n]
            for m, b in _dyadic_brackets(c):
                if _scaled_value(nxt, m, b) > 0 or b > 400:
                    break
            if not _scaled_value(c, m, b) < 0 < _scaled_value(nxt, m, b):
                problems.append(f"alpha={af}: no separating point after n={n}")
            top = max(top, b)
        bits_needed.append(top)
        for n, c in enumerate(chain[:30], start=1):
            coeffs = phi_version1(n, af).coeffs
            if len(coeffs) != len(c) or any(
                    abs(x - y / scale) > 4 * math.ulp(y / scale) for x, y in zip(coeffs, c)):
                problems.append(f"alpha={af}: phi_version1({n}) coefficients off")
            e = eta_n(n, af)
            dev, t = _deviation_from_root(e, c, a)
            bound = _eta_bound(af, t, e)
            if dev > bound:
                problems.append(f"alpha={af}: eta_{n} off by {dev:.1e} > {bound:.1e}")
            worst = max(worst, (dev / bound, dev, bound))
        p = psi(af)
        dev, _ = _deviation_from_root(p, f, a)
        bound = 2 * math.ulp(p)
        if dev > bound:
            problems.append(f"alpha={af}: psi off by {dev:.1e} > {bound:.1e}")
        worst_psi = max(worst_psi, (dev, bound))
    e0 = eta_n(0, 0.0)
    e1 = eta_n(1, 0.0)
    e2 = eta_n(2, 0.0)
    if abs(e0 - 2.0) > 1e-12 or abs(e1 - 2.0) > 1e-12:
        problems.append("alpha=0: eta_0 or eta_1 differs from 2")
    if not e1 < e2:
        problems.append("alpha=0: eta_1 not below eta_2")
    ok = not problems
    detail = (f"eta_0 < ... < eta_30 < Psi certified exactly for alpha=0.1..0.9, "
              f"separating bits {'/'.join(map(str, bits_needed))}; "
              f"worst |eta_n - exact| {worst[1]:.1e} (bound {worst[2]:.1e}), "
              f"worst |psi - exact| {worst_psi[0]:.1e} (bound {worst_psi[1]:.1e})")
    if problems:
        detail = "; ".join(problems)
    line = record_criterion(10, ok, detail)
    assert ok, line


# Exact certificate for the psi and omega2 values that the goldens print.
# Under lambda = 2a + (1-a)(t + 1/t) each lambda-equation vanishes at the root
# in (0, 1) of a quartic in t (see the psi and omega2 docstrings), taken at
# the alpha the program actually used.


def _omega2_quartic_exact(a: Fraction) -> list:
    """d G(t), G = (1-a) t^4 + a t^3 + (1-a) t^2 + a t - (1-a)."""
    p, d = a.numerator, a.denominator
    return [-(d - p), p, d - p, p, d - p]


def test_psi_and_omega2_lie_within_1e_13_of_their_exact_roots():
    from alphalimits.cli import PSI_DEFAULT_GRID

    # the default psi grid holds every alpha of the psi, table and
    # convergence goldens: 0.0 .. 0.9 for the tables, 0.25 for p2nn and p5u.
    # Near alpha = 1 the root t is about 1 - alpha and eta moves by about
    # 1 / t per unit of t, so the bracket on t takes 128 bits.
    problems = []
    for af in PSI_DEFAULT_GRID + NEAR_ONE:
        a = Fraction(af)
        for name, value, c in (("psi", psi(af), _psi_quartic_exact(a)),
                               ("omega2", omega2(af), _omega2_quartic_exact(a))):
            if not _is_increasing_with_root_in_unit_interval(c):
                problems.append(f"{name} quartic at alpha={af} has no single root in (0,1)")
                continue
            dev, _ = _deviation_from_root(value, c, a, bits=128)
            if dev > 2 * math.ulp(value):
                problems.append(f"{name}({af}) off by {dev:.1e} > 2 ulps")
    assert not problems, "; ".join(problems)


def test_eta_near_alpha_one_lies_within_criterion_10s_bound():
    # versionI's eta_n and versionII's eta at alpha = 1 - 2^-k, where the
    # root t is about 1 - alpha and eta moves by about 1/t per unit of t,
    # so a root off by a fixed width in t is far off in eta. The bracket on
    # t takes 128 bits, as for psi above.
    problems = []
    for af in NEAR_ONE:
        a = Fraction(af)
        version2 = {r.n: r.eta for r in limit_table("versionII", 30, [af]).rows}
        for n in (1, 2, 5, 10, 20, 30):
            c = _phi_version1_exact(n, a)
            for name, e in (("eta_n", eta_n(n, af)), ("versionII", version2[n])):
                dev, t = _deviation_from_root(e, c, a, bits=128)
                if dev > _eta_bound(af, t, e):
                    problems.append(f"{name} n={n} alpha={af} off by {dev:.1e}")
    assert not problems, "; ".join(problems)


def test_table_golden_values_lie_within_criterion_10s_bound():
    # every value cell of a table golden is eta_n at its row's alpha, or
    # xi = 2 eta_n(1/2) for laplacian
    problems = []
    for argv in EXAMPLES.values():
        if argv[0] != "table":
            continue
        args = build_parser().parse_args(argv)
        kind, factor = args.kind, 2 if args.kind == "laplacian" else 1
        for row in limit_table(kind, args.n_max, args.alpha).rows:
            e = row.eta / factor
            if row.n == 0:
                if e != 2.0:
                    problems.append(f"{kind} alpha={row.alpha}: eta_0 = {e}")
                continue
            a = Fraction(row.alpha)
            dev, t = _deviation_from_root(e, _phi_version1_exact(row.n, a), a)
            if dev > _eta_bound(row.alpha, t, e):
                problems.append(f"{kind} n={row.n} alpha={row.alpha} off by {dev:.1e}")
    assert not problems, "; ".join(problems)
