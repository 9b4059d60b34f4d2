"""Every property check's report on failing input, pinned.

Each case injects a fault into one of verify's 18 checks, through its
arguments or a patched route, that fails at least four of its cases
where it has that many, so the detail's first-three truncation shows.
The whole PropertyResult (passed, checked, detail) is pinned. These are
characterisation pins of the report format, as the goldens are of the
CLI's output, not values derived from the mathematics.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from alphalimits import limits, verify
from alphalimits.graphs import cycle, lollipop, path, star, wheel5
from alphalimits.verify import PropertyResult

GRAPHS = [path(4), cycle(4), star(3), lollipop(5), wheel5()]
OFF = 1.0 + 2.0**-40  # a relative error far past every route bound


@functools.cache
def ladder_and_psis():
    table = limits.limit_table("versionI", 30, verify.ALPHA_GRID)
    return ({(row.n, row.alpha): (row.gamma, row.eta) for row in table.rows},
            dict(table.limits))


def swapped(ladder, alpha, n):
    """ladder with eta_n and eta_{n+1} at alpha exchanged."""
    out = dict(ladder)
    (g0, e0), (g1, e1) = ladder[n, alpha], ladder[n + 1, alpha]
    out[n, alpha], out[n + 1, alpha] = (g0, e1), (g1, e0)
    return out


def off_coefficient(monkeypatch, name, index):
    build = getattr(limits, name)

    def off(n, alpha):
        c = list(build(n, alpha).coeffs)
        c[index] *= 1.0 + 1e-9
        return limits.HalfPoly(tuple(c))
    monkeypatch.setattr(limits, name, off)


def radius_bounds(monkeypatch):
    return verify.check_radius_bounds(GRAPHS, [0.5] * 5, [-1.0] * 5)


def subgraph_strict(monkeypatch):
    # the second graph has no subgraph and is skipped
    subs = [path(3), None, path(3), path(3), path(3)]
    return verify.check_subgraph_monotonicity(
        GRAPHS, [0.0, 0.2, 0.5, 0.8, 0.5], [1.0] * 5, subs, [2.0, None, 2.0, 2.0, 2.0])


def alpha_monotone(monkeypatch):
    # cycle(4) is regular and moved; the rest fell
    return verify.check_alpha_monotonicity(GRAPHS, [2.0] * 5, [1.0] * 5)


def subdivision_direction(monkeypatch):
    return verify.check_subdivision_direction(
        [path(4), cycle(4)], [0.5, 0.0], [1.5, 2.0], [[1.0] * 3, [3.0] * 4])


def phi_increasing(monkeypatch):
    build = limits.phi_version1

    def dented(n, alpha):
        c = list(build(n, alpha).coeffs)
        c[len(c) // 2] = -1e-9
        return limits.HalfPoly(tuple(c))
    monkeypatch.setattr(limits, "phi_version1", dented)
    return verify.check_phi_increasing()


def duality(monkeypatch):
    off_coefficient(monkeypatch, "phi_version2", -1)
    return verify.check_duality()


def route_equality(monkeypatch):
    term = limits._version2_term
    monkeypatch.setattr(limits, "_version2_term",
                        lambda n, alpha: tuple(v * OFF for v in term(n, alpha)))
    return verify.check_route_equality(ladder_and_psis()[0])


def strict_chain_at_zero(monkeypatch):
    ladder, psis = ladder_and_psis()
    ladder = swapped(swapped(ladder, 0.0, 10), 0.3, 3)
    ladder[0, 0.0] = (ladder[0, 0.0][0], 2.5)
    return verify.check_strict_chain(ladder, {**psis, 0.0: psis[0.0] - 0.1})


def strict_chain_past_zero(monkeypatch):
    ladder, psis = ladder_and_psis()
    for alpha in (0.3, 0.5, 0.7, 0.9):
        ladder = swapped(ladder, alpha, 3)
    return verify.check_strict_chain(ladder, psis)


def eta_converges(monkeypatch):
    psis = ladder_and_psis()[1]
    return verify.check_eta_convergence({a: p + 0.01 for a, p in psis.items()})


def classic_routes(monkeypatch):
    ladder = dict(ladder_and_psis()[0])
    for n in range(1, 31):
        ladder[n, 0.0] = tuple(v * OFF for v in ladder[n, 0.0])
    return verify.check_classic_routes(ladder)


def laplacian_agreement(monkeypatch):
    guo_wang = limits.laplacian_guo_wang
    monkeypatch.setattr(limits, "laplacian_guo_wang",
                        lambda n: tuple(v * OFF for v in guo_wang(n)))
    return verify.check_laplacian_agreement()


def ordering_constants(monkeypatch):
    omega2 = limits.omega2
    monkeypatch.setattr(limits, "omega2", lambda a: omega2(a) + 26 * math.ulp(omega2(a)))
    psis = ladder_and_psis()[1]
    return verify.check_ordering_constants({a: p + 0.5 for a, p in psis.items()})


def difference_identity(monkeypatch):
    off_coefficient(monkeypatch, "phi_version1", 0)
    return verify.check_difference_identity()


def theta_h_identity(monkeypatch):
    h = verify.h_of_lambda
    # off only at alpha 0, theta 0.05 (lambda 20.05)
    monkeypatch.setattr(verify, "h_of_lambda",
                        lambda lam, a: h(lam, a) + (1e-9 if lam > 10.0 else 0.0))
    ladder = {key: (g, eta + 1e-9) for key, (g, eta) in ladder_and_psis()[0].items()}
    return verify.check_theta_h_identity(ladder)


def closed_form_charpoly(monkeypatch):
    closed, closed_b = verify.path_charpoly_closed, verify.bn_charpoly_closed
    monkeypatch.setattr(verify, "path_charpoly_closed",
                        lambda k, a, lam: closed(k, a, lam) * (1.0 + 1e-6 * (a == 0.1)))
    monkeypatch.setattr(verify, "bn_charpoly_closed",
                        lambda k, a, lam: closed_b(k, a, lam) * (1.0 + 1e-6))
    return verify.check_closed_form_charpoly()


def q_scaled_half(monkeypatch):
    assemble = verify.assemble_a_alpha
    monkeypatch.setattr(verify, "assemble_a_alpha", lambda g, a: assemble(g, a) + 1e-3)
    return verify.check_q_is_scaled_half(GRAPHS)


def bipartite_l_q(monkeypatch):
    assemble = verify.assemble_laplacian

    def shifted(g, signless=False):
        m = assemble(g, signless=signless)
        return m + 0.01 * np.eye(len(m)) if signless else m
    monkeypatch.setattr(verify, "assemble_laplacian", shifted)
    return verify.check_bipartite_spectra(np.random.default_rng(1))


def graph_structure(monkeypatch):
    p2 = verify.p2_two_paths
    # p2(n, m) with n > m becomes a path of the same order: both the
    # degree sequences and the spectra differ, in one case
    monkeypatch.setattr(verify, "p2_two_paths",
                        lambda m, n: path(m + n + 2) if m > n else p2(m, n))
    monkeypatch.setattr(verify, "subdivide_edge", lambda g, e: g)
    return verify.check_graph_structure(GRAPHS)


PINS = {
    radius_bounds: PropertyResult(
        'radius-bounds', False, 5,
        'alpha=0.5 rho=-1.0 bounds=(1.5,2.0) g=4; 0-1,1-2,2-3; alpha=0.5 rho=-1.0 bounds=(1.5,2.0) g=4; 0-1,0-3,1-2,2-3; alpha=0.5 rho=-1.0 bounds=(2.0,3.0) g=4; 0-1,0-2,0-3'),
    subgraph_strict: PropertyResult(
        'subgraph-strict', False, 4,
        'alpha=0.0 g=4; 0-1,1-2,2-3 h=3; 0-1,1-2; alpha=0.5 g=4; 0-1,0-2,0-3 h=3; 0-1,1-2; alpha=0.8 g=5; 0-1,0-3,0-4,1-2,2-3 h=3; 0-1,1-2'),
    alpha_monotone: PropertyResult(
        'alpha-monotone', False, 5,
        'rho(0.7)=1.0 <= rho(0.2)=2.0: 4; 0-1,1-2,2-3; regular but moved: 4; 0-1,0-3,1-2,2-3; rho(0.7)=1.0 <= rho(0.2)=2.0: 4; 0-1,0-2,0-3'),
    subdivision_direction: PropertyResult(
        'subdivision-direction', False, 7,
        'alpha=0.5 edge=(0, 1) rho=1.5 rho_sub=1.0 g=4; 0-1,1-2,2-3; alpha=0.5 edge=(1, 2) rho=1.5 rho_sub=1.0 g=4; 0-1,1-2,2-3; alpha=0.5 edge=(2, 3) rho=1.5 rho_sub=1.0 g=4; 0-1,1-2,2-3'),
    phi_increasing: PropertyResult(
        'phi-increasing', False, 25,
        'n=1 alpha=0.0; n=1 alpha=0.25; n=1 alpha=0.5'),
    duality: PropertyResult(
        'duality', False, 660,
        'n=1 alpha=0.0 x=0.05 residual=1.0000004158072784e-09; n=1 alpha=0.0 x=0.14 residual=1.0000001937626735e-09; n=1 alpha=0.0 x=0.23 residual=1.0000001937626735e-09'),
    route_equality: PropertyResult(
        'route-equality', False, 140,
        'n=1 alpha=0.0 values 2.0 2.000000000001819; n=1 alpha=0.0 roots 1.0 * 1.0000000000009095 = 1.0000000000009095; n=1 alpha=0.1 values 2.0027756377319945 2.002775637733816'),
    strict_chain_at_zero: PropertyResult(
        'strict-chain', False, 283,
        'alpha=0.0 eta_30 overshoots psi; alpha=0 chain does not start at 2, 2; alpha=0 chain not strict beyond the tie'),
    strict_chain_past_zero: PropertyResult(
        'strict-chain', False, 283,
        'alpha=0.3 min gap=-0.0072144377726770514; alpha=0.5 min gap=-0.0035405545237670033; alpha=0.7 min gap=-0.00047615181795857'),
    eta_converges: PropertyResult(
        'eta-converges', False, 10,
        'alpha=0.0 gap=0.010000000002385434; alpha=0.1 gap=0.010000000000053966; alpha=0.2 gap=0.010000000000000231'),
    classic_routes: PropertyResult(
        'classic-routes', False, 60,
        'n=1 values 2.000000000001819 2.0; n=1 roots 1.0000000000009095 * 1.0 = 1.0000000000009095; n=2 values 2.0198008870923045 2.0198008870904673'),
    laplacian_agreement: PropertyResult(
        'laplacian-agreement', False, 62,
        'n=0 values 4.0 4.000000000003638; n=0 roots 1.0 * 1.0000000000009095 = 1.0000000000009095; n=1 values 4.23606797749979 4.236067977503643'),
    ordering_constants: PropertyResult(
        'ordering-constants', False, 40,
        'alpha=0.0 psi off its closed form; alpha=0.0 psi >= omega1; alpha=0.0 omega2 below psi'),
    difference_identity: PropertyResult(
        'difference-identity', False, 160,
        'n=1 alpha=0.0 x=0.1; n=1 alpha=0.0 x=0.35; n=1 alpha=0.0 x=0.6'),
    theta_h_identity: PropertyResult(
        'theta-h-identity', False, 90,
        'alpha=0.0 theta=0.05; eta mismatch n=1 alpha=0.0; eta mismatch n=3 alpha=0.0'),
    closed_form_charpoly: PropertyResult(
        'closed-form-charpoly', False, 912,
        'path k=2 alpha=0.1 lam=2.050; bn k=2 alpha=0.1 lam=2.050; path k=2 alpha=0.1 lam=2.329'),
    q_scaled_half: PropertyResult(
        'q-scaled-half', False, 5,
        '4; 0-1,1-2,2-3; 4; 0-1,0-3,1-2,2-3; 4; 0-1,0-2,0-3'),
    bipartite_l_q: PropertyResult(
        'bipartite-l-q', False, 100,
        '8; 0-1,0-5,1-6,2-4,3-6,4-7,6-7; 12; 0-2,1-3,2-10,3-4,3-5,3-9,4-7,5-8,6-7,6-11,9-10; 4; 0-1,0-3,2-3'),
    graph_structure: PropertyResult(
        'graph-structure', False, 17,
        'p2 degree sequences differ at (1,3); p2 spectra differ at (1,3); p2 degree sequences differ at (2,5)'),
}


@pytest.mark.parametrize("fault", PINS, ids=[f.__name__ for f in PINS])
def test_a_failing_check_reports_as_pinned(fault, monkeypatch):
    assert fault(monkeypatch) == PINS[fault]


def test_every_check_has_a_pinned_failure():
    names = {result.name for result in PINS.values()}
    assert len(names) == 18
    assert all(not result.passed for result in PINS.values())
