"""Property-based checks: algebraic identities and graph-operation invariants."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from alphalimits.graphs import Graph, format_graph, parse_graph, subdivide_edge
from alphalimits.limits import eta_n, gamma_n, phi_version1, phi_version2, psi
from alphalimits.spectral import (
    assemble_a_alpha,
    assemble_laplacian,
    char_poly_eval,
    full_spectrum,
    h_of_lambda,
)
from alphalimits.verify import (
    difference_poly_f,
    theta_substitution,
    tridiag_charpoly_recurrence,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

alphas = st.floats(min_value=0.0, max_value=0.9)


@st.composite
def connected_graphs(draw, max_n=9, max_extra=3):
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((parent, v))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    if pool:
        k = draw(st.integers(min_value=0, max_value=min(max_extra, len(pool))))
        for _ in range(k):
            edges.add(draw(st.sampled_from(pool)))
    return Graph(n, frozenset(edges))


@st.composite
def random_trees(draw, max_n=10):
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(min_value=0, max_value=v - 1)), v))
    return Graph(n, frozenset(edges))


@PROPERTY_SETTINGS
@given(
    n=st.integers(min_value=1, max_value=12),
    alpha=alphas,
    x=st.floats(min_value=0.05, max_value=0.95),
)
def test_duality_between_the_two_root_polynomials(n, alpha, x):
    lhs = phi_version1(n, alpha)(x)
    rhs = -(x ** (n + 1)) * phi_version2(n, alpha)(1.0 / x)
    assert abs(lhs - rhs) < 1e-11 * (2 * n + 3)


@PROPERTY_SETTINGS
@given(
    n=st.integers(min_value=1, max_value=10),
    alpha=alphas,
    x=st.floats(min_value=0.0, max_value=1.5),
)
def test_consecutive_polynomial_difference_identity(n, alpha, x):
    diff = phi_version1(n + 1, alpha)(x) - x * phi_version1(n, alpha)(x)
    assert abs(diff - difference_poly_f(x, alpha)) < 1e-10


@PROPERTY_SETTINGS
@given(theta=st.floats(min_value=0.05, max_value=0.9), alpha=alphas)
def test_theta_substitution_round_trip(theta, alpha):
    lam = theta_substitution(theta, alpha)
    assert lam > 2.0
    assert abs(theta_substitution(1.0 / theta, alpha) - lam) < 1e-12 * lam


@PROPERTY_SETTINGS
@given(theta=st.floats(min_value=0.05, max_value=0.9), alpha=alphas)
def test_h_in_terms_of_theta(theta, alpha):
    lam = theta_substitution(theta, alpha)
    expected = theta / (1.0 - alpha * (1.0 - theta))
    assert abs(h_of_lambda(lam, alpha) - expected) < 1e-9


@PROPERTY_SETTINGS
@given(g=connected_graphs())
def test_format_parse_round_trip(g):
    assert parse_graph(format_graph(g)) == g


@PROPERTY_SETTINGS
@given(
    n=st.integers(min_value=1, max_value=20),
    alpha=st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9]),
)
def test_gamma_is_a_root_in_the_unit_interval(n, alpha):
    g = gamma_n(n, alpha)
    assert 0.0 < g <= 1.0
    if (n, alpha) != (1, 0.0):
        assert g < 1.0
    assert abs(phi_version1(n, alpha)(g)) < 1e-10


@PROPERTY_SETTINGS
@given(
    n=st.integers(min_value=0, max_value=25),
    alpha=st.sampled_from([0.0, 0.2, 0.5, 0.8]),
)
def test_eta_is_squeezed_between_two_and_psi(n, alpha):
    e = eta_n(n, alpha)
    assert 2.0 <= e < 3.0
    assert e <= psi(alpha) + 1e-12


@PROPERTY_SETTINGS
@given(
    diag=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=10),
    data=st.data(),
    lam=st.floats(min_value=-4.0, max_value=4.0),
)
def test_tridiagonal_recurrence_matches_determinant(diag, data, lam):
    k = len(diag)
    offdiag = data.draw(
        st.lists(
            st.floats(min_value=0.1, max_value=2.0), min_size=k - 1, max_size=k - 1
        )
    )
    m = np.diag(diag).astype(float)
    for i, b in enumerate(offdiag):
        m[i, i + 1] = m[i + 1, i] = b
    direct = float(np.linalg.det(lam * np.eye(k) - m))
    rec = tridiag_charpoly_recurrence(diag, offdiag, lam)
    scale = max(1.0, abs(direct), abs(rec))
    assert abs(direct - rec) < 1e-9 * scale


@PROPERTY_SETTINGS
@given(g=connected_graphs(), data=st.data())
def test_subdividing_an_edge_adds_one_vertex_and_one_edge(g, data):
    edge = data.draw(st.sampled_from(sorted(g.edges)))
    h = subdivide_edge(g, edge)
    assert h.n_vertices == g.n_vertices + 1
    assert h.n_edges == g.n_edges + 1
    assert h.is_connected()
    assert h.degrees()[g.n_vertices] == 2
    u, v = edge
    assert (min(u, v), max(u, v)) not in h.edges


@PROPERTY_SETTINGS
@given(g=connected_graphs(), alpha=alphas)
def test_alpha_matrix_interpolates_adjacency_and_degrees(g, alpha):
    m = assemble_a_alpha(g, alpha)
    a = g.adjacency()
    d = np.diag(g.degrees().astype(float))
    assert np.allclose(m, alpha * d + (1.0 - alpha) * a, atol=1e-14)
    assert np.allclose(m, m.T, atol=0.0)


@PROPERTY_SETTINGS
@given(g=connected_graphs())
def test_signless_laplacian_is_twice_the_half_alpha_matrix(g):
    q = assemble_laplacian(g, signless=True)
    half = assemble_a_alpha(g, 0.5)
    assert np.array_equal(q, 2.0 * half)


@PROPERTY_SETTINGS
@given(t=random_trees())
def test_tree_adjacency_spectrum_is_symmetric_about_zero(t):
    w = full_spectrum(assemble_a_alpha(t, 0.0))
    assert np.allclose(w, -w[::-1], atol=1e-9)


@PROPERTY_SETTINGS
@given(g=connected_graphs(), alpha=alphas, lam=st.floats(min_value=2.1, max_value=4.0))
def test_characteristic_polynomial_sign_above_the_radius(g, alpha, lam):
    top = float(np.max(np.abs(np.linalg.eigvalsh(assemble_a_alpha(g, alpha)))))
    if lam > top + 1e-6:
        assert char_poly_eval(g, alpha, lam) > 0.0
