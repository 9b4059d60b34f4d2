"""Constructors, internal-path extraction and the edge-list text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphalimits.graphs import (
    Graph,
    attach_pendant_path,
    cycle,
    double_snake,
    format_graph,
    internal_path_edges,
    internal_paths,
    is_double_snake,
    is_regular,
    lollipop,
    p2_two_paths,
    parse_graph,
    path,
    star,
    subdivide_edge,
    wheel5,
)
from alphalimits.spectral import _tree_plan
from alphalimits.verify import _on_a_cycle


def test_graph_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        Graph(0, frozenset())


def test_graph_rejects_a_vertex_count_that_is_not_an_integer():
    for n in (3.5, 3.0, "3", None):
        with pytest.raises(ValueError, match="not an integer"):
            Graph(n, frozenset({(0, 2)}))
    g = Graph(np.int64(3), frozenset({(0, 2)}))  # numpy ints pass
    assert g == Graph(3, frozenset({(0, 2)})) and g.adj == [[2], [], [0]]


def test_graph_rejects_non_integer_endpoints():
    for edges in ({(0, 1.5), (1.5, 2)}, {(0, 2.0)}, {("0", "1")}, {(0, "2")}):
        with pytest.raises(ValueError, match=r"edge \(.*\) has a non-integer endpoint"):
            Graph(3, frozenset(edges))
    g = Graph(3, frozenset({(np.int64(2), np.int64(0))}))  # numpy ints pass, as ints
    assert g.edges == {(0, 2)} and all(type(x) is int for x in next(iter(g.edges)))


def test_graph_names_an_edge_that_is_not_a_pair():
    for edge in (5, (0, 1, 2), (1,)):
        with pytest.raises(ValueError) as exc:
            Graph(3, frozenset({edge}))
        assert str(exc.value) == f"edge {edge!r} is not a pair of vertices"


def test_graph_normalizes_edge_orientation():
    g = Graph(3, frozenset({(2, 0), (1, 2)}))
    assert g.edges == frozenset({(0, 2), (1, 2)})
    assert g.n_edges == 2


def test_reversed_and_duplicate_edges_normalise_to_one():
    g = Graph(2, frozenset({(1, 0), (0, 1)}))
    assert g.edges == frozenset({(0, 1)})
    assert g.n_edges == 1
    assert g.degrees().tolist() == [1, 1]


@pytest.mark.parametrize("edge, message", [
    ((2, 2), "self-loop at vertex 2"),
    ((-1, 2), "edge (-1, 2) out of range for 4 vertices"),
    ((2, -1), "edge (2, -1) out of range for 4 vertices"),
    ((5, 2), "edge (5, 2) out of range for 4 vertices"),
    ((4, 4), "self-loop at vertex 4"),
])
def test_bad_edges_raise_their_messages(edge, message):
    with pytest.raises(ValueError) as exc:
        Graph(4, frozenset({(0, 1), edge}))
    assert str(exc.value) == message


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 15))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=40))
    return n, edges


@settings(max_examples=200, deadline=None, derandomize=True)
@given(edge_lists())
def test_degrees_count_edge_endpoints(case):
    n, edges = case
    g = Graph(n, frozenset(edges))
    assert g.edges == frozenset((min(e), max(e)) for e in edges)
    d = g.degrees()
    assert d.dtype == np.dtype(int)
    ends = np.array(sorted(g.edges), dtype=int).reshape(-1)
    assert np.array_equal(d, np.bincount(ends, minlength=n))


def test_path_and_cycle_shapes():
    p = path(5)
    assert p.n_vertices == 5 and p.n_edges == 4
    assert sorted(p.degrees()) == [1, 1, 2, 2, 2]
    assert path(1).n_edges == 0
    c = cycle(6)
    assert c.n_vertices == 6 and c.n_edges == 6
    assert is_regular(c)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)


def test_star_and_wheel():
    s = star(4)
    assert s.n_vertices == 5
    assert s.degrees()[0] == 4
    assert sorted(s.degrees()) == [1, 1, 1, 1, 4]
    w = wheel5()
    assert w.n_vertices == 5 and w.n_edges == 8
    assert sorted(w.degrees()) == [3, 3, 3, 3, 4]
    assert w.degrees()[0] == 4  # hub carries the largest degree


def test_lollipop_and_double_snake():
    g = lollipop(6)
    assert g.n_vertices == 6 and g.n_edges == 6
    assert sorted(g.degrees()) == [1, 2, 2, 2, 2, 3]
    ds = double_snake(8)
    assert ds.n_vertices == 8 and ds.n_edges == 7
    assert sorted(ds.degrees()) == [1, 1, 1, 1, 2, 2, 3, 3]
    assert is_double_snake(ds)
    assert not is_double_snake(path(8))
    assert not is_double_snake(star(4))
    with pytest.raises(ValueError):
        double_snake(5)


def test_two_paths_at_one_end():
    g = p2_two_paths(3, 4)
    assert g.n_vertices == 2 + 3 + 4
    assert g.degrees()[0] == 3  # u = 0 carries both paths
    # the other edge endpoint stays a leaf
    assert g.degrees()[1] == 1
    h = p2_two_paths(4, 3)
    assert sorted(g.degrees()) == sorted(h.degrees())


def test_attach_pendant_path():
    g = attach_pendant_path(star(3), 0, 5)
    assert g.n_vertices == 9 and g.n_edges == 8
    assert g.degrees()[0] == 4
    assert attach_pendant_path(star(3), 0, 0) == star(3)
    with pytest.raises(ValueError):
        attach_pendant_path(star(3), 9, 1)


def test_subdivide_edge_counts():
    g = cycle(5)
    gs = subdivide_edge(g, (0, 1))
    assert gs.n_vertices == 6 and gs.n_edges == 6
    assert sorted(gs.degrees()) == [2] * 6
    with pytest.raises(ValueError):
        subdivide_edge(g, (0, 2))


def test_internal_paths_absent_on_paths_and_cycles():
    assert internal_paths(path(9)) == []
    assert internal_paths(cycle(7)) == []


def test_internal_paths_on_lollipop():
    # the cycle arc leaves the degree-3 vertex and returns to it
    g = lollipop(6)
    paths = internal_paths(g)
    assert len(paths) == 1
    p = paths[0]
    assert p.kind == "TypeI"
    assert p.vertices[0] == p.vertices[-1]
    deg = g.degrees()
    assert deg[p.vertices[0]] == 3
    assert all(deg[v] == 2 for v in p.vertices[1:-1])


def test_internal_paths_on_double_snake():
    ds = double_snake(9)
    paths = internal_paths(ds)
    assert len(paths) == 1
    p = paths[0]
    assert p.kind == "TypeII"
    ends = {p.vertices[0], p.vertices[-1]}
    deg = ds.degrees()
    assert all(deg[v] == 3 for v in ends)
    spine_edge = (p.vertices[0], p.vertices[1])
    assert (min(spine_edge), max(spine_edge)) in internal_path_edges(ds)
    leaf = int(np.argmin(deg))
    leaf_edge = next(e for e in ds.edges if leaf in e)
    assert leaf_edge not in internal_path_edges(ds)


def test_branch_to_branch_edge_is_internal():
    # two degree-3 vertices joined directly: a shortest internal path
    g = Graph(6, frozenset({(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)}))
    paths = internal_paths(g)
    assert any(p.vertices == (0, 3) or p.vertices == (3, 0) for p in paths)
    assert (0, 3) in internal_path_edges(g)


def test_bipartite_and_regular():
    assert is_regular(cycle(8))
    assert not is_regular(star(3))


def test_format_parse_round_trip():
    for g in (path(4), cycle(5), wheel5(), star(3), double_snake(7)):
        assert parse_graph(format_graph(g)) == g
    assert format_graph(Graph(3, frozenset())) == "3;"
    assert parse_graph("3;") == Graph(3, frozenset())


def test_parse_errors_carry_position():
    with pytest.raises(ValueError, match="position"):
        parse_graph("4; 0-1,2*3")
    with pytest.raises(ValueError):
        parse_graph("not a graph")
    with pytest.raises(ValueError):
        parse_graph("4; 0-9")


def test_neighbors_sorted_and_connectivity():
    g = wheel5()
    assert sorted(g.adj[0]) == [1, 2, 3, 4]
    assert g.is_connected()
    assert not Graph(4, frozenset({(0, 1), (2, 3)})).is_connected()


def _bridges(g):
    """The edges that _on_a_cycle finds on no cycle."""
    return {e for e in g.edges if not _on_a_cycle(g, e)}


def test_on_a_cycle_by_walk():
    assert _bridges(path(5)) == set(path(5).edges)
    assert _bridges(cycle(6)) == set()
    assert _bridges(lollipop(6)) == {(0, 5)}
    # a triangle 0-1-2 and a 4-cycle 3-4-5-6 joined by the path 0-7-8-4
    two_cycles = parse_graph("9; 0-1,0-2,1-2,3-4,3-6,4-5,5-6,0-7,4-8,7-8")
    assert _bridges(two_cycles) == {(0, 7), (7, 8), (4, 8)}
    assert _bridges(Graph(3, frozenset({(0, 1)}))) == {(0, 1)}
    assert _bridges(Graph(1)) == set()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=9), st.data())
def test_bridges_are_the_edges_whose_deletion_disconnects(n, data):
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pool)))
    g = Graph(n, frozenset(edges))
    components = _component_count(g)
    expected = {e for e in g.edges
                if _component_count(Graph(n, g.edges - {e})) > components}
    assert _bridges(g) == expected


def _component_labels(g):
    """Each vertex's component as its least vertex, by union-find on the
    edges, without the graph's adjacency."""
    label = list(range(g.n_vertices))

    def find(v):
        while label[v] != v:
            v = label[v]
        return v

    for u, v in g.edges:
        a, b = find(u), find(v)
        label[max(a, b)] = min(a, b)
    return [find(v) for v in range(g.n_vertices)]


def _component_count(g):
    return len(set(_component_labels(g)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=9), st.data())
def test_adjacency_and_bfs_against_brute_force(n, data):
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, frozenset(data.draw(st.sets(st.sampled_from(pool))) if pool else ()))
    both_ways = sorted([*g.edges, *((v, u) for u, v in g.edges)])
    assert sum(len(a) for a in g.adj) == 2 * g.n_edges
    assert sorted((u, w) for u in range(n) for w in g.adj[u]) == both_ways
    ends = [x for e in g.edges for x in e]
    assert g.degrees().tolist() == [ends.count(v) for v in range(n)]
    label = _component_labels(g)
    is_tree = g.n_edges == n - 1 and len(set(label)) == 1
    for root in range(n):
        assert (_tree_plan(g, root) is None) == (not is_tree)
    assert g.is_connected() == (len(set(label)) == 1)


def test_cached_adjacency_is_not_part_of_the_value():
    g, h = wheel5(), wheel5()
    assert g.adj is g.adj
    assert "adj" in vars(g) and "adj" not in vars(h)
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
    assert "adj" not in repr(g)
