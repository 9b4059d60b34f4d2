"""Simple undirected graphs and the specific families the limit constructions use.

Vertices are contiguous 0-based integers. Constructors that have a designated
root vertex (pendant path attachments and the like) document it.

A graph's adjacency is built once, on first use: Graph.adj holds one
neighbour list per vertex, in ascending order whatever the layout of the
frozen edge set, and every degree, neighbour and traversal query reads it.
The lists are shared by all callers, who must not mutate them. One walk,
_internal_arcs, follows the degree-2 arcs out of each branch vertex and
defines the internal paths: internal_paths lists its arcs, and
internal_path_edges returns its edge set. Graph.is_connected walks
breadth first; the depth-first walk behind the leaves-first elimination
plans lives in the spectral layer, which reads Graph.adj itself.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: vertex count plus a set of unordered edges."""

    n_vertices: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        n = self.n_vertices
        try:
            operator.index(n)
        except TypeError:
            raise ValueError(f"vertex count {n!r} is not an integer") from None
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = set()
        for e in self.edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not a pair of vertices") from None
            try:
                u, v = operator.index(u), operator.index(v)
            except TypeError:
                raise ValueError(f"edge {e} has a non-integer endpoint") from None
            if u > v:
                u, v = v, u
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u < 0 or v >= n:
                raise ValueError(f"edge {e} out of range for {n} vertices")
            norm.add((u, v))
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self) -> list:
        """Ascending neighbour lists, built on first use; read only."""
        adj = [[] for _ in range(self.n_vertices)]
        for u, v in sorted(self.edges):
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self.adj], dtype=int)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n_vertices, self.n_vertices))
        for u, v in self.edges:
            a[u, v] = a[v, u] = 1.0
        return a

    def is_connected(self) -> bool:
        seen = [False] * self.n_vertices
        seen[0] = True
        order = [0]
        for u in order:  # grows while it is walked: a BFS queue
            for w in self.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
        return len(order) == self.n_vertices


@dataclass(frozen=True)
class InternalPath:
    """Walk v0..vk whose interior has degree 2 and whose ends have degree > 2.

    TypeI closes on itself (v0 = vk, a cycle hanging from one branch vertex);
    TypeII joins two distinct branch vertices.
    """

    vertices: tuple
    kind: str

    def __post_init__(self):
        if self.kind not in ("TypeI", "TypeII"):
            raise ValueError(f"unknown internal path kind {self.kind!r}")


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------


def path(n: int) -> Graph:
    """Path P_n on vertices 0..n-1."""
    if n < 1:
        raise ValueError("path order must be at least 1")
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    """Cycle C_n, n >= 3."""
    if n < 3:
        raise ValueError("cycle order must be at least 3")
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def star(k: int) -> Graph:
    """Star K_{1,k} with the center at index 0 and k leaves."""
    if k < 1:
        raise ValueError("star needs at least one leaf")
    return Graph(k + 1, frozenset((0, i) for i in range(1, k + 1)))


def wheel5() -> Graph:
    """The 5-vertex wheel: hub 0 joined to a 4-cycle 1-2-3-4-1."""
    edges = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)}
    return Graph(5, frozenset(edges))


def lollipop(n: int) -> Graph:
    """Cycle C_{n-1} with one pendant vertex attached; n vertices, n >= 4.

    Cycle vertices are 0..n-2, the pendant n-1 hangs from vertex 0.
    """
    if n < 4:
        raise ValueError("lollipop order must be at least 4")
    g = cycle(n - 1)
    return Graph(n, g.edges | {(0, n - 1)})


def double_snake(n: int) -> Graph:
    """Path v0..v_{n-5} with two pendant vertices at each end; n >= 6.

    Both path ends get degree 3, giving the unique tree with spectral
    radius exactly 2 at alpha = 0 among these orders.
    """
    if n < 6:
        raise ValueError("double snake order must be at least 6")
    m = n - 4  # path vertices 0..n-5
    edges = set((i, i + 1) for i in range(m - 1))
    edges |= {(0, m), (0, m + 1), (m - 1, m + 2), (m - 1, m + 3)}
    return Graph(n, frozenset(edges))


def p2_two_paths(m: int, n: int) -> Graph:
    """An edge u-w with pendant paths of orders m and n hung from u.

    Vertices: u = 0, w = 1, then the m-path, then the n-path; m + n + 2
    vertices in total. Orders 0 are allowed and drop the corresponding path.
    """
    if m < 0 or n < 0:
        raise ValueError("path orders must be non-negative")
    edges = {(0, 1)}
    if m >= 1:
        edges.add((0, 2))
        edges |= {(2 + i, 3 + i) for i in range(m - 1)}
    if n >= 1:
        edges.add((0, 2 + m))
        edges |= {(2 + m + i, 3 + m + i) for i in range(n - 1)}
    return Graph(m + n + 2, frozenset(edges))


def attach_pendant_path(g: Graph, u: int, n: int) -> Graph:
    """Hang a path of n new vertices from vertex u of g; n = 0 returns g."""
    if not (0 <= u < g.n_vertices):
        raise ValueError(f"vertex {u} not in graph")
    if n < 0:
        raise ValueError("pendant path order must be non-negative")
    if n == 0:
        return g
    base = g.n_vertices
    edges = set(g.edges)
    edges.add((u, base))
    edges |= {(base + i, base + i + 1) for i in range(n - 1)}
    return Graph(base + n, frozenset(edges))


def subdivide_edge(g: Graph, e: tuple) -> Graph:
    """Replace edge e by a length-2 path through one new vertex."""
    u, v = min(e), max(e)
    if (u, v) not in g.edges:
        raise ValueError(f"edge {e} not in graph")
    w = g.n_vertices
    edges = set(g.edges)
    edges.remove((u, v))
    edges |= {(u, w), (w, v)}
    return Graph(g.n_vertices + 1, frozenset(edges))


# ---------------------------------------------------------------------------
# structure classification
# ---------------------------------------------------------------------------


def _internal_arcs(g: Graph) -> tuple:
    """(walks, edges): the one walk that finds the internal paths of g.

    From each branch vertex v0 (degree > 2) in ascending order, and each
    of its neighbours in ascending order, the arc through degree-2 vertices
    is followed on g.adj to its end and kept iff that end is a branch
    vertex, not a leaf. An arc whose first edge already lies on a kept arc
    is that arc walked backwards, so it is skipped: each maximal arc is
    kept once, from its lower end, or its lower first step on a cycle
    hanging from one vertex. walks holds the kept arcs as vertex tuples
    v0..vk; edges holds their edges (u, v), u < v.
    """
    adj = g.adj
    walks = []
    edges = set()
    for v0, nbrs in enumerate(adj):
        if len(nbrs) <= 2:
            continue
        for first in nbrs:
            e = (v0, first) if v0 < first else (first, v0)
            if e in edges:
                continue
            walk, arc = [v0, first], [e]
            prev, cur = v0, first
            while len(adj[cur]) == 2:
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
                walk.append(cur)
                arc.append((prev, cur) if prev < cur else (cur, prev))
            if len(adj[cur]) > 2:
                walks.append(tuple(walk))
                edges.update(arc)
    return walks, edges


def internal_paths(g: Graph) -> list:
    """All maximal internal paths of g.

    Walks v0..vk with d(v0) > 2, d(vk) > 2 and every interior degree
    exactly 2. Each maximal degree-2 arc between branch vertices is
    reported once; an edge joining two branch vertices is a k = 1 path.
    TypeI paths close a cycle on a single branch vertex. Paths are listed
    by branch vertex v0, then by first step in ascending order, as
    _internal_arcs walks them.
    """
    return [InternalPath(w, "TypeI" if w[0] == w[-1] else "TypeII")
            for w in _internal_arcs(g)[0]]


def internal_path_edges(g: Graph) -> set:
    """Every edge (u, v), u < v, that lies on some internal path of g."""
    return _internal_arcs(g)[1]


def is_regular(g: Graph) -> bool:
    d = len(g.adj[0])
    return all(len(nbrs) == d for nbrs in g.adj)


def is_double_snake(g: Graph) -> bool:
    """Structural test: a path with exactly two pendant vertices at each end."""
    n = g.n_vertices
    if n < 6 or g.n_edges != n - 1:
        return False
    deg = [len(nbrs) for nbrs in g.adj]
    if (deg.count(1) != 4 or deg.count(3) != 2 or deg.count(2) != n - 6
            or not g.is_connected()):
        return False
    for b in range(n):
        if deg[b] == 3 and sum(deg[w] == 1 for w in g.adj[b]) != 2:
            return False
    return True


# ---------------------------------------------------------------------------
# one-line edge-list serialization
# ---------------------------------------------------------------------------


def format_graph(g: Graph) -> str:
    """Serialize as `n_vertices; u1-v1,u2-v2,...` with edges sorted."""
    es = ",".join(f"{u}-{v}" for u, v in sorted(g.edges))
    return f"{g.n_vertices}; {es}" if es else f"{g.n_vertices};"


def parse_graph(text: str) -> Graph:
    """Inverse of format_graph. Raises ValueError with a position on bad input."""
    head, sep, tail = text.partition(";")
    if not sep:
        raise ValueError(f"missing ';' in graph literal at position {len(text)}")
    try:
        n = int(head.strip())
    except ValueError:
        raise ValueError(f"bad vertex count {head.strip()!r} at position 0") from None
    edges = set()
    tail = tail.strip()
    if tail:
        pos = len(head) + 1
        for part in tail.split(","):
            piece = part.strip()
            if piece.count("-") != 1:
                raise ValueError(f"bad edge {piece!r} at position {pos}")
            a, b = piece.split("-")
            try:
                u, v = int(a), int(b)
            except ValueError:
                raise ValueError(f"bad edge {piece!r} at position {pos}") from None
            edges.add((u, v))
            pos += len(part) + 1
    return Graph(n, frozenset(edges))
