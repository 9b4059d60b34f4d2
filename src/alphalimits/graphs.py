"""Simple undirected graphs and the specific families the limit constructions use.

Vertices are contiguous 0-based integers. Constructors that have a designated
root vertex (pendant path attachments and the like) document or return it.

A graph's adjacency is built once, on first use: Graph.adj holds one
neighbour list per vertex, filled from the frozen edge set in its own
iteration order, and every degree, neighbour and traversal query reads it.
The lists are shared by all callers, who must not mutate them; neighbors
returns a sorted copy, and internal_paths sorts only the lists of branch
vertices. bfs is the one breadth-first traversal, behind connectivity and
bipartiteness; folded_preorder is the depth-first walk behind the
leaves-first elimination plans of the spectral layer.
"""

from __future__ import annotations

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
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = set()
        for e in self.edges:
            u, v = e
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
        """Neighbour lists in edge-set order, built on first use; read only."""
        adj = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
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

    def neighbors(self, u: int) -> list:
        return sorted(self.adj[u])

    def is_connected(self) -> bool:
        return len(bfs(self, 0)[0]) == self.n_vertices


def bfs(g: Graph, root: int) -> tuple:
    """(order, parent) of a breadth-first search of root's component.

    order lists the component's vertices, root first, each vertex's
    neighbours taken in g.adj order. parent[v] is v's parent in the search
    tree, n for the root and -1 for a vertex outside the component.
    """
    n = g.n_vertices
    adj = g.adj
    parent = [-1] * n
    parent[root] = n
    order = [root]
    for u in order:  # grows while it is walked: a BFS queue
        for w in adj[u]:
            if parent[w] == -1:
                parent[w] = u
                order.append(w)
    return order, parent


def folded_preorder(g: Graph, root: int) -> list:
    """A depth-first preorder of root's component, with each run of degree-2
    vertices other than root folded into the vertex below it.

    Returns (vertex, parent, k) triples in preorder: the k vertices above
    vertex form a run of degree-2 vertices, each with one child, the one
    below it, and parent is the parent of the run's top (n for root).
    Children are taken in g.adj order. On a tree, expanding each triple to
    its run's top down to vertex gives the preorder itself, so a subtree is
    one contiguous stretch of it, and a run is listed as one triple. A
    vertex is marked when it is reached, so on a graph with cycles the
    triples still list root's component once, vertices plus runs, but do
    not follow a depth-first search.
    """
    n = g.n_vertices
    adj = g.adj
    parent = [-1] * n
    parent[root] = n
    out = []
    stack = [root]
    while stack:
        u = stack.pop()
        v, k = u, 0
        if u != root:
            ends = adj[v]
            while len(ends) == 2:  # v's parent is marked; step to its child
                a, b = ends
                w = a if parent[a] == -1 else b
                if parent[w] != -1:
                    break
                parent[w] = v
                v, k = w, k + 1
                ends = adj[v]
        out.append((v, parent[u], k))
        for w in reversed(adj[v]):
            if parent[w] == -1:
                parent[w] = v
                stack.append(w)
    return out


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


def p2_two_paths(m: int, n: int) -> tuple:
    """An edge u-w with pendant paths of orders m and n hung from u.

    Returns (graph, u). Vertices: u = 0, w = 1, then the m-path, then the
    n-path; m + n + 2 vertices in total. Orders 0 are allowed and drop the
    corresponding path.
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
    return Graph(m + n + 2, frozenset(edges)), 0


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


def join_by_path(x: Graph, xv: int, y: Graph, yv: int, n: int) -> Graph:
    """Disjoint union of x and y joined by a path with n interior vertices.

    The connecting walk from xv to yv has length n + 1; n = 0 is a direct
    edge. y's vertices are shifted by x.n_vertices, interior vertices come
    last.
    """
    if not (0 <= xv < x.n_vertices):
        raise ValueError(f"vertex {xv} not in first graph")
    if not (0 <= yv < y.n_vertices):
        raise ValueError(f"vertex {yv} not in second graph")
    if n < 0:
        raise ValueError("interior vertex count must be non-negative")
    off = x.n_vertices
    edges = set(x.edges)
    edges |= {(u + off, v + off) for u, v in y.edges}
    if n == 0:
        edges.add((xv, yv + off))
    else:
        base = off + y.n_vertices
        edges.add((xv, base))
        edges |= {(base + i, base + i + 1) for i in range(n - 1)}
        edges.add((base + n - 1, yv + off))
    return Graph(off + y.n_vertices + n, frozenset(edges))


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


def internal_paths(g: Graph) -> list:
    """All maximal internal paths of g.

    Walks v0..vk with d(v0) > 2, d(vk) > 2 and every interior degree
    exactly 2. Each maximal degree-2 arc between branch vertices is
    reported once; an edge joining two branch vertices is a k = 1 path.
    TypeI paths close a cycle on a single branch vertex. Paths are listed
    by branch vertex v0, then by first step in ascending order; the choice
    of next step at a degree-2 vertex does not depend on list order.
    """
    deg = g.degrees()
    adj = g.adj
    found = []
    seen_keys = set()
    for v0 in range(g.n_vertices):
        if deg[v0] <= 2:
            continue
        for first in sorted(adj[v0]):
            walk = [v0, first]
            prev, cur = v0, first
            while deg[cur] == 2:
                a, b = adj[cur]
                nxt = b if a == prev else a
                walk.append(nxt)
                prev, cur = cur, nxt
            if deg[cur] <= 2:
                continue  # dead-ends at a leaf chain, not internal
            interior = frozenset(walk[1:-1])
            key = (frozenset((walk[0], walk[-1])), interior)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            kind = "TypeI" if walk[0] == walk[-1] else "TypeII"
            found.append(InternalPath(tuple(walk), kind))
    return found


def internal_path_edges(g: Graph) -> set:
    """Every edge (u, v), u < v, that lies on some internal path of g."""
    return {(min(a, b), max(a, b))
            for p in internal_paths(g) for a, b in zip(p.vertices, p.vertices[1:])}


def edge_in_internal_path(g: Graph, e: tuple) -> bool:
    """Whether edge e lies on some internal path of g."""
    return (min(e), max(e)) in internal_path_edges(g)


def bridges(g: Graph) -> set:
    """Every edge (u, v), u < v, whose deletion disconnects its component.

    One depth-first pass with Tarjan's low-link values: the tree edge from
    p down to u is a bridge iff no edge out of u's subtree, other than that
    one, reaches p or a vertex discovered before it, i.e. low[u] > disc[p].
    """
    adj = g.adj
    disc = [-1] * g.n_vertices
    low = [0] * g.n_vertices
    found = set()
    clock = 0
    for root in range(g.n_vertices):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            u, p, rest = stack[-1]
            for w in rest:
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, u, iter(adj[w])))
                    break
                if w != p:
                    low[u] = min(low[u], disc[w])
            else:
                stack.pop()
                if p >= 0:
                    low[p] = min(low[p], low[u])
                    if low[u] > disc[p]:
                        found.add((min(p, u), max(p, u)))
    return found


def is_bipartite(g: Graph) -> bool:
    """2-colouring test: each vertex on the side opposite its BFS parent,
    then no edge within a side."""
    side = [-1] * g.n_vertices
    for s in range(g.n_vertices):
        if side[s] == -1:
            order, parent = bfs(g, s)
            side[s] = 0
            for v in order[1:]:
                side[v] = 1 - side[parent[v]]
    return all(side[u] != side[v] for u, v in g.edges)


def is_regular(g: Graph) -> bool:
    d = g.degrees()
    return bool(np.all(d == d[0]))


def is_double_snake(g: Graph) -> bool:
    """Structural test: a path with exactly two pendant vertices at each end."""
    n = g.n_vertices
    if n < 6 or g.n_edges != n - 1 or not g.is_connected():
        return False
    deg = g.degrees()
    counts = np.bincount(deg, minlength=4)
    if counts[1] != 4 or counts[3] != 2 or counts[1] + counts[2] + counts[3] != n:
        return False
    branch = [v for v in range(n) if deg[v] == 3]
    for b in branch:
        leaves = [w for w in g.adj[b] if deg[w] == 1]
        if len(leaves) != 2:
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
