"""Immutable simple graphs and the elementary computations everything else uses.

Vertex labels are opaque hashable values that survive induced subgraphs and
deletions, so certificates can always cite the original vertices.  Labels of
different types may coexist in one graph (e.g. ints next to tuples produced
by graph operators); :func:`label_key` gives them a single total order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterable

import networkx as nx

from .errors import PreconditionError, UnknownVertexError

Vertex = Hashable

# Default cap for combinatorial operations (colouring, searches).
COMBINATORIAL_CAP = 512


def label_key(v):
    """Total order over mixed-type vertex labels (ints, strings, tuples)."""
    if isinstance(v, bool):  # bool before int check: bools are ints
        return (1, str(v))
    if isinstance(v, int):
        return (0, v)
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, tuple):
        return (2, tuple(label_key(x) for x in v))
    return (3, repr(v))


class Graph:
    """Immutable simple undirected graph.

    No loops, no parallel edges; adjacency is stored symmetrically.
    Mutation-style operations return new graphs.
    """

    __slots__ = ("_adj", "_vertices", "_edges")

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple]):
        vs = list(vertices)
        adj = {v: set() for v in vs}
        if len(adj) != len(vs):
            raise PreconditionError("duplicate vertex labels")
        for u, v in edges:
            if u not in adj or v not in adj:
                raise UnknownVertexError(f"edge endpoint not a vertex: {(u, v)}")
            if u == v:
                raise PreconditionError(f"loop rejected at vertex {u!r}")
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}
        self._vertices = tuple(sorted(adj, key=label_key))
        self._edges = tuple(
            sorted(
                (tuple(sorted((u, v), key=label_key)) for u in adj for v in adj[u] if label_key(u) < label_key(v)),
                key=lambda e: (label_key(e[0]), label_key(e[1])),
            )
        )

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def vertices(self) -> tuple:
        return self._vertices

    def edges(self) -> tuple:
        return self._edges

    @property
    def m(self) -> int:
        return len(self._edges)

    def __contains__(self, v) -> bool:
        return v in self._adj

    def neighbours(self, v) -> frozenset:
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def degree(self, v) -> int:
        return len(self.neighbours(v))

    def has_edge(self, u, v) -> bool:
        return v in self.neighbours(u)

    def closed_neighbourhood(self, v) -> frozenset:
        return self.neighbours(v) | {v}

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- derived graphs ----------------------------------------------------

    def induced_subgraph(self, keep: Iterable[Vertex]) -> "Graph":
        keep = set(keep)
        for v in keep:
            if v not in self._adj:
                raise UnknownVertexError(f"unknown vertex {v!r}")
        return Graph(keep, [(u, v) for u, v in self._edges if u in keep and v in keep])

    def delete_vertices(self, drop: Iterable[Vertex]) -> "Graph":
        drop = set(drop)
        for v in drop:
            if v not in self._adj:
                raise UnknownVertexError(f"unknown vertex {v!r}")
        return self.induced_subgraph(set(self._vertices) - drop)

    def to_networkx(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(self._vertices)
        g.add_edges_from(self._edges)
        return g

    @staticmethod
    def from_networkx(g: nx.Graph) -> "Graph":
        return Graph(g.nodes(), g.edges())

    # -- traversal ---------------------------------------------------------

    def bfs_distances(self, root) -> dict:
        """Distances from ``root`` within its component."""
        if root not in self._adj:
            raise UnknownVertexError(f"unknown vertex {root!r}")
        dist = {root: 0}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in sorted(self._adj[u], key=label_key):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def connected_components(self) -> list:
        seen = set()
        comps = []
        for v in self._vertices:
            if v in seen:
                continue
            comp = set(self.bfs_distances(v))
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    def bipartition(self):
        """Return (A, B) sides of a 2-colouring, or None if not bipartite."""
        colour = {}
        for root in self._vertices:
            if root in colour:
                continue
            colour[root] = 0
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for w in self._adj[u]:
                    if w not in colour:
                        colour[w] = 1 - colour[u]
                        queue.append(w)
                    elif colour[w] == colour[u]:
                        return None
        a = frozenset(v for v, c in colour.items() if c == 0)
        b = frozenset(v for v, c in colour.items() if c == 1)
        return a, b

    def ball(self, v, r: int) -> frozenset:
        """Closed ball: all vertices at distance at most r from v."""
        dist = self.bfs_distances(v)
        return frozenset(u for u, d in dist.items() if d <= r)


@dataclass(frozen=True)
class Levelling:
    """BFS levels from a root: levels[i] is the distance-i sphere."""

    root: Vertex
    levels: tuple  # tuple of frozensets

    def depth(self) -> int:
        return len(self.levels) - 1


def bfs_levelling(g: Graph, root) -> Levelling:
    dist = g.bfs_distances(root)
    depth = max(dist.values())
    levels = tuple(frozenset(v for v, d in dist.items() if d == i) for i in range(depth + 1))
    return Levelling(root=root, levels=levels)


def is_stable(g: Graph, s: Iterable[Vertex]) -> bool:
    s = list(s)
    for v in s:
        if v not in g:
            raise UnknownVertexError(f"unknown vertex {v!r}")
    return all(not g.has_edge(u, v) for u, v in combinations(s, 2))


def is_clique(g: Graph, s: Iterable[Vertex]) -> bool:
    s = list(s)
    for v in s:
        if v not in g:
            raise UnknownVertexError(f"unknown vertex {v!r}")
    return all(g.has_edge(u, v) for u, v in combinations(s, 2))


def covers(g: Graph, b: Iterable[Vertex], c: Iterable[Vertex]) -> bool:
    """True iff b and c are disjoint and every vertex of c has a neighbour in b."""
    b, c = set(b), set(c)
    for v in b | c:
        if v not in g:
            raise UnknownVertexError(f"unknown vertex {v!r}")
    if b & c:
        return False
    return all(g.neighbours(v) & b for v in c)


def odd_girth(g: Graph):
    """Length of a shortest odd cycle; math.inf when bipartite.

    BFS on the bipartite double cover from each vertex: the shortest odd
    closed walk through v has length dist((v,0),(v,1)), and the minimum over
    v of that quantity is attained on a shortest odd cycle.
    """
    import math

    best = math.inf
    for v in g.vertices:
        dist = {(v, 0): 0}
        queue = deque([(v, 0)])
        while queue:
            u, p = queue.popleft()
            d = dist[(u, p)]
            if d >= best:
                continue
            for w in g.neighbours(u):
                state = (w, 1 - p)
                if state not in dist:
                    dist[state] = d + 1
                    queue.append(state)
        if (v, 1) in dist:
            best = min(best, dist[(v, 1)])
    return best


def shortest_odd_cycle(g: Graph):
    """Vertex list of a shortest odd cycle, or None if bipartite."""
    import math

    og = odd_girth(g)
    if og is math.inf:
        return None
    # recover a cycle: BFS with parents on the double cover from each vertex
    for v in g.vertices:
        parent = {(v, 0): None}
        queue = deque([(v, 0)])
        while queue:
            state = queue.popleft()
            u, p = state
            for w in sorted(g.neighbours(u), key=label_key):
                nxt = (w, 1 - p)
                if nxt not in parent:
                    parent[nxt] = state
                    queue.append(nxt)
        if (v, 1) not in parent:
            continue
        walk = []
        state = (v, 1)
        while state is not None:
            walk.append(state[0])
            state = parent[state]
        if len(walk) - 1 != og:
            continue
        # the closed walk of minimum odd length is a simple cycle
        cyc = walk[:-1]
        if len(set(cyc)) == len(cyc):
            return cyc
    return None  # pragma: no cover - a witness always exists when og finite


def ball_chromatic_check(g: Graph, v, r: int) -> bool:
    """True iff the induced subgraph on the closed r-ball around v is bipartite."""
    return g.induced_subgraph(g.ball(v, r)).bipartition() is not None


def induced_paths_between(g: Graph, u, v, max_length: int) -> list:
    """All induced u-v paths of length at most max_length, as vertex lists."""
    if u not in g or v not in g:
        raise UnknownVertexError("unknown endpoint")
    out = []

    def extend(path):
        last = path[-1]
        if last == v:
            out.append(list(path))
            return
        if len(path) - 1 >= max_length:
            return
        for w in sorted(g.neighbours(last), key=label_key):
            if w in path:
                continue
            # keep the path induced: w may touch only the current last vertex
            if any(g.has_edge(w, x) for x in path[:-1]):
                continue
            path.append(w)
            extend(path)
            path.pop()

    extend([u])
    return out


def is_path_induced(g: Graph, path) -> bool:
    """Check that the vertex list is an induced path of g."""
    if len(set(path)) != len(path):
        return False
    for i, x in enumerate(path):
        for j in range(i + 1, len(path)):
            adjacent = g.has_edge(x, path[j])
            if adjacent != (j == i + 1):
                return False
    return True


def is_cycle_induced(g: Graph, cycle) -> bool:
    """Check that the vertex list is a chordless cycle of g (in cyclic order)."""
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        return False
    for i, x in enumerate(cycle):
        for j in range(i + 1, k):
            adjacent = g.has_edge(x, cycle[j])
            expected = (j == i + 1) or (i == 0 and j == k - 1)
            if adjacent != expected:
                return False
    return True
