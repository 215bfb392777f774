"""Immutable simple graphs and the elementary computations everything else uses.

Vertex labels are opaque hashable values that survive induced subgraphs and
deletions, so certificates can always cite the original vertices.  Labels of
different types may coexist in one graph (e.g. ints next to tuples produced
by graph operators); :func:`label_key` gives them a single total order.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Hashable, Iterable

from .errors import PreconditionError, UnknownVertexError

Vertex = Hashable

# Default cap for combinatorial operations (colouring, searches).
COMBINATORIAL_CAP = 512

_UNKNOWN = object()


def label_key(v):
    """Total order over mixed-type vertex labels (ints, strings, tuples).
    Each type has its own tag, so distinct labels of the kinds JSON
    carries (bools next to strings included) get distinct keys."""
    if isinstance(v, bool):  # bool before int check: bools are ints
        return (4, v)
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

    ``vertices`` lists the vertices in label order, and ``rank`` maps each
    vertex to an int that orders them the same way, so that code sorting
    or taking the least of a graph's vertices compares ints rather than
    nested ``label_key`` tuples.  A graph built by ``__init__`` ranks each
    vertex by its position in ``vertices``.  Induced subgraphs and deletions
    share the rank of the graph they come from, which may hold vertices
    they lack: their vertices are a subsequence of that graph's label-sorted
    tuple, so its positions order them exactly as ``label_key`` does.  A
    rank orders only the vertices of its graph; labels from elsewhere are
    compared with ``label_key``.
    """

    __slots__ = ("_adj", "_vertices", "_edges", "_rank", "_odd_cycle")

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
        rank = self._rank = {v: i for i, v in enumerate(self._vertices)}
        self._edges = tuple(
            sorted(
                ((u, v) for u in adj for v in adj[u] if rank[u] < rank[v]),
                key=lambda e: (rank[e[0]], rank[e[1]]),
            )
        )
        # filled by the first shortest_odd_cycle call: a tuple, or None
        # when bipartite; the graph is immutable, so it never goes stale
        self._odd_cycle = _UNKNOWN

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
    def rank(self) -> dict:
        return self._rank

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
        return self._derived(keep)

    def delete_vertices(self, drop: Iterable[Vertex]) -> "Graph":
        drop = set(drop)
        for v in drop:
            if v not in self._adj:
                raise UnknownVertexError(f"unknown vertex {v!r}")
        return self._derived(self._adj.keys() - drop)

    def _derived(self, keep: set) -> "Graph":
        """g[keep] for a set of vertices of g, without __init__: the parent's
        label-ordered vertex and edge tuples stay ordered when filtered, its
        rank still orders them, and its adjacency is already checked, so
        nothing is validated or sorted again."""
        g = Graph.__new__(Graph)
        g._vertices = tuple(v for v in self._vertices if v in keep)
        g._edges = tuple(e for e in self._edges if e[0] in keep and e[1] in keep)
        g._adj = {v: self._adj[v] & keep for v in g._vertices}
        g._rank = self._rank
        g._odd_cycle = _UNKNOWN
        return g

    # -- traversal ---------------------------------------------------------

    def bfs_levels(self, root, depth=math.inf):
        """Yield the BFS levels of root's component as frozensets: level i
        holds the vertices at distance i from root, for i up to depth."""
        if root not in self._adj:
            raise UnknownVertexError(f"unknown vertex {root!r}")
        level = frozenset([root])
        seen = set(level)
        while depth >= 0 and level:
            yield level
            depth -= 1
            if depth >= 0:
                level = frozenset().union(*(self._adj[u] for u in level)) - seen
                seen |= level

    def bfs_distances(self, root) -> dict:
        """Distances from ``root`` within its component."""
        return {v: d for d, level in enumerate(self.bfs_levels(root)) for v in level}

    def connected_components(self) -> list:
        seen = set()
        comps = []
        for v in self._vertices:
            if v not in seen:
                comp = frozenset().union(*self.bfs_levels(v))
                seen |= comp
                comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    def bipartition(self):
        """Return (A, B) sides of a 2-colouring, or None if not bipartite.

        A holds the even BFS levels of every component, levelled from its
        least vertex, and B the odd ones.  An edge joins two vertices of
        one level or of consecutive levels, so the graph is bipartite
        exactly when no edge joins two vertices of one level; such an edge
        closes an odd cycle, and the answer is None as soon as one
        appears."""
        sides = (set(), set())
        for v in self._vertices:
            if v in sides[0] or v in sides[1]:
                continue
            for d, level in enumerate(self.bfs_levels(v)):
                if any(not self._adj[u].isdisjoint(level) for u in level):
                    return None
                sides[d % 2].update(level)
        return frozenset(sides[0]), frozenset(sides[1])

    def ball(self, v, r: int) -> frozenset:
        """Closed ball: all vertices at distance at most r from v."""
        return frozenset().union(*self.bfs_levels(v, r))


def bits(mask: int) -> list:
    """Indices of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def neighbour_masks(g: Graph) -> list:
    """g's adjacency as ints over the indices of g.vertices, which are in
    label order: bit i of entry j is set iff vertices i and j are adjacent."""
    index = {v: i for i, v in enumerate(g.vertices)}
    return [sum(1 << index[w] for w in g.neighbours(v)) for v in g.vertices]


def _induced_edge_count(g: Graph, vs: Iterable[Vertex]) -> int:
    """Number of edges of g with both ends in vs, in time linear in their
    degrees: each edge is counted once, at whichever end comes later in vs.
    Repeats in vs are ignored; a vertex not in g raises UnknownVertexError."""
    seen = set()
    count = 0
    for v in vs:
        if v not in seen:
            count += len(g.neighbours(v) & seen)
            seen.add(v)
    return count


def is_stable(g: Graph, s: Iterable[Vertex]) -> bool:
    return _induced_edge_count(g, s) == 0


def covers(g: Graph, b: Iterable[Vertex], c: Iterable[Vertex]) -> bool:
    """True iff b and c are disjoint and every vertex of c has a neighbour in b."""
    b, c = set(b), set(c)
    for v in b | c:
        if v not in g:
            raise UnknownVertexError(f"unknown vertex {v!r}")
    if b & c:
        return False
    return all(g.neighbours(v) & b for v in c)


def shortest_odd_cycle(g: Graph):
    """Vertex list of a shortest odd cycle in cyclic order, or None if bipartite.

    Level BFS from each root (Itai & Rodeh, SIAM J. Comput. 1978).  The first
    edge joining two vertices of equal depth d closes an odd cycle through
    their lowest common ancestor, of length at most 2d+1.  Distances along a
    shortest odd cycle C are distances in g, so from a root on C such an edge
    appears by depth (|C|-1)/2: the best cycle over all roots is a shortest
    one.  A root is left as soon as 2d+1 reaches the best length found.
    Neighbours are scanned in vertex order, so the cycle does not depend on
    the hash seed.  The search runs once per graph; each call returns a
    fresh list.
    """
    if g._odd_cycle is _UNKNOWN:
        g._odd_cycle = _search_odd_cycle(g)
    return None if g._odd_cycle is None else list(g._odd_cycle)


def _search_odd_cycle(g: Graph):
    rank = {v: i for i, v in enumerate(g.vertices)}
    adj = [sorted(rank[w] for w in g.neighbours(v)) for v in g.vertices]
    best = None
    for root in range(g.n):
        depth = {root: 0}
        parent = {root: root}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            d = depth[u]
            if best is not None and 2 * d + 1 >= len(best):
                break
            for w in adj[u]:
                if w not in depth:
                    depth[w] = d + 1
                    parent[w] = u
                    queue.append(w)
                elif depth[w] == d:
                    left, right = [u], [w]
                    while left[-1] != right[-1]:
                        left.append(parent[left[-1]])
                        right.append(parent[right[-1]])
                    best = left[::-1] + right[:-1]
                    queue.clear()
                    break
    return None if best is None else tuple(g.vertices[i] for i in best)


def odd_girth(g: Graph):
    """Length of a shortest odd cycle; math.inf when bipartite."""
    cycle = shortest_odd_cycle(g)
    return math.inf if cycle is None else len(cycle)


def has_k4_minor(g: Graph) -> bool:
    """True iff K4 is a minor of g, i.e. g is not series-parallel.

    Series-parallel reduction: delete a vertex of degree at most 1, or
    delete a vertex of degree 2 and join its two neighbours, until neither
    applies.  Both steps keep "has a K4 minor" in either direction, and a
    nonempty graph of minimum degree 3 has a K4 minor (Dirac 1952), so g
    has none iff the reduction empties it, in whatever order the steps run.
    """
    adj = {v: set(ns) for v, ns in g._adj.items()}
    low = [v for v, ns in adj.items() if len(ns) <= 2]
    while low:
        v = low.pop()
        if v not in adj or len(adj[v]) > 2:
            continue
        ns = adj.pop(v)
        for u in ns:
            adj[u].discard(v)
        if len(ns) == 2:
            a, b = ns
            adj[a].add(b)
            adj[b].add(a)
        low.extend(u for u in ns if len(adj[u]) <= 2)
    return bool(adj)


def is_path_induced(g: Graph, path) -> bool:
    """Check that the vertex list is an induced path of g: its vertices are
    distinct, consecutive ones are adjacent, and no other pair is."""
    path = list(path)
    count = _induced_edge_count(g, path)
    return (
        len(set(path)) == len(path)
        and all(g.has_edge(u, v) for u, v in zip(path, path[1:]))
        and count == max(len(path) - 1, 0)
    )


def is_cycle_induced(g: Graph, cycle) -> bool:
    """Check that the vertex list is a chordless cycle of g (in cyclic order):
    at least three distinct vertices, consecutive ones and the closing pair
    adjacent, and no other pair."""
    cycle = list(cycle)
    k = len(cycle)
    count = _induced_edge_count(g, cycle)
    return (
        k >= 3
        and len(set(cycle)) == k
        and all(g.has_edge(u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1]))
        and count == k
    )
