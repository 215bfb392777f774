"""Vertex deletions and neighbourhood contractions with replayable traces,
plus constructive odd-wheel extraction from hub configurations.

A contraction at v (legal when N(v) is stable) merges the closed
neighbourhood of v into a single vertex, labelled by the smallest member of
the merged class.  A trace records the base graph, the step sequence, the
result, and the map from result vertices to classes of base vertices; it can
be replayed and audited independently.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from hashlib import blake2b
from itertools import chain, combinations, islice
from typing import Optional

from .errors import PreconditionError, UnknownVertexError, VerificationError
from .graphio import JSONData
from .graphs import Graph, bits, is_cycle_induced, is_stable, label_key, neighbour_masks, odd_girth


@dataclass(frozen=True)
class TMinorStep:
    kind: str  # "delete" or "tcontract"
    vertex: object

    def __post_init__(self):
        if self.kind not in ("delete", "tcontract"):
            raise PreconditionError(f"unknown step kind {self.kind!r}")


@dataclass(frozen=True)
class TMinorTrace(JSONData):
    base: Graph
    steps: tuple
    result: Graph
    contraction_map: dict  # result vertex -> frozenset of base vertices

    def to_data(self) -> dict:
        def graph(h: Graph) -> dict:
            return {
                "vertices": [repr(v) for v in h.vertices],
                "edges": [[repr(u), repr(v)] for u, v in h.edges()],
            }

        return {
            "base": graph(self.base),
            "steps": [{"kind": s.kind, "vertex": repr(s.vertex)} for s in self.steps],
            "result": graph(self.result),
            "contraction_map": {
                repr(v): sorted(repr(u) for u in cls)
                for v, cls in self.contraction_map.items()
            },
        }


class TraceBuilder:
    """Mutable helper that applies steps and tracks contraction classes."""

    def __init__(self, base: Graph):
        self.base = base
        self.graph = base
        self.steps = []
        self.classes = {v: frozenset([v]) for v in base.vertices}

    def delete(self, v):
        if v not in self.graph:
            raise PreconditionError(f"cannot delete missing vertex {v!r}")
        self.graph = self.graph.delete_vertices([v])
        del self.classes[v]
        self.steps.append(TMinorStep("delete", v))

    def tcontract(self, v):
        g = self.graph
        nbrs = g.neighbours(v)
        if not is_stable(g, nbrs):
            raise PreconditionError(
                f"contraction at {v!r} illegal: neighbourhood not stable"
            )
        merged = nbrs | {v}
        rep = min(merged, key=label_key)
        outside = [u for u in g.vertices if u not in merged]
        edges = [e for e in g.edges() if merged.isdisjoint(e)]
        edges += [(rep, u) for u in outside if not merged.isdisjoint(g.neighbours(u))]
        self.graph = Graph(outside + [rep], edges)
        self.classes[rep] = frozenset().union(*(self.classes.pop(u) for u in merged))
        self.steps.append(TMinorStep("tcontract", v))

    def trace(self) -> TMinorTrace:
        return TMinorTrace(
            base=self.base,
            steps=tuple(self.steps),
            result=self.graph,
            contraction_map=dict(self.classes),
        )


def t_contract(g: Graph, v):
    """Contract the closed neighbourhood of v; returns (graph, class map)."""
    builder = TraceBuilder(g)
    builder.tcontract(v)
    return builder.graph, dict(builder.classes)


def _replayed(base: Graph, steps) -> TraceBuilder:
    """Apply the steps to base; an illegal step, such as deleting a vertex
    that is gone or contracting a neighbourhood that is not stable, raises
    VerificationError with the step's index in steps."""
    builder = TraceBuilder(base)
    for i, step in enumerate(steps):
        try:
            (builder.delete if step.kind == "delete" else builder.tcontract)(step.vertex)
        except (PreconditionError, UnknownVertexError) as e:
            raise VerificationError(f"illegal trace step: {e}", detail={"step": i}) from e
    return builder


def replay(trace: TMinorTrace) -> bool:
    """Re-apply the recorded steps and audit result and contraction map."""
    builder = _replayed(trace.base, trace.steps)
    if builder.graph != trace.result:
        raise VerificationError("trace replay produced a different result graph")
    if builder.classes != trace.contraction_map:
        raise VerificationError("trace replay produced a different contraction map")
    return True


def _cycle_without(g: Graph, v) -> Optional[list]:
    """The vertices of g - v in cyclic order, from the smallest label
    towards the smaller of its two neighbours, if g - v is one cycle; else
    None.  It is one cycle iff each of its vertices has two neighbours in
    it and the walk along them meets every vertex before it closes.  g - v
    must not be empty."""
    rest = [u for u in g.vertices if u != v]
    nbrs = {u: g.neighbours(u) - {v} for u in rest}
    if any(len(ns) != 2 for ns in nbrs.values()):
        return None
    order = [rest[0], min(nbrs[rest[0]], key=label_key)]
    while len(order) < len(rest):
        a, b = nbrs[order[-1]]
        nxt = b if a == order[-2] else a
        if nxt == order[0]:
            return None
        order.append(nxt)
    return order


def is_odd_wheel(g: Graph):
    """Hub and rim of g if it is a wheel with an odd rim, else None.

    A wheel here is a cycle of length k >= 3 plus one vertex adjacent to all
    of it; K4 counts (every vertex works as a hub, the smallest is chosen).
    The hub is the first vertex of degree n - 1, and g is an odd wheel iff
    n is even and g minus the hub is one cycle: that cycle has the n - 1
    other vertices, so its length is odd once n is even.
    """
    n = g.n
    if n < 4 or n % 2:
        return None
    hub = next((v for v in g.vertices if g.degree(v) == n - 1), None)
    rim = None if hub is None else _cycle_without(g, hub)
    return None if rim is None else (hub, rim)


@dataclass(frozen=True)
class OddWheelWitness(JSONData):
    trace: TMinorTrace
    hub: object
    rim: tuple

    def to_data(self) -> dict:
        return {
            "hub": repr(self.hub),
            "rim": [repr(v) for v in self.rim],
            "trace": self.trace.to_data(),
        }


def verify_odd_wheel_witness(w: OddWheelWitness) -> bool:
    """Replay the trace, then check three clauses on its result: the hub is
    adjacent to every other vertex, hub and rim partition the vertices, and
    the rim is an odd induced cycle in the recorded order.

    These imply that the result is an odd wheel, so that is not tested
    again: the rim is a chordless cycle of odd length k >= 3 on all vertices
    but the hub, and the hub sees all of them.  A rim vertex of full degree
    too would see all k - 1 other rim vertices, but a chordless cycle gives
    it only two, so k = 3 and the result is K4, which is an odd wheel with
    any vertex as hub.  Raises VerificationError naming the first violated
    clause.
    """
    replay(w.trace)
    result = w.trace.result
    if w.hub not in result or result.degree(w.hub) != result.n - 1:
        raise VerificationError("recorded hub is not adjacent to the whole rim")
    if set(w.rim) | {w.hub} != set(result.vertices) or w.hub in w.rim:
        raise VerificationError("recorded rim does not cover the result")
    if len(w.rim) % 2 == 0 or not is_cycle_induced(result, w.rim):
        raise VerificationError("recorded rim is not an induced odd cycle")
    return True


def _odd_arc_triple(cycle, anchors):
    """Three anchors splitting the cycle into three odd-length arcs, if any;
    ``anchors`` lists cycle vertices in cycle order."""
    pos = {v: i for i, v in enumerate(cycle)}
    k = len(cycle)
    idx = [pos[a] for a in anchors]
    for i, j, l in combinations(idx, 3):
        arcs = (j - i, l - j, k - (l - i))
        if all(a % 2 == 1 for a in arcs):
            return cycle[i], cycle[j], cycle[l]
    return None


def extract_wheel_from_hub(g: Graph, cycle, v) -> OddWheelWitness:
    """Odd-wheel trace for a graph that is an induced odd cycle plus one
    vertex v whose neighbours include three cycle vertices cutting it into
    three odd arcs."""
    cycle = list(cycle)
    if set(cycle) | {v} != set(g.vertices) or v in cycle:
        raise PreconditionError("graph must consist of the cycle plus v alone")
    if len(cycle) % 2 == 0 or not is_cycle_induced(g, cycle):
        raise PreconditionError("cycle is not an induced odd cycle", )
    anchors = [u for u in cycle if g.has_edge(u, v)]
    if len(anchors) < 3:
        raise PreconditionError("v has fewer than three neighbours on the cycle")
    if _odd_arc_triple(cycle, anchors) is None:
        raise PreconditionError(
            "no three neighbours of v cut the cycle into odd arcs",
        )
    # contract the smallest rim vertex not adjacent to v until v sees all
    builder = TraceBuilder(g)
    while True:
        h = builder.graph
        free = [u for u in h.vertices if u != v and not h.has_edge(u, v)]
        if not free:
            break
        builder.tcontract(free[0])
    rim = _cycle_without(builder.graph, v)
    if rim is None:
        raise VerificationError(
            "contraction loop did not terminate in an odd wheel",
            detail={"result": builder.graph},
        )
    witness = OddWheelWitness(trace=builder.trace(), hub=v, rim=tuple(rim))
    verify_odd_wheel_witness(witness)
    return witness


def connected_bipartite_containing(g: Graph, s, g_param: int) -> frozenset:
    """A minimal connected vertex set containing the stable set s, which is
    bipartite whenever the odd girth exceeds 2*|s|.

    Greedy deletion: in label order, drop each vertex outside s whose
    removal keeps s inside one connected component, restricting to that
    component.  Bipartiteness of the final set is asserted.

    One pass drops what restarting the scan after each drop would: a vertex
    whose removal splits s keeps splitting it as the set shrinks, since a
    path in the smaller set is also a path in the larger one.
    """
    s = frozenset(s)
    if not s:
        raise PreconditionError("s must be non-empty")
    if not g.is_connected():
        raise PreconditionError("graph must be connected")
    if not is_stable(g, s):
        raise PreconditionError("s must be stable")
    if len(s) > 2 * g_param:
        raise PreconditionError(f"|s| = {len(s)} exceeds 2*g = {2 * g_param}")
    if odd_girth(g) < 2 * g_param + 1:
        raise PreconditionError("odd girth below 2*g + 1")

    h = set(g.vertices)
    for v in g.vertices:
        if v in h and v not in s:
            hosts = [c for c in g.induced_subgraph(h - {v}).connected_components() if s <= c]
            if hosts:
                h = set(hosts[0])
    result = g.induced_subgraph(h)
    if result.bipartition() is None:
        raise VerificationError(
            "minimal connected superset is not bipartite",
            detail={"vertices": frozenset(h)},
        )
    return frozenset(h)


# ---------------------------------------------------------------------------
# budgeted witness search
# ---------------------------------------------------------------------------


def _hub_structure(g: Graph):
    """(cycle, v) for the first v such that g is an induced odd cycle plus
    v with three neighbours cutting it into odd arcs, else None.  g - v is
    a cycle only if it has as many edges as vertices, so the cycle is
    looked for only at such a v, and only when n - 1 is odd and >= 3.

    An odd wheel is such a graph, with the same hub as is_odd_wheel finds:
    its hub sees the whole rim, so three consecutive rim vertices cut it
    into odd arcs, and the hub is the one vertex with m - deg = n - 1
    unless g is K4, where every vertex is a hub and the first is taken."""
    if g.n % 2 or g.n < 4:
        return None
    for v in g.vertices:
        if g.m - g.degree(v) != g.n - 1:
            continue
        cycle = _cycle_without(g, v)
        if cycle is not None and _odd_arc_triple(cycle, [u for u in cycle if g.has_edge(u, v)]):
            return cycle, v
    return None


class _BitsMemo(dict):
    """mask -> bits(mask), computed on first lookup."""

    __slots__ = ()

    def __missing__(self, mask: int) -> list:
        out = self[mask] = bits(mask)
        return out


class _WLKey:
    """Two rounds of Weisfeiler-Lehman colour refinement on degree labels,
    as a 16-byte digest.  A graph is given as ``nb``, a list of neighbour
    bitmasks indexed by vertex (0 for vertices that are gone), and ``vs``,
    the indices of its vertices.  Isomorphic graphs get equal keys.  Labels
    are interned per instance, so only keys from one instance compare.

    With s1(v) = str(deg v) followed by the sorted strings str(deg w) over
    the neighbours w of v, and s2(v) = (s1(v), sorted s1 over N(v)), two
    graphs get equal keys iff their counts of s2 agree, up to collisions of
    128-bit blake2b digests.  Those counts fix the counts of s1 as well,
    since s1(v) is the first part of s2(v).  So the key splits graphs
    exactly as a digest of the repr of the sorted s2 counts does, which was
    the key of earlier versions.

    The key is the digest of the sorted ids of s2 over the vertices.  The
    dict ``s1`` numbers s1 strings in order of first sight, and ``s2``
    numbers tuples: the id of s1(v) followed by the sorted ids of s1 over
    N(v).  s1 ids are in bijection with s1 strings, since they are looked
    up by the string itself.  ``memo`` maps the sorted neighbour degrees of
    v (their number is deg v) to an id only to skip rebuilding a known
    string; degree lists that give one string (neighbour degrees 1, 12 and
    2, 11 both give "2112" after the own degree) share that string's id.
    So a sorted tuple of s1 ids stands for exactly one multiset of s1
    strings, and s2 ids are in bijection with s2 values.  The sorted s2 ids
    over V are then the counts of s2 written out, and their fixed-width
    bytes tell different lists apart.  ``bits`` keeps the set bits of each
    neighbour mask met, since most masks recur from graph to graph.

    Two graphs get equal keys iff networkx >= 3.5 gives them equal
    ``weisfeiler_lehman_graph_hash`` values (default 3 iterations, no
    attributes), up to collisions of 128-bit blake2b digests.  networkx
    starts from the labels str(deg v), runs 2 refinement steps and hashes
    the label counts of both.  Write H for its hex blake2b digest and read H
    as injective (that is, ignore collisions).  Its first step gives v the
    label L1(v) = H(s1(v)), the same string s1 as here, so L1 and s1 are in
    bijection.  Its second step gives L2(v) = H(L1(v) + the sorted L1 over
    N(v) concatenated).  Every L1 has the same length, so that string splits
    back into L1(v) and the multiset of L1 over N(v), that is into s2(v);
    so L2 and s2 are in bijection too.  The final hash is H of the repr of
    the sorted (L1, count) pairs followed by the sorted (L2, count) pairs.
    Both runs of counts sum to n, so the repr splits back into the two
    counters, which are the counters of s1 and s2 renamed by the bijections.
    So the nx hash fixes the counts of s2 and is fixed by them, and so is
    the key.
    """

    __slots__ = ("s1", "s2", "memo", "bits")

    def __init__(self):
        self.s1 = {}  # s1 string -> id
        self.s2 = {}  # (s1 id, *sorted s1 ids over the neighbours) -> id
        self.memo = {}  # sorted neighbour degrees -> s1 id
        self.bits = _BitsMemo()  # neighbour mask -> bits(mask)

    def __call__(self, nb: list, vs: list) -> bytes:
        memo, s1, s2, bits = self.memo, self.s1, self.s2, self.bits
        ns = [bits[nb[v]] for v in vs]
        deg = [m.bit_count() for m in nb]
        id1 = [0] * len(nb)
        for v, ws in zip(vs, ns):
            degs = tuple(sorted([deg[w] for w in ws]))
            i = memo.get(degs)
            if i is None:
                text = str(len(degs)) + "".join(sorted(map(str, degs)))
                i = memo[degs] = s1.setdefault(text, len(s1))
            id1[v] = i
        ids = [
            s2.setdefault((id1[v], *sorted([id1[w] for w in ws])), len(s2))
            for v, ws in zip(vs, ns)
        ]
        ids.sort()
        return blake2b(array("I", ids).tobytes(), digest_size=16).digest()


def _has_odd_cycle(nb: list, alive: int) -> bool:
    """Whether the graph of the bitmasks nb on the vertex set alive has an
    odd cycle: a breadth-first search from the least vertex of each
    component finds an edge inside one distance level iff it does."""
    rest = alive
    while rest:
        level = seen = rest & -rest
        while level:
            reached = 0
            for u in bits(level):
                if nb[u] & level:
                    return True
                reached |= nb[u]
            level = reached & ~seen
            seen |= level
        rest &= ~seen
    return False


def _child(nb: list, alive: int, kind: str, v: int):
    """The neighbour masks and alive mask after one step at v, or None for
    a contraction whose neighbourhood is not stable.  A contraction merges
    N[v] into its least index."""
    child = nb[:]
    ns = nb[v]
    if kind == "delete":
        for u in bits(ns):
            child[u] = nb[u] ^ (1 << v)
        child[v] = 0
        return child, alive ^ (1 << v)
    outside = 0
    for u in bits(ns):
        if nb[u] & ns:
            return None
        outside |= nb[u]
    merged = ns | (1 << v)
    outside &= ~merged
    for u in bits(merged):
        child[u] = 0
    low = merged & -merged
    for u in bits(outside):
        child[u] = (nb[u] & ~merged) | low
    child[low.bit_length() - 1] = outside
    return child, (alive & ~merged) | low


def _popped(queue: deque, moves: list, keys: _WLKey, seen: set, done: set):
    """The traces the search expands after its root, in order, as (steps,
    graph, neighbour masks, alive mask), where graph is the tuple (alive
    mask, *neighbour masks).  Each queue entry is a family: an expanded
    trace's steps and graph, and the indices into moves of its children
    that passed the tests made as they were made.  When a family is
    popped, its children are rebuilt by _child in turn.  One whose graph
    is in done, or whose key is in seen, is dropped; the others add their
    key to seen and are yielded."""
    while queue:
        steps, (alive, *nb), kept = queue.popleft()
        for k in kept:
            move = moves[k]
            child, child_alive = _child(nb, alive, move.kind, k >> 1)
            graph = (child_alive, *child)
            if graph in done:
                continue
            key = keys(child, bits(child_alive))
            if key not in seen:
                seen.add(key)
                yield steps + (move,), graph, child, child_alive


def find_odd_wheel_tminor(g: Graph, budget: int = 4000) -> Optional[OddWheelWitness]:
    """Budgeted search for a replayable trace ending in an odd wheel.

    Absence of a result is not a proof of non-existence: the search expands
    at most ``budget`` traces, and a negative budget is refused with
    PreconditionError.  There are three routes, taken in this order:
    - a bipartite graph gets None at once: all its deletions and
      contractions stay bipartite, so no odd wheel can appear;
    - a graph that is an induced odd cycle plus one vertex with three
      neighbours cutting the cycle into odd arcs (_hub_structure; an odd
      wheel is one) gets extract_wheel_from_hub's witness, which has no
      steps when the graph is an odd wheel already;
    - any other graph is searched.
    The search prunes on _WLKey, not on networkx's WL hash, so its answers
    do not depend on the installed networkx: before 3.5 that hash ran one
    more round, pruned differently and could give another witness.

    The search is breadth-first over traces, memoized on _WLKey (collisions
    only lose completeness: every hit is re-verified).  Vertices are indexed in
    label order, and a graph of the search is a list of neighbour bitmasks
    plus a mask of the vertices alive; the tuple (alive mask, *neighbour
    masks) is its identity.  A contraction keeps the least index of the
    merged class, as TraceBuilder.tcontract keeps its least label.  So
    after the same steps the alive indices are the vertices of the replayed
    graph, and the children of a trace come in the order of its vertices.
    A child is replayed through TraceBuilder only when it may be an odd
    wheel: an even number n >= 4 of vertices, one of degree n - 1.  That
    replay builds the witness, and verify_odd_wheel_witness checks it.

    One _WLKey serves the whole search, and its interned labels split
    graphs exactly as the string labels of earlier versions did.  Each s1
    id is looked up by its s1 string, so ids and strings are in bijection.
    Each s2 id is looked up by the s1 ids that stand for s2(v), so s2 ids
    and s2 values are in bijection too.  The sorted s2 ids of a graph are
    then its s2 counts written out (the full argument is in _WLKey).

    Expanding a trace makes its children, and each child meets three tests
    as it is made.  A child that is an exact copy of a graph met earlier
    (the same identity tuple) is skipped.  A child with fewer than four
    vertices or no odd cycle is dropped.  A child that may be an odd wheel
    is replayed, and the search ends if it is one.  The queue holds one
    family per expanded trace with children left: the trace's steps, its
    identity tuple and the indices into ``moves`` of those children, in
    the order made.  A child is rebuilt by _child and keyed only when its
    family reaches the front of the queue (_popped).  If its key is in
    ``seen`` it is dropped: it does not count toward the budget and does
    not touch ``met``.  Otherwise its key joins ``seen`` and it is expanded.

    This expands the traces that keying each child as it is made, and
    queueing it only if its key is new, would expand, in the same order.
    The queue is first in, first out, and so children are popped in the
    order they were made.  The first child made with a key K is thus
    popped before every later child with key K; it is the one that keying
    at creation queues, and the later ones are dropped by both.  So the
    expanded traces and their order, the children made, the ``budget``
    cut-off and the first witness are those of keying at creation.  The
    keys saved are those of children never popped: the ones still queued
    when the witness turns up or the budget runs out.

    The exact-copy test keeps that, since a copy gets the answers of the
    graph it copies: too small or with no odd cycle, it is dropped as
    that graph was; an odd wheel would have ended the search; otherwise it
    is popped after that graph, whose key, which is its own, is in
    ``seen`` by then.  Three sets of identity tuples find copies.  ``done``
    holds every expanded trace's graph, the root's included; a popped child
    found in it is dropped before it is keyed.  ``met`` holds every child
    made since the expanded traces last changed their steps[:-1], and is
    cleared when they do: siblings are expanded one after another, and
    their children are often one graph reached by the same steps in
    another order.  ``replayed`` holds every child replayed, so no graph
    is replayed twice.

    Memory: the queue holds, per expanded trace with children left, its
    steps, its identity tuple (the one in ``done``) and one small int per
    child left; the children's masks and steps are made again when they
    are popped.  ``done`` and ``seen`` have at most budget + 1 entries: a
    tuple of n + 1 masks each in ``done``, a 16-byte key each in ``seen``;
    ``met`` holds the children of one family of at most 2n siblings (and
    the root, whose steps[:-1] is theirs too), at most 2n each, so at most
    2n(2n + 1) tuples; ``replayed`` has one tuple per replay.
    """
    if budget < 0:
        raise PreconditionError(f"budget must be non-negative, got {budget}")
    if g.bipartition() is not None:
        return None
    hub = _hub_structure(g)
    if hub is not None:
        cycle, v = hub
        return extract_wheel_from_hub(g, cycle, v)

    nb = neighbour_masks(g)
    full = (1 << g.n) - 1
    # one step object per move, shared by every trace that makes it: the
    # move with index k acts on the vertex with index k >> 1
    moves = [TMinorStep(kind, v) for v in g.vertices for kind in ("tcontract", "delete")]
    keys = _WLKey()
    seen = {keys(nb, list(range(g.n)))}
    queue = deque()
    done = set()
    met, replayed, prefix = set(), set(), ()
    traces = chain([((), (full, *nb), nb, full)], _popped(queue, moves, keys, seen, done))
    for steps, graph, nb, alive in islice(traces, budget):
        if steps[:-1] != prefix:
            prefix = steps[:-1]
            met.clear()
        done.add(graph)
        kept = []
        for v in bits(alive):
            for k in (2 * v, 2 * v + 1):
                made = _child(nb, alive, moves[k].kind, v)
                if made is None:
                    continue
                child, child_alive = made
                child_graph = (child_alive, *child)
                if child_graph in done or child_graph in met or child_graph in replayed:
                    continue
                met.add(child_graph)
                n = child_alive.bit_count()
                if n < 4 or not _has_odd_cycle(child, child_alive):
                    continue
                if n % 2 == 0 and n - 1 in map(int.bit_count, child):
                    replayed.add(child_graph)
                    builder = _replayed(g, steps + (moves[k],))
                    decomposition = is_odd_wheel(builder.graph)
                    if decomposition is not None:
                        hub_v, rim = decomposition
                        witness = OddWheelWitness(
                            trace=builder.trace(), hub=hub_v, rim=tuple(rim)
                        )
                        verify_odd_wheel_witness(witness)
                        return witness
                kept.append(k)
        if kept:
            queue.append((steps, graph, kept))
    return None
