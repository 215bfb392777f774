import math
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from tperfect.errors import UnknownVertexError
from tperfect.graphs import (
    Graph,
    covers,
    is_cycle_induced,
    is_path_induced,
    is_stable,
    label_key,
    odd_girth,
    shortest_odd_cycle,
)

from conftest import json_labelled_graphs, nx_graph


def cycle(n):
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_basic_accessors():
    g = Graph("abc", [("a", "b"), ("b", "c")])
    assert g.n == 3 and g.m == 2
    assert g.neighbours("b") == frozenset("ac")
    assert g.degree("a") == 1
    assert g.has_edge("a", "b") and not g.has_edge("a", "c")
    with pytest.raises(UnknownVertexError):
        g.neighbours("z")


def test_odd_girth_values():
    assert odd_girth(cycle(5)) == 5
    assert odd_girth(complete(4)) == 3
    assert odd_girth(cycle(6)) is math.inf
    cyc = shortest_odd_cycle(cycle(5))
    assert len(cyc) == 5 and is_cycle_induced(cycle(5), cyc)
    assert shortest_odd_cycle(cycle(6)) is None


@st.composite
def small_graphs(draw):
    """Graphs on at most 9 vertices, often disconnected; a drawn flag keeps
    only edges between even and odd vertices, which makes them bipartite."""
    n = draw(st.integers(0, 9))
    bipartite = draw(st.booleans())
    pairs = [(u, v) for u, v in combinations(range(n), 2) if not bipartite or (u - v) % 2]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(range(n), edges)


@given(small_graphs())
def test_shortest_odd_cycle_matches_brute_force(g):
    lengths = [len(c) for c in nx.simple_cycles(nx_graph(g)) if len(c) % 2]
    shortest = min(lengths, default=math.inf)
    cyc = shortest_odd_cycle(g)
    assert odd_girth(g) == shortest
    if cyc is None:
        assert shortest is math.inf
    else:
        assert len(cyc) == shortest and is_cycle_induced(g, cyc)
    # the search runs once per graph; a later call gives an equal list that
    # the caller may change without changing the next answer
    again = shortest_odd_cycle(g)
    assert again == cyc
    if again is not None:
        again.reverse()
        again.append(None)
    assert shortest_odd_cycle(g) == cyc
    # "v0" < ... < "v8" in the order of 0 < ... < 8, so relabelling and
    # listing the edges backwards must not change the cycle
    name = {v: f"v{v}" for v in g.vertices}
    h = Graph([name[v] for v in reversed(g.vertices)], [(name[v], name[u]) for u, v in reversed(g.edges())])
    assert shortest_odd_cycle(h) == (None if cyc is None else [name[v] for v in cyc])


def test_bfs_levelling():
    p = Graph("abc", [("a", "b"), ("b", "c")])
    assert [set(s) for s in p.bfs_levels("a")] == [{"a"}, {"b"}, {"c"}]
    assert [len(s) for s in cycle(5).bfs_levels(0)] == [1, 2, 2]
    star = Graph(range(4), [(0, i) for i in range(1, 4)])
    assert [len(s) for s in star.bfs_levels(0)] == [1, 3]


def test_levelling_edges_respect_levels():
    g = cycle(9)
    where = {v: i for i, level in enumerate(g.bfs_levels(0)) for v in level}
    for u, v in g.edges():
        assert abs(where[u] - where[v]) <= 1


def test_stable_clique_covers():
    c5 = cycle(5)
    assert is_stable(c5, {0, 2})
    assert not is_stable(c5, {0, 1})
    assert is_stable(c5, set())
    star = Graph(range(4), [(0, i) for i in range(1, 4)])
    assert covers(star, {0}, {1, 2, 3})
    assert not covers(star, {0, 1}, {1, 2})  # overlap
    c4 = cycle(4)
    assert covers(c4, {0, 2}, {1, 3})


def test_ball_check_follows_odd_girth():
    assert complete(4).induced_subgraph(complete(4).ball(0, 1)).bipartition() is None
    for n in (5, 7, 9, 11, 13):
        g = cycle(n)
        for r in range(1, (n - 1) // 2):
            if odd_girth(g) > 2 * r + 1:
                assert g.induced_subgraph(g.ball(0, r)).bipartition() is not None


def test_derived_graphs():
    g = cycle(6)
    h = g.induced_subgraph({0, 1, 2, 3})
    assert h.n == 4 and h.m == 3
    assert g.delete_vertices({0}).n == 5
    assert g.is_connected()
    assert len(g.delete_vertices({0, 3}).connected_components()) == 2
    sides = g.bipartition()
    assert sides is not None and set(sides[0]) | set(sides[1]) == set(range(6))
    assert cycle(5).bipartition() is None
    assert g.bfs_distances(0)[3] == 3


def test_induced_paths_and_cycles():
    g = cycle(6)
    assert is_path_induced(g, [0, 1, 2, 3])
    assert not is_path_induced(g, [0, 1, 3])
    assert is_cycle_induced(g, list(range(6)))
    chord = Graph(range(6), list(g.edges()) + [(0, 3)])
    assert not is_cycle_induced(chord, list(range(6)))
    # a vertex outside g is an error wherever it stands, even in a list too
    # short to hold an edge
    for predicate in (is_stable, is_path_induced, is_cycle_induced):
        for seq in ([9], [0, 9], [0, 1, 9], [9, 0, 0]):
            with pytest.raises(UnknownVertexError):
                predicate(g, seq)


@st.composite
def sequences_in_graphs(draw):
    """A vertex sequence of length 0-10 on at most 9 vertices, repeats
    allowed, in a graph that has the edges between consecutive entries, the
    closing edge if a drawn flag says so, and a few drawn edges more, with
    one of the first two kinds sometimes dropped.  So the sequence is often
    an induced path or cycle, or one spoiled by a chord, a missing edge or a
    repeat."""
    n = draw(st.integers(1, 9))
    unique = draw(st.booleans())
    k = draw(st.integers(0, n if unique else 10))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=unique))
    pairs = list(zip(seq, seq[1:]))
    if seq and draw(st.booleans()):
        pairs.append((seq[-1], seq[0]))
    if pairs and draw(st.integers(0, 3)) == 0:
        pairs.remove(draw(st.sampled_from(pairs)))
    all_pairs = list(combinations(range(n), 2))
    if all_pairs:
        pairs += draw(st.lists(st.sampled_from(all_pairs), max_size=3))
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    return Graph(range(n), edges), seq


@given(sequences_in_graphs())
def test_induced_predicates_match_pairwise_definitions(drawn):
    g, full = drawn
    for k in range(len(full) + 1):
        seq = full[:k]
        stable = all(not g.has_edge(u, v) for u, v in combinations(seq, 2))
        path = len(set(seq)) == k and all(
            g.has_edge(seq[i], seq[j]) == (j == i + 1) for i, j in combinations(range(k), 2)
        )
        cyc = k >= 3 and len(set(seq)) == k and all(
            g.has_edge(seq[i], seq[j]) == (j == i + 1 or (i, j) == (0, k - 1))
            for i, j in combinations(range(k), 2)
        )
        assert is_stable(g, seq) == stable
        assert is_path_induced(g, seq) == path
        assert is_cycle_induced(g, seq) == cyc


_LABELS = (
    lambda i: i,
    lambda i: f"v{i}",
    lambda i: ("t", i % 3, i),
    lambda i: (i, f"s{i}", ("m", i))[i % 3],
)


@st.composite
def graphs_with_subsets(draw):
    """A graph on at most 12 vertices with mixed labels, often disconnected
    and sometimes bipartite, and two subsets of its vertex set."""
    n = draw(st.integers(0, 12))
    label = draw(st.sampled_from(_LABELS))
    bipartite = draw(st.booleans())
    pairs = [(u, v) for u, v in combinations(range(n), 2) if not bipartite or (u - v) % 2]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    drop = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    g = Graph(map(label, range(n)), [(label(u), label(v)) for u, v in edges])
    return g, {label(v) for v in range(n) if keep[v]}, {label(v) for v in range(n) if drop[v]}


def _from_scratch(g, keep):
    """g[keep] built by __init__ from the vertices and edges listed backwards."""
    edges = [(v, u) for u, v in reversed(g.edges()) if u in keep and v in keep]
    return Graph([v for v in reversed(g.vertices) if v in keep], edges)


def _same_graph(h, ref):
    assert h.vertices == ref.vertices and h.edges() == ref.edges()
    assert h == ref and hash(h) == hash(ref)


@given(graphs_with_subsets())
def test_derived_graphs_and_traversal_match_scratch_and_networkx(drawn):
    g, keep, drop = drawn
    h = g.induced_subgraph(keep)
    _same_graph(h, _from_scratch(g, keep))
    rest = set(g.vertices) - drop
    _same_graph(g.delete_vertices(drop), _from_scratch(g, rest))
    _same_graph(h.delete_vertices(drop & keep), _from_scratch(g, keep - drop))
    for graph in (g, h):
        ref = nx_graph(graph)
        for v in graph.vertices:
            dist = nx.single_source_shortest_path_length(ref, v)
            assert graph.bfs_distances(v) == dist
            for r in range(-1, 4):
                assert graph.ball(v, r) == {u for u, d in dist.items() if d <= r}
        comps = sorted(nx.connected_components(ref), key=lambda c: label_key(min(c, key=label_key)))
        assert graph.connected_components() == comps
        sides = graph.bipartition()
        assert (sides is not None) == nx.is_bipartite(ref)
        if sides is not None:
            # the least vertex of each component is on side A
            parity = {}
            for comp in comps:
                root = min(comp, key=label_key)
                parity.update((u, d % 2) for u, d in nx.single_source_shortest_path_length(ref, root).items())
            assert sides == tuple(frozenset(u for u in graph.vertices if parity[u] == i) for i in (0, 1))


@given(json_labelled_graphs(16), st.data())
def test_rank_orders_every_derived_graph_as_label_key_does(g, data):
    # a chain of induced subgraphs and deletions shares the rank of g; it
    # orders the vertices of each graph of the chain as label_key does, and
    # each graph's edges are the label_key-sorted list __init__ once made
    chain = [g]
    for _ in range(data.draw(st.integers(0, 4))):
        h = chain[-1]
        part = data.draw(st.sets(st.sampled_from(h.vertices))) if h.n else set()
        chain.append(h.induced_subgraph(part) if data.draw(st.booleans()) else h.delete_vertices(part))
    for h in chain:
        assert h.rank is g.rank
        shuffled = data.draw(st.permutations(h.vertices))
        assert sorted(shuffled, key=h.rank.__getitem__) == sorted(shuffled, key=label_key) == list(h.vertices)
        edges = [(u, v) for u in h.vertices for v in h.neighbours(u) if label_key(u) < label_key(v)]
        assert list(h.edges()) == sorted(edges, key=lambda e: (label_key(e[0]), label_key(e[1])))


def test_label_key_total_order():
    labels = [0, 1, "a", ("a", 1), ("b",), True]
    ordered = sorted(labels, key=label_key)
    assert ordered.index(0) < ordered.index("a") < ordered.index(("a", 1))


def test_graph_equality_and_roundtrip():
    g = cycle(5)
    assert g == Graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
