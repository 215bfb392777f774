import hashlib
import math
import random
import warnings
from collections import deque
from dataclasses import replace
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from tperfect.colouring import certify
from tperfect.errors import PreconditionError, VerificationError
from tperfect.corpus import cycle, complete, make, wheel
from tperfect.graphs import Graph, label_key, odd_girth
from tperfect.polytopes import is_t_perfect
from tperfect import tminors
from tperfect.tminors import (
    OddWheelWitness,
    TMinorStep,
    TMinorTrace,
    TraceBuilder,
    _WLKey,
    _child,
    _has_odd_cycle,
    _hub_structure,
    _replayed,
    connected_bipartite_containing,
    extract_wheel_from_hub,
    find_odd_wheel_tminor,
    is_odd_wheel,
    replay,
    t_contract,
    verify_odd_wheel_witness,
)

from conftest import nx_graph, pendant, random_graph


def hub_instance(n, positions):
    """Cycle of length n plus a hub adjacent at the given rim positions."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(p, "v") for p in positions]
    return Graph(list(range(n)) + ["v"], edges)


def test_t_contract_basics():
    h, classes = t_contract(cycle(5), 0)
    assert h.n == 3 and h.m == 3
    p4 = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    h, classes = t_contract(p4, "b")
    assert h.n == 2 and h.m == 1
    merged = [v for v, cls in classes.items() if len(cls) == 3]
    assert merged and classes[merged[0]] == frozenset("abc")
    with pytest.raises(PreconditionError):
        t_contract(wheel(5), 5)  # hub neighbourhood is a cycle


def test_t_contract_parity_on_cycles():
    for n in range(5, 26, 2):
        h, _ = t_contract(cycle(n), 0)
        assert h.n == n - 2
        assert is_odd_wheel(h) is None or n == 5


def test_is_odd_wheel():
    assert is_odd_wheel(wheel(5)) is not None
    assert is_odd_wheel(wheel(4)) is None
    hub, rim = is_odd_wheel(complete(4))
    assert len(rim) == 3
    assert is_odd_wheel(cycle(7)) is None
    # a hub over a triangle and a square: its rim is two cycles, not one
    rim = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
    assert is_odd_wheel(Graph(range(8), rim + [(7, v) for v in range(7)])) is None


def test_trace_replay_and_json():
    builder = TraceBuilder(cycle(7))
    builder.delete(0)
    builder.tcontract(3)
    trace = builder.trace()
    assert replay(trace)
    from tperfect.graphio import parse_trace
    import json

    rt = parse_trace(json.loads(trace.to_json()))
    assert rt.result == trace.result
    assert replay(rt)


def test_replay_rejects_tampered_result():
    builder = TraceBuilder(cycle(7))
    builder.delete(0)
    trace = builder.trace()
    bad = TMinorTrace(
        base=trace.base,
        steps=trace.steps,
        result=cycle(5),
        contraction_map=trace.contraction_map,
    )
    with pytest.raises(VerificationError):
        replay(bad)
    builder = TraceBuilder(cycle(7))
    builder.tcontract(3)
    trace = builder.trace()
    moved = dict(trace.contraction_map)
    moved[0], moved[1] = moved[1], moved[0]
    with pytest.raises(VerificationError, match="contraction map"):
        replay(replace(trace, contraction_map=moved))


def test_verify_odd_wheel_witness_rejects_tampering():
    w = find_odd_wheel_tminor(wheel(5))
    assert (w.hub, w.rim) == (5, (0, 1, 2, 3, 4))
    with pytest.raises(VerificationError, match="hub"):
        verify_odd_wheel_witness(replace(w, hub=0, rim=(5, 1, 2, 3, 4)))
    with pytest.raises(VerificationError, match="cover"):
        verify_odd_wheel_witness(replace(w, rim=(0, 1, 2, 3)))
    with pytest.raises(VerificationError, match="induced odd cycle"):
        verify_odd_wheel_witness(replace(w, rim=(0, 2, 1, 3, 4)))
    even = OddWheelWitness(trace=TraceBuilder(wheel(4)).trace(), hub=4, rim=(0, 1, 2, 3))
    with pytest.raises(VerificationError, match="induced odd cycle"):
        verify_odd_wheel_witness(even)


def test_extract_wheel_from_hub():
    g = hub_instance(9, (0, 3, 6))
    w = extract_wheel_from_hub(g, list(range(9)), "v")
    assert verify_odd_wheel_witness(w)
    assert is_odd_wheel(w.trace.result) is not None
    # the witness hub class contains the input hub
    assert "v" in w.trace.contraction_map[w.hub]
    assert not is_t_perfect(g)[0]


def test_extract_wheel_base_cases():
    k4 = hub_instance(3, (0, 1, 2))
    w = extract_wheel_from_hub(k4, [0, 1, 2], "v")
    assert len(w.trace.steps) == 0
    w5 = hub_instance(5, tuple(range(5)))
    w = extract_wheel_from_hub(w5, list(range(5)), "v")
    assert len(w.trace.steps) == 0


def test_extract_wheel_precondition_even_arc():
    g = hub_instance(9, (0, 2, 6))
    with pytest.raises(PreconditionError):
        extract_wheel_from_hub(g, list(range(9)), "v")


def test_seeded_hub_instances():
    rng = random.Random(11)
    done = 0
    while done < 30:
        n = rng.choice([9, 11, 13, 15])
        a = rng.randrange(1, n - 2, 2)
        b = rng.randrange(1, n - a - 1, 2)
        g = hub_instance(n, (0, a, a + b))
        w = extract_wheel_from_hub(g, list(range(n)), "v")
        assert verify_odd_wheel_witness(w)
        if g.n <= 12:
            assert not is_t_perfect(g)[0]
        done += 1


def test_connected_bipartite_containing():
    c7 = cycle(7)
    h = connected_bipartite_containing(c7, frozenset([0, 3]), 3)
    # greedy deletion by lowest label keeps one of the two arcs
    assert h in (frozenset([0, 1, 2, 3]), frozenset([0, 3, 4, 5, 6]))
    sub = c7.induced_subgraph(h)
    assert sub.is_connected() and sub.bipartition() is not None
    with pytest.raises(PreconditionError):
        connected_bipartite_containing(c7, frozenset(range(7)), 3)
    # tree input: the minimal Steiner subtree
    tree = Graph(range(7), [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6)])
    h = connected_bipartite_containing(tree, frozenset([2, 4]), 3)
    assert h == frozenset([1, 2, 3, 4])


def test_bipartite_containing_minimality():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(9, 15)
        g = cycle(n if n % 2 else n + 1)
        s = frozenset(rng.sample(range(g.n), 2))
        if not all(not g.has_edge(u, v) for u in s for v in s if u != v):
            continue
        h = connected_bipartite_containing(g, s, (g.n - 1) // 2)
        sub = g.induced_subgraph(h)
        assert sub.is_connected() and sub.bipartition() is not None
        for v in h - s:
            smaller = g.induced_subgraph(h - {v})
            comps = smaller.connected_components()
            assert not any(s <= set(c) for c in comps) or not smaller.is_connected()


@st.composite
def connected_with_stable_set(draw):
    """A connected graph on 3-10 vertices (a random tree plus up to four
    edges), a nonempty stable set s in it, and the g that
    connected_bipartite_containing needs: |s| <= 2g < odd girth."""
    n = draw(st.integers(3, 10))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
    g = Graph(range(n), edges | set(draw(st.lists(pairs, max_size=4))))
    s = []
    for v in draw(st.lists(st.integers(0, n - 1), min_size=2, unique=True)):
        if not any(g.has_edge(v, u) for u in s):
            s.append(v)
    og = odd_girth(g)
    g_param = (len(s) + 1) // 2 if og == math.inf else min((len(s) + 1) // 2, (og - 1) // 2)
    return g, frozenset(s[: 2 * g_param]), g_param


def _restarting_deletion(g, s):
    """The greedy deletion that restarts its scan after every drop."""
    h = set(g.vertices)
    changed = True
    while changed:
        changed = False
        for v in sorted(h - s, key=label_key):
            hosts = [c for c in g.induced_subgraph(h - {v}).connected_components() if s <= c]
            if hosts:
                h, changed = set(hosts[0]), True
                break
    return frozenset(h)


@given(connected_with_stable_set())
def test_bipartite_containing_matches_restarting_scan(drawn):
    g, s, g_param = drawn
    assert connected_bipartite_containing(g, s, g_param) == _restarting_deletion(g, s)


def test_find_odd_wheel_tminor():
    w = find_odd_wheel_tminor(wheel(5))
    assert w is not None and len(w.trace.steps) == 0
    g = hub_instance(9, (0, 3, 6))
    w = find_odd_wheel_tminor(g)
    assert w is not None and verify_odd_wheel_witness(w)
    assert find_odd_wheel_tminor(cycle(11)) is None
    with pytest.raises(PreconditionError, match="budget"):
        find_odd_wheel_tminor(make("moebius8"), budget=-3)


def test_tminor_closure_property():
    # a t-minor of a t-perfect graph stays t-perfect
    rng = random.Random(5)
    for _ in range(20):
        n = rng.choice([5, 6, 7, 8])
        g = cycle(n)
        builder = TraceBuilder(g)
        v = rng.choice(sorted(g.vertices))
        if rng.random() < 0.5:
            builder.delete(v)
        else:
            builder.tcontract(v)
        result = builder.graph
        if is_t_perfect(g)[0] and result.n >= 1:
            assert is_t_perfect(result)[0]


# sha256 of certify(...).to_json(): wheels with a pendant path, above the
# polytope cap, so the refutation comes from the odd-wheel t-minor search
PENDANT_WHEEL_CERTIFICATES = {
    ("W9", 7): "e6edf4d14991f1d5e85189c6d769dd3c5543235aca7d2da2ecf4016feac3dfa9",
    ("W11", 5): "ac67c1ffb35013c32c4933df2315a90de40d0dc0d78612edbc0b091aff46262f",
    ("W13", 4): "2798cb9afe9c2f262b5709b274e9affd47df99df409d21ddf2c186659c55cb5d",
}


@pytest.mark.parametrize("name, tail", sorted(PENDANT_WHEEL_CERTIFICATES))
def test_certify_pins_pendant_wheel_witnesses(name, tail):
    text = certify(pendant(make(name), tail)).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PENDANT_WHEEL_CERTIFICATES[name, tail]


def test_search_budget_pins_expansion_order_and_pruning():
    # W9 + 7 first reaches an odd wheel while expanding its 346th trace
    g = pendant(make("W9"), 7)
    assert find_odd_wheel_tminor(g, budget=345) is None
    w = find_odd_wheel_tminor(g, budget=346)
    assert w is not None and verify_odd_wheel_witness(w)


def _nx_hash(g):
    with warnings.catch_warnings():
        # networkx warns that attribute-free hashes changed in 3.5
        warnings.simplefilter("ignore")
        return nx.weisfeiler_lehman_graph_hash(nx_graph(g))


# one instance for every test, as one serves a whole search: its interned
# labels only compare within the instance
_KEYS = _WLKey()


def _key(g):
    """The key the odd-wheel search gives g, as bitmasks over label order."""
    index = {v: i for i, v in enumerate(g.vertices)}
    nb = [sum(1 << index[w] for w in g.neighbours(v)) for v in g.vertices]
    return _KEYS(nb, list(range(g.n)))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 8))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(range(n), edges)


@given(small_graphs(), st.data())
def test_t_contract_matches_its_definition(g, data):
    # a contraction at v with N(v) stable leaves (V - N[v]) + r, where r is
    # the smallest member of N[v]; edges among V - N[v] stay, r sees every
    # outside vertex with a neighbour in N[v], and the class of r is N[v]
    legal = [
        v for v in g.vertices
        if not any(g.has_edge(a, b) for a, b in combinations(g.neighbours(v), 2))
    ]
    assume(legal)
    v = data.draw(st.sampled_from(legal))
    closed = g.neighbours(v) | {v}
    r = min(closed)
    outside = set(g.vertices) - closed
    h, classes = t_contract(g, v)
    assert set(h.vertices) == outside | {r}
    assert {e for e in h.edges() if r not in e} == {e for e in g.edges() if set(e) <= outside}
    assert h.neighbours(r) == {w for w in outside if g.neighbours(w) & closed}
    assert classes == {**{w: frozenset([w]) for w in outside}, r: frozenset(closed)}


def _relabelled(g, seed):
    perm = list(g.vertices)
    random.Random(seed).shuffle(perm)
    index = dict(zip(g.vertices, perm))
    return Graph(perm, [(index[u], index[v]) for u, v in g.edges()])


def _switched(g, seed):
    """g after up to five degree-preserving switches ab, cd -> ac, bd: the
    degree labels stay, so only the refinement rounds can tell them apart."""
    rng = random.Random(seed)
    edges = {frozenset(e) for e in g.edges()}
    for _ in range(5):
        if len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(sorted(map(sorted, edges)), 2)
        ac, bd = frozenset((a, c)), frozenset((b, d))
        if len({a, b, c, d}) == 4 and ac not in edges and bd not in edges:
            edges = edges - {frozenset((a, b)), frozenset((c, d))} | {ac, bd}
    return Graph(g.vertices, [tuple(e) for e in edges])


@given(small_graphs(), small_graphs(), st.integers(0, 1000))
def test_wl_key_splits_pairs_as_networkx_does(a, b, seed):
    c = _relabelled(a, seed)
    assert _key(c) == _key(a)
    for x, y in ((a, b), (b, c), (a, _switched(c, seed))):
        assert (_key(x) == _key(y)) == (_nx_hash(x) == _nx_hash(y))


def test_wl_key_agrees_with_networkx_on_hard_pairs():
    two_triangles = Graph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    two_squares = Graph(range(8), [(i, (i + 1) % 4) for i in range(4)]
                        + [(4 + i, 4 + (i + 1) % 4) for i in range(4)])
    # equal after one refinement round, split by the second
    one_round_a = Graph(range(7), [(0, 2), (0, 6), (1, 2), (1, 6), (3, 4), (4, 5), (5, 6)])
    one_round_b = Graph(range(7), [(0, 1), (0, 2), (0, 5), (1, 5), (2, 3), (3, 4), (4, 6)])
    pairs = [(cycle(6), two_triangles), (cycle(8), two_squares), (cycle(6), cycle(7)),
             (one_round_a, one_round_b)]
    for x, y in pairs:
        assert (_key(x) == _key(y)) == (_nx_hash(x) == _nx_hash(y))
    assert _key(cycle(6)) == _key(two_triangles) and _key(cycle(6)) != _key(cycle(7))
    assert _key(one_round_a) != _key(one_round_b)


@st.composite
def hub_graphs(draw):
    """A graph on 12-16 vertices whose vertex 0 sees ten or more others, so
    degrees of two digits occur, plus up to six edges among the rest."""
    n = draw(st.integers(12, 16))
    spokes = draw(st.lists(st.integers(1, n - 1), min_size=10, unique=True))
    pairs = list(combinations(range(1, n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6))
    return Graph(range(n), [(0, v) for v in spokes] + edges)


@given(hub_graphs(), hub_graphs(), st.integers(0, 1000))
def test_wl_key_agrees_with_networkx_at_two_digit_degrees(a, b, seed):
    # the labels concatenate degree strings without a separator, so
    # neighbour degrees 1, 12 and 2, 11 give one label here and in networkx
    c = _relabelled(a, seed)
    assert _key(c) == _key(a)
    for x, y in ((a, b), (b, c), (a, _switched(c, seed))):
        assert (_key(x) == _key(y)) == (_nx_hash(x) == _nx_hash(y))


def _search_batch():
    """(graph, budget) pairs: pendant wheels, two graphs with no odd-wheel
    t-minor within reach, and seeded random non-bipartite graphs."""
    for k in (5, 7, 9, 11, 13):
        for tail in range(7):
            yield pendant(make(f"W{k}"), tail), 4000
    for name in ("co-C7", "moebius8"):
        for tail in range(7):
            for budget in (50, 4000):
                yield pendant(make(name), tail), budget
    rng = random.Random(15)
    found = 0
    while found < 50:
        g = random_graph(rng, rng.randint(8, 14), rng.choice([0.2, 0.3, 0.4]))
        if g.bipartition() is not None:
            continue
        found += 1
        yield g, 200


def test_search_batch_output_pinned():
    # recorded before the search moved to bitmasks and interned labels: the
    # witnesses, the budget cut-offs and the misses all stay the same
    outputs = []
    for g, budget in _search_batch():
        w = find_odd_wheel_tminor(g, budget=budget)
        outputs.append("None" if w is None else w.to_json())
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert len(outputs) == 113
    assert digest == "3cfee48d2db0fecbfd80cd0cd72d4af67238802518e70a512b9deddf0eff7c15"


def _search_without_skips(g, budget):
    """find_odd_wheel_tminor as it was before it skipped graphs it had met:
    the same routes, and a breadth-first search over traces that prunes on
    _WLKey alone and keeps each trace's masks as a list."""
    if g.bipartition() is not None:
        return None
    hub = _hub_structure(g)
    if hub is not None:
        return extract_wheel_from_hub(g, *hub)
    index = {v: i for i, v in enumerate(g.vertices)}
    nb = [sum(1 << index[w] for w in g.neighbours(v)) for v in g.vertices]
    keys = _WLKey()
    seen = {keys(nb, list(range(g.n)))}
    queue = deque([((), nb, (1 << g.n) - 1)])
    for _ in range(budget):
        if not queue:
            break
        steps, nb, alive = queue.popleft()
        for v in (u for u in range(g.n) if alive >> u & 1):
            for kind in ("tcontract", "delete"):
                made = _child(nb, alive, kind, v)
                if made is None:
                    continue
                child, child_alive = made
                n = child_alive.bit_count()
                if n < 4 or not _has_odd_cycle(child, child_alive):
                    continue
                child_steps = steps + (TMinorStep(kind, g.vertices[v]),)
                # an odd wheel has an even number of vertices, one of full degree
                if n % 2 == 0 and n - 1 in map(int.bit_count, child):
                    replayed = _replayed(g, child_steps)
                    wheel = is_odd_wheel(replayed.graph)
                    if wheel is not None:
                        hub_v, rim = wheel
                        return OddWheelWitness(trace=replayed.trace(), hub=hub_v, rim=tuple(rim))
                key = keys(child, [u for u in range(g.n) if child_alive >> u & 1])
                if key not in seen:
                    seen.add(key)
                    queue.append((child_steps, child, child_alive))
    return None


def test_search_keys_a_child_only_when_it_is_popped(monkeypatch):
    # W9 + 7 meets its witness while expanding depth-3 traces, so the
    # depth-4 children made by then are never popped: keying every child
    # as it is made would compute 3989 keys, keying it when popped 1022
    calls = []

    class CountingKey(_WLKey):
        __slots__ = ()

        def __call__(self, nb, vs):
            calls.append(len(vs))
            return super().__call__(nb, vs)

    monkeypatch.setattr(tminors, "_WLKey", CountingKey)
    assert find_odd_wheel_tminor(pendant(make("W9"), 7)) is not None
    assert len(calls) <= 1100


def test_search_matches_key_pruning_on_deep_frontiers():
    # random 6-11 vertex graphs seldom queue a trace deeper than a few
    # steps; the pendant wheels of _search_batch and the co-C7 and moebius8
    # tails queue many.  At budget 100 several pendant wheels are cut off
    # before their witness, so the comparison also sees how many traces
    # are expanded
    cases = [
        (pendant(make(f"W{k}"), tail), budget)
        for k in (5, 7, 9, 11, 13) for tail in range(7) for budget in (100, 4000)
    ]
    cases += [(pendant(make(name), tail), 50) for name in ("co-C7", "moebius8") for tail in range(7)]
    for g, budget in cases:
        w, reference = find_odd_wheel_tminor(g, budget), _search_without_skips(g, budget)
        assert (w and w.to_json()) == (reference and reference.to_json())


@st.composite
def search_inputs(draw):
    """A graph on 6-11 vertices made of a drawn odd cycle and drawn extra
    edges, so never bipartite and never filtered, with a budget in 0..300."""
    n = draw(st.integers(6, 11))
    ring = draw(st.permutations(range(n)))[: draw(st.sampled_from(range(3, n + 1, 2)))]
    edges = {tuple(sorted(e)) for e in zip(ring, ring[1:] + ring[:1])}
    edges |= set(draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True)))
    return Graph(range(n), sorted(edges)), draw(st.integers(0, 300))


@settings(max_examples=200)
@given(search_inputs())
def test_search_skips_only_what_key_pruning_drops(drawn):
    # a skipped child is an exact copy of a graph met earlier, so the queue,
    # the budget cut-off and the witness are those of a search that prunes
    # on the key alone
    g, budget = drawn
    w, reference = find_odd_wheel_tminor(g, budget), _search_without_skips(g, budget)
    assert (w and w.to_json()) == (reference and reference.to_json())


@st.composite
def labelled_graphs(draw):
    """Graphs on 2-10 vertices, labelled 0..n-1 or by a shuffled mix of
    ints, strings and tuples."""
    n = draw(st.integers(2, 10))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True))
    names = list(range(n))
    if draw(st.booleans()):
        kinds = [lambda i: i, lambda i: f"v{i}", lambda i: ("x", i % 3, i)]
        names = draw(st.permutations([draw(st.sampled_from(kinds))(i) for i in names]))
    return Graph(names, [(names[a], names[b]) for a, b in edges])


@given(labelled_graphs())
def test_child_agrees_with_trace_builder(g):
    # the search's mask step and the replayed step give one graph, indexed
    # in the base graph's label order, and refuse the same contractions
    index = {v: i for i, v in enumerate(g.vertices)}

    def masks(h):
        return [sum(1 << index[w] for w in h.neighbours(v)) if v in h else 0 for v in g.vertices]

    nb, alive = masks(g), (1 << g.n) - 1
    for i, v in enumerate(g.vertices):
        for kind in ("tcontract", "delete"):
            made = _child(nb, alive, kind, i)
            try:
                h = _replayed(g, [TMinorStep(kind, v)]).graph
            except VerificationError:
                assert made is None
                continue
            assert made == (masks(h), sum(1 << index[u] for u in h.vertices))


def _hub_batch():
    """Seeded odd cycles of 5-13 vertices plus a hub with 3..k spokes, with
    int, string or tuple labels in shuffled order.  Of the 60 graphs, 13
    are odd wheels, 36 more have an odd-arc triple and 11 have none."""
    rng = random.Random(17)
    kinds = [lambda i: i, lambda i: f"v{i}", lambda i: ("x", i % 3, i)]
    for k in (5, 7, 9, 11, 13):
        for labels in kinds:
            for _ in range(4):
                spokes = sorted(rng.sample(range(k), rng.randint(3, k)))
                names = [labels(i) for i in range(k + 1)]
                rng.shuffle(names)
                edges = [(names[i], names[(i + 1) % k]) for i in range(k)]
                edges += [(names[k], names[i]) for i in spokes]
                yield Graph(names, edges)


def test_hub_route_output_pinned():
    # recorded while odd wheels still had a route of their own, apart from
    # the hub route that now answers them
    outputs = []
    for g in _hub_batch():
        w = find_odd_wheel_tminor(g)
        outputs.append("None" if w is None else w.to_json())
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert len(outputs) == 60 and outputs.count("None") == 11
    assert digest == "c497ddc565ef0b7d4be2233fe0fc9ac91c14aa508c15c170456ec1c8e0f5d6e5"


# sha256 of certify(...).to_json() on odd wheels above the polytope cap
WHEEL_CERTIFICATES = {
    "W17": "d2d1d25dc794f96552c06b6fc5d9586e337cff65404190ebfe31f331c0727458",
    "W19": "8baaf44f013102ba00556dcaf9d79d45c1fdf61b79375bca9d0e272e23f9c8e4",
}


@pytest.mark.parametrize("name", sorted(WHEEL_CERTIFICATES))
def test_certify_pins_odd_wheel_witnesses(name):
    text = certify(make(name)).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == WHEEL_CERTIFICATES[name]
