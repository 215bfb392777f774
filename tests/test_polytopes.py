import hashlib
import random
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from tperfect.errors import CapExceededError, VerificationError
from tperfect.geometry import HPolytope, Inequality, point_in_hull, qvec
from tperfect import polytopes
from tperfect.corpus import corpus_names, make
from tperfect.geometry import _dd_enumerate, _row_to_int, enumerate_vertices, rank, slacks
from tperfect.graphs import Graph, has_k4_minor, label_key
from tperfect.polytopes import (
    ImperfectionWitness,
    all_stable_sets,
    chordless_odd_cycles,
    complement_graph,
    hstab,
    is_h_perfect,
    is_hbar_perfect,
    is_t_perfect,
    maximal_cliques,
    maximal_stable_sets,
    qstab,
    t_perfect_by_theorem,
    tstab,
    verify_witness,
    vertex_order,
)

from conftest import from_nx, nx_graph, satisfies

F = Fraction


def cycle(n):
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def wheel(k):
    edges = [(i, (i + 1) % k) for i in range(k)] + [(i, k) for i in range(k)]
    return Graph(range(k + 1), edges)


def _incidence(order, subset):
    return qvec([1 if v in subset else 0 for v in order])


def test_tstab_row_counts():
    assert len(tstab(cycle(3)).inequalities) == 3 + 3 + 1
    assert len(tstab(complete(4)).inequalities) == 4 + 6 + 4


def test_ssp_c5():
    points = {_incidence(vertex_order(cycle(5)), s) for s in all_stable_sets(cycle(5))}
    assert len(points) == 11  # empty, 5 singletons, 5 stable pairs


def test_tstab_k4_fractional_vertex():
    v = enumerate_vertices(tstab(complete(4)))
    assert tuple(F(1, 3) for _ in range(4)) in set(v.vertices)


def test_t_perfection_oracle():
    for n in (3, 5, 7, 9):
        assert is_t_perfect(cycle(n))[0]
    for n in (4, 6, 8):
        assert is_t_perfect(cycle(n))[0]
    ok, w = is_t_perfect(complete(4))
    assert not ok
    assert w.point == tuple(F(1, 3) for _ in range(4))
    assert verify_witness(complete(4), w)
    assert not is_t_perfect(wheel(5))[0]
    assert is_t_perfect(wheel(4))[0]


def test_h_perfection_oracle():
    assert is_h_perfect(complete(4))[0]
    assert is_h_perfect(cycle(5))[0]
    ok, w = is_h_perfect(complement_graph(cycle(7)))
    assert not ok and verify_witness(complement_graph(cycle(7)), w)


def test_hbar_perfection_oracle():
    assert is_hbar_perfect(cycle(5))[0]
    assert not is_hbar_perfect(cycle(7))[0]


def test_containment_chain():
    for g in (cycle(5), cycle(7), complete(4), wheel(5)):
        ts, hs, qs = tstab(g), hstab(g), qstab(g)
        for vert in (_incidence(vertex_order(g), s) for s in all_stable_sets(g)):
            assert satisfies(ts, vert) and satisfies(hs, vert) and satisfies(qs, vert)
        for vert in enumerate_vertices(hs).vertices:
            assert satisfies(ts, vert)
            assert satisfies(qs, vert)


def test_third_ones_always_in_tstab():
    for g in (cycle(5), cycle(9), complete(4), wheel(7)):
        assert satisfies(tstab(g), qvec([F(1, 3)] * g.n))


def test_all_cycles_mode_matches_chordless():
    # the rows of odd cycles with chords are implied by the chordless ones
    for g in (cycle(5), complete(4), wheel(5)):
        p = tstab(g)
        order = vertex_order(g)
        all_cycle_rows = tuple(
            Inequality(
                tuple(int(v in c) for v in order), (len(c) - 1) // 2, tag="oddcycle", source=tuple(c)
            )
            for c in nx.simple_cycles(nx_graph(g))
            if len(c) % 2 == 1
        )
        with_all = HPolytope(p.dim, p.inequalities + all_cycle_rows)
        assert enumerate_vertices(with_all) == enumerate_vertices(p)


def test_t_vs_h_on_k4_free():
    for g in (cycle(5), cycle(7), wheel(4)):
        assert is_t_perfect(g)[0] == is_h_perfect(g)[0]


def test_maximal_cliques():
    cl = maximal_cliques(complete(4))
    assert cl == [frozenset(range(4))]
    assert sorted(len(c) for c in maximal_cliques(cycle(5))) == [2] * 5
    empty = Graph([], [])
    assert maximal_cliques(empty) == maximal_stable_sets(empty) == chordless_odd_cycles(empty) == []


def _labels_key(vs):
    return tuple(label_key(v) for v in vs)


def _nx_chordless_odd_cycles(g):
    """networkx's chordless odd cycles, each rotated to start at its least
    label and turned towards the lesser of that vertex's two neighbours,
    sorted by length and then by labels."""
    found = set()
    for c in nx.chordless_cycles(nx_graph(g)):
        if len(c) % 2:
            i = min(range(len(c)), key=lambda j: label_key(c[j]))
            c = c[i:] + c[:i]
            found.add(min(tuple(c), (c[0], *c[:0:-1]), key=_labels_key))
    return sorted(found, key=lambda t: (len(t), _labels_key(t)))


def _nx_maximal_cliques(h):
    """networkx's maximal cliques of the networkx graph h, sorted by their
    members in label order."""
    cliques = map(frozenset, nx.find_cliques(h))
    return sorted(cliques, key=lambda c: _labels_key(sorted(c, key=label_key)))


@st.composite
def mixed_label_graphs(draw):
    """Graphs on 0-12 vertices, each labelled by an int, a string or a
    nested tuple, in shuffled order; edges are drawn among the first k
    vertices only, so the others are isolated."""
    n = draw(st.integers(0, 12))
    kinds = [lambda i: i, lambda i: f"v{i}", lambda i: ("t", (i % 3, str(i)))]
    names = draw(st.permutations([draw(st.sampled_from(kinds))(i) for i in range(n)]))
    pairs = list(combinations(range(draw(st.integers(0, n))), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(names, [(names[a], names[b]) for i, (a, b) in enumerate(pairs) if mask >> i & 1])


@settings(max_examples=300)
@given(mixed_label_graphs())
def test_enumerations_match_networkx(g):
    # the mask searches list what networkx lists, in the same order; on the
    # empty graph networkx lists no clique, not the empty one
    assert chordless_odd_cycles(g) == _nx_chordless_odd_cycles(g)
    assert maximal_cliques(g) == _nx_maximal_cliques(nx_graph(g))
    assert maximal_stable_sets(g) == _nx_maximal_cliques(nx.complement(nx_graph(g)))


def test_isolated_vertex_rows():
    g = Graph(range(3), [(0, 1)])
    p = tstab(g)
    # the isolated vertex still gets an upper bound row
    assert satisfies(p, qvec([0, 0, 1]))
    assert not satisfies(p, qvec([0, 0, 2]))
    assert is_t_perfect(g)[0]


def test_dimension_cap():
    # K4 with a 16-vertex pendant path: 20 vertices that no theorem settles,
    # so only the capped double description could decide
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    big = Graph(range(20), k4 + [(i, i + 1) for i in range(3, 19)])
    assert not t_perfect_by_theorem(big)
    with pytest.raises(CapExceededError):
        is_t_perfect(big)
    # above the cap only the series-parallel test runs: the even wheel on
    # 19 vertices has a K4 minor, so it is refused although G - hub is
    # bipartite
    wheel = Graph(range(19), [(i, (i + 1) % 18) for i in range(18)] + [(18, i) for i in range(18)])
    assert t_perfect_by_theorem(wheel)
    with pytest.raises(CapExceededError):
        is_t_perfect(wheel)


def test_theorem_settles_graphs_above_the_cap():
    # P20 and C41 have no K4 minor: accepted without the double description
    for g in (Graph(range(20), [(i, i + 1) for i in range(19)]), cycle(41)):
        assert is_t_perfect(g) == (True, None)
        assert is_h_perfect(g) == (True, None)


# sha256 of repr(_dd_enumerate(...)) on a relaxation's integer rows: the
# homogeneous vertices, their tight-row masks and their order.  The witness
# is the lexicographically first fractional vertex of this output.
DD_OUTPUTS = {
    ("W11", "tstab"): "3179b546fb382e8fe4e167f3ff57520ee2822f980b08bf48f643a7bd9ff5c1d8",
    ("W11", "hstab"): "59f5a3d1df655f3470fc434d5591199ef4f5121829f4f9399b133ec46ad6328c",
    ("moebius12", "tstab"): "d1b4a8aa5f41378e16fae54afc411fb2b13bae0c55a80682f43e5e9dda2f8a87",
    ("moebius12", "hstab"): "d1b4a8aa5f41378e16fae54afc411fb2b13bae0c55a80682f43e5e9dda2f8a87",
    ("grotzsch", "tstab"): "ccb93e794e6ffa5ae9050340f2c157b8e3fd0b57167ecbfe559c71096ebd29c8",
    ("grotzsch", "hstab"): "ccb93e794e6ffa5ae9050340f2c157b8e3fd0b57167ecbfe559c71096ebd29c8",
    ("joinC5C5", "tstab"): "a637a9e9c2f924608bfe4f4ecf4838711ae9d53e8d8279e5e16e92537d57d764",
    ("joinC5C5", "hstab"): "bdc088513adc60225bf89fb370b8799a8dc6547c291854887c0274305a6e5b31",
}


@pytest.mark.parametrize("name, relaxation", sorted(DD_OUTPUTS))
def test_double_description_output_pinned(name, relaxation):
    p = {"tstab": tstab, "hstab": hstab}[relaxation](make(name))
    out = _dd_enumerate([_row_to_int(i) for i in p.inequalities], p.dim)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == DD_OUTPUTS[name, relaxation]


def test_witness_rejects_tampering():
    ok, w = is_t_perfect(complete(4))
    assert not ok
    bad = ImperfectionWitness(
        relaxation=w.relaxation,
        order=w.order,
        point=tuple(F(1, 2) for _ in range(4)),
        tight_tags=w.tight_tags,
    )
    with pytest.raises(Exception):
        verify_witness(complete(4), bad)


def test_vertex_order_deterministic():
    g = Graph(["b", "a", "c"], [("a", "b")])
    assert vertex_order(g) == ("a", "b", "c")


def _witness_at(g, relaxation, point):
    x = qvec(point)
    p = {"tstab": tstab, "hstab": hstab}[relaxation](g)
    tight = tuple((i.tag, i.source) for i, s in zip(p.inequalities, slacks(p, x)) if s == 0)
    return ImperfectionWitness(relaxation=relaxation, order=vertex_order(g), point=x, tight_tags=tight)


def test_witness_rejects_integral_vertex():
    # (1, 0, 0, 0) is a vertex of tstab(K4), but an integral one
    with pytest.raises(VerificationError, match="integral"):
        verify_witness(complete(4), _witness_at(complete(4), "tstab", (1, 0, 0, 0)))


def test_witness_rejects_interior_point():
    with pytest.raises(VerificationError, match="not a vertex"):
        verify_witness(complete(4), _witness_at(complete(4), "tstab", (F(1, 4),) * 4))


def test_fractional_vertices_lie_outside_stab():
    # verify_witness relies on "fractional vertex of the relaxation" implying
    # "outside the stable set polytope"; check that against an exact hull LP
    # on every graph with 1 to 6 vertices
    graphs = [from_nx(h) for h in nx.graph_atlas_g() if 1 <= h.number_of_nodes() <= 6]
    assert len(graphs) == 208
    checked = 0
    for g in graphs:
        stables = [_incidence(vertex_order(g), s) for s in all_stable_sets(g)]
        for relaxation, p in (("tstab", tstab(g)), ("hstab", hstab(g))):
            for x in enumerate_vertices(p).vertices:
                if all(c.denominator == 1 for c in x):
                    continue
                assert verify_witness(g, _witness_at(g, relaxation, x))
                assert not point_in_hull(stables, x)
                checked += 1
    assert checked == 259


def test_k4_minor():
    assert has_k4_minor(complete(4))
    # K4 with every edge subdivided once
    subdivided = Graph(
        list(range(4)) + [("s", i, j) for i in range(4) for j in range(i + 1, 4)],
        [e for i in range(4) for j in range(i + 1, 4) for e in ((i, ("s", i, j)), (("s", i, j), j))],
    )
    assert has_k4_minor(subdivided)
    assert has_k4_minor(wheel(5)) and has_k4_minor(wheel(6))
    for n in (3, 4, 5, 8):
        assert not has_k4_minor(cycle(n))
    k25 = Graph(range(7), [(i, j) for i in range(2) for j in range(2, 7)])
    assert not has_k4_minor(k25)
    tree = from_nx(nx.random_labeled_tree(12, seed=3))
    assert not has_k4_minor(tree)
    rim = wheel(6).delete_vertices([6])
    assert not has_k4_minor(rim)
    assert not has_k4_minor(Graph([], []))


def test_theorem_shortcut_cases():
    assert t_perfect_by_theorem(Graph([], []))
    assert t_perfect_by_theorem(cycle(7))
    assert t_perfect_by_theorem(Graph(range(3), []))
    # an even wheel has a K4 minor, and is settled because G - hub is bipartite
    assert has_k4_minor(wheel(6)) and t_perfect_by_theorem(wheel(6))
    assert is_t_perfect(wheel(6)) == (True, None)
    # W5 has a K4 minor, and G - v keeps an odd cycle for every v; the DD
    # then refutes it
    assert not t_perfect_by_theorem(wheel(5))
    assert not t_perfect_by_theorem(complete(4))
    assert not is_t_perfect(wheel(5))[0]


def test_theorem_shortcut_sound_on_atlas():
    # wherever the shortcut accepts, neither relaxation has a fractional
    # vertex: checked by the double description on every graph with 1 to 7
    # vertices
    graphs = [from_nx(h) for h in nx.graph_atlas_g() if 1 <= h.number_of_nodes() <= 7]
    assert len(graphs) == 1252
    settled = 0
    for g in graphs:
        if not t_perfect_by_theorem(g):
            continue
        settled += 1
        for p in (tstab(g), hstab(g)):
            assert all(c.denominator == 1 for x in enumerate_vertices(p).vertices for c in x)
    assert settled == 682


def _polytope_workload_graphs(seed):
    """The 25 graphs of the benchmark's ``polytope`` workload, drawn as
    ``perfbench/pb_workloads.polytope_tasks(seed)`` draws them."""
    rng = random.Random(seed)
    names = [f"C{n}" for n in range(6, 14)] + ["W5", "W7", "W9", "W11"]
    names += ["moebius8", "moebius12", "co-C7", "grotzsch", "joinC5C5"]
    graphs = [(name, make(name)) for name in names]
    for n in (8, 9, 10, 11):
        graphs.append((f"sp{n}", make(f"sp-{rng.randrange(10**6)}-{n}")))
    for n in (6, 7):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(rng.randrange(v), v) for v in range(4, n)]
        graphs.append((f"K4tree{n}", Graph(range(n), edges)))
    for a, b in ((3, 4), (4, 5)):
        edges = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < 0.5]
        edges.append((0, a))
        graphs.append((f"bip{a}x{b}", Graph(range(a + b), edges)))
    return graphs


def test_polytope_witnesses_pinned():
    # sha256 of the three oracles' answers ("true" or the witness JSON) on
    # every corpus graph and on the polytope workload graphs at seed 1,
    # recorded before the oracle searched the face x_{v1} = 0 first, and
    # re-recorded when is_hbar_perfect's witnesses were renamed "hbarstab"
    # (their only change: 23 answers, in the relaxation field alone)
    graphs = [(name, make(name)) for name in corpus_names()] + _polytope_workload_graphs(1)
    assert len(graphs) == 27 + 25
    h = hashlib.sha256()
    for name, g in graphs:
        for oracle in (is_t_perfect, is_h_perfect, is_hbar_perfect):
            holds, w = oracle(g)
            h.update(f"{name} {oracle.__name__} {'true' if holds else w.to_json()}\n".encode())
    assert h.hexdigest() == "0421270e0114ed3ac3c474f4f9ba0f7a66f9a443b8d013568139a5cf557ae85d"


_LABELS = (
    lambda i: i,
    lambda i: f"v{i}",
    lambda i: ("t", i % 3, i),
    lambda i: (i, f"s{i}", ("m", i))[i % 3],
)


@st.composite
def mixed_label_graphs(draw):
    """Graphs on at most 9 vertices, each edge present with probability 1/2,
    labelled by ints, strings, tuples or a mix of the three."""
    n = draw(st.integers(0, 9))
    label = draw(st.sampled_from(_LABELS))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(map(label, range(n)), [(label(u), label(v)) for (u, v), k in zip(pairs, keep) if k])


@given(mixed_label_graphs())
def test_witness_is_the_first_fractional_vertex_of_the_whole_relaxation(g):
    for oracle, build in ((is_t_perfect, tstab), (is_h_perfect, hstab)):
        fractional = [x for x in enumerate_vertices(build(g)).vertices if any(c.denominator != 1 for c in x)]
        holds, w = oracle(g)
        assert holds == (not fractional)
        if fractional:
            assert w.point == fractional[0]


@given(mixed_label_graphs().filter(lambda g: 1 <= g.n <= 8))
def test_double_description_on_degenerate_relaxations(g):
    # tstab and hstab have many more tight rows than d at their vertices,
    # the degenerate case where a third vertex blocks a pair's meet
    stables = {_incidence(vertex_order(g), s) for s in all_stable_sets(g)}
    for p in (tstab(g), hstab(g)):
        rows = sorted(set(_row_to_int(i) for i in p.inequalities))
        integral = set()
        for pt, mask in _dd_enumerate([_row_to_int(i) for i in p.inequalities], p.dim):
            values = [sum(r * v for r, v in zip(row, pt)) for row in rows]
            assert min(values) >= 0
            tight = [row for row, v in zip(rows, values) if v == 0]
            assert mask == sum(1 << (p.dim + 1 + k) for k, v in enumerate(values) if v == 0)
            assert rank([row[1:] for row in tight]) == p.dim
            if pt[0] == 1:
                integral.add(pt[1:])
        assert integral == stables


@pytest.mark.parametrize("name, dims", [("joinC5C5", [6]), ("grotzsch", [10])])
def test_double_description_runs_on_the_face(monkeypatch, name, dims):
    # the first fractional vertex lies in the face x_{v1} = 0, so the double
    # description runs on a smaller graph than the input's
    seen = []

    def counting(p):
        seen.append(p.dim)
        return enumerate_vertices(p)

    monkeypatch.setattr(polytopes, "enumerate_vertices", counting)
    assert not is_t_perfect(make(name))[0]
    assert seen == dims
