import collections
import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from tperfect import ropes
from tperfect.cli import _jsonable
from tperfect.colouring import chi_exact
from tperfect.corpus import cycle, grotzsch
from tperfect.errors import PreconditionError, TPerfectError, VerificationError
from tperfect.graphio import parse_rope
from tperfect.graphs import Graph, covers, is_cycle_induced, is_path_induced, label_key, odd_girth
from tperfect.ropes import (
    ArithmeticRope,
    BrokenRope,
    InductionResult,
    StableGrading,
    audit_induction_step,
    broken_rope_threshold,
    build_broken_rope,
    earlier_witness,
    earlier_witness_tf,
    find_rope,
    finder_threshold,
    generate_rope,
    generate_rope_shell,
    induction_threshold,
    rope_from_json,
    rope_induction_step,
    verify_rope,
    _chain,
)

from conftest import layered_instance


def test_threshold_formulas():
    assert induction_threshold(3) == 35
    assert broken_rope_threshold(1, 3) == 35
    assert broken_rope_threshold(5, 3) == 49763
    assert finder_threshold(5) == 99525
    # each induction round multiplies by 6 and adds 17
    for r in range(1, 5):
        assert broken_rope_threshold(r + 1, 3) == 6 * broken_rope_threshold(r, 3) + 17


def test_generate_and_verify():
    g, rope = generate_rope(2, 7, 8)
    assert verify_rope(g, rope)
    lengths = sorted(len(_chain(rope, h)) for h in product((1, 2), repeat=2))
    assert lengths == [14, 15, 15, 16]
    g5, rope5 = generate_rope(5, 7, 8)
    assert verify_rope(g5, rope5)
    assert rope5.r == 5
    # 2^20 choice vectors, checked through their 760 pairs of paths
    g20, rope20 = generate_rope(20, 7, 8)
    assert verify_rope(g20, rope20)


def test_generate_rejects_bad_lengths():
    with pytest.raises(PreconditionError):
        generate_rope(2, 6, 8)  # odd length must be odd
    with pytest.raises(PreconditionError):
        generate_rope(2, 7, 7)
    with pytest.raises(PreconditionError):
        generate_rope(1, 7, 8)


def test_rope_size_is_capped():
    with pytest.raises(PreconditionError, match="cap"):
        generate_rope(ropes.ROPE_R_CAP + 1, 7, 8)
    _, rope = generate_rope(ropes.ROPE_R_CAP, 7, 8)
    assert rope.r == ropes.ROPE_R_CAP
    data = rope.to_data()
    assert parse_rope(data) == rope
    data["anchors"].append(data["anchors"][0])
    data["paths"].append(data["paths"][0])
    with pytest.raises(PreconditionError, match="cap"):
        parse_rope(data)
    broken = BrokenRope(anchors=rope.anchors + (0,), paths=rope.paths + rope.paths[:1])
    with pytest.raises(PreconditionError, match="cap"):
        parse_rope(broken.to_data())


def test_chord_mutation_rejected():
    g, rope = generate_rope(3, 7, 8)
    path = rope.paths[0][0]
    bad = Graph(g.vertices, list(g.edges()) + [(path[1], path[4])])
    with pytest.raises(VerificationError):
        verify_rope(bad, rope)


def test_verify_rope_rejects_tampering():
    g, rope = generate_rope(3, 7, 8)
    # a chord between interior vertices of two pairs leaves each path
    # induced; only the cycle of a choice vector shows it
    chord = (rope.paths[0][0][3], rope.paths[1][0][3])
    with pytest.raises(VerificationError, match="induced cycle clause"):
        verify_rope(Graph(g.vertices, list(g.edges()) + [chord]), rope)
    (odd, even), *rest = rope.paths
    swapped = ArithmeticRope(anchors=rope.anchors, paths=((even, odd), *rest))
    with pytest.raises(VerificationError, match="odd length"):
        verify_rope(g, swapped)
    # a short cut between two anchors through vertices off the rope
    q1, q3 = rope.anchors[0], rope.anchors[2]
    detour = [(q1, "z1"), ("z1", "z2"), ("z2", q3)]
    with pytest.raises(VerificationError, match="anchor distance"):
        verify_rope(Graph(list(g.vertices) + ["z1", "z2"], list(g.edges()) + detour), rope)
    # with two anchors the second pair may retrace the first: every interior
    # vertex is then shared by both pairs
    g2, rope2 = generate_rope(2, 7, 8)
    odd, even = rope2.paths[0]
    retraced = ArithmeticRope(anchors=rope2.anchors, paths=((odd, even), (odd[::-1], even[::-1])))
    with pytest.raises(VerificationError, match="internally disjoint"):
        verify_rope(g2, retraced)


def test_verify_rope_rejects_empty_path():
    # a rope built in code, not parsed from JSON, may carry an empty path
    g, rope = generate_rope(2, 7, 8)
    (odd, _), second = rope.paths
    for paths, which in ((((odd, []), second), 2), ((([], odd), second), 1)):
        with pytest.raises(VerificationError) as err:
            verify_rope(g, ArithmeticRope(rope.anchors, paths))
        assert err.value.detail == {"pair": 1, "which": which}


@st.composite
def drawn_ropes(draw):
    """A rope or broken rope with r = 1-5 pairs of odd (3, 5, sometimes 1)
    and even (2, 4 or 6) paths on fresh interior vertices.  Up to two
    interior vertices are replaced by a vertex of another pair's path, and
    the graph has the path edges plus up to three edges between paths of
    different pairs, away from the anchors where the paths have interiors.
    So the choice clause often holds and often fails by a shared vertex or
    by a chord."""
    r = draw(st.integers(1, 5))
    closed = r >= 2 and draw(st.booleans())
    n_anchors = r if closed else r + 1
    paths, n = [], n_anchors
    for i in range(r):
        pair = []
        for length in (draw(st.sampled_from([3, 5, 3, 5, 1])), draw(st.sampled_from([2, 4, 6]))):
            pair.append([i, *range(n, n + length - 1), (i + 1) % n_anchors])
            n += length - 1
        paths.append(pair)

    def paths_of_two_pairs():
        i, j = draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=2, unique=True))
        return paths[i][draw(st.integers(0, 1))], paths[j][draw(st.integers(0, 1))]

    if r >= 2:
        for _ in range(draw(st.integers(0, 2))):
            path, other = paths_of_two_pairs()
            if len(path) > 2:
                path[draw(st.integers(1, len(path) - 2))] = draw(st.sampled_from(other))
    edges = {frozenset(e) for pair in paths for p in pair for e in zip(p, p[1:])}
    if r >= 2:
        for _ in range(draw(st.integers(0, 3))):
            path, other = paths_of_two_pairs()
            ends = [draw(st.sampled_from(p[1:-1] or p)) for p in (path, other)]
            edges.add(frozenset(ends))
    g = Graph(range(n), [tuple(e) for e in edges if len(e) == 2])
    kind = ArithmeticRope if closed else BrokenRope
    return g, kind(anchors=tuple(range(n_anchors)), paths=tuple(map(tuple, paths)))


# messages of the clauses verify_rope checks before the choice clause
EARLIER_CLAUSES = (
    "path endpoints do not match the anchors",
    "constituent path not induced",
    "first path of a pair must have odd length",
    "second path of a pair must have even length",
)


def _first_failing_choice(g, rope):
    """The choice clause by its definition: every choice vector, in
    lexicographic order, chains an induced cycle or induced path."""
    closed = isinstance(rope, ArithmeticRope)
    for h in product((1, 2), repeat=len(rope.paths)):
        seq = _chain(rope, h)
        if len(set(seq)) != len(seq):
            return "chosen paths are not internally disjoint", {"choice": h}
        if not (is_cycle_induced(g, seq) if closed else is_path_induced(g, seq)):
            clause = "induced cycle clause violated" if closed else "induced path clause violated"
            return clause, {"choice": h, "sequence": seq}
    return None


@settings(max_examples=400)
@given(drawn_ropes())
def test_choice_clause_matches_all_choice_vectors(drawn):
    g, rope = drawn
    try:
        verify_rope(g, rope)
        got = None
    except VerificationError as e:
        got = (str(e), e.detail)
    if got is not None and got[0] in EARLIER_CLAUSES:
        return
    expected = _first_failing_choice(g, rope)
    if expected is None:
        assert got is None or got[0] == "anchor distance clause violated"
    else:
        assert got == expected


def test_rope_json_roundtrip():
    _, rope = generate_rope(3, 7, 8)
    assert rope_from_json(rope.to_json()) == rope


def test_earlier_witness_triangle():
    t = Graph("abc", [("a", "b"), ("a", "c"), ("b", "c")])
    grading = StableGrading(parts=(frozenset("a"), frozenset("b"), frozenset("c")))
    x, edge = earlier_witness(t, grading, 1)
    assert x == frozenset("c") and edge == ("a", "b")


def test_earlier_witness_precondition():
    # chi(C4) = 2 is below c + 2 = 3, which is not checked at run time: the
    # audited witness comes back all the same
    c4 = cycle(4)
    grading = StableGrading(parts=tuple(frozenset([i]) for i in range(4)))
    assert earlier_witness(c4, grading, 1) == (frozenset({2, 3}), (0, 1))


def test_earlier_witness_tf():
    g = grotzsch()
    k, col = chi_exact(g)
    grading = StableGrading(parts=tuple(frozenset(c) for c in col.classes()))
    x, u, v = earlier_witness_tf(g, grading, 1)
    sub = g.induced_subgraph(x)
    assert chi_exact(sub)[0] >= 1
    assert not (g.neighbours(u) & x)
    assert g.neighbours(v) & x
    # chi(C5) = 3 is below c + 3 = 4, which is not checked at run time
    c5 = cycle(5)
    grading = StableGrading(parts=tuple(frozenset([i]) for i in range(5)))
    assert earlier_witness_tf(c5, grading, 1) == (frozenset({2, 3}), 0, 1)


def test_grading_validation():
    g = cycle(5)
    bad = StableGrading(parts=(frozenset([0, 1]), frozenset([2, 3, 4])))
    with pytest.raises((PreconditionError, VerificationError)):
        earlier_witness(g, bad, 1)


def test_earlier_witness_without_left_active_vertices():
    # every edge of C4 joins the two parts, so no edge has both ends earlier
    # than a vertex: the argument collapses, though chi = 2 = c + 2
    grading = StableGrading(parts=(frozenset({0, 2}), frozenset({1, 3})))
    with pytest.raises(VerificationError, match="left-active part"):
        earlier_witness(cycle(4), grading, 0)


def _reference_earlier_witness(g, grading, c):
    """earlier_witness as it was with a chi(g) >= c + 2 gate and two scans
    of the edges, kept to pin the witnesses of the one-pass routine."""
    grading.verify(g)
    if c < 0:
        raise PreconditionError("c must be non-negative")
    chi_g, _ = chi_exact(g)
    if chi_g < c + 2:
        raise PreconditionError(f"chi(g) = {chi_g} below c + 2 = {c + 2}")
    idx = grading.index()
    edges = g.edges()
    active = set()
    for w in g.vertices:
        iw = idx[w]
        for u, v in edges:
            if idx[u] < iw and idx[v] < iw and (g.has_edge(w, u) or g.has_edge(w, v)):
                active.add(w)
                break
    comp, chi_a = ropes._max_chi_component(g, active)
    if chi_a < c:
        raise VerificationError("left-active part has too small chromatic number")
    i_min = min(idx[v] for v in comp)
    w = min((v for v in comp if idx[v] == i_min), key=label_key)
    witness_edge = None
    for u, v in edges:
        if idx[u] < i_min and idx[v] < i_min and (g.has_edge(w, u) or g.has_edge(w, v)):
            witness_edge = (u, v)
            break
    if witness_edge is None:
        raise VerificationError("left-active certificate edge disappeared")
    x = frozenset(comp)
    ropes._audit_earlier(g, grading, x, witness_edge)
    return x, witness_edge


def _reference_earlier_witness_tf(g, grading, c):
    """earlier_witness_tf on top of _reference_earlier_witness, with the
    colouring of X that the triangle-free audit no longer makes."""
    if ropes.has_triangle(g):
        raise PreconditionError("graph contains a triangle")
    x_prime, (e1, e2) = _reference_earlier_witness(g, grading, c + 1)
    with_nbr = [w for w in (e1, e2) if g.neighbours(w) & x_prime]
    v_prime = min(with_nbr, key=label_key)
    u_prime = e2 if v_prime == e1 else e1
    comp, _ = ropes._max_chi_component(g, x_prime - g.neighbours(v_prime))
    if not comp:
        t = min(g.neighbours(v_prime) & x_prime, key=label_key)
        result = (frozenset([t]), u_prime, v_prime)
    elif g.neighbours(u_prime) & comp:
        result = (frozenset(comp), v_prime, u_prime)
    else:
        w = min(
            (t for t in (g.neighbours(v_prime) & x_prime) if g.neighbours(t) & comp),
            key=label_key,
        )
        result = (frozenset(comp | {w}), u_prime, v_prime)
    ropes._audit_earlier_tf(g, grading, *result)
    assert chi_exact(g.induced_subgraph(result[0]))[0] >= c
    return result


@st.composite
def graded_graphs(draw):
    """A graph on at most 12 vertices with a grading of it: each vertex
    draws a part, edges join vertices of different parts only, and the
    parts come in shuffled order.  Half the graphs drop each drawn edge
    that would close a triangle, so that earlier_witness_tf has work."""
    n = draw(st.integers(1, 12))
    part = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    triangle_free = draw(st.booleans())
    adj = {v: set() for v in range(n)}
    for (u, v), k in zip(pairs, keep):
        if k and not (triangle_free and adj[u] & adj[v]):
            adj[u].add(v)
            adj[v].add(u)
    g = Graph(range(n), [(u, v) for u in adj for v in adj[u] if u < v])
    order = draw(st.permutations(sorted(set(part))))
    return g, StableGrading(parts=tuple(frozenset(v for v in g.vertices if part[v] == p) for p in order))


@settings(max_examples=300)
@given(graded_graphs())
def test_earlier_witness_matches_its_definition(drawn):
    g, grading = drawn
    idx = grading.index()
    literal = {}
    for w in g.vertices:
        for u, v in g.edges():
            if idx[u] < idx[w] and idx[v] < idx[w] and (g.has_edge(w, u) or g.has_edge(w, v)):
                literal[w] = (u, v)
                break
    assert ropes._earlier_edges(g, idx) == literal
    for c in range(g.n + 1):
        for routine, reference in (
            (earlier_witness, _reference_earlier_witness),
            (earlier_witness_tf, _reference_earlier_witness_tf),
        ):
            try:
                expected = reference(g, grading, c)
            except (TPerfectError, ValueError):
                expected = None
            try:
                got = routine(g, grading, c)
            except TPerfectError:
                assert expected is None
            else:
                assert expected is None or got == expected


def test_rope_induction_step(layered):
    g, b_set, c_set, q1 = layered
    res = rope_induction_step(g, b_set, c_set, q1, 0)
    assert res.q0[0] == q1 and res.q1[0] == q1
    assert res.q0[-1] == res.q_prime and res.q1[-1] == res.q_prime
    assert len(res.q0) % 2 == 1  # even number of edges
    assert len(res.q1) % 2 == 0  # odd number of edges


def _through_instance():
    """Two 11-rings A and B at level 6 below q, joined by one edge, each ring
    vertex at the end of a private length-6 spoke from q.  Every spoke
    vertex has a pendant cover vertex.  Ring vertex j is covered by
    ("b", side, j), which also meets M, the levels 0..4 before the richest
    level 5: on ring A at its own spoke's level 4, so at odd distance 5 from
    q through M, and on ring B at the next spoke's level 3, so at even
    distance 4.  The rings are then the chromatically rich parts C_1 and
    C_2 of the far component, and the induction step takes its through
    branch on C_1."""
    q = "q"
    edges = [(("r", "A", 0), ("r", "B", 0))]
    for side in "AB":
        for j in range(11):
            spoke = [q] + [("y", side, j, i) for i in range(1, 6)] + [("r", side, j)]
            edges += zip(spoke, spoke[1:])
            edges += [(("p", side, j, i), ("y", side, j, i)) for i in range(1, 6)]
            hook = ("y", "A", j, 4) if side == "A" else ("y", "B", (j + 1) % 11, 3)
            edges += [(("r", side, j), ("r", side, (j + 1) % 11)), (("b", side, j), hook)]
            edges.append((("b", side, j), ("r", side, j)))
    vertices = {v for e in edges for v in e}
    b_set = frozenset(v for v in vertices if v[0] in ("b", "p"))
    c_set = frozenset(v for v in vertices if v[0] in ("y", "r"))
    return Graph(vertices, edges), b_set, c_set, q


def test_rope_induction_through_branch(monkeypatch):
    g, b_set, c_set, q = _through_instance()
    assert odd_girth(g) == 11
    calls = []
    through = ropes._induction_branch_through
    monkeypatch.setattr(
        ropes, "_induction_branch_through", lambda *a: calls.append(a) or through(*a)
    )
    res = rope_induction_step(g, b_set, c_set, q, 0)
    assert len(calls) == 1
    spoke = lambda j: [("y", "A", j, i) for i in range(1, 5)]
    assert res == InductionResult(
        b_prime=frozenset(
            [("b", "A", j) for j in range(2, 11)]
            + [("p", "A", j, 4) for j in range(2, 11)]
            + [("p", "B", j, 4) for j in range(11)]
        ),
        c_prime=frozenset(("r", "A", j) for j in range(2, 10)),
        q_prime=("r", "A", 1),
        q0=(q, *spoke(1), ("b", "A", 1), ("r", "A", 1)),
        q1=(q, *spoke(0), ("b", "A", 0), ("r", "A", 0), ("r", "A", 1)),
    )


def test_build_broken_rope(layered):
    g, b_set, c_set, q1 = layered
    res = build_broken_rope(g, b_set, c_set, q1, 2, 0)
    assert res.rope.r == 2
    assert verify_rope(g, res.rope)


def test_find_rope_layered(layered):
    g, _, _, _ = layered
    rope = find_rope(g, frozenset(g.vertices), 2, c=0)
    assert isinstance(rope, ArithmeticRope)
    assert rope.r >= 2
    assert verify_rope(g, rope)


def test_find_rope_shell_recovery():
    host, _, _ = generate_rope_shell(3, 7, 8)
    rec = find_rope(host, frozenset(host.vertices), 3, c=0)
    assert verify_rope(host, rec)


def test_negative_c_is_refused_before_any_work(layered, monkeypatch):
    g, b_set, c_set, q1 = layered
    monkeypatch.setattr(ropes, "odd_girth", lambda g: pytest.fail("work before the check"))
    for call in (
        lambda: find_rope(g, frozenset(g.vertices), 2, c=-1),
        lambda: build_broken_rope(g, b_set, c_set, q1, 2, -1),
        lambda: rope_induction_step(g, b_set, c_set, q1, -1),
    ):
        with pytest.raises(PreconditionError, match="c must be non-negative"):
            call()


def test_find_rope_rejects_low_odd_girth():
    with pytest.raises(PreconditionError):
        find_rope(cycle(9), frozenset(range(9)), 2)


def test_find_rope_in_empty_set():
    with pytest.raises(VerificationError, match="no verified rope found") as err:
        find_rope(cycle(12), frozenset(), 2)
    assert err.value.detail == {"pipeline_failure": "rope pipeline: X is empty"}


def test_seeded_path_chord_mutations():
    g, rope = generate_rope(4, 7, 8)
    rng = random.Random(17)
    for _ in range(20):
        i = rng.randrange(rope.r)
        which = rng.randrange(2)
        path = rope.paths[i][which]
        a = rng.randrange(1, len(path) - 3)
        b = rng.randrange(a + 2, len(path) - 1)
        bad = Graph(g.vertices, list(g.edges()) + [(path[a], path[b])])
        with pytest.raises(VerificationError):
            verify_rope(bad, rope)


# The collapses that inputs can reach, since the paper's chromatic
# thresholds, which rule them out, are not checked at run time.  Every other
# path, connector and hook of the construction exists by the levelling.
KEPT_BRANCHES = {"levelling", "far-component", "partition", "closing-x"}
KEPT_MESSAGES = (
    "left-active part has too small chromatic number",
    "rope pipeline: X is empty",
    "rope pipeline: levelling too shallow",
)


def _names_kept_branch(err):
    """Whether a VerificationError of the rope construction names a
    collapse that inputs can reach.  build_broken_rope's error has the
    error of the failed step as its cause."""
    err = err.__cause__ or err
    detail = err.detail if isinstance(err.detail, dict) else {}
    return detail.get("branch") in KEPT_BRANCHES or str(err).startswith(KEPT_MESSAGES)


def _with_pendant(g, rng):
    """g with a new vertex "t" hung off a random vertex."""
    return Graph([*g.vertices, "t"], [*g.edges(), (rng.choice(g.vertices), "t")])


def _subdivided(rng, n):
    """A random graph on n vertices with each edge replaced by a path of
    5, 6 or 7 edges: odd girth at least 15, or bipartite."""
    length = rng.choice([5, 6, 7])
    vertices, edges = list(range(n)), []
    for i, j in combinations(range(n), 2):
        if rng.random() < 0.5:
            path = [i, *((i, j, k) for k in range(length - 1)), j]
            vertices += path[1:-1]
            edges += zip(path, path[1:])
    return Graph(vertices, edges)


def test_rope_construction_fails_only_in_kept_branches(monkeypatch):
    # perturbed inputs of the induction step and drawn inputs of find_rope
    # give an audited result, break a precondition or collapse in a branch
    # that inputs can reach; each routine that builds paths, connectors and
    # hooks runs
    routines = ("_induction_branch_near", "_induction_branch_through", "_close_broken_rope")
    calls = collections.Counter()
    for name in routines:
        real = getattr(ropes, name)
        monkeypatch.setattr(ropes, name, lambda *a, f=real: calls.update([f.__name__]) or f(*a))
    pipeline_failures = []
    pipeline = ropes._find_rope_pipeline

    def recorded_pipeline(*args):
        try:
            return pipeline(*args)
        except TPerfectError as e:
            pipeline_failures.append(e)
            raise

    monkeypatch.setattr(ropes, "_find_rope_pipeline", recorded_pipeline)
    rng = random.Random(5)
    # a random q in B (half the time the fixture's own), random deletions
    # from B and C, and a vertex of C left without a cover leaves C too
    for g, b_set, c_set, q0 in (layered_instance(), _through_instance()):
        b_list, c_list = sorted(b_set, key=label_key), sorted(c_set, key=label_key)
        for _ in range(40):
            q = rng.choice([q0, rng.choice(b_list)])
            b = b_set - set(rng.sample(b_list, rng.randrange(3)))
            cc = c_set - set(rng.sample(c_list, rng.randrange(4)))
            cc = frozenset(v for v in cc if g.neighbours(v) & b)
            c = rng.randrange(3)
            try:
                res = rope_induction_step(g, b, cc, q, c)
            except PreconditionError:
                continue
            except VerificationError as e:
                assert _names_kept_branch(e), (str(e), e.detail)
                continue
            assert audit_induction_step(g, b, cc, q, c, res)
    # the layered graph with a pendant vertex or a vertex deleted, which
    # holds a 2-rope for c = 0 at most; rope shells with a pendant vertex;
    # subdivided random graphs
    host = layered_instance()[0]
    layered = [_with_pendant(host, rng), host.delete_vertices([rng.choice(host.vertices)])]
    small = [_with_pendant(generate_rope_shell(r, 7, 8)[0], rng) for r in range(2, 6)]
    small += [_subdivided(rng, rng.randrange(4, 9)) for _ in range(12)]
    drawn = [(g, 2, 0) for g in layered]
    drawn += [(g, rng.randrange(2, 5), rng.randrange(3)) for g in small]
    for g, r, c in drawn:
        assert odd_girth(g) >= 11
        try:
            rope = find_rope(g, frozenset(g.vertices), r, c)
        except VerificationError as e:
            assert str(e) == "no verified rope found"
        else:
            assert verify_rope(g, rope) and rope.r >= r
    assert pipeline_failures and all(map(_names_kept_branch, pipeline_failures))
    assert set(calls) == set(routines)


def test_find_rope_needs_two_anchors():
    host, _, _ = generate_rope_shell(3, 7, 8)
    for r in (1, 0, -3):
        with pytest.raises(PreconditionError, match="r must be at least 2"):
            find_rope(host, frozenset(host.vertices), r, c=0)
    # checked before the odd-girth precondition
    with pytest.raises(PreconditionError, match="r must be at least 2"):
        find_rope(cycle(9), frozenset(range(9)), 1)


# sha256 of find_rope(...).to_json(), recorded before the audits were trimmed
FIND_ROPE_SHA256 = {
    "layered": "e3dce2efcd89062814f666d243bba10e8aec1eb98f83b9e593a02d10d76c99fc",
    "shell-3": "8a5a1ff1930a43f6cdd74241073b643d5cb0b85b5a990a63662ca86e359fedb0",
    "shell-5": "3834fdf85de97789fe066350dce8668698524877d0c9bf0fe23512cde9d72165",
}


@pytest.mark.parametrize("case", sorted(FIND_ROPE_SHA256))
def test_find_rope_output_pinned(case):
    if case == "layered":
        g, r = layered_instance()[0], 2
    else:
        r = int(case.split("-")[1])
        g = generate_rope_shell(r, 7, 8)[0]
    text = find_rope(g, frozenset(g.vertices), r, c=0).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == FIND_ROPE_SHA256[case]


def _edited_hosts(host, rng, k):
    """k copies of host with one chord added, k with one vertex deleted and
    k with one pendant vertex added."""
    vs = list(host.vertices)
    out = []
    for _ in range(k):
        u, v = rng.sample(vs, 2)
        while host.has_edge(u, v):
            u, v = rng.sample(vs, 2)
        out.append(Graph(vs, [*host.edges(), (u, v)]))
    out += [host.delete_vertices([rng.choice(vs)]) for _ in range(k)]
    out += [Graph([*vs, ("x",)], [*host.edges(), (rng.choice(vs), ("x",))]) for _ in range(k)]
    return out


def test_find_rope_batch_output_pinned():
    """One sha256 over find_rope on generated and shell hosts for r = 2..7
    and seeded edits of them: the rope JSON, or the error as the CLI reports
    it when no rope is found.  It covers the two-anchor recovery and the
    no-rope paths.  Re-recorded when the recovery began to drop pendant
    trees: 42 pendant copies that gave no rope now give a verified one, and
    the other 114 outputs are as before."""
    rng = random.Random(14)
    digest = hashlib.sha256()
    for r in range(2, 8):
        for host in (generate_rope(r, 7, 8)[0], generate_rope_shell(r, 7, 8)[0]):
            for g in (host, *_edited_hosts(host, rng, 4)):
                try:
                    text = find_rope(g, frozenset(g.vertices), r, c=0).to_json()
                except TPerfectError as e:
                    detail = json.dumps(_jsonable(getattr(e, "detail", None)), sort_keys=True)
                    text = f"{type(e).__name__}: {e} {detail}"
                digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == "7c1ff3221879f2aff115385315f9cda562b9f5fbb557b21d177aa9f73240e5f8"


@given(st.integers(2, 5), st.data())
def test_find_rope_sees_past_pendant_trees(r, data):
    # a vertex of degree <= 1 lies on no cycle, so trees hung off the
    # vertices of a rope leave that rope to be found
    host = generate_rope(r, 7, 8)[0]
    vertices, edges = list(host.vertices), list(host.edges())
    for k in range(data.draw(st.integers(1, 12))):
        edges.append((data.draw(st.sampled_from(vertices)), ("t", k)))
        vertices.append(("t", k))
    g = Graph(vertices, edges)
    rope = find_rope(g, frozenset(vertices), r, c=0)
    assert rope.r >= r and verify_rope(g, rope)


def broken_rope_clauses_failing(g, c_set, q1, c, res):
    """The seven output clauses of build_broken_rope, written out from their
    definitions; returns the numbers of those that fail.  audit_broken_rope
    leaves them to the audits of the induction steps."""
    bp, cp, rope = res.b_prime, res.c_prime, res.rope
    end = rope.end
    pairs = [set(p1) | set(p2) for p1, p2 in rope.paths]
    # each pair away from the anchor it leads to
    outside = [pair - g.ball(a, 2) for pair, a in zip(pairs, rope.anchors[1:])]
    before_end = set().union(*pairs) - {end}
    held = {
        1: g.induced_subgraph(cp | {end}).is_connected(),
        2: chi_exact(g.induced_subgraph(cp))[0] >= c,
        3: covers(g, bp, cp),
        4: not any(g.neighbours(b) & out for b in bp for out in outside),
        5: all(out <= frozenset(c_set) | {q1} for out in outside),
        6: not any(g.neighbours(w) & before_end for w in cp),
        7: not any(g.ball(a, 4) & (cp | {end}) for a in rope.anchors[:-1]),
    }
    return [k for k, ok in held.items() if not ok]


@pytest.mark.parametrize("fixture, r", [("layered", 1), ("layered", 2), ("through", 1)])
def test_broken_rope_clauses_hold(fixture, r):
    g, b_set, c_set, q1 = layered_instance() if fixture == "layered" else _through_instance()
    res = build_broken_rope(g, b_set, c_set, q1, r, 0)
    assert res.rope.r == r and res.rope.anchors[0] == q1
    assert broken_rope_clauses_failing(g, c_set, q1, 0, res) == []
    # the written-out clauses are not vacuous
    assert broken_rope_clauses_failing(g, c_set, q1, 99, res) == [2]
    assert broken_rope_clauses_failing(g, c_set, q1, 0, replace(res, b_prime=frozenset())) == [3]
    assert 4 in broken_rope_clauses_failing(g, c_set, q1, 0, replace(res, b_prime=res.b_prime | {q1}))
    assert 5 in broken_rope_clauses_failing(g, frozenset(), q1, 0, res)
    # a path vertex next to q1 in C' touches the rope and lies near q1
    near_q1 = replace(res, c_prime=res.c_prime | {res.rope.paths[0][0][1]})
    assert {6, 7} <= set(broken_rope_clauses_failing(g, c_set, q1, 0, near_q1))


def test_audit_induction_step_rejects_tampering(layered):
    g, b_set, c_set, q = layered
    res = rope_induction_step(g, b_set, c_set, q, 0)
    assert audit_induction_step(g, b_set, c_set, q, 0, res)
    # B' reaching outside B, and B' missing the cover of a vertex of C'
    with pytest.raises(VerificationError, match="not nested"):
        audit_induction_step(g, b_set, c_set, q, 0, replace(res, b_prime=res.b_prime | {("x", 0, 3)}))
    w = min(res.c_prime, key=label_key)
    uncovered = replace(res, b_prime=res.b_prime - g.neighbours(w))
    with pytest.raises(VerificationError, match="clause 3"):
        audit_induction_step(g, b_set, c_set, q, 0, uncovered)
    with pytest.raises(VerificationError, match="clause 8: Q_0 has the wrong parity"):
        audit_induction_step(g, b_set, c_set, q, 0, replace(res, q0=res.q1, q1=res.q0))
    # q' two steps from q, through the hub ("w",) that q covers; C' is the
    # next spoke vertex and B' its cover, so clauses 1-6 hold and the
    # distance clause is the first to fail
    hub, q_near, c_near = ("w",), ("s", 0, 1), ("s", 0, 2)
    near = InductionResult(
        b_prime=g.neighbours(c_near) & b_set,
        c_prime=frozenset([c_near]),
        q_prime=q_near,
        q0=(q, hub, q_near),
        q1=(q, hub, q_near),
    )
    with pytest.raises(VerificationError, match="clause 7"):
        audit_induction_step(g, b_set, c_set, q, 0, near)
