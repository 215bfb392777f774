import ast
import itertools
import json
import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from tperfect.corpus import corpus_names, make
from tperfect.errors import PreconditionError, TPerfectError
from tperfect.graphio import (
    from_edge_list,
    from_graph6,
    from_json_graph,
    guess_format,
    identify_certificate,
    parse_colouring,
    parse_fractional_colouring,
    parse_graph,
    parse_label,
    parse_rope,
    parse_trace,
    parse_wheel_witness,
    parse_witness,
    serialize_graph,
    to_edge_list,
    to_graph6,
    to_json_graph,
)
from tperfect.graphs import Graph
from tperfect.polytopes import chordless_odd_cycles, tstab

from conftest import from_nx, mixed_labels, nx_graph, random_graph


def test_graph6_roundtrip_all_five_vertex_graphs():
    pairs = list(itertools.combinations(range(5), 2))
    seen = set()
    for r in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, r):
            g = Graph(range(5), list(edges))
            s = to_graph6(g)
            h = from_graph6(s)
            assert to_graph6(h) == s
            assert h.m == g.m
            seen.add(s)
    assert len(seen) == 2**10


def test_graph6_malformed():
    with pytest.raises(PreconditionError):
        from_graph6("")
    with pytest.raises(PreconditionError):
        from_graph6("\x01\x02")


@pytest.mark.parametrize("text", ["ER96", ">?", ">>graph6<<>?", "I2UMgiXb~"])
def test_graph6_refuses_characters_outside_the_data_range(text):
    # each of these holds a character below "?" (63)
    with pytest.raises(PreconditionError, match="outside"):
        from_graph6(text)


def test_graph6_long_size_prefix_with_a_short_body_is_refused_at_once():
    # "~~" then six 63s claims 2**36 - 1 vertices: were the pairs enumerated
    # before the body length is checked, this would not finish
    n = 2**36 - 1
    for body in ("", "?", "~" * 100):
        with pytest.raises(PreconditionError, match=f"expected {n * (n - 1) // 2} bits"):
            from_graph6("~~" + "~" * 6 + body)


def _nx_from_graph6(text):
    """networkx's graph of graph6 text, or None where networkx refuses it."""
    try:
        return from_nx(nx.from_graph6_bytes(text.strip().encode("ascii")))
    except (nx.NetworkXError, ValueError, IndexError):
        return None


def test_graph6_codec_matches_networkx():
    rng = random.Random(6)
    graphs = [make(name) for name in corpus_names()]
    # 62, 63 and 64 vertices cross from the one- to the four-character size
    graphs += [mixed_labels(rng, random_graph(rng, n, rng.random())) for n in range(71)]
    for g in graphs:
        # networkx numbers the vertices in the order nx_graph adds them: label order
        text = nx.to_graph6_bytes(nx_graph(g), header=False).decode("ascii").strip()
        assert to_graph6(g) == text
        h = from_graph6(text)
        assert h == _nx_from_graph6(text) and (h.n, h.m) == (g.n, g.m)
        assert from_graph6(">>graph6<<" + text) == h
        # texts one character short or long, and with one character changed
        # within "?".."~": the same graph as networkx, or both refuse
        i = rng.randrange(len(text))
        near = [text[:-1], text + "?", text[:i] + chr(rng.randint(63, 126)) + text[i + 1 :]]
        for t in near:
            try:
                got = from_graph6(t)
            except PreconditionError:
                got = None
            assert got == _nx_from_graph6(t), t


@given(st.booleans(), st.text(st.characters(min_codepoint=63, max_codepoint=126)))
def test_graph6_parser_returns_a_graph_or_a_typed_error(header, body):
    # 63-126 are the graph6 data characters; "~" starts a long size prefix
    try:
        assert isinstance(from_graph6((">>graph6<<" if header else "") + body), Graph)
    except TPerfectError:
        pass


def test_edge_list_roundtrip():
    g = make("petersen")
    h = from_edge_list(to_edge_list(g))
    assert h.n == g.n and h.m == g.m


def test_edge_list_single_vertex():
    assert from_edge_list("1 0\n").n == 1


def test_edge_list_diagnostics():
    with pytest.raises(PreconditionError, match="line 2: loop"):
        from_edge_list("1 1\n0 0\n")
    with pytest.raises(PreconditionError, match="line 3"):
        from_edge_list("3 2\n0 1\n1 9\n")
    with pytest.raises(PreconditionError, match="header"):
        from_edge_list("")
    with pytest.raises(PreconditionError, match="mismatch"):
        from_edge_list("3 2\n0 1\n")
    with pytest.raises(PreconditionError, match="line 1: negative"):
        from_edge_list("-3 0\n")
    with pytest.raises(PreconditionError, match="line 2: negative"):
        from_edge_list("# comment\n3 -1\n")
    for repeat in ("0 1", "1 0"):
        with pytest.raises(PreconditionError, match="line 4: repeated edge"):
            from_edge_list(f"3 3\n0 1\n1 2\n{repeat}\n")


def test_json_graph_roundtrip_with_tuple_labels():
    g = Graph([("a", 1), 0, "x"], [(("a", 1), 0), (0, "x")])
    h = from_json_graph(to_json_graph(g))
    assert set(h.vertices) == set(g.vertices)
    assert set(h.edges()) == set(g.edges())
    # an edge listed under one endpoint only counts whichever endpoint lists it
    for text in ('{"adjacency": [[0, [1]], [1, []]]}', '{"adjacency": [[0, []], [1, [0]]]}'):
        g = from_json_graph(text)
        assert g == Graph([0, 1], [(0, 1)])
        assert from_json_graph(to_json_graph(g)) == g


def test_json_graph_with_true_and_the_string_true_keeps_every_edge():
    g = from_json_graph('{"adjacency": [[true, ["True", 5]], ["True", [true, 5]], [5, [true, "True"]]]}')
    assert g.m == 3 and set(map(frozenset, g.edges())) == {
        frozenset(e) for e in ((True, "True"), (True, 5), ("True", 5))
    }
    assert sum(row.tag == "edge" for row in tstab(g).inequalities) == 3
    assert chordless_odd_cycles(g) == [(5, "True", True)]


def test_json_graph_malformed():
    for text in (
        "{not json",
        "{}",
        '{"adjacency": 3}',
        '{"adjacency": [1]}',
        '{"adjacency": [[0]]}',
        '{"adjacency": [[0, 5]]}',
        '{"adjacency": [[0, [0]]]}',
        '{"adjacency": [[0, [1]]]}',
    ):
        with pytest.raises(PreconditionError):
            from_json_graph(text)


def test_format_dispatch():
    g = make("C5")
    for fmt in ("graph6", "edges", "json"):
        text = serialize_graph(g, fmt)
        h = parse_graph(text, fmt)
        assert h.n == 5 and h.m == 5
    with pytest.raises(PreconditionError):
        parse_graph("", "nope")
    assert guess_format("a.g6") == "graph6"
    assert guess_format("a.json") == "json"
    assert guess_format("a.txt") == "edges"


def test_parse_label():
    assert parse_label("('a', 1)") == ("a", 1)
    assert parse_label("3") == 3
    with pytest.raises(PreconditionError):
        parse_label("not a literal ][")


@pytest.mark.parametrize(
    "text",
    ["0", "-0", "-12", "007", "+5", " 5", "5\n", "1_000", "True", "(1, 'a')", "\u0665",
     pytest.param("9" * 5000, id="5000-digits")],
)
def test_parse_label_agrees_with_literal_eval(text):
    # decimal ints take a shortcut past the parser; every text still gets
    # literal_eval's value, or PreconditionError where literal_eval raises
    try:
        expected = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        with pytest.raises(PreconditionError):
            parse_label(text)
    else:
        label = parse_label(text)
        assert label == expected and type(label) is type(expected)


def test_certificate_parsers():
    from tperfect.colouring import certify, chi_exact, verify_colouring
    from tperfect.polytopes import is_t_perfect, verify_witness

    g = make("C5")
    _, col = chi_exact(g)
    parsed = parse_colouring(json.loads(col.to_json()))
    assert verify_colouring(g, parsed)

    k4 = make("K4")
    _, w = is_t_perfect(k4)
    parsed = parse_witness(json.loads(w.to_json()))
    assert verify_witness(k4, parsed)

    data = json.loads(certify(g).to_json())
    assert identify_certificate(data) == "certificate"
    assert identify_certificate(data["certificate"]) == "colouring"


def test_identify_certificate_shapes():
    assert identify_certificate({"relaxation": "tstab", "point": {}}) == "witness"
    assert identify_certificate({"kind": "rope", "anchors": [], "paths": []}) == "rope"
    with pytest.raises(PreconditionError):
        identify_certificate({"mystery": 1})


def _certificate(kind):
    """(parser, JSON data) of one small certificate of the given kind."""
    from tperfect.colouring import chi_fractional
    from tperfect.polytopes import is_t_perfect
    from tperfect.ropes import generate_rope
    from tperfect.tminors import find_odd_wheel_tminor

    if kind == "witness":
        return parse_witness, is_t_perfect(make("K4"))[1].to_data()
    if kind == "fractional":
        return parse_fractional_colouring, chi_fractional(make("C5"))[1].to_data()
    if kind == "rope":
        return parse_rope, generate_rope(2, 7, 8)[1].to_data()
    # C9 plus a hub seeing 0, 3 and 6: a witness with three contractions
    edges = [(i, (i + 1) % 9) for i in range(9)] + [(p, "v") for p in (0, 3, 6)]
    return parse_wheel_witness, find_odd_wheel_tminor(Graph([*range(9), "v"], edges)).to_data()


# the place of every list in the certificate formats, as a path of keys
CERTIFICATE_LISTS = [
    ("witness", ("order",)),
    ("witness", ("tight",)),
    ("witness", ("tight", 0, "source")),
    ("fractional", ("sets",)),
    ("fractional", ("sets", 0, "vertices")),
    ("wheel", ("rim",)),
    ("wheel", ("trace", "steps")),
    ("wheel", ("trace", "base", "vertices")),
    ("wheel", ("trace", "base", "edges")),
    ("wheel", ("trace", "result", "edges", 0)),
    ("wheel", ("trace", "contraction_map", "'v'")),
    ("rope", ("anchors",)),
    ("rope", ("paths",)),
    ("rope", ("paths", 0)),
    ("rope", ("paths", 0, 1)),
]


@pytest.mark.parametrize("value", ["01", {"0": 1}], ids=["string", "object"])
@pytest.mark.parametrize(
    "kind, path", CERTIFICATE_LISTS, ids=["-".join(map(str, [k, *p])) for k, p in CERTIFICATE_LISTS]
)
def test_certificate_lists_must_be_json_arrays(kind, path, value):
    # a parser iterating a string or an object in place of a list would
    # read it as the list of its characters or keys
    parser, data = _certificate(kind)
    *outer, last = path
    target = data
    for key in outer:
        target = target[key]
    target[last] = value
    with pytest.raises(PreconditionError, match="must be a JSON array"):
        parser(data)
