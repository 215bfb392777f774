import json
import random

import networkx as nx
import pytest

from tperfect.colouring import chi_exact
from tperfect.corpus import (
    MANIFEST,
    complement,
    corpus_names,
    cycle,
    fig1a,
    fig1b,
    grotzsch,
    join,
    line_graph,
    make,
    manifest_json,
    moebius_ladder,
    mycielski,
    series_parallel_random,
    wheel,
)
from tperfect.errors import PreconditionError
from tperfect.graphs import Graph, label_key, odd_girth
from tperfect.polytopes import is_h_perfect, is_hbar_perfect, is_t_perfect

from conftest import from_nx, mixed_labels, nx_graph, random_graph


def test_make_and_uri():
    assert make("C5").n == 5
    assert make("corpus:C5") == make("C5")
    with pytest.raises(PreconditionError):
        make("nosuchgraph")


def test_manifest_sizes():
    for entry in MANIFEST:
        g = make(entry["name"])
        assert g.n == entry["n"], entry["name"]
        assert g.m == entry["m"], entry["name"]


def test_manifest_chi():
    for entry in MANIFEST:
        if "chi" in entry:
            assert chi_exact(make(entry["name"]))[0] == entry["chi"][0], entry["name"]


def test_manifest_perfection_flags():
    for entry in MANIFEST:
        g = make(entry["name"])
        if "t_perfect" in entry:
            assert is_t_perfect(g)[0] == entry["t_perfect"][0], entry["name"]
        if "h_perfect" in entry:
            assert is_h_perfect(g)[0] == entry["h_perfect"][0], entry["name"]
        if "hbar_perfect" in entry:
            assert is_hbar_perfect(g)[0] == entry["hbar_perfect"][0], entry["name"]


def test_manifest_json_schema():
    data = json.loads(manifest_json())
    assert len(data) == len(MANIFEST)
    for row in data:
        assert {"name", "n", "m"} <= set(row)
    assert set(corpus_names()) == {e["name"] for e in MANIFEST}


def test_operators():
    lg = line_graph(cycle(5))
    assert nx.is_isomorphic(nx_graph(lg), nx_graph(cycle(5)))
    prism = complement(cycle(6))
    assert nx.is_isomorphic(
        nx_graph(prism),
        nx.cartesian_product(nx.complete_graph(3), nx.complete_graph(2)),
    )
    gro = mycielski(cycle(5))
    assert gro.n == 11 and chi_exact(gro)[0] == 4
    assert odd_girth(gro) == 5
    assert gro == grotzsch()
    j = join(cycle(5), cycle(5))
    assert j.n == 10 and j.m == 5 + 5 + 25


def test_constructors_match_networkx():
    assert make("petersen") == from_nx(nx.petersen_graph())
    for k in range(2, 9):
        assert moebius_ladder(k) == from_nx(nx.circulant_graph(2 * k, [1, k]))
    rng = random.Random(4)
    graphs = [make(name) for name in corpus_names()]
    graphs += [mixed_labels(rng, random_graph(rng, n, rng.random())) for n in range(12)]
    for g in graphs:
        lg = nx.line_graph(nx_graph(g))
        ref = nx.relabel_nodes(lg, {e: tuple(sorted(e, key=label_key)) for e in lg})
        assert line_graph(g) == from_nx(ref)


def _fig1a_drawn() -> Graph:
    vs = [f"v{i}" for i in range(3)]
    us = [f"u{i}" for i in range(3)]
    ws = [f"w{i}" for i in range(3)]
    edges = []
    for i in range(3):
        for j in range(3):
            edges.append((vs[i], us[j]))  # complete bipartite between v and u
        edges.append((us[i], ws[i]))
        edges.append((ws[i], vs[i]))
    edges += [("w0", "w1"), ("w1", "w2"), ("w0", "w2")]
    return Graph(vs + us + ws, edges)


def _fig1b_drawn() -> Graph:
    vs = [f"v{i}" for i in range(5)]
    ws = [f"w{i}" for i in range(5)]
    edges = [(vs[i], ws[i]) for i in range(5)]
    edges += [(vs[i], vs[(i + 2) % 5]) for i in range(5)]  # inner pentagram
    edges += [(vs[i], ws[(i + 1) % 5]) for i in range(5)]
    edges += [(ws[i], vs[(i + 1) % 5]) for i in range(5)]
    return Graph(vs + ws, edges)


def test_figure_fixtures():
    a, b = fig1a(), fig1b()
    assert (a.n, a.m) == (9, 18)
    assert (b.n, b.m) == (10, 20)
    assert is_t_perfect(a)[0] and is_t_perfect(b)[0]
    # the operator compositions match the adjacency transcribed from the
    # standard drawings, which guards both against transcription errors
    assert nx.is_isomorphic(nx_graph(a), nx_graph(_fig1a_drawn()))
    assert nx.is_isomorphic(nx_graph(b), nx_graph(_fig1b_drawn()))


def test_series_parallel_reproducible_and_t_perfect():
    for seed in range(6):
        g1 = series_parallel_random(seed, 10)
        g2 = series_parallel_random(seed, 10)
        assert g1 == g2
        assert is_t_perfect(g1)[0], seed


def test_odd_wheels_not_t_perfect():
    for k in (3, 5, 7):
        assert not is_t_perfect(wheel(k))[0]
    for k in (4, 6):
        assert is_t_perfect(wheel(k))[0]


def test_complement_odd_cycles_not_h_perfect():
    for k in (3, 4):
        assert not is_h_perfect(complement(cycle(2 * k + 1)))[0]


def test_moebius_ladders():
    assert moebius_ladder(3).n == 6
    assert make("moebius8").m == 12
    with pytest.raises(PreconditionError):
        make("moebius7")
