import functools
import random

import networkx as nx
import pytest
from hypothesis import settings

from tperfect.graphs import Graph

# The same examples on every run, and no per-example deadline: timings on a
# shared machine vary too much for one.
settings.register_profile("tperfect", derandomize=True, deadline=None)
settings.load_profile("tperfect")


@functools.lru_cache(maxsize=1)
def layered_instance():
    """Large odd-girth-11 fixture for the rope induction machinery.

    A root feeds private length-5 paths into a gadget: hub w with private
    length-5 spokes to H = {a1, a2, core K}, where K is q2 plus 11 length-5
    spokes down to an 11-ring.  Returns (graph, B, C, q1) with B the set of
    last path vertices before the gadget and C the gadget vertex set.
    """
    a1, a2, q2 = ("h", 0), ("h", 1), ("h", 2)
    ring = [("r", i) for i in range(11)]
    kspoke = {(i, j): ("k", i, j) for i in range(11) for j in range(1, 5)}
    h_edges = [(a1, a2), (a1, q2)]
    for i in range(11):
        h_edges.append((q2, kspoke[(i, 1)]))
        for j in range(1, 4):
            h_edges.append((kspoke[(i, j)], kspoke[(i, j + 1)]))
        h_edges.append((kspoke[(i, 4)], ring[i]))
        h_edges.append((ring[i], ring[(i + 1) % 11]))
    h_order = [a1, a2, q2]
    for j in range(1, 5):
        h_order.extend(kspoke[(i, j)] for i in range(11))
    h_order.extend(ring)
    w = ("w",)
    vertices = [w] + h_order[:]
    edges = list(h_edges)
    for k, hv in enumerate(h_order):
        spokes = [("s", k, j) for j in range(1, 5)]
        vertices.extend(spokes)
        edges.append((w, spokes[0]))
        for j in range(3):
            edges.append((spokes[j], spokes[j + 1]))
        edges.append((spokes[-1], hv))
    c_set = frozenset(vertices)
    root = 0
    full_vertices = [root] + vertices[:]
    full_edges = list(edges)
    b_list = []
    for pv, cv in enumerate(vertices):
        xs = [("x", pv, j) for j in range(1, 4)]
        p = ("p", pv)
        full_vertices.extend(xs + [p])
        full_edges.extend(
            [(root, xs[0]), (xs[0], xs[1]), (xs[1], xs[2]), (xs[2], p), (p, cv)]
        )
        b_list.append(p)
    g = Graph(full_vertices, full_edges)
    return g, frozenset(b_list), c_set, ("p", 0)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(range(n), edges)


def mixed_labels(rng: random.Random, g: Graph) -> Graph:
    """g, on vertices 0..n-1, with each vertex i renamed i, "vi" or
    (i % 3, "ti"), drawn by rng."""
    labels = [rng.choice((i, f"v{i}", (i % 3, f"t{i}"))) for i in g.vertices]
    return Graph(labels, [(labels[u], labels[v]) for u, v in g.edges()])


def nx_graph(g: Graph) -> nx.Graph:
    """g as a networkx graph, the tests' independent reference."""
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges())
    return h


def from_nx(h: nx.Graph) -> Graph:
    return Graph(h.nodes(), h.edges())


def satisfies(p, x) -> bool:
    """Whether the point x meets every row of the polytope p."""
    assert len(x) == p.dim
    return all(sum(a * v for a, v in zip(row.coeffs, x)) <= row.rhs for row in p.inequalities)


def pendant(g: Graph, length: int) -> Graph:
    """g with a path of ``length`` new vertices hanging off vertex 0."""
    new = list(range(g.n, g.n + length))
    return Graph(list(g.vertices) + new, list(g.edges()) + list(zip([0] + new, new)))


@pytest.fixture(scope="session")
def layered():
    return layered_instance()
