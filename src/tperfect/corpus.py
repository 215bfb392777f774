"""Named graph constructors, graph operators, and fixture graphs with
recorded expected properties.

The two four-critical fixtures are built by operator composition.  The
tests check each against hard-coded adjacency transcribed from its
standard drawing, up to isomorphism, which guards transcription errors.
"""

from __future__ import annotations

import json
import random
import re
from itertools import combinations

from .errors import PreconditionError
from .graphs import Graph
from .polytopes import complement_graph


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def cycle(n: int) -> Graph:
    if n < 3:
        raise PreconditionError("cycle needs at least 3 vertices")
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("complete needs at least 1 vertex")
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def wheel(k: int) -> Graph:
    """Cycle of length k plus a hub adjacent to every rim vertex."""
    if k < 3:
        raise PreconditionError("wheel needs rim length at least 3")
    edges = [(i, (i + 1) % k) for i in range(k)] + [(i, k) for i in range(k)]
    return Graph(range(k + 1), edges)


def star(n: int) -> Graph:
    """Centre 0 joined to n leaves."""
    if n < 0:
        raise PreconditionError("star needs a non-negative leaf count")
    return Graph(range(n + 1), [(0, i) for i in range(1, n + 1)])


def path(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("path needs at least 1 vertex")
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def petersen() -> Graph:
    """Outer 5-cycle 0..4, spokes i-(i+5), inner pentagram on 5..9."""
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(range(10), edges)


def moebius_ladder(k: int) -> Graph:
    """Cycle of length 2k plus the k antipodal rungs."""
    if k < 2:
        raise PreconditionError("moebius ladder needs k >= 2")
    return Graph(range(2 * k), [(i, (i + j) % (2 * k)) for i in range(2 * k) for j in (1, k)])


def series_parallel_random(seed: int, n: int) -> Graph:
    """Random series-parallel graph on n vertices.

    Starts from a single edge and repeatedly applies one of the two
    compositions to a random edge: subdivision (series) or adding a new
    vertex joined to both ends (parallel with a two-edge path).
    """
    if n < 2:
        raise PreconditionError("series-parallel generator needs n >= 2")
    rng = random.Random(seed)
    edges = {(0, 1)}
    next_vertex = 2
    while next_vertex < n:
        u, v = rng.choice(sorted(edges))
        w = next_vertex
        next_vertex += 1
        if rng.random() < 0.5:
            edges.remove((u, v))
            edges.add((u, w))
            edges.add((w, v))
        else:
            edges.add((u, w))
            edges.add((w, v))
    return Graph(range(n), sorted(edges))


def grotzsch() -> Graph:
    return mycielski(cycle(5))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def complement(g: Graph) -> Graph:
    return complement_graph(g)


def line_graph(g: Graph) -> Graph:
    """Line graph; vertex labels are the edge pairs of g, each sorted by
    label_key as g.edges() lists them."""
    at = {v: [] for v in g.vertices}
    for e in g.edges():
        at[e[0]].append(e)
        at[e[1]].append(e)
    return Graph(g.edges(), [pair for es in at.values() for pair in combinations(es, 2)])


def mycielski(g: Graph) -> Graph:
    """Triangle-freeness-preserving construction raising the chromatic
    number by one; labels: (0, v) originals, (1, v) shadows, (2,) apex."""
    vertices = [(0, v) for v in g.vertices] + [(1, v) for v in g.vertices] + [(2,)]
    edges = [((0, u), (0, v)) for u, v in g.edges()]
    edges += [((1, u), (0, v)) for u, v in g.edges()]
    edges += [((1, v), (0, u)) for u, v in g.edges()]
    edges += [((1, v), (2,)) for v in g.vertices]
    return Graph(vertices, edges)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all edges across; labels are tagged (0, v), (1, v)."""
    vertices = [(0, v) for v in g1.vertices] + [(1, v) for v in g2.vertices]
    edges = [((0, u), (0, v)) for u, v in g1.edges()]
    edges += [((1, u), (1, v)) for u, v in g2.edges()]
    edges += [((0, u), (1, v)) for u in g1.vertices for v in g2.vertices]
    return Graph(vertices, edges)


# ---------------------------------------------------------------------------
# figure fixtures
# ---------------------------------------------------------------------------


def fig1a() -> Graph:
    return complement(line_graph(complement(cycle(6))))


def fig1b() -> Graph:
    return complement(line_graph(wheel(5)))


# ---------------------------------------------------------------------------
# registry and manifest
# ---------------------------------------------------------------------------

_PATTERNS = (
    (re.compile(r"^C(\d+)$"), lambda m: cycle(int(m.group(1)))),
    (re.compile(r"^K(\d+)$"), lambda m: complete(int(m.group(1)))),
    (re.compile(r"^W(\d+)$"), lambda m: wheel(int(m.group(1)))),
    (re.compile(r"^P(\d+)$"), lambda m: path(int(m.group(1)))),
    (re.compile(r"^star(\d+)$"), lambda m: star(int(m.group(1)))),
    (re.compile(r"^moebius(\d+)$"), lambda m: _moebius_by_vertices(int(m.group(1)))),
    (re.compile(r"^sp-(\d+)-(\d+)$"), lambda m: series_parallel_random(int(m.group(1)), int(m.group(2)))),
    (re.compile(r"^petersen$"), lambda m: petersen()),
    (re.compile(r"^grotzsch$"), lambda m: grotzsch()),
    (re.compile(r"^fig1a$"), lambda m: fig1a()),
    (re.compile(r"^fig1b$"), lambda m: fig1b()),
    (re.compile(r"^co-C(\d+)$"), lambda m: complement(cycle(int(m.group(1))))),
    (re.compile(r"^joinC5C5$"), lambda m: join(cycle(5), cycle(5))),
)


def _moebius_by_vertices(n: int) -> Graph:
    if n % 2 != 0:
        raise PreconditionError("moebius ladder has an even vertex count")
    return moebius_ladder(n // 2)


def make(name: str) -> Graph:
    """Build a named corpus graph; accepts plain names or corpus: URIs."""
    if name.startswith("corpus:"):
        name = name[len("corpus:") :]
    for pattern, builder in _PATTERNS:
        m = pattern.match(name)
        if m:
            return builder(m)
    raise PreconditionError(f"unknown corpus graph {name!r}")


# Fixture manifest.  Expected values tagged by provenance:
#   "oracle"       frozen output of this library's exact oracles
#   "construction" immediate from how the graph is built
MANIFEST = [
    {"name": "C3", "n": 3, "m": 3, "chi": (3, "construction"), "t_perfect": (True, "oracle")},
    {"name": "C4", "n": 4, "m": 4, "chi": (2, "construction"), "t_perfect": (True, "oracle")},
    {"name": "C5", "n": 5, "m": 5, "chi": (3, "construction"), "t_perfect": (True, "oracle"),
     "hbar_perfect": (True, "oracle")},
    {"name": "C6", "n": 6, "m": 6, "chi": (2, "construction"), "t_perfect": (True, "oracle")},
    {"name": "C7", "n": 7, "m": 7, "chi": (3, "construction"), "t_perfect": (True, "oracle"),
     "hbar_perfect": (False, "oracle")},
    {"name": "C8", "n": 8, "m": 8, "chi": (2, "construction"), "t_perfect": (True, "oracle")},
    {"name": "C9", "n": 9, "m": 9, "chi": (3, "construction"), "t_perfect": (True, "oracle")},
    {"name": "C11", "n": 11, "m": 11, "chi": (3, "construction"), "t_perfect": (True, "oracle")},
    {"name": "K4", "n": 4, "m": 6, "chi": (4, "construction"), "t_perfect": (False, "oracle"),
     "h_perfect": (True, "oracle")},
    {"name": "W3", "n": 4, "m": 6, "chi": (4, "construction"), "t_perfect": (False, "oracle")},
    {"name": "W4", "n": 5, "m": 8, "chi": (3, "construction"), "t_perfect": (True, "oracle")},
    {"name": "W5", "n": 6, "m": 10, "chi": (4, "construction"), "t_perfect": (False, "oracle")},
    {"name": "W6", "n": 7, "m": 12, "chi": (3, "construction"), "t_perfect": (True, "oracle")},
    {"name": "W7", "n": 8, "m": 14, "chi": (4, "construction"), "t_perfect": (False, "oracle")},
    {"name": "P5", "n": 5, "m": 4, "chi": (2, "construction"), "t_perfect": (True, "oracle")},
    {"name": "star5", "n": 6, "m": 5, "chi": (2, "construction"), "t_perfect": (True, "oracle")},
    {"name": "petersen", "n": 10, "m": 15, "chi": (3, "oracle"), "t_perfect": (True, "oracle")},
    {"name": "grotzsch", "n": 11, "m": 20, "chi": (4, "oracle"), "t_perfect": (False, "oracle")},
    {"name": "moebius6", "n": 6, "m": 9, "chi": (2, "oracle"), "t_perfect": (True, "oracle")},
    {"name": "moebius8", "n": 8, "m": 12, "chi": (3, "oracle"), "t_perfect": (False, "oracle")},
    {"name": "moebius10", "n": 10, "m": 15, "chi": (2, "oracle"), "t_perfect": (True, "oracle")},
    {"name": "moebius12", "n": 12, "m": 18, "chi": (3, "oracle"), "t_perfect": (False, "oracle")},
    {"name": "sp-1-10", "n": 10, "m": 14, "chi": (3, "oracle"), "t_perfect": (True, "oracle")},
    {"name": "fig1a", "n": 9, "m": 18, "chi": (4, "oracle"), "t_perfect": (True, "oracle")},
    {"name": "fig1b", "n": 10, "m": 20, "chi": (4, "oracle"), "t_perfect": (True, "oracle")},
    {"name": "joinC5C5", "n": 10, "m": 35, "chi": (6, "oracle"), "t_perfect": (False, "oracle"),
     "h_perfect": (False, "oracle"), "hbar_perfect": (True, "oracle")},
    {"name": "co-C7", "n": 7, "m": 14, "h_perfect": (False, "oracle")},
]


def manifest_json() -> str:
    entries = []
    for entry in MANIFEST:
        out = {"name": entry["name"], "n": entry["n"], "m": entry["m"]}
        for key in ("chi", "t_perfect", "h_perfect", "hbar_perfect"):
            if key in entry and entry[key][0] is not None:
                value, provenance = entry[key]
                out[key] = {"expected": value, "provenance": provenance}
        entries.append(out)
    return json.dumps(entries, indent=2, sort_keys=True)


def corpus_names() -> list:
    return [entry["name"] for entry in MANIFEST]
