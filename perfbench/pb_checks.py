"""Output checks that do not call the library.

Every check takes the input graph as plain vertex and edge lists plus the
certificate JSON the library emitted, and returns a list of problems (empty
when the output is correct).  Graph work goes through networkx and a brute
force written here, so a fault in the library's own verifiers cannot hide a
wrong answer from the benchmark.
"""

from __future__ import annotations

import ast
import json
from fractions import Fraction
from itertools import product

import networkx as nx

# Brute-force stable-set enumeration is only used up to this many vertices.
BRUTE_FORCE_CAP = 14


def order_key(v):
    """Total order on labels: ints, then strings, then tuples (recursively).

    A t-contraction names the merged vertex by the least label of its class,
    so replaying a trace needs the same order on labels.
    """
    if isinstance(v, bool):
        return (1, str(v))
    if isinstance(v, int):
        return (0, v)
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, tuple):
        return (2, tuple(order_key(x) for x in v))
    return (3, repr(v))


def nx_graph(vertices, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    return g


def _label(text):
    return ast.literal_eval(text)


def _decode(v):
    return tuple(_decode(x) for x in v) if isinstance(v, list) else v


# ---------------------------------------------------------------------------
# colourings
# ---------------------------------------------------------------------------


def check_colouring(g: nx.Graph, cert: dict, chi: int) -> list:
    """Proper, complete, and at most chi + 4 colours."""
    assignment = {_label(k): c for k, c in cert["assignment"].items()}
    problems = []
    if set(assignment) != set(g.nodes):
        problems.append("colouring does not cover exactly the vertex set")
    if any(assignment.get(u) == assignment.get(v) for u, v in g.edges):
        problems.append("colouring has a monochromatic edge")
    used = len(set(assignment.values()))
    if used != cert["num_colours"]:
        problems.append(f"num_colours {cert['num_colours']} but {used} colours used")
    if used > chi + 4:
        problems.append(f"{used} colours used, more than chi + 4 = {chi + 4}")
    return problems


# ---------------------------------------------------------------------------
# fractional relaxation witnesses
# ---------------------------------------------------------------------------


def _stable_sets(g: nx.Graph, order):
    """Every stable set of g as a list of vertices (brute force)."""
    index = {v: i for i, v in enumerate(order)}
    nbr_mask = [0] * len(order)
    for u, v in g.edges:
        nbr_mask[index[u]] |= 1 << index[v]
        nbr_mask[index[v]] |= 1 << index[u]
    out = []

    def extend(i, chosen, forbidden):
        if i == len(order):
            out.append(chosen)
            return
        if not forbidden >> i & 1:
            extend(i + 1, chosen + [order[i]], forbidden | nbr_mask[i])
        extend(i + 1, chosen, forbidden)

    extend(0, [], 0)
    return out


def check_fractional_witness(g: nx.Graph, cert: dict) -> list:
    """The point lies in the edge/odd-cycle relaxation, is fractional, and the
    sum of the normals of its tight rows scores it strictly above every stable
    set.  The last clause proves the point is a vertex of the relaxation that
    lies outside the stable set polytope."""
    if cert.get("relaxation") != "tstab":
        return [f"unexpected relaxation {cert.get('relaxation')!r}"]
    if g.number_of_nodes() > BRUTE_FORCE_CAP:
        return [f"witness on {g.number_of_nodes()} vertices is beyond the brute force"]
    x = {_label(k): Fraction(v) for k, v in cert["point"].items()}
    if set(x) != set(g.nodes):
        return ["witness point does not cover exactly the vertex set"]
    problems = []
    # rows as (support, rhs); nonnegativity rows have normal -e_v
    rows = [((v,), 1) for v in g.nodes if g.degree(v) == 0]
    rows += [((u, v), 1) for u, v in g.edges]
    rows += [
        (tuple(c), (len(c) - 1) // 2) for c in nx.chordless_cycles(g) if len(c) % 2 == 1
    ]
    if any(x[v] < 0 for v in x):
        problems.append("witness point has a negative coordinate")
    for support, rhs in rows:
        if sum(x[v] for v in support) > rhs:
            problems.append(f"witness point violates the row on {support}")
    if all(value.denominator == 1 for value in x.values()):
        problems.append("witness point is integral")
    if problems:
        return problems
    weight = {v: 0 for v in x}
    for v in x:
        if x[v] == 0:
            weight[v] -= 1
    for support, rhs in rows:
        if sum(x[v] for v in support) == rhs:
            for v in support:
                weight[v] += 1
    score = sum(weight[v] * x[v] for v in x)
    order = sorted(g.nodes, key=order_key)
    best = max(sum(weight[v] for v in s) for s in _stable_sets(g, order))
    if best >= score:
        problems.append(
            f"a stable set scores {best} against the point's {score}: not a separating vertex"
        )
    return problems


# ---------------------------------------------------------------------------
# odd-wheel t-minor traces
# ---------------------------------------------------------------------------


def replay_trace(base: nx.Graph, steps) -> nx.Graph:
    """Apply (kind, vertex) steps with networkx; raises ValueError on an
    illegal step."""
    h = base.copy()
    for kind, v in steps:
        if v not in h:
            raise ValueError(f"step on missing vertex {v!r}")
        if kind == "delete":
            h.remove_node(v)
        elif kind == "tcontract":
            nbrs = set(h[v])
            if any(h.has_edge(a, b) for a in nbrs for b in nbrs):
                raise ValueError(f"t-contraction at {v!r} with a non-stable neighbourhood")
            merged = nbrs | {v}
            rep = min(merged, key=order_key)
            outside = {w for u in merged for w in h[u]} - merged
            h.remove_nodes_from(merged)
            h.add_node(rep)
            h.add_edges_from((rep, w) for w in outside)
        else:
            raise ValueError(f"unknown step kind {kind!r}")
    return h


def check_wheel_witness(g: nx.Graph, cert: dict) -> list:
    """The trace starts at g and, replayed, ends in a hub joined to every
    vertex of a chordless odd cycle."""
    trace = cert["trace"]
    base_vertices = {_label(v) for v in trace["base"]["vertices"]}
    base_edges = {frozenset((_label(u), _label(v))) for u, v in trace["base"]["edges"]}
    if base_vertices != set(g.nodes) or base_edges != {frozenset(e) for e in g.edges}:
        return ["trace base is not the input graph"]
    steps = [(s["kind"], _label(s["vertex"])) for s in trace["steps"]]
    try:
        h = replay_trace(g, steps)
    except ValueError as e:
        return [f"trace does not replay: {e}"]
    hub = _label(cert["hub"])
    rim = [_label(v) for v in cert["rim"]]
    problems = []
    if hub in rim or set(rim) | {hub} != set(h.nodes) or len(set(rim)) != len(rim):
        return ["hub and rim do not partition the replayed graph"]
    if len(rim) < 3 or len(rim) % 2 == 0:
        problems.append(f"rim has {len(rim)} vertices, not an odd cycle")
    if any(not h.has_edge(hub, v) for v in rim):
        problems.append("hub is not joined to the whole rim")
    if any(not h.has_edge(rim[i - 1], rim[i]) for i in range(len(rim))):
        problems.append("rim is not a cycle in the recorded order")
    if h.subgraph(rim).number_of_edges() != len(rim):
        problems.append("rim cycle has a chord")
    return problems


# ---------------------------------------------------------------------------
# certify outputs
# ---------------------------------------------------------------------------


def check_certificate(g: nx.Graph, text: str, chi: int, expect: str) -> list:
    """Check one `certify` certificate; ``expect`` is "colouring" for a
    t-perfect input and "witness" for one that is not."""
    data = json.loads(text)
    kind, cert = data["kind"], data["certificate"]
    if g.number_of_nodes() <= 16 and kind != expect:
        return [f"{kind} certificate for an input whose status calls for a {expect}"]
    if kind == "colouring":
        return check_colouring(g, cert, chi)
    if kind != "witness":
        return [f"unknown certificate kind {kind!r}"]
    if expect == "colouring":
        return ["witness certificate for a t-perfect input"]
    if "relaxation" in cert:
        return check_fractional_witness(g, cert)
    if "hub" in cert:
        return check_wheel_witness(g, cert)
    return ["witness certificate of unknown shape"]


# ---------------------------------------------------------------------------
# ropes
# ---------------------------------------------------------------------------


def check_rope(g: nx.Graph, text: str) -> list:
    """Every choice vector induces a cycle, and the anchors are pairwise at
    distance at least 5."""
    data = json.loads(text)
    if data.get("kind") != "rope":
        return [f"expected a rope, got {data.get('kind')!r}"]
    anchors = [_decode(q) for q in data["anchors"]]
    pairs = [[[_decode(v) for v in p] for p in pair] for pair in data["paths"]]
    r = len(anchors)
    if r < 2 or len(pairs) != r or len(set(anchors)) != r:
        return ["rope needs r >= 2 distinct anchors and r path pairs"]
    if any(v not in g for v in anchors) or any(
        v not in g for pair in pairs for p in pair for v in p
    ):
        return ["rope vertex missing from the graph"]
    for i, pair in enumerate(pairs):
        for p in pair:
            if p[0] != anchors[i] or p[-1] != anchors[(i + 1) % r]:
                return [f"path of pair {i + 1} does not join its anchors"]
    adj = {v: set(g[v]) for v in g.nodes}
    for h in product((0, 1), repeat=r):
        seq = [anchors[0]]
        for i, choice in enumerate(h):
            seq.extend(pairs[i][choice][1:])
        seq.pop()  # the last path ends back at the first anchor
        members = set(seq)
        if len(members) != len(seq):
            return [f"choice {h} repeats a vertex"]
        if any(seq[i] not in adj[seq[i - 1]] for i in range(len(seq))):
            return [f"choice {h} is not a closed walk"]
        if sum(len(adj[v] & members) for v in seq) != 2 * len(seq):
            return [f"choice {h} does not induce a cycle"]
    for i, q in enumerate(anchors):
        near = nx.single_source_shortest_path_length(g, q, cutoff=4)
        for other in anchors[i + 1 :]:
            if other in near:
                return [f"anchors {q!r} and {other!r} at distance {near[other]} < 5"]
    return []
