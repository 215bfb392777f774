"""Arithmetic ropes: definitions and verifier, a synthetic generator, the
stable-grading witness routines, the rope induction step, broken-rope
assembly, and the rope finder.

The constructive procedures run best effort: each output is accepted only
by its postcondition audit, which always runs.  The paper's chromatic
thresholds, which guarantee that no branch collapses, are kept as
arithmetic below and are not checked at run time, so a branch that needs
them may collapse, and raises VerificationError naming it: a levelling too
shallow, no far component, no chromatically rich part, too small a
left-active part, or no deep vertex far from the anchors.  Every path,
connector and hook the construction then builds exists by the levelling or
by a clause the step's audit has proved; the docstring of the function
that builds it gives the argument, and no run-time check repeats it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from collections import deque

from .colouring import chi_exact
from .errors import PreconditionError, VerificationError
from .graphio import JSONData, encode_label, parse_rope
from .graphs import (
    COMBINATORIAL_CAP,
    Graph,
    _induced_edge_count,
    covers,
    is_path_induced,
    is_stable,
    label_key,
    odd_girth,
)


# ---------------------------------------------------------------------------
# threshold arithmetic
# ---------------------------------------------------------------------------


def induction_threshold(c: int) -> int:
    return 6 * c + 17


def broken_rope_threshold(r: int, c: int) -> Fraction:
    return Fraction(6**r * c) + Fraction(17, 5) * (6**r - 1)


def finder_threshold(r: int) -> Fraction:
    return Fraction(6 ** (r + 1)) + Fraction(34, 5) * (6**r - 1) - 1


# Headline colour bounds, derived from the r = 5 finder threshold: a graph of
# odd girth >= 11 without an odd-wheel t-minor has chromatic number at most
# 2*ceil(threshold) - 1 (otherwise a colour-class grading reaches the
# threshold); four rounds of odd-girth raising add 4 colours, and a clique
# peeling of an h-perfect graph adds omega - 2 over the triangle-free bound.
ODD_GIRTH11_COLOUR_BOUND = 2 * int(finder_threshold(5)) - 1  # 199049
TPERFECT_COLOUR_BOUND = ODD_GIRTH11_COLOUR_BOUND + 4  # 199053
TRIANGLE_FREE_COLOUR_BOUND = ODD_GIRTH11_COLOUR_BOUND + 3  # 199052


def hperfect_colour_bound(omega: int) -> int:
    return (omega - 2) + TRIANGLE_FREE_COLOUR_BOUND  # omega + 199050


# ---------------------------------------------------------------------------
# stable gradings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StableGrading:
    """Ordered partition of the vertex set into stable sets.  u is earlier
    than v when u's part has the smaller index."""

    parts: tuple  # tuple of frozensets

    def verify(self, g: Graph) -> bool:
        seen = set()
        for part in self.parts:
            if part & seen:
                raise VerificationError("grading parts are not disjoint")
            if not is_stable(g, part):
                raise VerificationError("grading part not stable", detail={"part": part})
            seen |= part
        if seen != set(g.vertices):
            raise VerificationError("grading does not cover the vertex set")
        return True

    def index(self) -> dict:
        return {v: i for i, part in enumerate(self.parts) for v in part}


# ---------------------------------------------------------------------------
# rope types and verifier
# ---------------------------------------------------------------------------


class _RopeParts(JSONData):
    """Vertex set and JSON form shared by ropes and broken ropes, which
    differ in the JSON only by ``KIND``."""

    def vertices(self) -> frozenset:
        out = set(self.anchors)
        for p1, p2 in self.paths:
            out.update(p1)
            out.update(p2)
        return frozenset(out)

    def to_data(self) -> dict:
        return {
            "kind": self.KIND,
            "anchors": [encode_label(q) for q in self.anchors],
            "paths": [
                [[encode_label(v) for v in p1], [encode_label(v) for v in p2]]
                for p1, p2 in self.paths
            ],
        }


@dataclass(frozen=True)
class ArithmeticRope(_RopeParts):
    """r anchor vertices joined in a cyclic order by odd/even path pairs."""

    KIND = "rope"
    anchors: tuple  # (q_1, ..., q_r)
    paths: tuple  # ((Q_{1,1}, Q_{1,2}), ..., (Q_{r,1}, Q_{r,2})), vertex lists

    @property
    def r(self) -> int:
        return len(self.anchors)


@dataclass(frozen=True)
class BrokenRope(_RopeParts):
    """Like a rope but with r+1 anchors, no wrap-around path pair, and a
    designated end (the last anchor).  Every choice vector yields an induced
    path instead of a cycle."""

    KIND = "broken_rope"
    anchors: tuple  # (q_1, ..., q_{r+1})
    paths: tuple  # ((Q_{i,1}, Q_{i,2}) for i = 1..r)

    @property
    def r(self) -> int:
        return len(self.anchors) - 1

    @property
    def end(self):
        return self.anchors[-1]


def rope_from_json(text: str):
    """Parse a rope's JSON text (see ``graphio.parse_rope``)."""
    return parse_rope(json.loads(text))


def _chain(rope, h) -> list:
    """Concatenate the chosen paths into one vertex sequence q_1 ... q_last
    (repeating no anchor; for ropes the last anchor q_1 is omitted)."""
    seq = [rope.anchors[0]]
    closed = isinstance(rope, ArithmeticRope)
    for i, (p1, p2) in enumerate(rope.paths):
        path = p1 if h[i] == 1 else p2
        seq.extend(path[1:])
    if closed:
        seq.pop()  # wrap-around repeats q_1
    return seq


def verify_rope(g: Graph, rope) -> bool:
    """Audit every defining clause of a rope or broken rope; raises
    VerificationError naming the first violated clause.

    The choice clause asks that for every choice vector h in {1, 2}^r the
    chosen paths Q_{i,h_i} chain into an induced cycle (rope) or induced
    path (broken rope).  It is checked once per two constituent paths P, P'
    of different pairs, which pass when they meet exactly in the ends they
    share and g[P + P'] has |P| + |P'| - 2 edges.  This is the same clause.
    By the earlier clauses each constituent path is an induced path between
    distinct anchors, so consecutive vertices of a chain are adjacent.  A
    chain repeats a vertex exactly when two of its paths meet off their
    shared ends.  Without repeats, an edge on its vertices either lies on
    one of its paths or is a chord from P - P' to P' - P for two of them,
    which raises that pair's count.  The count also fails two paths on the
    same two adjacent anchors; each is then the edge itself, the only
    induced path between adjacent vertices, and their chain of two vertices
    is no cycle.  So a vector fails exactly when two of its paths fail, and
    any two paths of different pairs are chosen together by some vector.
    The lexicographically first failing vector, which the error reports, is
    hence the least, over failing pairs, of the vector that is 1 except for
    the pair's own two choices.
    """
    closed = isinstance(rope, ArithmeticRope)
    anchors = rope.anchors
    n_pairs = len(rope.paths)
    if closed and (len(anchors) < 2 or n_pairs != len(anchors)):
        raise VerificationError("rope must have r >= 2 anchors and r path pairs")
    if not closed and (len(anchors) < 2 or n_pairs != len(anchors) - 1):
        raise VerificationError("broken rope must have r+1 anchors and r path pairs")
    if len(set(anchors)) != len(anchors):
        raise VerificationError("anchors are not distinct")
    for v in rope.vertices():
        if v not in g:
            raise VerificationError("rope vertex missing from graph", detail={"vertex": v})
    for i, (p1, p2) in enumerate(rope.paths):
        a = anchors[i]
        b = anchors[(i + 1) % len(anchors)] if closed else anchors[i + 1]
        for j, path in enumerate((p1, p2)):
            if not path or path[0] != a or path[-1] != b:
                raise VerificationError(
                    "path endpoints do not match the anchors",
                    detail={"pair": i + 1, "which": j + 1},
                )
            if not is_path_induced(g, path):
                raise VerificationError(
                    "constituent path not induced",
                    detail={"pair": i + 1, "which": j + 1, "path": path},
                )
        if (len(p1) - 1) % 2 != 1:
            raise VerificationError("first path of a pair must have odd length", detail={"pair": i + 1})
        if (len(p2) - 1) % 2 != 0:
            raise VerificationError("second path of a pair must have even length", detail={"pair": i + 1})
    failing = [
        tuple(a if k == i else b if k == j else 1 for k in range(n_pairs))
        for i, j in combinations(range(n_pairs), 2)
        for a, p in enumerate(rope.paths[i], 1)
        for b, p2 in enumerate(rope.paths[j], 1)
        if set(p) & set(p2) != {p[0], p[-1]} & {p2[0], p2[-1]}
        or _induced_edge_count(g, [*p, *p2]) != len(p) + len(p2) - 2
    ]
    if failing:
        h = min(failing)
        seq = _chain(rope, h)
        if len(set(seq)) != len(seq):
            raise VerificationError("chosen paths are not internally disjoint", detail={"choice": h})
        clause = "induced cycle clause violated" if closed else "induced path clause violated"
        raise VerificationError(clause, detail={"choice": h, "sequence": seq})
    # the paths join consecutive anchors, so b is at distance >= 5 from a
    # unless it lies in a's depth-4 ball, at the distance of its level
    for i, a in enumerate(anchors):
        near = list(g.bfs_levels(a, 4))
        for b in anchors[i + 1 :]:
            d = next((d for d, level in enumerate(near) if b in level), None)
            if d is not None:
                raise VerificationError(
                    "anchor distance clause violated",
                    detail={"pair": (a, b), "distance": d},
                )
    return True


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


# Most path pairs a generated or parsed rope may have.  verify_rope is
# quadratic in r: generate_rope, which verifies what it makes, took 0.15,
# 0.59 and 2.35 s of CPU at r = 100, 200 and 400 (Python 3.11, 2 vCPUs).
ROPE_R_CAP = 200


def generate_rope(r: int, odd_len: int, even_len: int):
    """Fabricate a graph that is exactly an r-rope with uniform path lengths.

    Returns (graph, rope).  Path interiors are internally disjoint; the
    verifier is run on the result before returning.
    """
    if r < 2:
        raise PreconditionError("r must be at least 2")
    if r > ROPE_R_CAP:
        raise PreconditionError(f"r = {r} is above the cap of {ROPE_R_CAP} path pairs")
    if odd_len % 2 != 1 or odd_len < 7:
        raise PreconditionError("odd_len must be odd and at least 7")
    if even_len % 2 != 0 or even_len < 8:
        raise PreconditionError("even_len must be even and at least 8")
    anchors = tuple(("q", i + 1) for i in range(r))
    vertices = list(anchors)
    edges = []
    paths = []
    for i in range(r):
        a, b = anchors[i], anchors[(i + 1) % r]
        pair = []
        for which, length in ((1, odd_len), (2, even_len)):
            inner = [("p", i + 1, which, k + 1) for k in range(length - 1)]
            vertices.extend(inner)
            path = [a] + inner + [b]
            edges.extend(zip(path, path[1:]))
            pair.append(path)
        paths.append(tuple(pair))
    g = Graph(vertices, edges)
    rope = ArithmeticRope(anchors=anchors, paths=tuple(paths))
    verify_rope(g, rope)
    return g, rope


def generate_rope_shell(r: int, odd_len: int, even_len: int):
    """A rope embedded in a larger connected host of odd girth >= 11: a
    pendant path of 6 vertices is attached to the first anchor.  Returns
    (graph, rope, root) where root is the far end of the pendant path."""
    g, rope = generate_rope(r, odd_len, even_len)
    shell = [("a", k) for k in range(6)]
    vertices = list(g.vertices) + shell
    edges = list(g.edges()) + list(zip(shell, shell[1:])) + [(shell[-1], rope.anchors[0])]
    host = Graph(vertices, edges)
    verify_rope(host, rope)
    return host, rope, shell[0]


# ---------------------------------------------------------------------------
# stable gradings and earlier witnesses
# ---------------------------------------------------------------------------


def _richest_level(g: Graph, levels):
    """(t, component): the first t >= 4 maximising chi(g[levels[t + 1]]),
    with the component of that level that _max_chi_component picks, or
    (None, None) when the levelling has depth below 5.  A graph's chromatic
    number is the largest of its components', so each level is coloured
    only through its components."""
    t_best, comp_best, k_best = None, None, 0
    for t in range(4, len(levels) - 1):
        comp, k = _max_chi_component(g, levels[t + 1])
        if k > k_best:
            t_best, comp_best, k_best = t, comp, k
    return t_best, comp_best


def _max_chi_component(g: Graph, subset):
    """Connected component of g[subset] with maximum chromatic number; a tie
    goes to the component with the smallest least vertex.  Returns
    (component, chi), or (frozenset(), 0) for an empty subset.  Since
    chi <= |V|, a component with no more vertices than the best chi so far
    cannot beat it and is not coloured."""
    sub = g.induced_subgraph(subset)
    comps = sub.connected_components()
    best = (frozenset(), 0)
    for comp in comps:
        if len(comp) > best[1]:
            k, _ = chi_exact(sub if len(comps) == 1 else sub.induced_subgraph(comp))
            if k > best[1]:
                best = (comp, k)
    return best


def _earlier_edges(g: Graph, idx) -> dict:
    """Map each left-active vertex w to the first edge of g.edges() whose
    ends are both earlier than w and one of which is adjacent to w, in one
    pass over the edges."""
    first = {}
    for u, v in g.edges():
        i = max(idx[u], idx[v])
        for w in g.neighbours(u) | g.neighbours(v):
            if idx[w] > i:
                first.setdefault(w, (u, v))
    return first


def earlier_witness(g: Graph, grading: StableGrading, c: int):
    """A connected X with chi(X) >= c together with an edge uv, both ends
    earlier than all of X and at least one end adjacent to X.

    Follows the left-active partition argument: X is the richest component
    of the left-active vertices, those with such an edge, and uv the edge
    recorded for the earliest vertex of X.  The lemma's hypothesis
    chi(g) >= c + 2 guarantees chi(X) >= c; it is not checked at run time,
    and an X that falls short, or no left-active vertex at all, raises
    VerificationError.
    """
    grading.verify(g)
    if c < 0:
        raise PreconditionError("c must be non-negative")
    idx = grading.index()
    first = _earlier_edges(g, idx)
    comp, chi_a = _max_chi_component(g, first)
    if not comp or chi_a < c:
        raise VerificationError(
            "left-active part has too small chromatic number; "
            "the grading argument collapsed (input violates the hypothesis)",
            detail={"chi_active": chi_a, "needed": c},
        )
    w = min(comp, key=lambda v: (idx[v], label_key(v)))
    x = frozenset(comp)
    _audit_earlier(g, grading, x, first[w])
    return x, first[w]


def _audit_earlier(g, grading, x, edge):
    """Audit an earlier witness (X, uv) on every clause but chi(X) >= c,
    which earlier_witness has proved by colouring X just before."""
    idx = grading.index()
    u, v = edge
    if not g.has_edge(u, v):
        raise VerificationError("witness edge is not an edge")
    if not g.induced_subgraph(x).is_connected():
        raise VerificationError("witness set not connected")
    if any(idx[u] >= idx[w] or idx[v] >= idx[w] for w in x):
        raise VerificationError("edge ends not earlier than the witness set")
    if not (g.neighbours(u) & x or g.neighbours(v) & x):
        raise VerificationError("neither edge end has a neighbour in the witness set")


def has_triangle(g: Graph) -> bool:
    for u, v in g.edges():
        if g.neighbours(u) & g.neighbours(v):
            return True
    return False


def earlier_witness_tf(g: Graph, grading: StableGrading, c: int):
    """Triangle-free refinement: returns (X, u, v) where additionally u has
    no neighbour in X and v has one.  The lemma's hypothesis is
    chi(g) >= c + 3, that of earlier_witness(g, grading, c + 1); it is not
    checked at run time."""
    if has_triangle(g):
        raise PreconditionError("graph contains a triangle")
    x_prime, (e1, e2) = earlier_witness(g, grading, c + 1)
    with_nbr = [w for w in (e1, e2) if g.neighbours(w) & x_prime]
    v_prime = min(with_nbr, key=label_key)
    u_prime = e2 if v_prime == e1 else e1
    comp, _ = _max_chi_component(g, x_prime - g.neighbours(v_prime))
    if not comp:
        # X' is swallowed by N(v') (possible only when chi(X') = 1); any
        # single neighbour of v' in X' works, and it cannot touch u' in a
        # triangle-free graph
        t = min(g.neighbours(v_prime) & x_prime, key=label_key)
        x, u, v = frozenset([t]), u_prime, v_prime
    elif g.neighbours(u_prime) & comp:
        x, u, v = frozenset(comp), v_prime, u_prime
    else:
        nbrs = g.neighbours(v_prime) & x_prime
        w = min((t for t in nbrs if g.neighbours(t) & comp), key=label_key)
        x, u, v = frozenset(comp | {w}), u_prime, v_prime
    _audit_earlier_tf(g, grading, x, u, v)
    return x, u, v


def _audit_earlier_tf(g, grading, x, u, v):
    """Audit a triangle-free earlier witness (X, u, v) on every clause but
    chi(X) >= c, which the colouring of X' in earlier_witness(g, grading,
    c + 1) has proved: chi(X') >= c + 1.  N(v') is stable in a
    triangle-free graph, so removing it lowers the chromatic number by at
    most one, and a component of X' - N(v') of largest chromatic number has
    chi >= c.  X holds that component whenever X' - N(v') is not empty;
    otherwise X' lies in N(v') and is stable, so c + 1 <= chi(X') = 1, and
    X is one vertex."""
    _audit_earlier(g, grading, x, (u, v))
    if g.neighbours(u) & x:
        raise VerificationError("u has a neighbour in the witness set")
    if not (g.neighbours(v) & x):
        raise VerificationError("v has no neighbour in the witness set")


# ---------------------------------------------------------------------------
# rope induction step
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InductionResult:
    b_prime: frozenset
    c_prime: frozenset
    q_prime: object
    q0: tuple  # even-length induced path q .. q'
    q1: tuple  # odd-length induced path q .. q'


def _lex_shortest_path(g: Graph, source, target, within) -> list:
    """Deterministic shortest path from source to target whose inner
    vertices lie in within: BFS in g[within + source + target] expanding
    neighbours in label order.  The path goes through the first dequeued
    vertex adjacent to target, whatever the label order.  Every caller
    passes a target reachable from source through within, as its docstring
    proves, so the queue never runs dry."""
    if source == target:
        return [source]
    parent = {source: None}
    queue = deque([source])
    while True:
        u = queue.popleft()
        if target in g.neighbours(u):
            path = [target, u]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1]
        for w in sorted(g.neighbours(u) & within, key=label_key):
            if w not in parent:
                parent[w] = u
                queue.append(w)


def audit_induction_step(g: Graph, b_set, c_set, q, c: int, res: InductionResult):
    """Machine-check the eight output clauses of the induction step."""
    b_set, c_set = frozenset(b_set), frozenset(c_set)
    bp, cp, qp = res.b_prime, res.c_prime, res.q_prime
    q0, q1 = list(res.q0), list(res.q1)
    if not (bp <= b_set and cp <= c_set and qp in c_set - cp):
        raise VerificationError("output sets not nested in the inputs")
    if not g.induced_subgraph(cp | {qp}).is_connected():
        raise VerificationError("clause 1: g[C' + q'] not connected")
    k, _ = chi_exact(g.induced_subgraph(cp))
    if k < c:
        raise VerificationError(f"clause 2: chi(C') = {k} below {c}")
    if not covers(g, bp, cp):
        raise VerificationError("clause 3: B' does not cover C'")
    pathset = set(q0) | set(q1)
    near_qp = g.ball(qp, 2)
    for b in bp:
        bad = g.neighbours(b) & (pathset - near_qp)
        if bad:
            raise VerificationError(
                "clause 4: B' not anticomplete to the paths outside N^2[q']",
                detail={"vertex": b, "touches": bad},
            )
    allowed = c_set | {q} | ((b_set & (near_qp - {qp})) - g.ball(q, 3))
    if not pathset <= allowed:
        raise VerificationError(
            "clause 5: path vertices outside C + q + (B near q' away from q)",
            detail={"extra": pathset - allowed},
        )
    for w in cp:
        bad = g.neighbours(w) & (pathset - {qp})
        if bad:
            raise VerificationError(
                "clause 6: C' not anticomplete to the paths minus q'",
                detail={"vertex": w, "touches": bad},
            )
    if g.ball(q, 4) & (cp | {qp}):
        raise VerificationError("clause 7: q too close to C' + q'")
    for path, parity, name in ((q0, 0, "Q_0"), (q1, 1, "Q_1")):
        if path[0] != q or path[-1] != qp:
            raise VerificationError(f"clause 8: {name} does not join q and q'")
        if (len(path) - 1) % 2 != parity:
            raise VerificationError(f"clause 8: {name} has the wrong parity")
        ambient = (c_set - cp) | (b_set - bp) | {q}
        if not set(path) <= ambient:
            raise VerificationError(f"clause 8: {name} leaves the allowed ambient set")
        if not is_path_induced(g, path):
            raise VerificationError(f"clause 8: {name} not induced")
    return True


def rope_induction_step(
    g: Graph,
    b_set,
    c_set,
    q,
    c: int,
) -> InductionResult:
    """One induction step: from a covered, connected, chromatically rich C
    produce a smaller covered C' at distance >= 5 behind an odd/even pair of
    induced paths from q to a new connector q'.

    The paper's chi(C) >= 6c + 17 (induction_threshold) guarantees success;
    the step runs on any C and reports which proof branch collapsed.  All
    eight output clauses are machine-verified before returning.

    The levelling of g[C + q] from q reaches all |C| + 1 vertices exactly
    when g[C + q] is connected.  The richest level t is at least 4, so M,
    the levels before t, holds q.  A vertex u of M is at distance level(u)
    from q inside g[M]: g[M] is a subgraph of g[C + q], so it has no
    shorter path, and a shortest path of g[C + q] from q to u runs through
    levels 0..level(u), which all lie in M.  Hence g[M] is connected.  A
    vertex v of B other than q lies outside C + q, hence outside M, so when
    v has a neighbour in M, its distance from q inside g[M + v] is one more
    than the least level of its neighbours in M; q itself is at distance 0.
    """
    b_set, c_set = frozenset(b_set), frozenset(c_set)
    if c < 0:
        raise PreconditionError("c must be non-negative")
    if odd_girth(g) < 11:
        raise PreconditionError("odd girth below 11")
    if b_set & c_set:
        raise PreconditionError("B and C are not disjoint")
    if q in c_set:
        raise PreconditionError("q must lie outside C")
    if not covers(g, b_set, c_set):
        raise PreconditionError("B does not cover C")
    levels = tuple(g.induced_subgraph(c_set | {q}).bfs_levels(q))
    level = {v: d for d, vs in enumerate(levels) for v in vs}
    if len(level) != len(c_set) + 1:
        raise PreconditionError("g[C + q] not connected")

    t, _ = _richest_level(g, levels)
    if t is None:
        raise VerificationError(
            "branch collapse: levelling from q has depth below 5",
            detail={"branch": "levelling", "depth": len(levels) - 1},
        )

    far = levels[t + 1] - g.ball(q, 4)
    c_star, _ = _max_chi_component(g, far)
    if not c_star:
        raise VerificationError(
            "branch collapse: no component of the far level avoids the 4-ball of q",
            detail={"branch": "far-component"},
        )
    m_set = frozenset().union(*levels[:t])

    b0 = frozenset(v for v in b_set if not (g.neighbours(v) & m_set))
    b1, b2 = set(), set()
    for v in b_set - b0:
        d = 0 if v == q else 1 + min(level[u] for u in g.neighbours(v) & m_set)
        (b1 if d % 2 == 1 else b2).add(v)
    b_parts = (b0, frozenset(b1), frozenset(b2))
    c_parts = tuple(
        frozenset(v for v in c_star if g.neighbours(v) & b_parts[i]) for i in range(3)
    )

    chi_parts = [chi_exact(g.induced_subgraph(part))[0] for part in c_parts]

    if chi_parts[0] >= c + 3:
        result = _induction_branch_near(g, b_parts[0], c_parts[0], q, c, levels, t, m_set)
    else:
        h = next((i for i in (1, 2) if chi_parts[i] >= c + 3), None)
        if h is None:
            raise VerificationError(
                "branch collapse: no part of the far component is chromatically rich",
                detail={"branch": "partition", "chi_parts": tuple(chi_parts), "needed": c + 3},
            )
        result = _induction_branch_through(g, b_parts[h], c_parts[h], q, c, m_set, level)
    audit_induction_step(g, b_set, c_set, q, c, result)
    return result


def _graded_witness(g, c_set, order, reach, c):
    """Grade C by the first vertex m of order whose reach(m) holds each vertex
    of C, and return (grading, X, u', q'), the grading with the
    triangle-free earlier witness of g[C] under it.

    Some reach(m) holds each vertex of C in both branches.  In the near
    branch C = C_0 lies in level t + 1, so each of its vertices has a BFS
    parent in level t, whose vertices form the order.  In the through
    branch each v in C = C_h has a cover neighbour b in B_h, and b, not
    being in B_0, has a neighbour m in M, so v lies in reach(m)."""
    assigned, parts = set(), []
    for m in order:
        part = (reach(m) & c_set) - assigned
        assigned |= part
        parts.append(part)
    grading = StableGrading(parts=tuple(parts))
    return (grading, *earlier_witness_tf(g.induced_subgraph(c_set), grading, c))


def _induction_result(b_prime, c_prime, q_prime, path, other) -> InductionResult:
    """The step's result, with the two q-q' paths ordered by parity as
    (Q_0 even, Q_1 odd)."""
    even, odd = (path, other) if len(path) % 2 == 1 else (other, path)
    return InductionResult(
        b_prime=b_prime, c_prime=c_prime, q_prime=q_prime, q0=tuple(even), q1=tuple(odd)
    )


def _induction_branch_near(g, b0, c0, q, c, levels, t, m_set):
    """Case chi(C_0) >= c + 3: grade C_0 by first adjacency into M_t and walk
    two level-respecting paths down to q.  Both paths exist: u' and q' lie
    in C_0, inside level t + 1, so each has a neighbour in level t, which a
    path through levels t - 1, ..., 0 joins to q."""
    m_t = sorted(levels[t], key=label_key)
    _, c_prime, u_prime, q_prime = _graded_witness(g, c0, m_t, g.neighbours, c)
    walkable = m_set | levels[t]
    path_u = _lex_shortest_path(g, q, u_prime, walkable)
    path_q = _lex_shortest_path(g, q, q_prime, walkable)
    return _induction_result(b0, c_prime, q_prime, path_q, path_u + [q_prime])


def _induction_branch_through(g, b_h, c_h, q, c, m_set, level):
    """Case chi(C_h) >= c + 3 for h in {1, 2}: grade C_h by the first vertex
    of M whose second neighbourhood through B_h reaches it, and route the two
    paths through cover vertices b_{u'}, b_{q'}.  The vertices of M are
    ordered by their distance from q within M, which is their level.

    Both connectors exist.  The vertex b of B_h that puts u' in
    reach(order[i_u]) sees order[i_u], which lies in head, so b is not in
    B' and lies in the pool; likewise for q'.  Both base paths exist too:
    each connector has a neighbour in M, and g[M] is connected and holds q
    (see rope_induction_step)."""
    order = sorted(m_set, key=lambda v: (level[v], label_key(v)))
    grading, c_prime, u_prime, q_prime = _graded_witness(
        g, c_h, order, lambda m: frozenset().union(*map(g.neighbours, g.neighbours(m) & b_h)), c
    )
    idx = grading.index()
    i_u, i_q = idx[u_prime], idx[q_prime]
    head = set(order[: max(i_u, i_q) + 1])
    b_prime = frozenset(v for v in b_h if not g.neighbours(v) & head)
    pool = b_h - b_prime

    def connector(i, w):  # the least vertex of the pool joining order[i] to w
        return min(pool & g.neighbours(order[i]) & g.neighbours(w), key=label_key)

    b_u, b_q = connector(i_u, u_prime), connector(i_q, q_prime)
    base_u = _lex_shortest_path(g, q, b_u, m_set)
    base_q = _lex_shortest_path(g, q, b_q, m_set)
    return _induction_result(
        b_prime, c_prime, q_prime, base_q + [q_prime], base_u + [u_prime, q_prime]
    )


# ---------------------------------------------------------------------------
# broken ropes and the finder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BrokenRopeResult:
    b_prime: frozenset
    c_prime: frozenset
    rope: BrokenRope


def audit_broken_rope(g: Graph, q1, res: BrokenRopeResult):
    """Machine-check that the rope starts at q1 and is a broken rope.

    The seven output clauses need no check here: the audit of each chained
    induction step has proved them.  Step k (k = 1..r) turns (B_k, C_k,
    q_k) into (B'_k, C'_k, q'_k), the inputs of step k + 1, with B_1, C_1
    and q_1 = q1 the inputs of build_broken_rope, and its two paths form
    pair k, which ends at anchor q'_k.  Its audit checks B'_k <= B_k,
    C'_k <= C_k and q'_k in C_k - C'_k, so B' <= B'_k and C' <= C'_k for
    every k, and each q_k is q1 or lies in C.
      1-3. g[C' + end] is connected, chi(C') >= c and B' covers C': these
           are clauses 1-3 of step r, whose target is c.
      4. B' misses the neighbourhood of pair k outside N^2[q'_k]: B'_k
         does, by clause 4 of step k, and B' <= B'_k.
      5. Pair k outside N^2[q'_k] lies in C + q1: clause 5 of step k puts
         it in C_k + q_k, and C_k + q_k <= C + q1.
      6. No vertex of C' has a neighbour on the paths but the end: C'_k,
         hence C', has none on pair k - q'_k, by clause 6 of step k.  For
         k < r, q'_k is q_(k+1), which lies on pair k + 1 and is not
         q'_(k+1), since q'_(k+1) is in C_(k+1) = C'_k and q'_k is not; so
         clause 6 of step k + 1 and C' <= C'_(k+1) cover it.
      7. Each anchor q_k is at distance >= 5 from C' + end: clause 7 of
         step k puts it so from C'_k + q'_k, and for k < r the end lies in
         C_r <= C'_k.
    """
    if res.rope.anchors[0] != q1:
        raise VerificationError("rope does not start at q1")
    verify_rope(g, res.rope)
    return True


def build_broken_rope(
    g: Graph,
    b_set,
    c_set,
    q1,
    r: int,
    c: int,
) -> BrokenRopeResult:
    """Iterate the induction step r times with target c, chaining each new
    connector as the next start vertex, and assemble the resulting broken
    rope.  The paper's chi(C) >= broken_rope_threshold(r, c) guarantees
    success."""
    if r < 1:
        raise PreconditionError("r must be at least 1")
    b_cur, c_cur, q_cur = frozenset(b_set), frozenset(c_set), q1
    anchors = [q1]
    pairs = []
    for depth in range(1, r + 1):
        try:
            res = rope_induction_step(g, b_cur, c_cur, q_cur, c)
        except VerificationError as failure:
            raise VerificationError(
                f"broken-rope induction failed at depth {depth}",
                detail={"depth": depth, "cause": failure.detail or str(failure)},
            ) from failure
        pairs.append((list(res.q1), list(res.q0)))
        anchors.append(res.q_prime)
        b_cur, c_cur, q_cur = res.b_prime, res.c_prime, res.q_prime
    result = BrokenRopeResult(
        b_prime=b_cur,
        c_prime=c_cur,
        rope=BrokenRope(anchors=tuple(anchors), paths=tuple(tuple(p) for p in pairs)),
    )
    audit_broken_rope(g, q1, result)
    return result


def _rope_from_chains(g: Graph, x_set) -> Optional[ArithmeticRope]:
    """Fallback recovery: split g[X] into chains, the paths between vertices
    of degree >= 3 whose inner vertices have degree 2, and reassemble a rope
    from them, or return None.

    Vertices of degree <= 1 are dropped from g[X] first, until none is left:
    such a vertex lies on no cycle, so on no rope path, and a pendant tree
    would otherwise split the chain it hangs from.

    Each chain is walked from both ends and kept from the end earlier in
    label order (a chain from a vertex back to itself, from its earlier
    first edge).  Two ends joined by exactly one odd and one even chain give
    one pair; when every chain has the same two ends, two odd and two even
    chains give two pairs, the cycle of a 2-rope.  Other chains are ignored.
    The pairs must form one cycle in which each anchor ends exactly two of
    them.  It is walked from its least anchor, taking at each anchor its
    pair of least number not yet taken, and the rope must pass verify_rope.
    """
    sub = g.induced_subgraph(x_set)
    leaves = [v for v in sub.vertices if sub.degree(v) <= 1]
    while leaves:
        sub = sub.delete_vertices(leaves)
        leaves = [v for v in sub.vertices if sub.degree(v) <= 1]
    by_ends = {}
    for a in sub.vertices:
        if sub.degree(a) < 3:
            continue
        for w in sorted(sub.neighbours(a), key=label_key):
            chain = [a, w]
            while sub.degree(chain[-1]) == 2:
                (nxt,) = sub.neighbours(chain[-1]) - {chain[-2]}
                chain.append(nxt)
            b = chain[-1]
            first = (label_key(a), label_key(w)) < (label_key(b), label_key(chain[-2]))
            if sub.degree(b) >= 3 and first:
                by_ends.setdefault((a, b), []).append(chain)
    per_ends = 2 if len(by_ends) == 1 else 1
    pairs, incidence = [], {}
    for (a, b), chains in by_ends.items():
        odd = [ch for ch in chains if len(ch) % 2 == 0]
        even = [ch for ch in chains if len(ch) % 2 == 1]
        if len(odd) == len(even) == per_ends:
            for pair in zip(odd, even):
                incidence.setdefault(a, []).append(len(pairs))
                incidence.setdefault(b, []).append(len(pairs))
                pairs.append(pair)
    if len(pairs) < 2 or any(len(ids) != 2 for ids in incidence.values()):
        return None
    order, taken = [min(incidence, key=label_key)], []
    for _ in pairs:
        i = next((i for i in incidence[order[-1]] if i not in taken), None)
        if i is None:  # the cycle closed before taking every pair
            return None
        taken.append(i)
        a, b = pairs[i][0][0], pairs[i][0][-1]
        order.append(b if order[-1] == a else a)
    paths = tuple(
        tuple(ch if ch[0] == a else ch[::-1] for ch in pairs[i]) for a, i in zip(order, taken)
    )
    rope = ArithmeticRope(anchors=tuple(order[:-1]), paths=paths)
    try:
        verify_rope(g, rope)
    except VerificationError:
        return None
    return rope


def find_rope(
    g: Graph,
    x_set,
    r: int,
    c: int = 0,
) -> ArithmeticRope:
    """Find an r-rope inside X: BFS levelling, broken rope in a deep level,
    and a closing path through the lower levels.  When the constructive
    pipeline collapses, fall back to chain-decomposition recovery
    (desk-scale inputs rarely reach the paper's chi(X) >=
    finder_threshold(r), which guarantees the pipeline)."""
    x_set = frozenset(x_set)
    if r < 2:
        raise PreconditionError("r must be at least 2")
    if c < 0:
        raise PreconditionError("c must be non-negative")
    if odd_girth(g) < 11:
        raise PreconditionError("odd girth below 11")
    try:
        return _find_rope_pipeline(g, x_set, r, c)
    except (VerificationError, PreconditionError) as e:
        failure_report = getattr(e, "detail", None) or str(e)
    rope = _rope_from_chains(g, x_set)
    if rope is not None and rope.r >= r:
        return rope
    raise VerificationError(
        "no verified rope found",
        detail={"pipeline_failure": failure_report},
    )


def _find_rope_pipeline(g: Graph, x_set, r: int, c: int) -> ArithmeticRope:
    """Level one component of g[X] from its least vertex: the only one, else
    the first (by least vertex) with more than COMBINATORIAL_CAP vertices,
    which chi_exact would refuse, else the one _max_chi_component picks.
    The connector q1 exists: the deep component is not empty and lies in
    level s + 1, so each of its vertices has a BFS parent in level s."""
    if not x_set:
        raise VerificationError("rope pipeline: X is empty")
    sub = g.induced_subgraph(x_set)
    comps = sub.connected_components()
    if len(comps) > 1:
        big = next((comp for comp in comps if len(comp) > COMBINATORIAL_CAP), None)
        sub = g.induced_subgraph(big or _max_chi_component(g, x_set)[0])
    levels = tuple(sub.bfs_levels(sub.vertices[0]))
    s, c_comp = _richest_level(g, levels)
    if s is None:
        raise VerificationError(
            "rope pipeline: levelling too shallow", detail={"depth": len(levels) - 1}
        )
    q1 = min((v for v in levels[s] if g.neighbours(v) & c_comp), key=label_key)
    b_level = frozenset(levels[s])
    c_level = frozenset(c_comp)
    broken = build_broken_rope(g, b_level, c_level, q1, r, c)
    rope = _close_broken_rope(g, broken, levels, s, q1)
    verify_rope(g, rope)
    return rope


def _close_broken_rope(g, broken: BrokenRopeResult, levels, s, q1) -> ArithmeticRope:
    """Close the broken rope into a rope: a path from the end through C' to
    a cover vertex b of a deep vertex x far from every anchor, hooks from b
    and q1 into level s - 1, and a path between the hooks through the
    levels below.  Only x may be missing; the rest always exists:
      - b: clause 3 of step r says B' covers C', and x lies in C';
      - the path from the end to b: clause 1 of step r says g[C' + end] is
        connected, and b sees x in C'.  It has length >= 4, since x lies
        outside ball(end, 4) and b is adjacent to x;
      - the hooks: q1 and b lie in level s (B' <= B_1 = level s), so each
        has a BFS parent in level s - 1;
      - the path between the hooks: levels 0..s - 2 are connected through
        the root, and each hook has its BFS parent there."""
    rope = broken.rope
    end = rope.end
    anchors = rope.anchors
    near = frozenset().union(*(g.ball(a, 4) for a in anchors))
    x = min(broken.c_prime - near, key=label_key, default=None)
    if x is None:
        raise VerificationError(
            "rope pipeline: no deep vertex far from all anchors",
            detail={"branch": "closing-x"},
        )
    b = min((v for v in broken.b_prime if g.has_edge(v, x)), key=label_key)
    p1 = _lex_shortest_path(g, end, b, broken.c_prime)
    a1 = min((v for v in levels[s - 1] if g.has_edge(v, q1)), key=label_key)
    a2 = min((v for v in levels[s - 1] if g.has_edge(v, b)), key=label_key)
    low = frozenset().union(*levels[: s - 1])
    p2 = _lex_shortest_path(g, a1, a2, low)
    # closing path: end ... b, then a2 ... a1 through the lower levels, then q1
    closing = p1 + p2[::-1] + [q1]
    # stitched rope: extend the last pair along the closing path so the pair
    # joins the last moving anchor back to q1
    ext = closing[1:]  # drop the duplicate end vertex
    new_last = []
    for path in rope.paths[-1]:
        new_last.append(list(path) + ext)
    swap = (len(closing) - 1) % 2 == 1
    odd_path, even_path = new_last[0], new_last[1]
    if swap:
        odd_path, even_path = even_path, odd_path
    new_paths = list(rope.paths[:-1]) + [(odd_path, even_path)]
    return ArithmeticRope(anchors=anchors[:-1], paths=tuple(new_paths))
