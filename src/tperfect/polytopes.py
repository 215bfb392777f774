"""Stable set polytope relaxations and exact perfection oracles.

Builds the edge/odd-cycle relaxation, the clique relaxation, and their common
refinement for a graph, enumerates their vertices exactly, and decides
whether each relaxation coincides with the stable set polytope.  Negative
answers come with a machine-checked fractional vertex witness.

The rows come from two searches over the neighbour bitmasks of
``graphs.neighbour_masks``, indexed in label order: induced paths grown
into chordless odd cycles, and a pivoted Bron-Kerbosch search for maximal
cliques, run on the complemented masks for maximal stable sets.  Index
order is label order, so their outputs are sorted without ``label_key``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .errors import CapExceededError, PreconditionError, VerificationError
from .geometry import (
    HPolytope,
    Inequality,
    enumerate_vertices,
    qvec,
    rank,
    slacks,
)
from .graphio import JSONData
from .graphs import Graph, bits, has_k4_minor, neighbour_masks, shortest_odd_cycle

# Vertex enumeration cost grows quickly with dimension; refuse above this.
POLYTOPE_DIM_CAP = 16


def vertex_order(g: Graph) -> tuple:
    """The fixed coordinate order used by every polytope built from g."""
    return g.vertices


def all_stable_sets(g: Graph) -> list:
    """Every stable set of g (including the empty set), as frozensets."""
    order = vertex_order(g)
    out = []

    def extend(i, current, forbidden):
        if i == len(order):
            out.append(frozenset(current))
            return
        v = order[i]
        if v not in forbidden:
            extend(i + 1, current + [v], forbidden | g.neighbours(v))
        extend(i + 1, current, forbidden)

    extend(0, [], set())
    return out


def maximal_stable_sets(g: Graph) -> list:
    """Inclusion-maximal stable sets: the maximal cliques of the complement,
    searched on the complements of g's neighbour masks."""
    full = (1 << g.n) - 1
    return _maximal_cliques(g, [full & ~m & ~(1 << i) for i, m in enumerate(neighbour_masks(g))])


def maximal_cliques(g: Graph) -> list:
    return _maximal_cliques(g, neighbour_masks(g))


def _maximal_cliques(g: Graph, nb: list) -> list:
    """The maximal cliques of the graph on g.vertices whose neighbour masks
    are nb, as frozensets, sorted by their members in label order.

    Bron-Kerbosch (1973) with the pivot of Tomita, Tanaka and Takahashi
    (2006).  A state is a clique r, the vertices p that may extend it, and
    the vertices x that also extend it but were branched on before, so the
    cliques holding them are listed under other states; r is maximal when
    p and x are empty.  A state branches on the vertices of p outside
    N(u), for a pivot u of p | x with the most neighbours in p.  Every
    vertex of p | x sees all of r, so a clique that adds to r only
    vertices of N(u) could add u too and is not maximal.  States wait on a
    stack, not in recursion, so a large stable set needs no deep call
    chain.  A graph with no vertex has no clique, not the empty one."""
    found = []
    stack = [(0, (1 << g.n) - 1, 0)] if g.n else []
    while stack:
        r, p, x = stack.pop()
        if not p | x:
            found.append(r)
            continue
        pivot = max(bits(p | x), key=lambda u: (p & nb[u]).bit_count())
        for v in bits(p & ~nb[pivot]):
            stack.append((r | 1 << v, p & nb[v], x & nb[v]))
            p ^= 1 << v
            x |= 1 << v
    order = g.vertices
    return [frozenset(order[i] for i in c) for c in sorted(bits(r) for r in found)]


def chordless_odd_cycles(g: Graph) -> list:
    """All chordless cycles of odd length, sorted by length and then by
    their vertices in label order.

    Each cycle is listed once, from its least vertex s towards the lesser
    of its two neighbours on the cycle: the rotation and reflection with
    the least labels.  It is grown as an induced path s, p1, ..., pk over
    vertices after s.  ``inner`` holds the path and the neighbours of its
    interior p1, ..., p(k-1), which the next vertex must avoid.  A
    neighbour of s may only close the path, and only when it comes after
    p1; the other vertices after s extend it.  Paths wait on a stack, not
    in recursion, so a long cycle needs no deep call chain."""
    nb = neighbour_masks(g)
    found = []
    for s in range(g.n):
        after = -1 << (s + 1)
        grow = after & ~nb[s]
        for p1 in bits(nb[s] & after):
            closers = nb[s] & (-1 << (p1 + 1))
            stack = [((s, p1), 1 << s | 1 << p1)]
            while stack:
                path, inner = stack.pop()
                ends = nb[path[-1]] & ~inner
                if len(path) % 2 == 0:
                    found.extend(path + (v,) for v in bits(ends & closers))
                inner |= nb[path[-1]]
                stack.extend((path + (v,), inner) for v in bits(ends & grow))
    order = g.vertices
    return [tuple(order[i] for i in c) for c in sorted(found, key=lambda c: (len(c), c))]


def _nonneg_rows(order) -> list:
    return [
        Inequality(tuple(-int(j == i) for j in range(len(order))), 0, tag="nonneg", source=(v,))
        for i, v in enumerate(order)
    ]


def _subset_row(order, subset, rhs, tag, source) -> Inequality:
    s = set(subset)
    return Inequality(tuple(int(v in s) for v in order), rhs, tag=tag, source=source)


def _odd_cycle_rows(g: Graph) -> tuple:
    """One row sum(x_v for v in C) <= (|C|-1)/2 per chordless odd cycle C."""
    order = vertex_order(g)
    return tuple(
        _subset_row(order, cyc, (len(cyc) - 1) // 2, "oddcycle", tuple(cyc))
        for cyc in chordless_odd_cycles(g)
    )


def tstab(g: Graph) -> HPolytope:
    """Edge and odd-cycle relaxation of the stable set polytope.

    Only chordless odd cycles contribute rows: they already determine the
    polytope.  Isolated vertices get an explicit x_v <= 1 row to keep the
    system bounded.
    """
    order = vertex_order(g)
    rows = _nonneg_rows(order)
    for u, v in g.edges():
        rows.append(_subset_row(order, (u, v), 1, "edge", (u, v)))
    for v in order:
        if g.degree(v) == 0:
            rows.append(_subset_row(order, (v,), 1, "edge", (v,)))
    return HPolytope(dim=len(order), inequalities=tuple(rows) + _odd_cycle_rows(g))


def qstab(g: Graph) -> HPolytope:
    """Clique relaxation: nonnegativity plus one row per maximal clique."""
    order = vertex_order(g)
    rows = _nonneg_rows(order)
    for clq in maximal_cliques(g):
        src = tuple(sorted(clq, key=g.rank.__getitem__))
        rows.append(_subset_row(order, clq, 1, "clique", src))
    return HPolytope(dim=len(order), inequalities=tuple(rows))


def hstab(g: Graph) -> HPolytope:
    """Clique and odd-cycle relaxation (intersection of the two above)."""
    q = qstab(g)
    return HPolytope(dim=q.dim, inequalities=q.inequalities + _odd_cycle_rows(g))


@dataclass(frozen=True)
class ImperfectionWitness(JSONData):
    """A fractional vertex of a relaxation, proving it exceeds the stable
    set polytope.  ``point`` is given in the coordinate order ``order``."""

    relaxation: str  # "tstab", "hstab", or "hbarstab" (hstab of the complement)
    order: tuple
    point: tuple  # of Fractions
    tight_tags: tuple  # (tag, source) of each inequality tight at the point

    def to_data(self) -> dict:
        return {
            "relaxation": self.relaxation,
            "order": [repr(v) for v in self.order],
            "point": {
                repr(v): f"{x.numerator}/{x.denominator}"
                for v, x in zip(self.order, self.point)
            },
            "tight": [
                {"tag": tag, "source": [repr(s) for s in source]}
                for tag, source in self.tight_tags
            ],
        }


def verify_witness(g: Graph, w: ImperfectionWitness) -> bool:
    """Audit a fractional-vertex witness from scratch.

    Checks four clauses: the point lies in the claimed relaxation P, the
    certificate's ``tight`` list names exactly the rows of P tight at the
    point, in P's row order, it is a vertex of P (those tight rows have full
    rank), and it has a non-integral coordinate.  Raises VerificationError
    naming the first violated clause.  P is tstab(g) or hstab(g), or for
    "hbarstab" hstab of the complement of g, the polytope of
    ``is_hbar_perfect``'s witnesses.  Any other relaxation makes the
    certificate malformed, not false: PreconditionError.

    Together these prove that the point lies outside the stable set polytope
    of P's graph H, g or its complement.  Every row of ``tstab`` and
    ``hstab`` is valid for the incidence vectors of stable sets, so STAB(H)
    is contained in P.  A point of STAB(H) is a convex combination of such
    0/1 vectors, all of them points of P; a vertex of P is a convex
    combination of points of P only trivially, so a vertex of P in STAB(H)
    would be one of those 0/1 vectors, and integral.

    The arithmetic is in integers: ``geometry.slacks`` gives each row's
    slack at the point, scaled by one positive common denominator, once,
    and it serves the first two clauses; the rank is a fraction-free
    elimination (``geometry.rank``).  The relaxation is still built from g,
    not taken from the certificate, and a violated row's error carries the
    point as ``Fraction``s.
    """
    if w.relaxation == "tstab":
        p = tstab(g)
    elif w.relaxation == "hstab":
        p = hstab(g)
    elif w.relaxation == "hbarstab":
        p = hstab(complement_graph(g))
    else:
        raise PreconditionError(f"unknown relaxation {w.relaxation!r}")
    if tuple(w.order) != vertex_order(g):
        raise VerificationError("witness coordinate order mismatch")
    x = qvec(w.point)
    if len(x) != p.dim:
        raise PreconditionError("point dimension mismatch")
    slack = slacks(p, x)
    if any(s < 0 for s in slack):
        raise VerificationError("witness point violates the relaxation", detail={"point": x})
    tight = [i for i, s in zip(p.inequalities, slack) if s == 0]
    if tuple(w.tight_tags) != tuple((i.tag, i.source) for i in tight):
        raise VerificationError("witness tight list does not match the rows tight at the point")
    if rank([i.coeffs for i in tight]) != p.dim:
        raise VerificationError("witness point is not a vertex of the relaxation")
    if all(c.denominator == 1 for c in x):
        raise VerificationError("witness point is integral")
    return True


def t_perfect_by_theorem(g: Graph) -> bool:
    """True when a classical theorem already proves TSTAB(g) = STAB(g): g
    has no K4 minor, i.e. is series-parallel (Boulala & Uhry 1979), or g - v
    is bipartite for some vertex v (Fonlupt & Uhry 1982).  The empty graph
    has no K4 minor.  Such a v lies on every odd cycle, so only the vertices
    of one odd cycle are tried; a bipartite g has no odd cycle and qualifies
    outright.

    A True answer settles the clique/odd-cycle relaxation too.  Its clique
    rows imply the edge rows and, through the clique {v}, the x_v <= 1 row
    of an isolated v, so STAB(g) <= HSTAB(g) <= TSTAB(g) = STAB(g).
    """
    if not has_k4_minor(g):
        return True
    cycle = shortest_odd_cycle(g)
    return cycle is None or any(g.delete_vertices([v]).bipartition() is not None for v in cycle)


def _first_fractional_vertex(g: Graph, build) -> tuple:
    """(x, p): x is the lexicographically first fractional vertex of
    build(g), or None.  It is (0, the first fractional vertex of
    build(g - v1)) when g - v1 has one, v1 being the least vertex, and p is
    then None; only otherwise does the double description run on g itself,
    and p is the build(g) it ran on."""
    if t_perfect_by_theorem(g):
        return None, None
    face, _ = _first_fractional_vertex(g.delete_vertices(g.vertices[:1]), build)
    if face is not None:
        return (Fraction(0),) + face, None
    p = build(g)
    for x in enumerate_vertices(p).vertices:  # lexicographic order
        if any(c.denominator != 1 for c in x):
            return x, p
    return None, p


def _fractional_witness(g: Graph, relaxation: str, build) -> Optional[ImperfectionWitness]:
    """The lexicographically first fractional vertex of build(g), or None
    when there is none.  Graphs that ``t_perfect_by_theorem`` settles skip
    the relaxation and its vertex enumeration.

    The vertex is searched in the face x_{v1} = 0 first, v1 = g.vertices[0].
    That face of P(g) is {0} x P(g - v1), for P = tstab (proved in
    ``is_t_perfect``) and for P = hstab.  For hstab: a maximal clique of g
    that misses v1 is one of g - v1, and an odd-cycle row is as in tstab,
    its edge rows lying under clique rows.  At x_{v1} = 0 a clique row
    through v1 reads x(K - v1) <= 1, which follows from the row of a
    maximal clique of g - v1 containing K - v1, as x >= 0 (and reads 0 <= 1
    when K = {v1}).  Conversely a maximal clique K' of g - v1, {u} for an
    isolated u included, lies in a maximal clique of g, whose row bounds
    x(K').

    Every coordinate is >= 0, so every vertex with x_{v1} = 0 comes
    lexicographically before every vertex with x_{v1} > 0, and
    ``delete_vertices`` keeps label order, so g - v1 uses the coordinates
    g.vertices[1:].  Hence the first fractional vertex of P(g) is
    (0, that of P(g - v1)) whenever P(g - v1) has one, and the double
    description runs in a smaller dimension: 6 instead of 10 on joinC5C5,
    10 instead of 11 on the Groetzsch graph.  The cost falls on a graph
    whose faces have no fractional vertex although the theorems do not
    settle them: it pays the double descriptions of g - v1, g - v1 - v2,
    ... before the one of g.

    Above the dimension cap only the series-parallel test runs, in time
    linear in the graph: a graph with no K4 minor is accepted at any size,
    and any other is refused.  The G - v test is left out there: it
    searches a shortest odd cycle and rebuilds g without each vertex of it,
    up to O(n(n + m)), and every graph it does not settle is refused
    anyway.

    The witness lists the rows of build(g) tight at the vertex, taken from
    the polytope the double description ran on when that was build(g);
    only a vertex found in a face needs build(g) once more.  The verifier
    builds its own relaxation all the same."""
    if g.n > POLYTOPE_DIM_CAP:
        if not has_k4_minor(g):
            return None
        raise CapExceededError(
            f"vertex enumeration capped at dimension {POLYTOPE_DIM_CAP}, got {g.n}"
        )
    x, p = _first_fractional_vertex(g, build)
    if x is None:
        return None
    if p is None:
        p = build(g)
    w = ImperfectionWitness(
        relaxation=relaxation,
        order=vertex_order(g),
        point=x,
        tight_tags=tuple((i.tag, i.source) for i, s in zip(p.inequalities, slacks(p, x)) if s == 0),
    )
    verify_witness(g, w)
    return w


def is_t_perfect(g: Graph):
    """Exact test whether the edge/odd-cycle relaxation equals the stable set
    polytope.  Returns (True, None) or (False, witness).

    The witness is the lexicographically first fractional vertex of
    tstab(g), found in the face x_{v1} = 0 when that face has one (see
    ``_fractional_witness``).  That face is {0} x tstab(g - v1).  An edge, a
    chordless odd cycle or an isolated vertex of g that misses v1 is one of
    g - v1, with the same row.  At x_{v1} = 0 the rows through v1 follow
    from rows of tstab(g - v1): an odd-cycle row, because C - v1 is a path
    on |C| - 1 vertices, the sum of (|C| - 1)/2 edge rows; an edge row
    x_u + x_{v1} <= 1, because x_u <= 1 there, by an edge row at u and
    x >= 0 or by the row of u if v1 was its only neighbour; the row of an
    isolated v1 reads 0 <= 1.  That row x_u <= 1 of a u whose only
    neighbour is v1 is the one row of tstab(g - v1) missing from tstab(g),
    and x_u + x_{v1} <= 1 implies it on the face."""
    w = _fractional_witness(g, "tstab", tstab)
    return (w is None), w


def is_h_perfect(g: Graph):
    """Exact test whether the clique/odd-cycle relaxation equals the stable
    set polytope.  Returns (True, None) or (False, witness)."""
    w = _fractional_witness(g, "hstab", hstab)
    return (w is None), w


def complement_graph(g: Graph) -> Graph:
    order = vertex_order(g)
    edges = [
        (u, v)
        for i, u in enumerate(order)
        for v in order[i + 1 :]
        if not g.has_edge(u, v)
    ]
    return Graph(order, edges)


def is_hbar_perfect(g: Graph):
    """Exact test whether the complement of g is h-perfect.  The witness,
    if any, is ``is_h_perfect``'s on the complement, named "hbarstab" so
    that ``verify_witness`` checks it on g against the complement's
    relaxation."""
    ok, w = is_h_perfect(complement_graph(g))
    return ok, None if w is None else replace(w, relaxation="hbarstab")
