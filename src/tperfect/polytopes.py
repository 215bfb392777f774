"""Stable set polytope relaxations and exact perfection oracles.

Builds the edge/odd-cycle relaxation, the clique relaxation, and their common
refinement for a graph, enumerates their vertices exactly, and decides
whether each relaxation coincides with the stable set polytope.  Negative
answers come with a machine-checked fractional vertex witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import networkx as nx

from .errors import CapExceededError, VerificationError
from .geometry import (
    HPolytope,
    Inequality,
    enumerate_vertices,
    qvec,
    _rank,
)
from .graphs import Graph, has_k4_minor, label_key, shortest_odd_cycle

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
    """Inclusion-maximal stable sets, via cliques of the complement."""
    comp = nx.complement(g.to_networkx())
    return sorted(
        (frozenset(c) for c in nx.find_cliques(comp)),
        key=lambda s: tuple(label_key(v) for v in sorted(s, key=label_key)),
    )


def maximal_cliques(g: Graph) -> list:
    return sorted(
        (frozenset(c) for c in nx.find_cliques(g.to_networkx())),
        key=lambda s: tuple(label_key(v) for v in sorted(s, key=label_key)),
    )


def _canonical_cycle(cyc) -> tuple:
    """Rotation/reflection-invariant representative of a cyclic vertex list."""
    cyc = list(cyc)
    k = len(cyc)
    i0 = min(range(k), key=lambda i: label_key(cyc[i]))
    fwd = tuple(cyc[(i0 + j) % k] for j in range(k))
    bwd = tuple(cyc[(i0 - j) % k] for j in range(k))
    return min(fwd, bwd, key=lambda t: tuple(label_key(v) for v in t))


def chordless_odd_cycles(g: Graph) -> list:
    """All chordless cycles of odd length, canonically oriented and sorted."""
    found = {
        _canonical_cycle(c)
        for c in nx.chordless_cycles(g.to_networkx())
        if len(c) % 2 == 1
    }
    return sorted(found, key=lambda t: (len(t), tuple(label_key(v) for v in t)))


def _nonneg_rows(order) -> list:
    rows = []
    for i, v in enumerate(order):
        coeffs = [Fraction(0)] * len(order)
        coeffs[i] = Fraction(-1)
        rows.append(Inequality(tuple(coeffs), Fraction(0), tag="nonneg", source=(v,)))
    return rows


def _subset_row(order, subset, rhs, tag, source) -> Inequality:
    s = set(subset)
    coeffs = tuple(Fraction(1) if v in s else Fraction(0) for v in order)
    return Inequality(coeffs, Fraction(rhs), tag=tag, source=source)


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
        src = tuple(sorted(clq, key=label_key))
        rows.append(_subset_row(order, clq, 1, "clique", src))
    return HPolytope(dim=len(order), inequalities=tuple(rows))


def hstab(g: Graph) -> HPolytope:
    """Clique and odd-cycle relaxation (intersection of the two above)."""
    q = qstab(g)
    return HPolytope(dim=q.dim, inequalities=q.inequalities + _odd_cycle_rows(g))


@dataclass(frozen=True)
class ImperfectionWitness:
    """A fractional vertex of a relaxation, proving it exceeds the stable
    set polytope.  ``point`` is given in the coordinate order ``order``."""

    relaxation: str  # "tstab" or "hstab"
    order: tuple
    point: tuple  # QVec of Fractions
    tight_tags: tuple  # (tag, source) of each inequality tight at the point

    def to_json(self) -> str:
        return json.dumps(
            {
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
            },
            indent=2,
            sort_keys=True,
        )


def verify_witness(g: Graph, w: ImperfectionWitness) -> bool:
    """Audit a fractional-vertex witness from scratch.

    Checks three clauses: the point lies in the claimed relaxation P, it is a
    vertex of P (its tight rows have full rank), and it has a non-integral
    coordinate.  Raises VerificationError naming the first violated clause.

    Together these prove that the point lies outside the stable set polytope
    STAB(g).  Every row of ``tstab`` and ``hstab`` is valid for the incidence
    vectors of stable sets, so STAB(g) is contained in P.  A point of STAB(g)
    is a convex combination of such 0/1 vectors, all of them points of P; a
    vertex of P is a convex combination of points of P only trivially, so a
    vertex of P in STAB(g) would be one of those 0/1 vectors, and integral.
    """
    if w.relaxation == "tstab":
        p = tstab(g)
    elif w.relaxation == "hstab":
        p = hstab(g)
    else:
        raise VerificationError("unknown relaxation", detail={"relaxation": w.relaxation})
    if tuple(w.order) != vertex_order(g):
        raise VerificationError("witness coordinate order mismatch")
    x = qvec(w.point)
    if not p.contains(x):
        raise VerificationError("witness point violates the relaxation", detail={"point": x})
    tight = p.tight_inequalities(x)
    if _rank([list(i.coeffs) for i in tight]) != p.dim:
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


def _fractional_witness(g: Graph, relaxation: str, build) -> Optional[ImperfectionWitness]:
    """The lexicographically first fractional vertex of build(g), or None
    when there is none.  Graphs that ``t_perfect_by_theorem`` settles skip
    the relaxation and its vertex enumeration.

    Above the dimension cap only the series-parallel test runs, in time
    linear in the graph: a graph with no K4 minor is accepted at any size,
    and any other is refused.  The G - v test is left out there: it
    searches a shortest odd cycle and rebuilds g without each vertex of it,
    up to O(n(n + m)), and every graph it does not settle is refused
    anyway."""
    if g.n > POLYTOPE_DIM_CAP:
        if not has_k4_minor(g):
            return None
        raise CapExceededError(
            f"vertex enumeration capped at dimension {POLYTOPE_DIM_CAP}, got {g.n}"
        )
    if t_perfect_by_theorem(g):
        return None
    order = vertex_order(g)
    p = build(g)
    for x in enumerate_vertices(p).vertices:  # lexicographic order: deterministic witness
        if any(c.denominator != 1 for c in x):
            tight = p.tight_inequalities(x)
            w = ImperfectionWitness(
                relaxation=relaxation,
                order=order,
                point=x,
                tight_tags=tuple((i.tag, i.source) for i in tight),
            )
            verify_witness(g, w)
            return w
    return None


def is_t_perfect(g: Graph):
    """Exact test whether the edge/odd-cycle relaxation equals the stable set
    polytope.  Returns (True, None) or (False, witness)."""
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
    """Test of the complement graph against the clique/odd-cycle relaxation.
    The witness, if any, lives in the complement."""
    return is_h_perfect(complement_graph(g))
