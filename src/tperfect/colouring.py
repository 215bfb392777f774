"""Exact colouring, fractional colouring, the odd-girth reduction, and
the certifying pipeline that either colours a graph or refutes t-perfection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import CapExceededError, PreconditionError, VerificationError
from .geometry import solve_lp
from .graphio import JSONData
from .graphs import COMBINATORIAL_CAP, Graph, is_stable, label_key, odd_girth, shortest_odd_cycle
from .polytopes import (
    POLYTOPE_DIM_CAP,
    is_t_perfect,
    maximal_cliques,
    maximal_stable_sets,
    vertex_order,
)


@dataclass(frozen=True)
class Colouring(JSONData):
    """Proper vertex colouring with contiguous colour indices from 0."""

    assignment: dict
    num_colours: int

    def classes(self) -> list:
        out = [set() for _ in range(self.num_colours)]
        for v, c in self.assignment.items():
            out[c].add(v)
        return [frozenset(s) for s in out]

    def to_data(self) -> dict:
        return {
            "num_colours": self.num_colours,
            "assignment": {repr(v): c for v, c in self.assignment.items()},
        }


def verify_colouring(g: Graph, col: Colouring) -> bool:
    """Audit properness, coverage and colour-index contiguity."""
    if set(col.assignment) != set(g.vertices):
        raise VerificationError("colouring does not cover the vertex set")
    used = set(col.assignment.values())
    if used and used != set(range(col.num_colours)):
        raise VerificationError("colour indices not contiguous from 0")
    if not used and col.num_colours != 0:
        raise VerificationError("empty assignment with positive colour count")
    for u, v in g.edges():
        if col.assignment[u] == col.assignment[v]:
            raise VerificationError(
                "monochromatic edge", detail={"edge": (u, v), "colour": col.assignment[u]}
            )
    return True


@dataclass(frozen=True)
class FractionalColouring(JSONData):
    """Weighted stable sets covering every vertex with total weight >= 1."""

    weights: tuple  # tuple of (frozenset, Fraction > 0)

    @property
    def total(self) -> Fraction:
        return sum((w for _, w in self.weights), Fraction(0))

    def to_data(self) -> dict:
        return {
            "total": f"{self.total.numerator}/{self.total.denominator}",
            "sets": [
                {
                    "vertices": [repr(v) for v in sorted(s, key=label_key)],
                    "weight": f"{w.numerator}/{w.denominator}",
                }
                for s, w in self.weights
            ],
        }


def verify_fractional_colouring(g: Graph, fc: FractionalColouring) -> bool:
    for s, w in fc.weights:
        if w <= 0:
            raise VerificationError("non-positive weight in fractional colouring")
        if not all(v in g for v in s):
            raise VerificationError("fractional colouring names a missing vertex", detail={"set": s})
        if not is_stable(g, s):
            raise VerificationError("non-stable set in fractional colouring", detail={"set": s})
    for v in g.vertices:
        cover = sum((w for s, w in fc.weights if v in s), Fraction(0))
        if cover < 1:
            raise VerificationError("vertex not fractionally covered", detail={"vertex": v})
    return True


# ---------------------------------------------------------------------------
# exact chromatic number
# ---------------------------------------------------------------------------


def _greedy_clique(g: Graph) -> frozenset:
    order = sorted(g.vertices, key=lambda v: (-g.degree(v), label_key(v)))
    clique = []
    for v in order:
        if all(g.has_edge(v, u) for u in clique):
            clique.append(v)
    return frozenset(clique)


def chi_exact(g: Graph):
    """Exact chromatic number with a witness colouring.

    One DSATUR branch and bound (Brelaz, CACM 1979).  A node branches on
    the uncoloured vertex of largest saturation (the number of distinct
    colours on its coloured neighbours), then largest degree, then first
    in label order, and tries the colours 0, 1, ... that no neighbour has,
    up to one new colour.  A branch whose colour count would reach the
    best count found so far is cut, and the search ends once that count
    is the size of a greedy clique, which no colouring can beat.

    The search starts with no bound, so its first descent never
    backtracks: each vertex takes the least colour that no neighbour has,
    which lies in 0..used since only used colours are on them.  That first
    leaf is the greedy DSATUR colouring for the same vertex rule, say with
    k colours.  A search started from it as the best colouring, with bound
    k, follows the same path down to the first vertex that greedy gives
    colour k - 1; every colour below k - 1 is on a neighbour there, so it
    tries nothing and backs up.  This search, below that vertex, meets
    only counts of k, all cut once the bound is k, so it also backs up
    from there, with the same best colouring and bound, and from then on
    both take the same steps.  A leaf replaces the best only when it has
    fewer colours, so both return the first colouring of fewest colours
    in this order; ending at the clique size drops none of them.
    """
    if g.n > COMBINATORIAL_CAP:
        raise CapExceededError(f"chi_exact capped at {COMBINATORIAL_CAP} vertices")
    vertices = g.vertices
    index = {v: i for i, v in enumerate(vertices)}
    nbrs = [[index[w] for w in g.neighbours(v)] for v in vertices]
    # largest degree first, then label order: max() returns the first
    # vertex of largest saturation in it
    order = sorted(range(g.n), key=lambda i: -len(nbrs[i]))
    lb = len(_greedy_clique(g))
    colour = [None] * g.n
    # seen[i]: colour -> number of neighbours of i with it, for colours on them
    seen = [{} for _ in vertices]
    path = []
    best = (math.inf, None)

    def paint(i, c, step):
        colour[i] = c if step == 1 else None
        for j in nbrs[i]:
            count = seen[j].get(c, 0) + step
            if count:
                seen[j][c] = count
            else:
                del seen[j][c]

    def search(used):
        nonlocal best
        if len(path) == g.n:
            best = (used, {vertices[i]: colour[i] for i in path})
            return
        i = max((j for j in order if colour[j] is None), key=lambda j: len(seen[j]))
        for c in range(used + 1):
            if max(used, c + 1) >= best[0] or best[0] == lb:
                return
            if c not in seen[i]:
                path.append(i)
                paint(i, c, 1)
                search(max(used, c + 1))
                paint(i, c, -1)
                path.pop()

    search(0)
    k, assignment = best
    col = Colouring(assignment, k)
    verify_colouring(g, col)
    return k, col


def clique_number(g: Graph) -> int:
    return max(map(len, maximal_cliques(g)), default=0)


# ---------------------------------------------------------------------------
# fractional chromatic number
# ---------------------------------------------------------------------------


def chi_fractional(g: Graph):
    """Exact fractional chromatic number with an optimal fractional colouring.

    Solved in the dual form: maximize the total vertex weight subject to one
    unit-capacity row per maximal stable set.  The row prices of that program
    are the optimal stable-set weights.
    """
    if g.n > COMBINATORIAL_CAP:
        raise CapExceededError(f"chi_fractional capped at {COMBINATORIAL_CAP} vertices")
    order = vertex_order(g)
    if not order:
        return Fraction(0), FractionalColouring(())
    stables = maximal_stable_sets(g)
    a_rows = [[1 if v in s else 0 for v in order] for s in stables]
    b = [1] * len(stables)
    c = [1] * len(order)
    value, _, prices = solve_lp(a_rows, b, c)
    weights = tuple(
        (s, w) for s, w in zip(stables, prices) if w > 0
    )
    fc = FractionalColouring(weights)
    verify_fractional_colouring(g, fc)
    if fc.total != value:
        raise VerificationError("duality gap in fractional colouring")
    return value, fc


def fractional_bound_check(g: Graph, ell: int) -> bool:
    """Check the fractional bound for graphs of odd girth at least 2*ell+1:
    chi* <= 2 + 1/ell, with equality exactly when a (2*ell+1)-cycle exists.

    The t-perfection precondition is oracle-checked when the graph is within
    the polytope cap.
    """
    if ell < 1:
        raise PreconditionError("ell must be a positive integer")
    og = odd_girth(g)
    if og < 2 * ell + 1:
        raise PreconditionError(f"odd girth {og} below 2*ell+1 = {2 * ell + 1}")
    if g.n <= POLYTOPE_DIM_CAP:
        ok, _ = is_t_perfect(g)
        if not ok:
            raise PreconditionError("graph is not t-perfect")
    value, _ = chi_fractional(g)
    bound = Fraction(2) + Fraction(1, ell)
    has_tight_cycle = og == 2 * ell + 1
    return value <= bound and ((value == bound) == has_tight_cycle)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _largest_support_set(g: Graph) -> frozenset:
    """Maximum-cardinality stable set in the support of an optimal fractional
    colouring; ties broken lexicographically."""
    _, fc = chi_fractional(g)
    if not fc.weights:
        return frozenset()
    return max(
        (s for s, _ in fc.weights),
        key=lambda s: (len(s), [label_key(v) for v in sorted(s, key=label_key, reverse=True)]),
    )


def reduce_odd_girth(g: Graph, ell: int) -> frozenset:
    """A stable set whose removal raises the odd girth past 2*ell+1.

    Returns S stable with |S| >= ell*|V|/(2*ell+1) and odd girth of g - S at
    least 2*ell+3.  S is the largest support set of an optimal fractional
    colouring.  S is stable without a check here: it is a set of the
    fractional colouring of g that ``chi_fractional`` has just verified,
    every set stable.  The other two postconditions are always verified; a
    failure (possible only on inputs that are not t-perfect) raises
    VerificationError carrying a violating odd cycle.
    """
    if ell < 1:
        raise PreconditionError("ell must be a positive integer")
    if g.n == 0:
        return frozenset()
    og = odd_girth(g)
    if og < 2 * ell + 1:
        raise PreconditionError(f"odd girth {og} below 2*ell+1 = {2 * ell + 1}")
    s = _largest_support_set(g)
    if Fraction(len(s)) < Fraction(ell * g.n, 2 * ell + 1):
        raise VerificationError(
            "reduction set too small",
            detail={"set": s, "size": len(s), "required": Fraction(ell * g.n, 2 * ell + 1)},
        )
    cycle = shortest_odd_cycle(g.delete_vertices(s))
    if cycle is not None and len(cycle) < 2 * ell + 3:
        raise VerificationError(
            "odd girth did not rise", detail={"set": s, "violating_cycle": cycle}
        )
    return s


# ---------------------------------------------------------------------------
# certification pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate(JSONData):
    """Outcome of the certifying pipeline: a proper colouring, or evidence
    that the input is not t-perfect (fractional vertex or replayable trace
    ending in an odd wheel)."""

    kind: str  # "colouring" or "witness"
    colouring: Optional[Colouring] = None
    witness: object = None  # ImperfectionWitness or OddWheelWitness

    def to_data(self) -> dict:
        body = self.colouring if self.kind == "colouring" else self.witness
        return {"kind": self.kind, "certificate": body.to_data()}


# Rounds of odd-girth raising before the exact colouring of the remainder:
# the paper's four, which take odd girth 3 up to 11.
ODD_GIRTH_ROUNDS = 4


def certify(g: Graph) -> Certificate:
    """Colour g by rounds of odd-girth raising plus exact colouring of the
    remainder, or return a verified refutation of t-perfection.

    Each round extracts one stable colour class and raises the odd girth of
    the remainder by 2; the loop exits early once the remainder is bipartite.
    A failed round triggers the refutation path: a fractional relaxation
    vertex when the graph fits the polytope cap, otherwise a replayable
    sequence of deletions and contractions ending in an odd wheel.

    The colouring gives round i's class colour i and shifts the exact
    colouring of the remainder past them.  That uses every colour
    0..k - 1: each class has at least ell*n/(2*ell + 1) > 0 vertices, as
    reduce_odd_girth checks, and chi_exact colours contiguously from 0.
    """
    if g.n > COMBINATORIAL_CAP:
        raise CapExceededError(f"certify capped at {COMBINATORIAL_CAP} vertices")
    if g.n <= POLYTOPE_DIM_CAP:
        # within the polytope cap the exact oracle settles the dichotomy:
        # a refutation is emitted even when the reduction rounds would
        # happen to colour the graph anyway
        ok, w = is_t_perfect(g)
        if not ok:
            return Certificate(kind="witness", witness=w)
    remainder = g
    classes = []
    for ell in range(1, ODD_GIRTH_ROUNDS + 1):
        if remainder.n == 0 or remainder.bipartition() is not None:
            break
        try:
            s = reduce_odd_girth(remainder, ell)
        except VerificationError as failure:
            return Certificate(kind="witness", witness=_refute(g, failure))
        classes.append(s)
        remainder = remainder.delete_vertices(s)

    _, rest = chi_exact(remainder)
    assignment = {}
    for i, s in enumerate(classes):
        for v in s:
            assignment[v] = i
    offset = len(classes)
    for v, c in rest.assignment.items():
        assignment[v] = offset + c
    col = Colouring(assignment, offset + rest.num_colours)
    verify_colouring(g, col)
    return Certificate(kind="colouring", colouring=col)


def _refute(g: Graph, failure: VerificationError):
    """Turn a failed reduction into an independently checkable witness.

    Within the polytope cap ``certify`` only gets here after the oracle has
    accepted g, so a failed reduction there is an internal contradiction."""
    if g.n <= POLYTOPE_DIM_CAP:
        raise VerificationError(
            "reduction failed on a graph the polytope oracle accepts",
            detail={"reduction_failure": failure.detail},
        )
    from .tminors import find_odd_wheel_tminor

    trace = find_odd_wheel_tminor(g)
    if trace is None:
        raise VerificationError(
            "reduction failed but no witness found within budget",
            detail={"reduction_failure": failure.detail},
        )
    return trace


def hbar_colour(g: Graph) -> Colouring:
    """Colour by peeling closed neighbourhoods: the part outside N(v) is
    coloured exactly, the part inside recurses with fresh colours.  On inputs
    whose complement has an exact clique/odd-cycle relaxation this uses at
    most (w+1 choose 2) colours for clique number w."""
    if g.n > COMBINATORIAL_CAP:
        raise CapExceededError(f"hbar_colour capped at {COMBINATORIAL_CAP} vertices")
    if g.n == 0:
        return Colouring({}, 0)
    if g.m == 0:
        return Colouring({v: 0 for v in g.vertices}, 1)
    v = max(g.vertices, key=lambda u: (g.degree(u), label_key(u)))
    outside = g.delete_vertices(g.neighbours(v))
    k1, col1 = chi_exact(outside)
    inner = g.induced_subgraph(g.neighbours(v))
    col2 = hbar_colour(inner)
    assignment = dict(col1.assignment)
    for u, c in col2.assignment.items():
        assignment[u] = k1 + c
    col = Colouring(assignment, k1 + col2.num_colours)
    verify_colouring(g, col)
    return col
