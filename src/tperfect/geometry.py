"""Exact polytope machinery: inequality systems, vertex enumeration by the
double description method, an exact simplex solver, hull membership and
matrix rank.

All arithmetic is exact.  Rows are integers: every inequality a.x <= b the
library builds (nonnegativity, edge, clique and odd-circuit rows) has 0/+-1
coefficients and an integer right-hand side, and ``HPolytope`` refuses any
other entry.  Points are ``Fraction``s; internally they are stored in
homogeneous integer coordinates (den, x_1*den, ..., x_d*den).  The double
description tests adjacency combinatorially, by intersecting per-row bitsets
of tight vertices (Fukuda & Prodon, "Double description method revisited",
1996): vertices keep stable ids, the bitsets are updated in place as rows go
in, and the intersection for a set of shared rows is computed once per row
insertion.  The vertices go out as ``Fraction``s, each converted once after
an integer sort, and ``slacks`` evaluates a point against every row in
integers.  The simplex takes integer data with b >= 0, so it needs one phase
only, from the slack basis; it pivots on an integer tableau over one common
denominator (fraction-free pivoting, Edmonds 1967 / Bareiss 1968), and
``rank`` eliminates fraction-free too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import PreconditionError, UnboundedPolytopeError


def qvec(values) -> tuple:
    """The values as a tuple of ``Fraction``s: a point."""
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class Inequality:
    """coeffs . x <= rhs, integer coefficients and right-hand side, with a
    provenance tag citing the generating set."""

    coeffs: tuple
    rhs: int
    tag: str = ""
    source: tuple = ()


@dataclass(frozen=True)
class HPolytope:
    dim: int
    inequalities: tuple

    def __post_init__(self):
        for ineq in self.inequalities:
            if len(ineq.coeffs) != self.dim:
                raise PreconditionError("inequality dimension mismatch")
            if type(ineq.rhs) is not int or any(type(c) is not int for c in ineq.coeffs):
                raise PreconditionError("inequality entries must be integers")


@dataclass(frozen=True)
class VRep:
    """Deduplicated, lexicographically sorted vertex list."""

    vertices: tuple


# ---------------------------------------------------------------------------
# homogeneous integer helpers
# ---------------------------------------------------------------------------


def _row_to_int(ineq: Inequality):
    """(b - a.x >= 0) as a gcd-reduced integer vector (b, -a1, ..., -ad)."""
    row = (ineq.rhs, *(-c for c in ineq.coeffs))
    g = gcd(*row)
    return tuple(v // g for v in row) if g > 1 else row


def _normalize_point(vec):
    """gcd-reduce a homogeneous point; leading coordinate kept positive."""
    g = gcd(*vec)
    return tuple(v // g for v in vec) if g > 1 else vec


def _dd_enumerate(int_rows, dim):
    """Double description on integer rows (b, -a) meaning a.x <= b.

    Starts from a simplex strictly containing [-1, 1]^dim; returns the list of
    (homogeneous point, tight row mask) pairs, the artificial rows' mask bits
    first.  Raises if the feasible set touches the artificial simplex, which
    signals unboundedness or an out-of-box input.

    Inserting a row that cuts the polytope keeps the vertices on its feasible
    side and adds, for each edge from a vertex i strictly inside to a vertex
    j strictly outside, the point where the edge crosses the row.  Vertices
    i and j span an edge iff at least dim - 1 rows are tight on both and no
    third vertex is tight on all of those rows (the combinatorial test).

    Every vertex keeps the id it was created with; ``pts`` and ``masks`` are
    indexed by id, and ``order`` lists the current ids: the kept vertices
    strictly inside, then those on the row, then the new points in the order
    they were found.  ``tight[low]`` is the bitset of the ids tight on the
    row whose mask bit is ``low``.  It is updated in place, never rebuilt: a
    new point marks its own rows, a vertex on the inserted row gains that
    row, and the ids of removed vertices are left in, because every test
    intersects with ``alive``, the bitset of the current ids.  So ``pts``,
    ``masks`` and the width of every bitset grow with the number of vertices
    ever created, not with the current count.  On the 16-vertex Moebius
    ladder, at POLYTOPE_DIM_CAP, that is about 10 600 ids against 1154
    vertices at the end, a few hundred kilobytes of bitsets; a higher cap
    should revisit it.

    Within one row insertion the adjacency test needs, for common =
    mask_i & mask_j, the meet: the current vertices tight on every row of
    common, that is alive & tight[r] over the rows r of common.  While the
    pairs of that insertion are tested, ``alive`` is fixed and so is
    ``tight`` on every earlier row: the new points are added only after
    the last pair, and the vertices on the inserted row change only its own
    bitset, which no common holds, since i and j are strictly off the row.
    So the meet is a function of common alone, and it is computed once per
    distinct common.  Both i and j are tight on every row of common, so the
    meet contains them, and the pair is an edge iff the meet is exactly
    {i, j}.

    Before a new common is intersected, it is tested against the blockers
    of i: for each meet of i with an earlier j' that was not an edge, its
    least id other than i and j'.  A blocker k is a current vertex, and if
    k is not j and its mask holds every row of common, then k lies in the
    meet, which is then not {i, j}: the pair is no edge, and 0 is cached
    for common, as the meet would have been.  This costs one AND per
    blocker, newest first; on these degenerate polytopes, where a vertex
    is tight on many more than dim rows, it skips most meets of non-edges
    (on W13's ``tstab``, 4685 meets are computed instead of 49 472).  It
    changes no pair's outcome, so ids, masks and the output stay the same.
    """
    d = dim
    # artificial rows: x_i >= -2 and sum x <= 2d + 1
    art_rows = [tuple((2 if j == 0 else (1 if j == i + 1 else 0)) for j in range(d + 1)) for i in range(d)]
    art_rows.append(tuple([2 * d + 1] + [-1] * d))
    n_art = len(art_rows)

    pts, masks, tight = [], [], {}

    def add(point, mask):
        """Give a new vertex the next id and mark it on its tight rows."""
        t = len(pts)
        pts.append(point)
        masks.append(mask)
        while mask:
            low = mask & -mask
            tight[low] = tight.get(low, 0) | (1 << t)
            mask ^= low
        return t

    base = [-2] * d
    order = [add(tuple([1] + base), sum(1 << i for i in range(d)))]
    for j in range(d):
        coords = list(base)
        coords[j] = 4 * d - 1
        mask = sum(1 << i for i in range(d) if i != j) | (1 << d)
        order.append(add(tuple([1] + coords), mask))

    rows = sorted(set(int_rows))
    for k, row in enumerate(rows):
        bit = 1 << (n_art + k)
        # the rows are sparse: evaluate over the nonzero columns only
        nz = [(c, r) for c, r in enumerate(row) if r]
        val = {}
        pos, zer, neg = [], [], []
        for t in order:
            pt = pts[t]
            v = sum(r * pt[c] for c, r in nz)
            val[t] = v
            if v > 0:
                pos.append(t)
            elif v:
                neg.append(t)
            else:
                zer.append(t)
        on_row = 0
        for t in zer:
            masks[t] |= bit
            on_row |= 1 << t
        tight[bit] = on_row
        if not neg:
            continue
        alive = sum(1 << t for t in order)
        meets = {}
        new_points = {}
        for i in pos:
            mi = masks[i]
            blockers = []
            for j in neg:
                common = mi & masks[j]
                if common.bit_count() < d - 1:
                    continue
                pair = (1 << i) | (1 << j)
                meet = meets.get(common)
                if meet is None:
                    for k, mk in reversed(blockers):
                        if mk & common == common and k != j:
                            meet = meets[common] = 0
                            break
                    else:
                        meet, rest = alive, common
                        while rest:
                            low = rest & -rest
                            meet &= tight[low]
                            rest ^= low
                        if meet != pair:
                            third = meet ^ pair
                            k = (third & -third).bit_length() - 1
                            blockers.append((k, masks[k]))
                            # only a two-id meet can be some pair's edge
                            meet = 0
                        meets[common] = meet
                if meet != pair:
                    continue
                pi, pj = pts[i], pts[j]
                si, sj = val[i], val[j]
                w = _normalize_point(tuple(si * b - sj * a for a, b in zip(pi, pj)))
                new_points[w] = new_points.get(w, 0) | common | bit
        order = pos + zer + [add(w, m) for w, m in new_points.items()]
        if not order:
            return []

    art_mask = (1 << n_art) - 1
    for t in order:
        if masks[t] & art_mask:
            raise UnboundedPolytopeError(
                "input system is unbounded or escapes the bounding box; a ray survives"
            )
    return [(pts[t], masks[t]) for t in order]


def enumerate_vertices(p: HPolytope) -> VRep:
    """Exact vertex set of a bounded H-polytope inside [-1,1]^dim.

    Output is canonical (lexicographically sorted) and independent of the
    order in which inequalities are listed.  The double description's
    points are distinct, and are sorted in integers: each coordinate is
    scaled to the lcm of the leading coordinates, which are positive.  Only
    then does each become a tuple of ``Fraction``s.
    """
    int_rows = [_row_to_int(ineq) for ineq in p.inequalities]
    points = [pt for pt, _ in _dd_enumerate(int_rows, p.dim)]
    top = lcm(*(pt[0] for pt in points))
    points.sort(key=lambda pt: tuple(v * (top // pt[0]) for v in pt[1:]))
    return VRep(tuple(tuple(Fraction(v, pt[0]) for v in pt[1:]) for pt in points))


def slacks(p: HPolytope, x) -> list:
    """dx * (rhs - a.x) for each row a.x <= rhs of p, in p's row order, as
    integers: dx > 0 is the lcm of the denominators of x.  So a slack is
    negative exactly where x violates its row, and 0 exactly where the row
    is tight."""
    dx = lcm(*(v.denominator for v in x))
    hx = [v.numerator * (dx // v.denominator) for v in x]
    return [
        ineq.rhs * dx - sum(c * v for c, v in zip(ineq.coeffs, hx) if c)
        for ineq in p.inequalities
    ]


# ---------------------------------------------------------------------------
# exact simplex
# ---------------------------------------------------------------------------


_RHS = -1  # key of the right-hand side in a sparse simplex row


def solve_lp(a_rows, b, c):
    """max c.x subject to a_rows . x <= b, x >= 0, for integer a_rows, b and
    c with b >= 0.

    Returns (value, x, y) as ``Fraction``s, y the dual prices of the rows.
    As b >= 0, the slack basis is feasible, and Bland's rule (lowest index)
    runs from it in one phase.  Raises PreconditionError on a negative b and
    UnboundedPolytopeError when the objective is unbounded above.

    The pivots are fraction-free (Edmonds 1967, Bareiss 1968): the tableau
    holds integers over one shared denominator d, the last pivot, which the
    ratio test takes positive, so d stays positive.
    """
    if any(v < 0 for v in b):
        raise PreconditionError("solve_lp needs a nonnegative right-hand side")
    m, n = len(a_rows), len(c)
    # tableau columns: n structural + m slack; rows are sparse, {column:
    # nonzero entry}, the right-hand side under _RHS
    rows = []
    for i, row in enumerate(a_rows):
        row = {j: v for j, v in enumerate(row) if v}
        row[n + i] = 1
        if b[i]:
            row[_RHS] = b[i]
        rows.append(row)
    basis = [n + i for i in range(m)]
    # the actual tableau is rows / d and z / d; every basic column holds d
    # in its own row.  z holds the reduced costs and, under _RHS, the
    # negated objective value; the slack basis costs nothing.
    d = 1
    z = {j: v for j, v in enumerate(c) if v}
    while True:
        enter = min((j for j, v in z.items() if v > 0 and j != _RHS), default=-1)
        if enter < 0:
            break
        leave = -1
        for i, row in enumerate(rows):
            if row.get(enter, 0) > 0:
                if leave < 0:
                    leave = i
                    continue
                # rhs/row[enter] against the best ratio so far
                lhs = row.get(_RHS, 0) * rows[leave][enter]
                rhs = rows[leave].get(_RHS, 0) * row[enter]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise UnboundedPolytopeError("linear program is unbounded")
        # T[i][j] <- (p*T[i][j] - T[i][enter]*T[leave][j]) / d, exact by
        # Sylvester's identity; then d <- p
        prow = rows[leave]
        p = prow[enter]
        for i, row in enumerate(rows):
            if i != leave:
                rows[i] = _bareiss_row(row, prow, enter, p, d)
        z = _bareiss_row(z, prow, enter, p, d)
        d = p
        basis[leave] = enter
    value = Fraction(-z.get(_RHS, 0), d)
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = Fraction(rows[i].get(_RHS, 0), d)
    y = tuple(Fraction(-z.get(n + i, 0), d) for i in range(m))
    return value, tuple(x), y


def _bareiss_row(row, prow, col, p, d):
    """One sparse row of a fraction-free pivot on prow[col] = p over the
    denominator d.  Entries outside the pivot row's support only scale by
    p/d, and exactly so."""
    f = row.get(col)
    if not f:
        return row if p == d else {j: v * p // d for j, v in row.items()}
    new = {j: v * p // d for j, v in row.items() if j not in prow}
    for j, w in prow.items():
        v = (row.get(j, 0) * p - f * w) // d
        if v:
            new[j] = v
    return new


def point_in_hull(points, x) -> bool:
    """Exact membership of x in conv(points), by the separation LP: maximize
    a.x - beta over -1 <= a <= 1 subject to a.p <= beta for each point p.
    x is in the hull iff the optimum is 0; a positive optimum gives an a
    that separates it.

    In the variable g = a.x - beta a row reads a.(p - x) + g <= 0, scaled to
    integers by the lcm of the denominators of p - x.  a = a+ - a- with
    0 <= a+, a- <= 1, and g >= 0 loses nothing, as a = 0, g = 0 is feasible.
    Every right-hand side is 0 or 1."""
    pts = [qvec(p) for p in points]
    x = qvec(x)
    if not pts:
        return False
    d = len(x)
    a_rows = []
    for p in pts:
        q = [v - xv for v, xv in zip(p, x)]
        den = lcm(*(v.denominator for v in q))
        q = [v.numerator * (den // v.denominator) for v in q]
        a_rows.append(q + [-v for v in q] + [den])
    a_rows += [[int(j == i) for j in range(2 * d + 1)] for i in range(2 * d)]
    b = [0] * len(pts) + [1] * (2 * d)
    return solve_lp(a_rows, b, [0] * (2 * d) + [1])[0] == 0


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def rank(rows) -> int:
    """Rank of an integer matrix, by fraction-free elimination (Bareiss
    1968): every later entry is a minor of the matrix, and the division by
    the previous pivot is exact by Sylvester's identity."""
    mat = [list(row) for row in rows]
    r, prev = 0, 1
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pr = mat[r]
        p = pr[col]
        for i in range(r + 1, len(mat)):
            row = mat[i]
            f = row[col]
            mat[i] = [(p * v - f * w) // prev for v, w in zip(row, pr)]
        prev = p
        r += 1
        if r == len(mat):
            break
    return r
