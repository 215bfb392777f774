import itertools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from tperfect.errors import PreconditionError, UnboundedPolytopeError
from tperfect.geometry import (
    HPolytope,
    Inequality,
    _dd_enumerate,
    _row_to_int,
    enumerate_vertices,
    point_in_hull,
    qvec,
    rank,
    slacks,
    solve_lp,
)

from conftest import satisfies

F = Fraction


def box2():
    return HPolytope(
        dim=2,
        inequalities=(
            Inequality((-1, 0), 0),
            Inequality((0, -1), 0),
            Inequality((1, 0), 1),
            Inequality((0, 1), 1),
        ),
    )


def test_unit_square_vertices():
    v = enumerate_vertices(box2())
    assert set(v.vertices) == {
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    }


def test_vertex_enumeration_order_invariant():
    p = box2()
    for perm in itertools.permutations(p.inequalities):
        assert enumerate_vertices(HPolytope(2, tuple(perm))) == enumerate_vertices(p)


def test_unbounded_detected():
    half = HPolytope(dim=2, inequalities=(Inequality((-1, 0), 0),))
    with pytest.raises(UnboundedPolytopeError):
        enumerate_vertices(half)


def test_rows_must_be_integers():
    for row in (Inequality((F(1, 2), 0), 1), Inequality((1, 0), F(1)), Inequality((1, 0.5), 1)):
        with pytest.raises(PreconditionError, match="integers"):
            HPolytope(dim=2, inequalities=(row,))


def test_lp_on_square():
    rows = [list(i.coeffs) for i in box2().inequalities]
    rhs = [i.rhs for i in box2().inequalities]
    value, point, _ = solve_lp(rows, rhs, [1, 1])
    assert value == 2 and point == (F(1), F(1))
    value, _, _ = solve_lp(rows, rhs, [-1, -1])
    assert value == 0


def test_lp_fractional_optimum():
    # max x+y subject to 2x+y <= 2, x+2y <= 2, x,y >= 0: optimum 4/3
    value, x, y = solve_lp([[2, 1], [1, 2]], [2, 2], [1, 1])
    assert value == F(4, 3)
    assert tuple(x) == (F(2, 3), F(2, 3))
    # duality: b.y equals the primal value
    assert sum(b * yi for b, yi in zip([2, 2], y)) == value


def test_lp_negative_rhs_and_unbounded():
    with pytest.raises(PreconditionError, match="nonnegative"):
        solve_lp([[1], [-1]], [2, -3], [1])
    with pytest.raises(UnboundedPolytopeError):
        solve_lp([[-1]], [0], [1])


@st.composite
def planted_lps(draw):
    """(A, b, c) with integer entries and b >= 0, so x = 0 is feasible; zero
    entries of b leave degenerate pivots.  A last row sum(x) <= K keeps the
    optimum finite."""
    entries = st.integers(-4, 4)
    nonneg = st.integers(0, 6)
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    a = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(nonneg, min_size=m, max_size=m))
    a.append([1] * n)
    b.append(draw(nonneg))
    return a, b, draw(st.lists(entries, min_size=n, max_size=n))


def _dot(u, v):
    return sum(ui * vi for ui, vi in zip(u, v))


@given(planted_lps())
def test_lp_optimum_has_exact_certificate(lp):
    a, b, c = lp
    value, x, y = solve_lp(a, b, c)
    assert all(type(v) is Fraction for v in (value, *x, *y))
    assert len(x) == len(c) and len(y) == len(b)
    # primal feasible, dual feasible, equal objectives
    assert all(_dot(row, x) <= bi for row, bi in zip(a, b)) and min(x) >= 0
    assert min(y) >= 0 and all(_dot(col, y) >= cj for col, cj in zip(zip(*a), c))
    assert _dot(c, x) == _dot(b, y) == value
    # a new column that raises the objective and loosens every row
    with pytest.raises(UnboundedPolytopeError):
        solve_lp([row + [-abs(row[0])] for row in a], b, c + [1])


def test_point_in_hull():
    pts = [qvec([0, 0]), qvec([1, 0]), qvec([0, 1])]
    assert point_in_hull(pts, qvec([F(1, 3), F(1, 3)]))
    assert not point_in_hull(pts, qvec([F(2, 3), F(2, 3)]))
    assert point_in_hull(pts, qvec([0, 0]))
    assert not point_in_hull([], qvec([0, 0]))


_small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.integers(1, 4), st.data())
def test_point_in_hull_on_combinations_and_past_the_maximum(d, data):
    # a convex combination of the points is inside; a point beyond the
    # points' maximum along a direction u is outside, as u separates it
    vec = st.lists(_small_fractions, min_size=d, max_size=d)
    pts = data.draw(st.lists(vec, min_size=1, max_size=6))
    weights = data.draw(st.lists(st.integers(0, 5), min_size=len(pts), max_size=len(pts)))
    weights[data.draw(st.integers(0, len(pts) - 1))] += 1
    inside = [sum(w * p[i] for w, p in zip(weights, pts)) / sum(weights) for i in range(d)]
    assert point_in_hull(pts, inside)
    u = data.draw(vec.filter(any))
    top = max(_dot(u, p) for p in pts)
    step = data.draw(st.fractions(min_value=F(1, 8), max_value=2, max_denominator=8))
    # move from a point of the hull along u until u.x passes top by step
    start = data.draw(st.sampled_from(pts + [inside]))
    t = (top + step - _dot(u, start)) / _dot(u, u)
    outside = [s + t * ui for s, ui in zip(start, u)]
    assert not point_in_hull(pts, outside)


def test_exactness_of_vertices():
    p = box2()
    for vert in enumerate_vertices(p).vertices:
        assert satisfies(p, vert)


@st.composite
def boxed_systems(draw):
    """An H-polytope in dimension 1-4: the box rows -1 <= x_i <= 1 plus up to
    six rows with 0/+-1 coefficients.  A right-hand side is a half in
    [-2, 2], or the row's number of nonzeros, so that the row supports the
    box at a face and leaves degenerate vertices.  A row whose right-hand
    side is not an integer is doubled.  It may be empty."""
    d = draw(st.integers(1, 4))
    rows = []
    for i in range(d):
        for sign in (1, -1):
            rows.append(Inequality(tuple(sign if j == i else 0 for j in range(d)), 1))
    for _ in range(draw(st.integers(0, 6))):
        coeffs = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=d, max_size=d))
        # twice the right-hand side
        twice = draw(st.one_of(st.integers(-4, 4), st.just(2 * sum(map(abs, coeffs)))))
        if twice % 2:
            rows.append(Inequality(tuple(2 * c for c in coeffs), twice))
        else:
            rows.append(Inequality(tuple(coeffs), twice // 2))
    return HPolytope(dim=d, inequalities=tuple(rows))


def _solve_square(rows, rhs):
    """The unique solution of rows . x = rhs, or None when it is singular."""
    d = len(rows)
    mat = [[F(v) for v in (*r, b)] for r, b in zip(rows, rhs)]
    for col in range(d):
        piv = next((i for i in range(col, d) if mat[i][col] != 0), None)
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        for i in range(d):
            if i != col and mat[i][col] != 0:
                f = mat[i][col] / mat[col][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return tuple(mat[i][d] / mat[i][i] for i in range(d))


@given(boxed_systems())
def test_vertices_match_brute_force(p):
    # a vertex is a feasible point where some d rows are tight and
    # independent: solve every d-row subsystem and keep the feasible points
    expected = set()
    for sub in itertools.combinations(p.inequalities, p.dim):
        x = _solve_square([i.coeffs for i in sub], [i.rhs for i in sub])
        if x is not None and satisfies(p, x):
            expected.add(x)
    assert set(enumerate_vertices(p).vertices) == expected
    # each mask the double description keeps is the set of rows tight at
    # its point, with bit d + 1 + k for the k-th distinct sorted row
    int_rows = [_row_to_int(i) for i in p.inequalities]
    rows = sorted(set(int_rows))
    verts = _dd_enumerate(int_rows, p.dim)
    assert len({pt for pt, _ in verts}) == len(verts) == len(expected)
    for pt, mask in verts:
        tight = sum(1 << (p.dim + 1 + k) for k, row in enumerate(rows) if _dot(row, pt) == 0)
        assert mask == tight


def _fraction_rank(rows):
    """Rank by Gaussian elimination on Fractions."""
    mat = [[F(v) for v in r] for r in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][col] / mat[r][col]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


# coordinates on the boxed rows' faces, or anywhere with a large denominator
_coords = st.one_of(
    st.sampled_from([F(k, 2) for k in range(-4, 5)]),
    st.builds(F, st.integers(-3 * 10**7, 3 * 10**7), st.integers(1, 10**7)),
)


@given(boxed_systems(), st.data())
def test_integer_slacks_and_rank_match_fractions(p, data):
    # each row scaled by a positive integer up to 10^7, which leaves the
    # polytope as it was
    rows = []
    for ineq in p.inequalities:
        f = data.draw(st.integers(1, 10**7))
        rows.append(Inequality(tuple(c * f for c in ineq.coeffs), ineq.rhs * f))
    p = HPolytope(p.dim, tuple(rows))
    x = tuple(data.draw(st.lists(_coords, min_size=p.dim, max_size=p.dim)))
    den = lcm(*(v.denominator for v in x))
    s = slacks(p, x)
    assert all(type(v) is int for v in s)
    assert s == [den * (i.rhs - _dot(i.coeffs, x)) for i in rows]
    tight = [i.coeffs for i in rows if _dot(i.coeffs, x) == i.rhs]
    assert [i.coeffs for i, v in zip(rows, s) if v == 0] == tight
    assert rank(tight) == _fraction_rank(tight)
    subset = [i.coeffs for i in rows if data.draw(st.booleans())]
    assert rank(subset) == _fraction_rank(subset)
    # a dense integer matrix, with a row that depends on its first two
    entries = st.one_of(st.integers(-4, 4), st.integers(-3 * 10**7, 3 * 10**7))
    mat = data.draw(st.lists(st.lists(entries, min_size=p.dim, max_size=p.dim), max_size=6))
    mat += [[a + 2 * b for a, b in zip(mat[0], r)] for r in mat[1:2]]
    assert rank(mat) == _fraction_rank(mat)
