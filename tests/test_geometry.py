import itertools
from fractions import Fraction

import pytest

from tperfect.errors import InfeasibleError, UnboundedPolytopeError
from tperfect.geometry import (
    HPolytope,
    Inequality,
    enumerate_vertices,
    point_in_hull,
    qvec,
    solve_lp,
)

F = Fraction


def box2():
    return HPolytope(
        dim=2,
        inequalities=(
            Inequality(qvec([-1, 0]), F(0)),
            Inequality(qvec([0, -1]), F(0)),
            Inequality(qvec([1, 0]), F(1)),
            Inequality(qvec([0, 1]), F(1)),
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
    half = HPolytope(dim=2, inequalities=(Inequality(qvec([-1, 0]), F(0)),))
    with pytest.raises(UnboundedPolytopeError):
        enumerate_vertices(half)


def test_lp_on_square():
    rows = [list(i.coeffs) for i in box2().inequalities]
    rhs = [i.rhs for i in box2().inequalities]
    value, point, _ = solve_lp(rows, rhs, qvec([1, 1]))
    assert value == 2 and point == (F(1), F(1))
    value, _, _ = solve_lp(rows, rhs, qvec([-1, -1]))
    assert value == 0


def test_lp_fractional_optimum():
    # max x+y subject to 2x+y <= 2, x+2y <= 2, x,y >= 0: optimum 4/3
    value, x, y = solve_lp(
        [[F(2), F(1)], [F(1), F(2)]], [F(2), F(2)], [F(1), F(1)]
    )
    assert value == F(4, 3)
    assert tuple(x) == (F(2, 3), F(2, 3))
    # duality: b.y equals the primal value
    assert sum(b * yi for b, yi in zip([F(2), F(2)], y)) == value


def test_lp_infeasible_and_unbounded():
    with pytest.raises(InfeasibleError):
        solve_lp([[F(1)], [F(-1)]], [F(-2), F(-3)], [F(1)])
    with pytest.raises(UnboundedPolytopeError):
        solve_lp([[F(-1)]], [F(0)], [F(1)])


def test_point_in_hull():
    pts = [qvec([0, 0]), qvec([1, 0]), qvec([0, 1])]
    assert point_in_hull(pts, qvec([F(1, 3), F(1, 3)]))
    assert not point_in_hull(pts, qvec([F(2, 3), F(2, 3)]))
    assert point_in_hull(pts, qvec([0, 0]))


def test_exactness_of_vertices():
    p = box2()
    for vert in enumerate_vertices(p).vertices:
        for ineq in p.inequalities:
            assert ineq.evaluate(vert) <= ineq.rhs
