"""``fraccore.topology.intlinalg`` against the dense Smith normal form it
replaced.

Invariant factors and ranks must equal the reference's, and ``solve_integer``
must find a solution exactly when the reference does; a solution itself may
differ, since any integer solution will do, but it must satisfy A x = b.  One
reduction, replayed on several right-hand sides, must answer each the same way.
"""

import reference_intlinalg as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from fraccore.topology.intlinalg import (
    _diagonalize,
    _solve,
    integer_rank,
    smith_normal_form,
    solve_integer,
)


def _apply(rows, x):
    return [sum(a * b for a, b in zip(row, x)) for row in rows]


@st.composite
def integer_systems(draw, sides=1):
    """Small matrices with entries up to 6 in absolute value and a drawn
    share of zeros, so that non-unit pivots and rank deficiency are common,
    with ``sides`` right-hand sides, each the image of an integer point, that
    point before the matrix was scaled (rationally but not always integrally
    solvable), a perturbed image, or random."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    zeros = draw(st.integers(0, 24))
    entry = st.sampled_from([0] * zeros + list(range(-6, 7)))
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    scale = draw(st.sampled_from([1, 1, 2, 3]))
    images = []
    for _ in range(sides):
        image = _apply(rows, [draw(st.integers(-3, 3)) for _ in range(n)])
        kind = draw(st.integers(0, 2))
        if kind == 1 and m:
            image[draw(st.integers(0, m - 1))] += draw(st.sampled_from([-2, -1, 1, 2]))
        if kind == 2:
            image = [draw(st.integers(-6, 6)) for _ in range(m)]
        images.append(image)
    return [[scale * a for a in row] for row in rows], images


@given(integer_systems())
@settings(max_examples=400, deadline=None)
def test_matches_dense_smith_normal_form(system):
    rows, (rhs,) = system
    diag, _, _ = ref.smith_normal_form(rows)
    assert smith_normal_form(rows) == diag
    assert integer_rank(rows) == ref.integer_rank(rows)
    x = solve_integer(rows, rhs)
    assert (x is None) == (ref.solve_integer(rows, rhs) is None)
    if x is not None:
        assert len(x) == (len(rows[0]) if rows else 0)
        assert _apply(rows, x) == rhs


@given(st.integers(2, 3).flatmap(integer_systems))
@settings(max_examples=200, deadline=None)
def test_one_reduction_solves_every_right_hand_side(system):
    rows, sides = system
    n = len(rows[0]) if rows else 0
    reduction = _diagonalize([{j: a for j, a in enumerate(row) if a} for row in rows])
    for rhs in sides:
        x = _solve(reduction, n, rhs)
        assert (x is None) == (ref.solve_integer(rows, rhs) is None)
        if x is not None:
            assert len(x) == n and _apply(rows, x) == rhs


def test_invariant_factors_form_a_divisibility_chain():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[4, 0, 0], [0, 6, 0]]) == [2, 12]
    assert smith_normal_form([[6, 4], [4, 6], [0, 0]]) == [2, 10]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]


def test_empty_shapes():
    assert smith_normal_form([]) == [] and integer_rank([]) == 0
    assert smith_normal_form([[], []]) == [] and integer_rank([[], []]) == 0
    assert solve_integer([], []) == []
    assert solve_integer([[], []], [0, 0]) == []
    assert solve_integer([[], []], [0, 1]) is None


def test_divisibility_decides_integer_solvability():
    assert _apply([[2, 4]], solve_integer([[2, 4]], [6])) == [6]
    assert solve_integer([[2, 4]], [3]) is None
    assert solve_integer([[1, 1], [1, -1]], [1, 0]) is None
