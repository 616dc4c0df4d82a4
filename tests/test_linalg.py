"""``fraccore.linalg`` against the rational Gauss-Jordan it replaced.

Every public function must return exactly what ``reference_linalg`` returns:
the same values, of the same types, in the same order (compared by repr).
"""

import reference_linalg as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from fraccore import exact_linear, linalg
from fraccore.linalg import (
    _reduce,
    affine_basis,
    det,
    gaussian_solve,
    nullspace,
    rank,
    solve_square,
)
from fraccore.rationals import Q

# zero-heavy entries: integers of both signs and non-integers
entries = st.one_of(
    st.just(Q(0)),
    st.integers(-4, 4).map(Q),
    st.builds(Q, st.integers(-9, 9), st.integers(1, 6)),
)


def _combine(draw, rows):
    """Replace some rows by rational combinations of the others, so that
    rank deficiency is common and not left to chance."""
    rows = [list(r) for r in rows]
    for i in range(len(rows)):
        if len(rows) > 1 and draw(st.integers(0, 3)) == 0:
            j, k = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            a, b = draw(entries), draw(entries)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


@st.composite
def matrices(draw, square=False, min_rows=0):
    m = draw(st.integers(min_rows, 5))
    n = m if square else draw(st.integers(0, 5))
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        rows = _combine(draw, rows)
    if draw(st.integers(0, 9)) == 0:
        rows = [[Q(0)] * n for _ in range(m)]
    return rows


@st.composite
def systems(draw, square=False):
    rows = draw(matrices(square=square))
    n = len(rows[0]) if rows else 0
    if draw(st.booleans()):
        x = [draw(entries) for _ in range(n)]  # consistent right-hand side
        rhs = [sum((a * b for a, b in zip(row, x)), Q(0)) for row in rows]
    else:
        rhs = [draw(entries) for _ in rows]
    return rows, rhs


@st.composite
def point_lists(draw):
    dim = draw(st.integers(0, 4))
    pool = [tuple(draw(entries) for _ in range(dim)) for _ in range(draw(st.integers(1, 4)))]
    count = draw(st.integers(0, 7))
    points = []
    for _ in range(count):
        if points and draw(st.booleans()):
            # an affine combination of earlier points (or a repeat)
            p, q = draw(st.sampled_from(points)), draw(st.sampled_from(points))
            t = draw(entries)
            points.append(tuple(a + t * (b - a) for a, b in zip(p, q)))
        else:
            points.append(draw(st.sampled_from(pool)))
    return points


def same(got, want):
    assert repr(got) == repr(want)


@given(systems())
@settings(max_examples=300, deadline=None)
def test_gaussian_solve_matches_reference(system):
    rows, rhs = system
    same(gaussian_solve(rows, rhs), ref.gaussian_solve(rows, rhs))


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_rank_matches_reference(rows):
    same(rank(rows), ref.rank(rows))


@given(matrices(square=True))
@settings(max_examples=300, deadline=None)
def test_det_matches_reference(rows):
    same(det(rows), ref.det(rows))


@given(systems(square=True))
@settings(max_examples=300, deadline=None)
def test_solve_square_matches_reference(system):
    rows, rhs = system
    same(solve_square(rows, rhs), ref.solve_square(rows, rhs))


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_nullspace_matches_reference(rows):
    same(nullspace(rows), ref.nullspace(rows))


@given(point_lists())
@settings(max_examples=300, deadline=None)
def test_affine_basis_matches_reference(points):
    same(affine_basis(points), ref.affine_basis(points))


@given(matrices(min_rows=1))
@settings(max_examples=300, deadline=None)
def test_reduce_invariants(rows):
    # reduced echelon form over integers: all pivot entries share one value,
    # equal up to the swap sign to the returned determinant, and each is the
    # only nonzero entry of its column; rows past the rank are zero
    width = len(rows[0])
    a, pivots, d, _ = _reduce(rows, width)
    assert pivots == sorted(pivots)
    assert all(a[i][c] == a[0][pivots[0]] for i, c in enumerate(pivots))
    for i, c in enumerate(pivots):
        assert abs(a[i][c]) == abs(d)
        assert all(a[k][c] == 0 for k in range(len(a)) if k != i)
    assert all(not any(row) for row in a[len(pivots) :])


def test_edge_cases():
    for rows, rhs in [
        ([], []),
        ([[]], [Q(0)]),
        ([[]], [Q(1)]),
        ([[Q(0)]], [Q(0)]),
        ([[Q(0)]], [Q(3)]),
        ([[Q(-3, 2)]], [Q(5, 7)]),
        ([[Q(4)]], [Q(0)]),
    ]:
        same(gaussian_solve(rows, rhs), ref.gaussian_solve(rows, rhs))
        same(rank(rows), ref.rank(rows))
        same(nullspace(rows), ref.nullspace(rows))
        if len(rows) == len(rows[0] if rows else []):
            same(det(rows), ref.det(rows))
            same(solve_square(rows, rhs), ref.solve_square(rows, rhs))
    for points in [[], [()], [(), ()], [(Q(1),)], [(Q(1),), (Q(1),), (Q(-1, 3),)]]:
        same(affine_basis(points), ref.affine_basis(points))


def test_row_swaps_and_negative_pivots_set_the_sign():
    swap = [[Q(0), Q(1)], [Q(1), Q(0)]]
    cycle = [[Q(0), Q(1), Q(0)], [Q(0), Q(0), Q(1)], [Q(1), Q(0), Q(0)]]
    negative = [[Q(-2), Q(1, 3)], [Q(5), Q(-1, 2)]]
    for rows, want in [(swap, Q(-1)), (cycle, Q(1)), (negative, Q(-2, 3))]:
        assert det(rows) == want
        same(det(rows), ref.det(rows))


def test_one_elimination_step():
    # the simplex and linalg share one Bareiss step and one integer scaling
    assert exact_linear._eliminate is linalg._eliminate
    assert exact_linear._clear_denominators is linalg._clear_denominators
