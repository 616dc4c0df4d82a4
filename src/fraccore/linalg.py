"""Dense exact linear algebra on one fraction-free reduction (tiny systems).

Every function reads its answer off ``_reduce``: Gauss-Jordan elimination
of integer rows with Bareiss's integer-preserving step (E. H. Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968).  ``exact_linear`` pivots its simplex
tableau with the same step and ``topology.degree`` reads its ray crossings
and firm coordinates off ``_reduce``, so the package has one kernel.
Each row is scaled to integers once, every division in a step is exact, and
rationals appear only in the returned values.
"""

from __future__ import annotations

from math import lcm

from .rationals import ONE, ZERO, Q


def _eliminate(row, prow, support, p, col, det):
    """Row ``row`` after a Bareiss pivot on ``prow[col] == p``.

    Off the pivot row's ``support`` (its nonzero columns) an entry x only
    rescales to x * p / det."""
    f = row[col]
    new = row[:] if p == det else [x * p // det if x else 0 for x in row]
    if f:
        for j in support:
            new[j] = (row[j] * p - f * prow[j]) // det
    return new


def _clear_denominators(values):
    """Integers and the positive scale (lcm of the denominators) such that
    values[i] == integers[i] / scale."""
    ratios = [x.as_integer_ratio() for x in values]
    scale = lcm(*[d for _, d in ratios])
    if scale == 1:
        return [n for n, _ in ratios], 1
    return [n * (scale // d) for n, d in ratios], scale


def _reduce(rows, width):
    """Fraction-free Gauss-Jordan reduction on the first ``width`` columns.

    Returns (a, pivots, det, scale).  ``a`` holds the rows scaled to
    integers, reduced and swapped so that row i pivots on column pivots[i];
    a column is a pivot exactly when it is independent of the columns
    before it.  After the last pivot every pivot entry equals the
    determinant of the pivot minor of the scaled rows; ``det`` is that
    value with the sign of the row swaps applied, and ``scale`` is the
    product of the row scales.
    """
    a, scale = [], 1
    for row in rows:
        ints, s = _clear_denominators(row)
        a.append(ints)
        scale *= s
    pivots, sign, det = [], 1, 1
    for col in range(width):
        r = len(pivots)
        if r == len(a):
            break
        i = next((i for i in range(r, len(a)) if a[i][col]), None)
        if i is None:
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
            sign = -sign
        prow = a[r]
        p = prow[col]
        support = [j for j, y in enumerate(prow) if y]
        for i, row in enumerate(a):
            if i != r and (p != det or row[col]):
                a[i] = _eliminate(row, prow, support, p, col, det)
        det = p
        pivots.append(col)
    return a, pivots, sign * det, scale


def gaussian_solve(rows, rhs):
    """Solve M x = b exactly.

    Returns (particular_solution, pivot_count, free_columns) or None when
    inconsistent; free columns are zero in the solution.  ``rows`` is a
    list of coefficient lists; all entries exact rationals.
    """
    ncols = len(rows[0]) if rows else 0
    a, pivots, _, _ = _reduce([[*row, b] for row, b in zip(rows, rhs)], ncols)
    if any(row[-1] for row in a[len(pivots) :]):
        return None
    x = [ZERO] * ncols
    for row, c in zip(a, pivots):
        x[c] = Q(row[-1], row[c])
    free = tuple(c for c in range(ncols) if c not in pivots)
    return tuple(x), len(pivots), free


def rank(rows) -> int:
    return len(_reduce(rows, len(rows[0]))[1]) if rows else 0


def det(rows):
    """Exact determinant of a square matrix."""
    _, pivots, d, scale = _reduce(rows, len(rows))
    return Q(d, scale) if len(pivots) == len(rows) else ZERO


def solve_square(rows, rhs):
    """Solution of a square nonsingular system, or None if singular."""
    res = gaussian_solve(rows, rhs)
    if res is None or res[2]:
        return None
    return res[0]


def nullspace(rows):
    """Basis of the solution space of M x = 0, one vector per free column
    (1 there, 0 on the other free columns)."""
    if not rows:
        return []
    ncols = len(rows[0])
    a, pivots, _, _ = _reduce(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for row, c in zip(a, pivots):
            v[c] = Q(-row[f], row[c])
        basis.append(tuple(v))
    return basis


def affine_basis(points):
    """Indices spanning the affine hull of ``points`` (first point anchors).

    Greedy in index order: a point is chosen when it leaves the affine hull
    of the points before it, which is when its column (p, 1) is independent
    of theirs, so the chosen indices are the pivot columns of those columns.
    """
    if not points:
        return []
    return _reduce([(1,) * len(points), *zip(*points)], len(points))[1]
