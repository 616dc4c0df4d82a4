"""Reference dense linear algebra by Gauss-Jordan over exact rationals.

Test-only.  This is the straightforward ``Fraction`` elimination that
``fraccore.linalg`` replaced with one fraction-free integer reduction; every
function here must return exactly what its namesake there returns.
"""

from __future__ import annotations

from fraccore.rationals import ONE, ZERO


def gaussian_solve(rows, rhs):
    """Solve M x = b exactly.

    Returns (particular_solution, pivot_count, free_columns) or None when
    inconsistent.  ``rows`` is a list of coefficient lists; all entries exact
    rationals.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    a = [list(row) + [b] for row, b in zip(rows, rhs)]
    piv_rows = []
    piv_cols = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, m) if a[i][c] != ZERO), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = ONE / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != ZERO:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_rows.append(r)
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][ncols] != ZERO:
            return None
    x = [ZERO] * ncols
    for pr, pc in zip(piv_rows, piv_cols):
        x[pc] = a[pr][ncols]
    free = [c for c in range(ncols) if c not in piv_cols]
    return tuple(x), len(piv_cols), tuple(free)


def rank(rows) -> int:
    if not rows:
        return 0
    res = gaussian_solve(rows, [ZERO] * len(rows))
    assert res is not None
    return res[1]


def det(rows):
    """Exact determinant by fraction-preserving elimination."""
    n = len(rows)
    a = [list(r) for r in rows]
    sign = ONE
    result = ONE
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != ZERO), None)
        if p is None:
            return ZERO
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        result *= a[c][c]
        inv = ONE / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != ZERO:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return sign * result


def solve_square(rows, rhs):
    """Solution of a square nonsingular system, or None if singular."""
    res = gaussian_solve(rows, rhs)
    if res is None:
        return None
    x, piv, free = res
    if free:
        return None
    return x


def nullspace(rows):
    """Basis of the solution space of M x = 0."""
    if not rows:
        return []
    ncols = len(rows[0])
    res = gaussian_solve(rows, [ZERO] * len(rows))
    assert res is not None
    _, _, free = res
    basis = []
    for f in free:
        rhs = [-row[f] for row in rows]
        sub = [[row[c] for c in range(ncols) if c != f] for row in rows]
        part = gaussian_solve(sub, rhs)
        assert part is not None
        sol = part[0]  # free columns of sub stay zero in this solution
        vec_full = tuple(
            ONE if c == f else sol[c if c < f else c - 1] for c in range(ncols)
        )
        basis.append(vec_full)
    return basis


def affine_basis(points):
    """Indices spanning the affine hull of ``points`` (first point anchors)."""
    if not points:
        return []
    anchor = points[0]
    chosen = [0]
    vectors = []
    for idx in range(1, len(points)):
        cand = [x - y for x, y in zip(points[idx], anchor)]
        if rank(vectors + [cand]) > len(vectors):
            vectors.append(cand)
            chosen.append(idx)
    return chosen

