"""Reference integer Smith normal form on dense matrices.

Test-only.  This is the dense elimination with unimodular U and V that
``fraccore.topology.intlinalg`` replaced with one sparse diagonalization;
its invariant factors, ranks and solvability verdicts must equal those of
its namesakes there.
"""

from __future__ import annotations


def smith_normal_form(matrix):
    """Diagonalize over the integers: returns (diag, U, V) with U A V
    diagonal, U and V unimodular.  ``diag`` lists the diagonal entries
    (nonnegative, divisibility chain)."""
    a = [list(row) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, c):  # row i -= c * row j
        a[i] = [x - c * y for x, y in zip(a[i], a[j])]
        u[i] = [x - c * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, c):  # col i -= c * col j
        for row in a:
            row[i] -= c * row[j]
        for row in v:
            row[i] -= c * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    k = 0
    while k < min(m, n):
        # find a nonzero pivot of least magnitude
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(k, best[0])
        swap_cols(k, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, m):
                if a[i][k] != 0:
                    q = a[i][k] // a[k][k]
                    row_op(i, k, q)
                    if a[i][k] != 0:  # remainder smaller than pivot: swap up
                        swap_rows(k, i)
                        dirty = True
            for j in range(k + 1, n):
                if a[k][j] != 0:
                    q = a[k][j] // a[k][k]
                    col_op(j, k, q)
                    if a[k][j] != 0:
                        swap_cols(k, j)
                        dirty = True
        k += 1
    # make diagonal nonnegative and enforce the divisibility chain
    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    i = 0
    while i < min(m, n) - 1:
        d1, d2 = a[i][i], a[i + 1][i + 1]
        if d1 != 0 and d2 % d1 != 0:
            # fold entry (i+1,i+1) into column i and re-reduce the 2x2 block
            col_op(i, i + 1, -1)
            # now column i has entries d1 (row i) and d2 (row i+1)
            while a[i + 1][i] != 0:
                q = a[i][i] // a[i + 1][i] if a[i + 1][i] != 0 else 0
                row_op(i, i + 1, q)
                swap_rows(i, i + 1)
            # clear the off-diagonal entry created in row i
            if a[i][i + 1] != 0:
                q = a[i][i + 1] // a[i][i]
                col_op(i + 1, i, q)
            if a[i][i] < 0:
                a[i] = [-x for x in a[i]]
                u[i] = [-x for x in u[i]]
            if a[i + 1][i + 1] < 0:
                a[i + 1] = [-x for x in a[i + 1]]
                u[i + 1] = [-x for x in u[i + 1]]
            i = max(i - 1, 0)
        else:
            i += 1
    diag = [a[i][i] for i in range(min(m, n))]
    return diag, u, v


def solve_integer(matrix, rhs):
    """An integer solution of A x = b, or None."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    diag, u, v = smith_normal_form(matrix)
    c = [sum(u[i][j] * rhs[j] for j in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(m):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            if i < n:
                y[i] = c[i] // d
    x = [sum(v[i][j] * y[j] for j in range(n)) for i in range(n)]
    return x


def integer_rank(matrix) -> int:
    diag, _, _ = smith_normal_form(matrix)
    return sum(1 for d in diag if d != 0)
