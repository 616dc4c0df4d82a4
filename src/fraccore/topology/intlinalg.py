"""Integer linear algebra for exact (co)homology computations.

Everything is read off one sparse unimodular diagonalization,
``_diagonalize``.  Rows are ``{column: entry}`` dicts with an index from
each column to its rows.  Each pivot is the least entry, in absolute value,
of the column with the fewest entries.  Row operations with floor quotients
clear its column; column operations clear its row.  A remainder that
survives becomes the next pivot, so |pivot| strictly falls, as in Euclid's
algorithm, and a unit pivot is done in one pass.  The result is U A V with
one nonzero entry per pivot row and column, U and V unimodular, each kept
as a log of its operations.  So one reduction, with no right-hand side,
gives the invariant factors, the rank and, by replaying the row log on any
right-hand side (``_solve``), an integer solution.
"""

from __future__ import annotations

from math import gcd


def _diagonalize(rows):
    """Reduce the sparse rows ``{column: entry}``, in place, to one entry
    per pivot row and column.

    Returns ``(pivots, row_log, col_log)``: the pivots ``(r, c, p)`` and,
    in order, the row operations ``(i, r, q)``, row i -= q * row r, and the
    column operations ``(j, c, q)``, col j -= q * col c.
    """
    cols = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    pivots, row_log, col_log = [], [], []
    while cols:
        c = min(cols, key=lambda j: len(cols[j]))
        while True:
            r = min(cols[c], key=lambda i: abs(rows[i][c]))
            pivot_row, p = rows[r], rows[r][c]
            # |p| is the least |entry| of column c, so every q is nonzero
            for i in cols[c] - {r}:  # row i -= q * row r
                row, q = rows[i], rows[i][c] // p
                for j, x in pivot_row.items():
                    y = row.get(j, 0) - q * x
                    if y:
                        if j not in row:
                            cols[j].add(i)
                        row[j] = y
                    else:
                        del row[j]
                        cols[j].remove(i)
                row_log.append((i, r, q))
            if len(cols[c]) > 1:
                continue  # a remainder is the next pivot
            # column c holds only the pivot, so col j -= q * col c
            # changes row r alone
            for j in [j for j in pivot_row if j != c]:
                q = pivot_row[j] // p
                if not q:
                    continue
                col_log.append((j, c, q))
                y = pivot_row[j] - q * p
                if y:
                    pivot_row[j] = y
                else:
                    del pivot_row[j]
                    cols[j].remove(r)
                    if not cols[j]:
                        del cols[j]
            if len(pivot_row) == 1:
                break
            c = min((j for j in pivot_row if j != c), key=lambda j: abs(pivot_row[j]))
        pivots.append((r, c, p))
        del cols[c]
    return pivots, row_log, col_log


def _reduced(matrix):
    """``_diagonalize`` of a dense matrix's nonzero entries."""
    return _diagonalize([{j: x for j, x in enumerate(row) if x} for row in matrix])


def _invariant_factors(pivots):
    """The nonzero invariant factors off the pivots, each dividing the next."""
    units = [1 for _, _, p in pivots if abs(p) == 1]
    chain = [abs(p) for _, _, p in pivots if abs(p) != 1]
    # diag(a, b) and diag(gcd, lcm) are equivalent over the integers
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] * chain[j] // g
    return units + chain


def _solve(reduction, n, rhs):
    """An integer x of length n with A x = rhs, A the reduced matrix, or None."""
    pivots, row_log, col_log = reduction
    b = list(rhs)
    for i, r, q in row_log:
        b[i] -= q * b[r]
    x = [0] * n
    for r, c, p in pivots:
        if b[r] % p:
            return None
        x[c], b[r] = b[r] // p, 0
    if any(b):
        return None
    for j, c, q in reversed(col_log):
        x[c] -= q * x[j]
    return x


def smith_normal_form(matrix):
    """The invariant factors of an integer matrix: min(m, n) nonnegative
    integers, each dividing the next, nonzero ones first."""
    pivots, _, _ = _reduced(matrix)
    size = min(len(matrix), len(matrix[0])) if matrix else 0
    return _invariant_factors(pivots) + [0] * (size - len(pivots))


def solve_integer(matrix, rhs):
    """An integer solution of A x = b, or None."""
    return _solve(_reduced(matrix), len(matrix[0]) if matrix else 0, rhs)


def integer_rank(matrix) -> int:
    return len(_reduced(matrix)[0])
