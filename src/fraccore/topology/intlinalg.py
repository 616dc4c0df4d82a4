"""Integer linear algebra for exact (co)homology computations.

Everything is read off one sparse unimodular diagonalization,
``_diagonalize``.  Rows are ``{column: entry}`` dicts with an index from
each column to its rows.  Each pivot is the least entry, in absolute value,
of the column with the fewest entries.  Row operations with floor quotients
clear its column; column operations clear its row.  A remainder that
survives becomes the next pivot, so |pivot| strictly falls, as in Euclid's
algorithm, and a unit pivot is done in one pass.  The result is U A V with
one nonzero entry per pivot row and column, U and V unimodular: U is
applied to a right-hand side as the rows are reduced, and V is kept as a
log of column operations.
"""

from __future__ import annotations

from math import gcd


def _diagonalize(matrix, rhs=None):
    """Reduce ``matrix`` to one entry per pivot row and column.

    Returns ``(pivots, b, log)``: the pivots ``(r, c, p)``, the reduced
    right-hand side ``b`` (U rhs, zeros if ``rhs`` is None) and the column
    operations ``(j, c, q)``, each meaning col j -= q * col c, in order.
    """
    rows = [{j: x for j, x in enumerate(row) if x} for row in matrix]
    b = list(rhs) if rhs is not None else [0] * len(rows)
    cols = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    pivots, log = [], []
    while cols:
        c = min(cols, key=lambda j: len(cols[j]))
        while True:
            r = min(cols[c], key=lambda i: abs(rows[i][c]))
            pivot_row, p = rows[r], rows[r][c]
            for i in cols[c] - {r}:  # row i -= q * row r
                row, q = rows[i], rows[i][c] // p
                if not q:
                    continue
                for j, x in pivot_row.items():
                    y = row.get(j, 0) - q * x
                    if y:
                        if j not in row:
                            cols[j].add(i)
                        row[j] = y
                    else:
                        del row[j]
                        cols[j].remove(i)
                b[i] -= q * b[r]
            if len(cols[c]) > 1:
                continue  # a remainder is the next pivot
            # column c holds only the pivot, so col j -= q * col c
            # changes row r alone
            for j in [j for j in pivot_row if j != c]:
                q = pivot_row[j] // p
                if not q:
                    continue
                log.append((j, c, q))
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
    return pivots, b, log


def smith_normal_form(matrix):
    """The invariant factors of an integer matrix: min(m, n) nonnegative
    integers, each dividing the next, nonzero ones first."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    pivots, _, _ = _diagonalize(matrix)
    units = [1 for _, _, p in pivots if abs(p) == 1]
    chain = [abs(p) for _, _, p in pivots if abs(p) != 1]
    # diag(a, b) and diag(gcd, lcm) are equivalent over the integers
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] * chain[j] // g
    return units + chain + [0] * (min(m, n) - len(pivots))


def solve_integer(matrix, rhs):
    """An integer solution of A x = b, or None."""
    n = len(matrix[0]) if matrix else 0
    pivots, b, log = _diagonalize(matrix, rhs)
    x = [0] * n
    for r, c, p in pivots:
        if b[r] % p:
            return None
        x[c], b[r] = b[r] // p, 0
    if any(b):
        return None
    for j, c, q in reversed(log):
        x[c] -= q * x[j]
    return x


def integer_rank(matrix) -> int:
    return len(_diagonalize(matrix)[0])
