"""Reference two-phase simplex over a tableau of exact rationals.

Test-only.  This is the straightforward rational tableau that
``fraccore.exact_linear`` replaced with its fraction-free integer kernel;
both use Bland's rule on the same standard form, so they must return the
same result kind, value, witness and ray on every system.
"""

from __future__ import annotations

from fraccore.exact_linear import (
    Feasible,
    Infeasible,
    LinearSystem,
    Optimal,
    Unbounded,
)
from fraccore.rationals import ONE, ZERO, vec


def _pivot(rows, obj, basis, r, col):
    prow = rows[r]
    inv = ONE / prow[col]
    if inv != ONE:
        rows[r] = prow = [x * inv for x in prow]
    for i, row in enumerate(rows):
        if i != r and row[col] != ZERO:
            f = row[col]
            rows[i] = [x - f * p for x, p in zip(row, prow)]
    f = obj[col]
    if f != ZERO:
        obj[:] = [x - f * p for x, p in zip(obj, prow)]
    basis[r] = col


def _bland_loop(rows, obj, basis, ncols):
    while True:
        col = next((j for j in range(ncols) if obj[j] < ZERO), None)
        if col is None:
            return None
        best = None  # (ratio, basis var, row index)
        for i, row in enumerate(rows):
            if row[col] > ZERO:
                ratio = row[-1] / row[col]
                key = (ratio, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            return col
        _pivot(rows, obj, basis, best[1], col)


def _objective_row(rows, basis, c, ncols):
    obj = [-cj for cj in c] + [ZERO]
    for i, bi in enumerate(basis):
        cb = c[bi]
        if cb != ZERO:
            obj = [x + cb * y for x, y in zip(obj, rows[i])]
    return obj


def _solve_standard(a_rows, b, c):
    m = len(a_rows)
    n = len(c)
    rows = []
    for arow, bi in zip(a_rows, b):
        if bi < ZERO:
            rows.append([-x for x in arow] + [-bi])
        else:
            rows.append(list(arow) + [bi])
    for i, row in enumerate(rows):
        rhs = row.pop()
        row.extend(ONE if j == i else ZERO for j in range(m))
        row.append(rhs)
    basis = list(range(n, n + m))
    c1 = [ZERO] * n + [-ONE] * m
    obj = _objective_row(rows, basis, c1, n + m)
    _bland_loop(rows, obj, basis, n + m)
    if obj[-1] < ZERO:
        return ("infeasible",)
    keep = []
    for i in range(len(rows)):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j] != ZERO), None)
            if col is None:
                continue
            _pivot(rows, obj, basis, i, col)
        keep.append(i)
    rows = [rows[i] for i in keep]
    basis = [basis[i] for i in keep]
    rows = [row[:n] + [row[-1]] for row in rows]
    obj = _objective_row(rows, basis, list(c), n)
    entering = _bland_loop(rows, obj, basis, n)
    y = [ZERO] * n
    for i, bi in enumerate(basis):
        y[bi] = rows[i][-1]
    if entering is not None:
        ray = [ZERO] * n
        ray[entering] = ONE
        for i, bi in enumerate(basis):
            ray[bi] = -rows[i][entering]
        return ("unbounded", y, ray)
    return ("optimal", obj[-1], y)


def _standard_form(objective, equalities, leqs):
    nslack = len(leqs)
    a_rows = []
    b = []
    for a, rhs in equalities:
        a_rows.append(list(a) + [-x for x in a] + [ZERO] * nslack)
        b.append(rhs)
    for k, (a, rhs) in enumerate(leqs):
        srow = [ZERO] * nslack
        srow[k] = ONE
        a_rows.append(list(a) + [-x for x in a] + srow)
        b.append(rhs)
    c = list(objective) + [-x for x in objective] + [ZERO] * nslack
    return a_rows, b, c


def _recover(y, n):
    return tuple(y[j] - y[n + j] for j in range(n))


def reference_maximize(objective, sys: LinearSystem):
    objective = vec(objective)
    if sys.num_vars == 0:
        ok = all(b >= ZERO for _, b in sys.leq) and all(
            b == ZERO for _, b in sys.equalities
        )
        return Optimal(ZERO, ()) if ok else Infeasible()
    a_rows, b, c = _standard_form(objective, sys.equalities, sys.leq)
    res = _solve_standard(a_rows, b, c)
    if res[0] == "infeasible":
        return Infeasible()
    if res[0] == "unbounded":
        return Unbounded(_recover(res[1], sys.num_vars), _recover(res[2], sys.num_vars))
    return Optimal(res[1], _recover(res[2], sys.num_vars))


def reference_solve_feasibility(sys: LinearSystem):
    if not sys.lt:
        res = reference_maximize([ZERO] * sys.num_vars, sys)
        if isinstance(res, Infeasible):
            return Infeasible()
        return Feasible(res.witness)
    n = sys.num_vars
    eqs = tuple((tuple(a) + (ZERO,), b) for a, b in sys.equalities)
    leqs = [(tuple(a) + (ZERO,), b) for a, b in sys.leq]
    leqs += [(tuple(a) + (ONE,), b) for a, b in sys.lt]
    leqs.append(((ZERO,) * n + (ONE,), ONE))
    relaxed = LinearSystem(n + 1, eqs, tuple(leqs))
    res = reference_maximize([ZERO] * n + [ONE], relaxed)
    if isinstance(res, Infeasible) or res.value <= ZERO:
        return Infeasible()
    return Feasible(res.witness[:n])
