"""Exact rational linear feasibility and optimization.

Two-phase primal simplex with Bland's rule (lowest eligible index for both
entering and leaving variables), which guarantees termination.  Variables
are free unless the system declares them all nonnegative (``nonneg``): free
variables are split internally into positive and negative parts, declared
ones enter the standard form as they are, one column each and no row.
Strict inequalities are reduced to maximizing a uniform slack variable
capped at 1, so no epsilon heuristics appear anywhere.

The tableau is fraction-free: the standard form is scaled once to integers
(rows by the lcm of their denominators, the objective by its own), and
pivots use Bareiss's integer-preserving update, so every entry is an
integer over one shared denominator, the basis determinant.  The update
(``_eliminate``) and the integer scaling (``_clear_denominators``) are the
ones ``linalg`` reduces its matrices with: the package has one exact
elimination kernel.  Positive scaling changes no sign and no ratio, so the
pivots are those of the same simplex over rationals.  Rationals appear only
when reading the input and when building the returned value, witness, ray
and reduced costs.  An optimum reports each variable's reduced cost
c_B B^-1 A_j - c_j off the final objective row; where column j is the unit
vector e_i, c_j plus that cost is the optimal dual value of row i.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedSystem
from .linalg import _clear_denominators, _eliminate
from .rationals import ONE, ZERO, Q, rat, vec


@dataclass(frozen=True)
class LinearSystem:
    """A system over ``num_vars`` rational variables.

    ``equalities`` rows mean <a,x> = b, ``leq`` rows <a,x> <= b and ``lt``
    rows <a,x> < b.  The variables are free, or all >= 0 when ``nonneg``
    is true; a sign constraint declared this way costs no row.
    """

    num_vars: int
    equalities: tuple = ()
    leq: tuple = ()
    lt: tuple = ()
    nonneg: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "equalities", tuple((vec(a), rat(b)) for a, b in self.equalities)
        )
        object.__setattr__(self, "leq", tuple((vec(a), rat(b)) for a, b in self.leq))
        object.__setattr__(self, "lt", tuple((vec(a), rat(b)) for a, b in self.lt))
        if self.num_vars < 0:
            raise MalformedSystem("negative variable count")
        if type(self.nonneg) is not bool:
            raise MalformedSystem(f"nonneg must be a bool, not {self.nonneg!r}")
        for a, _ in self.equalities + self.leq + self.lt:
            if len(a) != self.num_vars:
                raise MalformedSystem(
                    f"row of length {len(a)} in a system over {self.num_vars} variables"
                )


@dataclass(frozen=True)
class Feasible:
    witness: tuple


@dataclass(frozen=True)
class Infeasible:
    pass


@dataclass(frozen=True)
class Optimal:
    """Value, vertex and each variable's reduced cost at the final basis
    (>= 0 if ``nonneg``, else 0).  At a degenerate optimum the reduced costs
    depend on the basis the pivots end in, so equality ignores them."""

    value: "Q"
    witness: tuple
    reduced_costs: tuple = field(default=(), compare=False)


@dataclass(frozen=True)
class Unbounded:
    """A feasible point plus a ray along which the objective grows."""

    witness: tuple
    ray: tuple


# ---------------------------------------------------------------------------
# simplex core: max c.y  s.t.  A y = b, y >= 0, over integers
#
# The tableau holds integers T standing for T / det, where det > 0 is the
# absolute value of the current basis determinant; by Sylvester's identity
# every division in a Bareiss pivot is exact.
# ---------------------------------------------------------------------------


def _pivot(rows, obj, basis, r, col, det):
    """Pivot on rows[r][col]; returns the new common denominator."""
    prow = rows[r]
    p = prow[col]
    support = [j for j, y in enumerate(prow) if y]
    rescale = p != det
    for i, row in enumerate(rows):
        if i != r and (rescale or row[col]):
            rows[i] = _eliminate(row, prow, support, p, col, det)
    if rescale or obj[col]:
        obj[:] = _eliminate(obj, prow, support, p, col, det)
    basis[r] = col
    if p < 0:  # only when driving out an artificial; keep det positive
        rows[:] = [[-x for x in row] for row in rows]
        obj[:] = [-x for x in obj]
        p = -p
    return p


def _bland_loop(rows, obj, basis, ncols, det):
    """Run primal simplex to optimality.  Returns (None, det), or the
    entering column index and det if the problem is unbounded in that
    direction."""
    while True:
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return None, det
        best = None  # row of least (ratio, basis var); det cancels
        for i, row in enumerate(rows):
            a = row[col]
            if a > 0:
                if best is None:
                    best, ba, brhs = i, a, row[-1]
                    continue
                lhs, rhs = row[-1] * ba, brhs * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best, ba, brhs = i, a, row[-1]
        if best is None:
            return col, det
        det = _pivot(rows, obj, basis, best, col, det)


def _objective_row(rows, basis, c, det):
    obj = [-cj * det for cj in c] + [0]
    for i, bi in enumerate(basis):
        cb = c[bi]
        if cb:
            obj = [x + cb * y for x, y in zip(obj, rows[i])]
    return obj


def _solve_standard(a_rows, b, c):
    """max c.y s.t. a_rows y = b, y >= 0, all data integers.

    Returns ("infeasible",) | ("optimal", obj, y, det) |
    ("unbounded", y, ray, det), every number an integer over det; ``obj``
    is the final objective row: the reduced costs, then the value.
    """
    m = len(a_rows)
    n = len(c)
    rows = []
    # phase 1: one artificial per row, minimize their sum
    for i, (arow, bi) in enumerate(zip(a_rows, b)):
        art = [0] * m
        art[i] = 1
        if bi < 0:
            rows.append([-x for x in arow] + art + [-bi])
        else:
            rows.append(arow + art + [bi])
    basis = list(range(n, n + m))
    obj = _objective_row(rows, basis, [0] * n + [-1] * m, 1)
    _, det = _bland_loop(rows, obj, basis, n + m, 1)  # bounded: objective <= 0
    if obj[-1] < 0:
        return ("infeasible",)
    # drive leftover artificials out of the basis; drop redundant rows
    keep = []
    for i in range(len(rows)):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j]), None)
            if col is None:
                continue  # redundant constraint
            det = _pivot(rows, obj, basis, i, col, det)
        keep.append(i)
    rows = [rows[i][:n] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    # phase 2
    obj = _objective_row(rows, basis, c, det)
    entering, det = _bland_loop(rows, obj, basis, n, det)
    y = [0] * n
    for i, bi in enumerate(basis):
        y[bi] = rows[i][-1]
    if entering is not None:
        ray = [0] * n
        ray[entering] = det
        for i, bi in enumerate(basis):
            ray[bi] = -rows[i][entering]
        return ("unbounded", y, ray, det)
    return ("optimal", obj, y, det)


# ---------------------------------------------------------------------------
# public operations over free or nonnegative variables
# ---------------------------------------------------------------------------


def _standard_form(objective, equalities, leqs, nonneg):
    """Split x into u - w unless ``nonneg``, add one slack per inequality
    and clear denominators: all rows by one common scale, the objective by
    its own.  Returns integer rows, right-hand sides, objective and the
    objective's scale."""
    rows = equalities + leqs
    width = len(objective) + 1
    flat, scale = _clear_denominators([x for a, rhs in rows for x in (*a, rhs)])
    neq = len(equalities)
    nslack = len(leqs)
    a_rows = []
    b = []
    for k in range(len(rows)):
        ints = flat[k * width : (k + 1) * width]
        b.append(ints.pop())
        srow = [0] * nslack
        if k >= neq:
            srow[k - neq] = scale
        a_rows.append(ints + srow if nonneg else ints + [-x for x in ints] + srow)
    c, cscale = _clear_denominators(objective)
    if not nonneg:
        c += [-x for x in c]
    return a_rows, b, c + [0] * nslack, cscale


def _recover(y, det, n, nonneg):
    if nonneg:
        return tuple(Q(y[j], det) for j in range(n))
    return tuple(Q(y[j] - y[n + j], det) for j in range(n))


def maximize(objective, sys: LinearSystem):
    """Exact maximum of <objective, x> over a system without strict rows."""
    objective = vec(objective)
    if len(objective) != sys.num_vars:
        raise MalformedSystem("objective length does not match variable count")
    if sys.lt:
        raise MalformedSystem("maximize does not accept strict inequalities")
    if sys.num_vars == 0:
        ok = all(b >= ZERO for _, b in sys.leq) and all(
            b == ZERO for _, b in sys.equalities
        )
        return Optimal(ZERO, ()) if ok else Infeasible()
    n, nonneg = sys.num_vars, sys.nonneg
    a_rows, b, c, cscale = _standard_form(objective, sys.equalities, sys.leq, nonneg)
    res = _solve_standard(a_rows, b, c)
    if res[0] == "infeasible":
        return Infeasible()
    if res[0] == "unbounded":
        _, y, ray, det = res
        return Unbounded(_recover(y, det, n, nonneg), _recover(ray, det, n, nonneg))
    _, obj, y, det = res
    reduced = tuple(Q(x, det * cscale) if x else ZERO for x in obj[:n])
    return Optimal(Q(obj[-1], det * cscale), _recover(y, det, n, nonneg), reduced)


def solve_feasibility(sys: LinearSystem):
    """Decide exact feasibility, strict rows included.

    With strict rows present, maximizes a uniform slack s (capped at 1) over
    <a,x> + s <= b; the system has a rational solution iff the optimum is
    positive.  A ``nonneg`` system keeps its sign constraint, which then
    holds for s too; that cuts off only points with s < 0, which decide
    nothing.
    """
    if not sys.lt:
        res = maximize([ZERO] * sys.num_vars, sys)
        if isinstance(res, Infeasible):
            return Infeasible()
        return Feasible(res.witness)
    n = sys.num_vars
    eqs = tuple((tuple(a) + (ZERO,), b) for a, b in sys.equalities)
    leqs = [(tuple(a) + (ZERO,), b) for a, b in sys.leq]
    leqs += [(tuple(a) + (ONE,), b) for a, b in sys.lt]
    leqs.append(((ZERO,) * n + (ONE,), ONE))
    relaxed = LinearSystem(n + 1, eqs, tuple(leqs), nonneg=sys.nonneg)
    res = maximize([ZERO] * n + [ONE], relaxed)
    if isinstance(res, Infeasible) or res.value <= ZERO:
        return Infeasible()
    return Feasible(res.witness[:n])
