import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_simplex import explicit_rows, reference_maximize, reference_solve_feasibility

from fraccore import exact_linear
from fraccore.errors import MalformedSystem
from fraccore.exact_linear import (
    Feasible,
    Infeasible,
    LinearSystem,
    Optimal,
    Unbounded,
    maximize,
    solve_feasibility,
)
from fraccore.rationals import Q, dot, rat


def test_forced_point():
    # x >= 0 and x <= 0 pin x = 0
    sys = LinearSystem(1, leq=[((-1,), 0), ((1,), 0)])
    res = solve_feasibility(sys)
    assert isinstance(res, Feasible)
    assert res.witness == (Q(0),)


def test_strict_contradiction():
    # x >= 0, x < 0
    sys = LinearSystem(1, leq=[((-1,), 0)], lt=[((1,), 0)])
    assert isinstance(solve_feasibility(sys), Infeasible)


def test_symmetric_convex_combination():
    # l1 + l2 = 1, l1*e1 + l2*e2 = (1/2, 1/2), l >= 0
    sys = LinearSystem(
        2,
        equalities=[((1, 1), 1), ((1, 0), "1/2"), ((0, 1), "1/2")],
        leq=[((-1, 0), 0), ((0, -1), 0)],
    )
    res = solve_feasibility(sys)
    assert isinstance(res, Feasible)
    assert res.witness == (Q(1, 2), Q(1, 2))


def test_strict_feasible_open_interval():
    # 0 < x < 1
    sys = LinearSystem(1, lt=[((1,), 1), ((-1,), 0)])
    res = solve_feasibility(sys)
    assert isinstance(res, Feasible)
    x = res.witness[0]
    assert Q(0) < x < Q(1)


def test_maximize_bounded():
    sys = LinearSystem(1, leq=[((1,), 5)])
    res = maximize((1,), sys)
    assert res == Optimal(Q(5), (Q(5),))


def test_maximize_unbounded():
    sys = LinearSystem(1, leq=[((-1,), 0)])
    res = maximize((1,), sys)
    assert isinstance(res, Unbounded)
    assert res.ray[0] > 0
    assert -res.witness[0] <= 0


def test_maximize_infeasible():
    sys = LinearSystem(1, leq=[((1,), -1), ((-1,), 0)])
    assert isinstance(maximize((1,), sys), Infeasible)


def test_balancing_family_lp():
    # weights of the family {{1},{2,3}} in a 3-player balancing system are
    # forced to (1,1); objective uses the worked loss values (-10, -32),
    # so the optimum is -42 (hand solve: each player column pins a weight).
    sys = LinearSystem(
        2,
        equalities=[((1, 0), 1), ((0, 1), 1), ((0, 1), 1)],
        leq=[((-1, 0), 0), ((0, -1), 0)],
    )
    res = maximize((-10, -32), sys)
    assert isinstance(res, Optimal)
    assert res.witness == (Q(1), Q(1))
    assert res.value == Q(-42)


def test_malformed():
    with pytest.raises(MalformedSystem):
        LinearSystem(2, leq=[((1,), 0)])
    with pytest.raises(MalformedSystem):
        maximize((1,), LinearSystem(1, lt=[((1,), 1)]))
    with pytest.raises(MalformedSystem):
        maximize((1, 2), LinearSystem(1))
    with pytest.raises(MalformedSystem):
        LinearSystem(-1)


def _check_feasible(sys, witness):
    for a, b in sys.equalities:
        assert dot(a, witness) == b
    for a, b in sys.leq:
        assert dot(a, witness) <= b
    for a, b in sys.lt:
        assert dot(a, witness) < b


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).map(rat)


@given(
    st.lists(
        st.tuples(st.lists(rationals, min_size=2, max_size=2), rationals),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_feasible_witnesses_satisfy_exactly(rows):
    sys = LinearSystem(2, leq=tuple(rows))
    res = solve_feasibility(sys)
    if isinstance(res, Feasible):
        _check_feasible(sys, res.witness)


def _random_bounded_lp(rng):
    """Random LP with box constraints so it is feasible and bounded."""
    n = rng.randint(1, 3)
    m = rng.randint(1, 4)
    leq = []
    for _ in range(m):
        a = [rat(rng.randint(-3, 3)) for _ in range(n)]
        leq.append((tuple(a), rat(rng.randint(0, 6))))
    for j in range(n):
        e = [rat(0)] * n
        e[j] = rat(1)
        leq.append((tuple(e), rat(rng.randint(1, 5))))
        e2 = [rat(0)] * n
        e2[j] = rat(-1)
        leq.append((tuple(e2), rat(rng.randint(1, 5))))
    c = [rat(rng.randint(-4, 4)) for _ in range(n)]
    return c, LinearSystem(n, leq=tuple(leq))


def test_duality_spot_check():
    # strong duality: max{cx : Ax <= b} == min{by : A^T y = c, y >= 0},
    # with the dual solved as max of the negated objective.
    rng = random.Random(20240811)
    for _ in range(40):
        c, sys = _random_bounded_lp(rng)
        primal = maximize(c, sys)
        assert isinstance(primal, Optimal)
        rows = [a for a, _ in sys.leq]
        rhs = [b for _, b in sys.leq]
        m = len(rows)
        eqs = []
        for j in range(sys.num_vars):
            eqs.append((tuple(rows[i][j] for i in range(m)), c[j]))
        nonneg = []
        for i in range(m):
            e = [rat(0)] * m
            e[i] = rat(-1)
            nonneg.append((tuple(e), rat(0)))
        dual_sys = LinearSystem(m, equalities=tuple(eqs), leq=tuple(nonneg))
        dual = maximize([-b for b in rhs], dual_sys)
        assert isinstance(dual, Optimal)
        assert -dual.value == primal.value


def test_determinism():
    rng = random.Random(7)
    for _ in range(10):
        c, sys = _random_bounded_lp(rng)
        r1 = maximize(c, sys)
        r2 = maximize(c, sys)
        assert r1 == r2


def test_against_scipy():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(99)
    for _ in range(25):
        c, sys = _random_bounded_lp(rng)
        res = maximize(c, sys)
        assert isinstance(res, Optimal)
        a_ub = [[float(x) for x in a] for a, _ in sys.leq]
        b_ub = [float(b) for _, b in sys.leq]
        ref = scipy_opt.linprog(
            [-float(x) for x in c], A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * sys.num_vars
        )
        assert ref.status == 0
        assert abs(float(res.value) + ref.fun) < 1e-7


# ---------------------------------------------------------------------------
# the integer kernel against the rational reference tableau
# ---------------------------------------------------------------------------


def _scalars(res):
    if isinstance(res, Optimal):
        return (res.value, *res.witness)
    if isinstance(res, Unbounded):
        return (*res.witness, *res.ray)
    if isinstance(res, Feasible):
        return res.witness
    return ()


def _assert_same(res, ref):
    assert type(res) is type(ref)
    assert res == ref
    assert all(type(x) is Q for x in _scalars(res))


# small integers and zero right-hand sides make degenerate vertices, where
# the tie-breaks of Bland's rule decide which vertex is returned
coefficients = st.one_of(st.integers(min_value=-2, max_value=2).map(rat), rationals)
right_hand_sides = st.one_of(st.just(rat(0)), coefficients)


@st.composite
def random_systems(draw, min_vars=1):
    """Systems with non-integer coefficients, right-hand sides of either
    sign, possibly duplicated equality rows and strict rows, plus an
    objective (often unbounded: nothing bounds the variables)."""
    n = draw(st.integers(min_value=min_vars, max_value=3))
    row = st.tuples(
        st.lists(coefficients, min_size=n, max_size=n).map(tuple), right_hand_sides
    )
    eqs = draw(st.lists(row, max_size=3))
    if eqs and draw(st.booleans()):
        eqs.append(draw(st.sampled_from(eqs)))
    leq = draw(st.lists(row, max_size=5))
    lt = draw(st.lists(row, max_size=2))
    objective = draw(st.lists(coefficients, min_size=n, max_size=n))
    return objective, n, tuple(eqs), tuple(leq), tuple(lt)


@given(random_systems())
@settings(max_examples=300, deadline=None)
def test_maximize_matches_reference(data):
    objective, n, eqs, leq, _ = data
    sys = LinearSystem(n, equalities=eqs, leq=leq)
    _assert_same(maximize(objective, sys), reference_maximize(objective, sys))


@given(random_systems())
@settings(max_examples=200, deadline=None)
def test_integer_rows_among_rational_rows_match_rational_rows(data):
    # each row with integer data given as ints, the rest as rationals, as
    # the certificate search gives them: the result, ray and reduced costs
    # of the all-rational system
    objective, n, eqs, leq, _ = data

    def ints(rows):
        return tuple(
            (tuple(int(x) for x in a), int(b))
            if all(x.denominator == 1 for x in (*a, b))
            else (a, b)
            for a, b in rows
        )

    ref = maximize(objective, LinearSystem(n, equalities=eqs, leq=leq))
    res = maximize(objective, LinearSystem(n, equalities=ints(eqs), leq=ints(leq)))
    _assert_same(res, ref)
    if isinstance(res, Optimal):
        assert res.reduced_costs == ref.reduced_costs


def test_integer_rows_are_kept_as_given():
    ints = LinearSystem(2, leq=(((1, 2), 3),), equalities=[([0, 1], 1)])
    assert type(ints.leq[0][0][0]) is int and type(ints.leq[0][1]) is int
    # a list, or a row with a rational entry, is coerced
    assert all(type(x) is Q for x in ints.equalities[0][0])
    mixed = LinearSystem(2, leq=(((1, Q(2)), 3),))
    assert all(type(x) is Q for x in mixed.leq[0][0])
    assert ints.leq == mixed.leq and hash(ints.leq) == hash(mixed.leq)


@given(random_systems())
@settings(max_examples=300, deadline=None)
def test_feasibility_matches_reference(data):
    _, n, eqs, leq, lt = data
    sys = LinearSystem(n, equalities=eqs, leq=leq, lt=lt)
    _assert_same(solve_feasibility(sys), reference_solve_feasibility(sys))


def _record(monkeypatch, name, log, entry):
    inner = getattr(exact_linear, name)

    def spy(*args):
        log.append(entry(*args))
        return inner(*args)

    monkeypatch.setattr(exact_linear, name, spy)


def test_drive_out_on_negative_entry(monkeypatch):
    # Phase 1 leaves an artificial basic at level zero whose first nonzero
    # entry is negative; the tableau is negated so det stays positive.
    # Without that, the phase-2 signs flip and the LP reads as unbounded.
    pivots = []
    _record(monkeypatch, "_pivot", pivots, lambda rows, obj, basis, r, col, det: rows[r][col])
    sys = LinearSystem(
        3,
        equalities=[((-1, -1, -1), 2), ((-1, 1, 1), 3)],
        leq=[((2, 0, -2), 2), ((1, 1, 1), -2)],
    )
    res = maximize((-2, 2, -2), sys)
    assert min(pivots) < 0
    assert res == Optimal(Q(20), (Q(-5, 2), Q(4), Q(-7, 2)))
    assert res == reference_maximize((-2, 2, -2), sys)


def test_redundant_equality_dropped(monkeypatch):
    # The second equality is three times the first: its artificial stays
    # basic with an all-zero row, and phase 2 runs without that row.
    tableaux = []
    _record(monkeypatch, "_bland_loop", tableaux, lambda rows, *rest: len(rows))
    sys = LinearSystem(
        2,
        equalities=[(("1/2", "1/3"), 1), (("3/2", 1), 3)],
        leq=[((-1, 0), 0), ((0, -1), 0)],
    )
    res = maximize((1, 0), sys)
    assert tableaux == [4, 3]
    assert res == Optimal(Q(2), (Q(2), Q(0)))
    assert res == reference_maximize((1, 0), sys)


def test_results_are_rationals():
    # integral and zero results still come back as Q, never as bare int
    box = LinearSystem(2, leq=[((1, 0), 3), ((0, 1), 0), ((-1, 0), 0), ((0, -1), 0)])
    opt = maximize((1, 1), box)
    assert opt == Optimal(Q(3), (Q(3), Q(0)))
    feas = solve_feasibility(box)
    assert feas == Feasible((Q(0), Q(0)))
    strict = solve_feasibility(LinearSystem(1, leq=[((-1,), 0)], lt=[((1,), 2)]))
    assert strict == Feasible((Q(1),))
    ray = maximize((1, 0), LinearSystem(2, equalities=[((0, 1), 1)]))
    assert ray == Unbounded((Q(0), Q(1)), (Q(1), Q(0)))
    for res in (opt, feas, strict, ray):
        assert all(type(x) is Q for x in _scalars(res))


# ---------------------------------------------------------------------------
# nonnegative variables: one column each, no row
# ---------------------------------------------------------------------------


def _check_nonneg_result(objective, sys, res, ref):
    """``res`` solves the ``nonneg`` system ``sys``; ``ref`` is the reference
    result, which reads the declaration as explicit rows.  The standard
    forms differ, so witnesses may too; kinds, optimum values and every row
    must agree."""
    assert type(res) is type(ref)
    assert all(type(x) is Q for x in _scalars(res))
    if isinstance(res, Infeasible):
        return
    _check_feasible(sys, res.witness)
    assert all(x >= 0 for x in res.witness)
    if isinstance(res, Optimal):
        assert res.value == ref.value == dot(objective, res.witness)
    if isinstance(res, Unbounded):
        ray = res.ray
        assert all(x >= 0 for x in ray)
        assert dot(objective, ray) > 0
        assert all(dot(a, ray) == 0 for a, _ in sys.equalities)
        assert all(dot(a, ray) <= 0 for a, _ in sys.leq)


@given(random_systems(min_vars=0))
@settings(max_examples=200, deadline=None)
def test_nonneg_maximize_matches_explicit_rows(data):
    objective, n, eqs, leq, _ = data
    sys = LinearSystem(n, equalities=eqs, leq=leq, nonneg=True)
    ref = reference_maximize(objective, sys)
    _check_nonneg_result(objective, sys, maximize(objective, sys), ref)


@given(random_systems(min_vars=0))
@settings(max_examples=200, deadline=None)
def test_nonneg_feasibility_matches_explicit_rows(data):
    _, n, eqs, leq, lt = data
    sys = LinearSystem(n, equalities=eqs, leq=leq, lt=lt, nonneg=True)
    ref = reference_solve_feasibility(sys)
    _check_nonneg_result((), sys, solve_feasibility(sys), ref)


@pytest.mark.parametrize(
    "objective, sys, kind",
    [
        # x + 2y <= 4, x <= 3: the unique optimum (3, 1/2)
        ((1, 1), LinearSystem(2, leq=[((1, 2), 4), ((1, 0), 3)], nonneg=True), Optimal),
        # x <= -1 holds only for free x
        ((-1,), LinearSystem(1, leq=[((1,), -1)], nonneg=True), Infeasible),
        # x - y <= 1 leaves x unbounded along a nonnegative ray
        ((1, 0), LinearSystem(2, leq=[((1, -1), 1)], nonneg=True), Unbounded),
        ((), LinearSystem(0, leq=[((), 1)], nonneg=True), Optimal),
        ((), LinearSystem(0, leq=[((), -1)], nonneg=True), Infeasible),
    ],
)
def test_nonneg_maximize_cases(objective, sys, kind):
    res = maximize(objective, sys)
    assert isinstance(res, kind)
    _check_nonneg_result(objective, sys, res, reference_maximize(objective, sys))


@pytest.mark.parametrize(
    "sys, kind",
    [
        (LinearSystem(1, lt=[((1,), 0)], nonneg=True), Infeasible),  # x < 0
        (LinearSystem(1, lt=[((-1,), 0)], nonneg=True), Feasible),  # x > 0
        (LinearSystem(2, equalities=[((1, 1), 1)], lt=[((-1, 1), 0)], nonneg=True), Feasible),
        (LinearSystem(0, lt=[((), 0)], nonneg=True), Infeasible),
        (LinearSystem(0, lt=[((), 1)], nonneg=True), Feasible),
    ],
)
def test_nonneg_strict_cases(sys, kind):
    res = solve_feasibility(sys)
    assert isinstance(res, kind)
    _check_nonneg_result((), sys, res, reference_solve_feasibility(sys))


@pytest.mark.parametrize("flag", [1, 0, "yes", None, (0,)])
def test_nonneg_must_be_a_bool(flag):
    with pytest.raises(MalformedSystem):
        LinearSystem(1, nonneg=flag)


def test_nonneg_costs_no_row_or_column(monkeypatch):
    # one column per variable plus one slack per inequality row, where the
    # explicit rows -e_j.x <= 0 would add a row, a slack and a split each
    shapes = []
    _record(monkeypatch, "_solve_standard", shapes, lambda start, c: (len(start[0]), len(c)))
    equalities = [((1, 1, 0), 1)]
    leq = [((0, 1, 1), 2)]
    maximize((1, 0, 0), LinearSystem(3, equalities, leq, nonneg=True))
    maximize((1, 0, 0), explicit_rows(LinearSystem(3, equalities, leq, nonneg=True)))
    assert shapes == [(2, 4), (5, 10)]


# ---------------------------------------------------------------------------
# reduced costs c_B B^-1 A_j - c_j at the optimum
# ---------------------------------------------------------------------------


@given(random_systems(min_vars=0), st.booleans())
@settings(max_examples=200, deadline=None)
def test_reduced_costs_at_optimum(data, nonneg):
    # dual feasibility and complementary slackness for nonneg variables; a
    # free variable splits into u - w, whose costs are >= 0 and sum to 0
    objective, n, eqs, leq, _ = data
    res = maximize(objective, LinearSystem(n, equalities=eqs, leq=leq, nonneg=nonneg))
    if not isinstance(res, Optimal):
        return
    assert len(res.reduced_costs) == n
    assert all(type(r) is Q for r in res.reduced_costs)
    if nonneg:
        assert all(r >= 0 for r in res.reduced_costs)
        assert all(r * x == 0 for r, x in zip(res.reduced_costs, res.witness))
    else:
        assert all(r == 0 for r in res.reduced_costs)


@st.composite
def identity_block_systems(draw):
    """Systems whose last columns are the unit vectors of their rows, so an
    optimum's dual point is y_i = c_j + reduced cost of the unit column j."""
    k = draw(st.integers(min_value=0, max_value=3))
    m = draw(st.integers(min_value=1, max_value=4))
    rows = []
    for i in range(m):
        a = tuple(draw(coefficients) for _ in range(k))
        rows.append((a + tuple(rat(int(i == r)) for r in range(m)), draw(right_hand_sides)))
    neq = draw(st.integers(min_value=0, max_value=m))
    objective = draw(st.lists(coefficients, min_size=k + m, max_size=k + m))
    nonneg = draw(st.booleans())
    return objective, k, LinearSystem(k + m, rows[:neq], rows[neq:], nonneg=nonneg)


@given(identity_block_systems())
@settings(max_examples=200, deadline=None)
def test_dual_point_off_an_identity_block(data):
    objective, k, sys = data
    res = maximize(objective, sys)
    if not isinstance(res, Optimal):
        return
    rows = sys.equalities + sys.leq
    y = [objective[k + i] + res.reduced_costs[k + i] for i in range(len(rows))]
    assert dot(y, [b for _, b in rows]) == res.value
    for j in range(sys.num_vars):
        column = [a[j] for a, _ in rows]
        assert dot(y, column) - objective[j] == res.reduced_costs[j]
    assert all(y_i >= 0 for y_i in y[len(sys.equalities) :])


# ---------------------------------------------------------------------------
# one phase 1 per system, however many objectives it is solved for
# ---------------------------------------------------------------------------


@st.composite
def reused_systems(draw):
    """A system's data and 2-4 objectives, the first repeated last.  The
    rows are random (often unbounded), made infeasible by two parallel
    equalities with different right-hand sides, or given a redundant
    equality: a copy of one scaled by 2."""
    _, n, eqs, leq, _ = draw(random_systems(min_vars=0))
    a = tuple(draw(st.lists(coefficients, min_size=n, max_size=n)))
    b = draw(right_hand_sides)
    kind = draw(st.sampled_from(["random", "infeasible", "redundant"]))
    if kind == "infeasible":
        eqs += ((a, b), (a, b + 1))
    elif kind == "redundant":
        eqs += ((a, b), (tuple(2 * x for x in a), 2 * b))
    objective = st.lists(coefficients, min_size=n, max_size=n)
    objectives = draw(st.lists(objective, min_size=2, max_size=4))
    return n, eqs, leq, objectives + objectives[:1]


def _reduced_costs(res):
    return res.reduced_costs if isinstance(res, Optimal) else None


@given(reused_systems(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_one_system_solved_for_several_objectives(data, nonneg):
    # each solve on the kept phase-1 outcome equals a solve on a freshly
    # built equal system, reduced costs included, and the reference's result
    n, eqs, leq, objectives = data
    sys = LinearSystem(n, eqs, leq, nonneg=nonneg)
    for objective in objectives:
        res = maximize(objective, sys)
        fresh = maximize(objective, LinearSystem(n, eqs, leq, nonneg=nonneg))
        assert res == fresh and _reduced_costs(res) == _reduced_costs(fresh)
        ref = reference_maximize(objective, sys)
        if nonneg:
            _check_nonneg_result(objective, sys, res, ref)
        else:
            _assert_same(res, ref)
    assert solve_feasibility(sys) == solve_feasibility(LinearSystem(n, eqs, leq, nonneg=nonneg))


@pytest.mark.parametrize(
    "sys, kind",
    [
        (LinearSystem(2, leq=[((1, 0), 1), ((0, 1), 1)]), Optimal),
        (LinearSystem(2, equalities=[((1, 1), 1), ((2, 2), 2)], nonneg=True), Optimal),
        (LinearSystem(2, equalities=[((1, 1), 1), ((1, 1), 2)]), Infeasible),
        (LinearSystem(2, leq=[((1, -1), 1)], nonneg=True), Unbounded),
    ],
)
def test_phase_one_runs_once_per_system(monkeypatch, sys, kind):
    # the first solve runs phase 1 and keeps its outcome; later solves on
    # the instance run only phase 2, while an equal new instance runs its own
    starts = []
    _record(monkeypatch, "_phase_one", starts, lambda a_rows, b, n: len(a_rows))
    solves = []
    _record(monkeypatch, "_solve_standard", solves, lambda start, c: c)
    objectives = [(1, 1), (-1, 2), (0, 0), (1, 1)]
    results = [maximize(objective, sys) for objective in objectives]
    assert len(starts) == 1 and len(solves) == 4
    assert isinstance(results[-1], kind) and results[0] == results[-1]
    assert isinstance(solve_feasibility(sys), Infeasible if kind is Infeasible else Feasible)
    assert len(starts) == 1 and len(solves) == 5
    equal = LinearSystem(sys.num_vars, sys.equalities, sys.leq, nonneg=sys.nonneg)
    assert equal == sys and hash(equal) == hash(sys) and repr(equal) == repr(sys)
    assert maximize((1, 1), equal) == results[0]
    assert len(starts) == 2
