import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_simplex import reference_maximize, reference_solve_feasibility

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
def random_systems(draw):
    """Systems with non-integer coefficients, right-hand sides of either
    sign, possibly duplicated equality rows and strict rows, plus an
    objective (often unbounded: nothing bounds the variables)."""
    n = draw(st.integers(min_value=1, max_value=3))
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
