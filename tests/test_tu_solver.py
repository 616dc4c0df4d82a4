import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraccore import exact_linear
from fraccore.errors import DimensionMismatch
from fraccore.exact_linear import Feasible, LinearSystem, solve_feasibility
from fraccore.game_model import TUGame, coalitions
from fraccore.gallery import loss_sharing_tu, loss_sharing_tu_modified
from fraccore.rationals import ONE, ZERO, Q
from fraccore.tu_solver import (
    Accept,
    Balanced,
    CorePoint,
    Empty,
    Reject,
    Violated,
    _balancing_lp,
    _balancing_system,
    check_core_point,
    core_nonempty,
    is_balanced_tu,
)


def test_worked_core_exists():
    game = loss_sharing_tu()
    res = core_nonempty(game)
    assert isinstance(res, CorePoint)
    assert check_core_point(game, res.allocation) == Accept()
    assert check_core_point(game, (-8, -12, -15)) == Accept()


def test_worked_core_empties_when_grand_weakens():
    game = loss_sharing_tu_modified()
    assert core_nonempty(game) == Empty()


def test_additive_game_core_is_the_valuation():
    c = (Q(3), Q(-1), Q(5))
    values = {coal: sum(c[i] for i in coal) for coal in coalitions(3)}
    game = TUGame(3, values)
    res = core_nonempty(game)
    assert isinstance(res, CorePoint)
    assert check_core_point(game, c) == Accept()


def test_balanced_original():
    res = is_balanced_tu(loss_sharing_tu())
    assert isinstance(res, Balanced)
    assert res.optimum == Q(-35)


def test_violated_family_is_the_pair_family():
    res = is_balanced_tu(loss_sharing_tu_modified())
    assert isinstance(res, Violated)
    assert res.family.subsets == ((0, 1), (0, 2), (1, 2))
    assert res.family.weights == (Q(1, 2), Q(1, 2), Q(1, 2))
    # half of each pair's value: -11 - 14 - 16
    assert res.value == Q(-41)
    assert res.family.verify(3)


def test_zero_game_balanced():
    values = {coal: 0 for coal in coalitions(3)}
    assert isinstance(is_balanced_tu(TUGame(3, values)), Balanced)


def test_reject_blocking_coalition():
    game = loss_sharing_tu()
    res = check_core_point(game, (-35, 0, 0))
    assert isinstance(res, Reject)
    assert res.coalition == (0,)


def test_check_core_point_needs_one_payoff_per_player():
    with pytest.raises(DimensionMismatch):
        check_core_point(loss_sharing_tu(), (0, 0))


def test_reject_inefficient():
    game = loss_sharing_tu()
    res = check_core_point(game, (0, 0, 0))
    assert isinstance(res, Reject)
    assert res.coalition is None


def _random_tu(rng, n):
    values = {coal: rng.randint(-20, 20) for coal in coalitions(n)}
    return TUGame(n, values)


def test_core_balancedness_equivalence_quick():
    rng = random.Random(4242)
    for _ in range(150):
        n = rng.randint(2, 4)
        game = _random_tu(rng, n)
        has_core = isinstance(core_nonempty(game), CorePoint)
        balanced = isinstance(is_balanced_tu(game), Balanced)
        assert has_core == balanced


def test_every_core_point_reverifies():
    rng = random.Random(11)
    for _ in range(60):
        game = _random_tu(rng, 3)
        res = core_nonempty(game)
        if isinstance(res, CorePoint):
            assert check_core_point(game, res.allocation) == Accept()


def _lp_shapes(monkeypatch):
    shapes = []
    inner = exact_linear._solve_standard

    def spy(start, c):
        shapes.append((len(start[0]), len(c)))
        return inner(start, c)

    monkeypatch.setattr(exact_linear, "_solve_standard", spy)
    return shapes


def test_balancing_lp_declares_nonnegative_weights(monkeypatch):
    # n = 5: one equality row per player and one column per coalition;
    # written as rows -e_j.w <= 0 the weights made it 36 rows x 93 columns
    shapes = _lp_shapes(monkeypatch)
    game = _random_tu(random.Random(5), 5)
    is_balanced_tu(game)
    assert shapes == [(5, 31)]


def test_core_reads_the_balancing_lp(monkeypatch):
    # the core point comes off the same 5-row balancing LP; the coverage-row
    # core LP made a 32-row standard form over 41 columns
    shapes = _lp_shapes(monkeypatch)
    core_nonempty(_random_tu(random.Random(5), 5))
    assert shapes == [(5, 31)]


def test_both_questions_share_one_balancing_lp(monkeypatch):
    shapes = _lp_shapes(monkeypatch)
    game = _random_tu(random.Random(5), 5)
    core_nonempty(game)
    is_balanced_tu(game)
    assert shapes == [(5, 31)]


def test_memo_holds_only_the_last_game(monkeypatch):
    shapes = _lp_shapes(monkeypatch)
    a, b = _random_tu(random.Random(5), 5), _random_tu(random.Random(6), 5)
    first = is_balanced_tu(a)
    is_balanced_tu(b)
    assert is_balanced_tu(a) == first
    assert shapes == [(5, 31)] * 3


def test_one_balancing_system_per_player_count(monkeypatch):
    # the system of a player count keeps its phase-1 outcome: later games of
    # that count run only phase 2, one solve each
    for n in (3, 5):
        is_balanced_tu(_random_tu(random.Random(n), n))
    starts = []
    inner = exact_linear._phase_one

    def spy(*args):
        starts.append(args)
        return inner(*args)

    monkeypatch.setattr(exact_linear, "_phase_one", spy)
    shapes = _lp_shapes(monkeypatch)
    for seed in range(3):
        for n in (5, 3):
            core_nonempty(_random_tu(random.Random(100 + seed), n))
    assert starts == [] and shapes == [(5, 31), (3, 7)] * 3
    assert _balancing_system(5)[1] is _balancing_system(5)[1]


def test_equal_games_share_one_balancing_lp(monkeypatch):
    shapes = _lp_shapes(monkeypatch)
    game = _random_tu(random.Random(5), 5)
    copy = TUGame(5, {c: game.value(c) for c in reversed(coalitions(5))})
    assert copy is not game
    core_nonempty(game)
    is_balanced_tu(copy)
    assert shapes == [(5, 31)]


# ---------------------------------------------------------------------------
# the core as its own LP: one efficiency equality, one coverage row per
# coalition, n free variables (kept as a reference for the dual reading)
# ---------------------------------------------------------------------------


def reference_core_nonempty(game: TUGame):
    n = game.n
    eqs = [((ONE,) * n, game.value(game.grand))]
    leq = []
    for coal in coalitions(n):
        row = [ZERO] * n
        for i in coal:
            row[i] = -ONE
        leq.append((tuple(row), -game.value(coal)))
    res = solve_feasibility(LinearSystem(n, equalities=tuple(eqs), leq=tuple(leq)))
    if isinstance(res, Feasible):
        return CorePoint(res.witness)
    return Empty()


@st.composite
def tu_games(draw):
    """Random games, games built around a core point (some just short of
    it), all-zero games, additive games (returned with their valuation) and
    games whose values come from three numbers, so that many ties make
    degenerate optima."""
    n = draw(st.integers(min_value=1, max_value=5))
    coals = coalitions(n)
    kind = draw(st.sampled_from(["random", "around", "zero", "additive", "ties"]))
    small = st.integers(min_value=-6, max_value=6).map(Q)
    additive = None
    if kind == "random":
        values = {c: draw(small) for c in coals}
    elif kind in ("around", "additive"):
        x = [draw(small) for _ in range(n)]
        values = {c: sum((x[i] for i in c), ZERO) for c in coals}
        if kind == "around":
            for c in coals[:-1]:
                values[c] -= draw(st.sampled_from([0, 0, 1, 3]))
            # a grand value short by less than 1 leaves a fractional gap
            values[coals[-1]] -= draw(st.sampled_from([0, 0, Q(1, 2)]))
        else:
            additive = tuple(x)
    elif kind == "zero":
        values = {c: ZERO for c in coals}
    else:
        pool = draw(st.lists(small, min_size=3, max_size=3))
        values = {c: draw(st.sampled_from(pool)) for c in coals}
    return TUGame(n, values), additive


@given(tu_games())
@settings(max_examples=250, deadline=None)
def test_core_matches_the_coverage_row_lp(drawn):
    game, additive = drawn
    res = core_nonempty(game)
    assert type(res) is type(reference_core_nonempty(game))
    assert isinstance(res, CorePoint) == isinstance(is_balanced_tu(game), Balanced)
    if isinstance(res, CorePoint):
        assert all(type(x) is Q for x in res.allocation)
        assert sum(res.allocation, ZERO) == game.value(game.grand)
        assert check_core_point(game, res.allocation) == Accept()
    if additive is not None:
        assert res == CorePoint(additive)


def _ask_all(asks, clear):
    verdicts = []
    for game, question in asks:
        if clear:
            _balancing_lp.cache_clear()
        verdicts.append(question(game))
    return verdicts


@given(
    st.lists(tu_games(), min_size=1, max_size=3),
    st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from([core_nonempty, is_balanced_tu])),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=100, deadline=None)
def test_memo_gives_the_verdicts_of_fresh_lps(drawn, picks):
    # pick k asks about game k mod len, rebuilt from its values when k >= len
    games = [game for game, _ in drawn]
    asks = []
    for k, question in picks:
        game = games[k % len(games)]
        if k >= len(games):
            game = TUGame(game.n, dict(game.values))
        asks.append((game, question))
    assert _ask_all(asks, clear=False) == _ask_all(asks, clear=True)


# ---------------------------------------------------------------------------
# the integer core-point check against the rational definition
# ---------------------------------------------------------------------------


def reference_check_core_point(game: TUGame, x):
    """The definition over rationals: efficiency, then the coalition short
    by the most, the first in ``coalitions`` order among ties."""
    x = tuple(Q(v) for v in x)
    if len(x) != game.n:
        raise DimensionMismatch("allocation length does not match player count")
    total = sum(x, ZERO)
    grand_value = game.value(game.grand)
    if total != grand_value:
        return Reject(None, f"efficiency fails: sum {total} != {grand_value}")
    worst = None
    for coal in coalitions(game.n):
        gap = game.value(coal) - sum((x[i] for i in coal), ZERO)
        if gap > ZERO and (worst is None or gap > worst[1]):
            worst = (coal, gap)
    if worst is None:
        return Accept()
    return Reject(worst[0], f"coalition {worst[0]} is short by {worst[1]}")


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def core_point_checks(draw):
    """A game and an allocation with non-integer entries.  Each coalition's
    value is its allocated total plus a gap from a few fractions, so that
    several short coalitions tie; the grand value is efficient, or off by a
    fraction, and the allocation has the wrong length now and then."""
    n = draw(st.integers(min_value=1, max_value=4))
    x = draw(st.lists(small_fractions, min_size=n, max_size=n))
    gaps = st.sampled_from([Q(-1), Q(-1, 3), ZERO, Q(1, 4), Q(1, 2), Q(1, 2), Q(2, 3)])
    values = {c: sum((x[i] for i in c), ZERO) + draw(gaps) for c in coalitions(n)}
    values[tuple(range(n))] -= draw(st.sampled_from([ZERO, ZERO, Q(1, 5), Q(-7, 2)]))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        x = x + [Q(1, 2)] if draw(st.booleans()) else x[:-1]
    return TUGame(n, values), x


@given(core_point_checks(), st.sampled_from([Q, str]))
@settings(max_examples=300, deadline=None)
def test_integer_core_check_matches_the_definition(drawn, form):
    # verdict, coalition and message equal the rational reference's; the
    # allocation is passed as rationals or as "p/q" strings
    game, x = drawn
    x = [form(v) for v in x]
    try:
        want = reference_check_core_point(game, x)
    except DimensionMismatch as exc:
        with pytest.raises(DimensionMismatch, match=str(exc)):
            check_core_point(game, x)
        return
    assert check_core_point(game, x) == want


def test_first_coalition_wins_a_tie():
    # over (1/4, -1/4), {0} and {1} are each short by 1/2
    x = (Q(1, 4), Q(-1, 4))
    game = TUGame(2, {(0,): Q(3, 4), (1,): Q(1, 4), (0, 1): ZERO})
    assert check_core_point(game, x) == Reject((0,), "coalition (0,) is short by 1/2")
    # over (0, 0, 0), {0, 2} and {1, 2} are each short by 2, {0, 1} by 1
    game = TUGame(3, {(0,): 0, (1,): 0, (2,): 0, (0, 1): 1, (0, 2): 2, (1, 2): 2, (0, 1, 2): 0})
    want = Reject((0, 2), "coalition (0, 2) is short by 2")
    assert check_core_point(game, (0, 0, 0)) == want == reference_check_core_point(game, (0, 0, 0))
