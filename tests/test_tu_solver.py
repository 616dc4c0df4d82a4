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

    def spy(a_rows, b, c):
        shapes.append((len(a_rows), len(c)))
        return inner(a_rows, b, c)

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
