import random
from weakref import WeakValueDictionary

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fraccore import tu_solver
from fraccore.errors import CapExceeded
from fraccore.frac_core import (
    BalancedGame,
    CorePoint,
    Empty,
    Nonempty,
    Unsupported,
    ViolatedGame,
    core_solve,
    embed_coalitional,
    fractional_core_solve,
    is_balanced_game,
    verify_fractional_core_point,
)
from fraccore.game_model import (
    CoalitionalNTUGame,
    ComprehensiveSet,
    FirmSystem,
    GeneralizedGame,
    HalfSpace,
    Primitive,
    TUGame,
    coalition_cylinder,
    coalition_firm_system,
    coalitions,
    contains,
    point_orthant,
    tau,
    validate_game,
)
from fraccore.gallery import (
    directed_transfers_game,
    loss_sharing_tu,
    loss_sharing_tu_modified,
    symmetric_pairs_game_s1,
    symmetric_pairs_game_s2,
)
from fraccore.rationals import Q, rat, vec


def test_embed_tu_shape():
    game = embed_coalitional(loss_sharing_tu())
    assert game.firm_count == 7
    assert all(len(u.primitives) == 1 for u in game.utilities)
    assert all(len(u.primitives[0].halfspaces) == 1 for u in game.utilities)
    assert game.distinguished == coalitions(3).index((0, 1, 2))
    # grand-coalition firm vector equals the resource
    assert game.firm_system.firms[game.distinguished] == game.firm_system.resource
    assert validate_game(game).ok


def test_embed_single_player():
    game = embed_coalitional(TUGame(1, {(0,): 5}))
    assert game.firm_count == 1
    assert game.firm_system.firms == ((Q(1),),)
    assert contains(game.utilities[0], (5,))
    assert not contains(game.utilities[0], (6,))


def test_embedded_uplift_matches_hand_value():
    # in the weakened game the three pair constraints are tight at the
    # worked allocation, so the uplift vanishes there and grows linearly
    # along the diagonal below it
    game = embed_coalitional(loss_sharing_tu_modified())
    x = vec((-9, -13, -19))
    assert tau(game.utilities, x) == 0
    for t in (Q(1), Q(5, 2), Q(7)):
        below = tuple(c - t for c in x)
        assert tau(game.utilities, below) == t


def test_fractional_core_of_modified_game():
    game = embed_coalitional(loss_sharing_tu_modified())
    res = fractional_core_solve(game)
    assert isinstance(res, Nonempty)
    w = res.witness
    # re-verify every invariant independently
    ok, info = verify_fractional_core_point(game, w.point, active=w.active)
    assert ok, info
    assert tau(game.utilities, w.base) == w.level
    assert sum(w.base, Q(0)) == 0
    assert w.point == tuple(b + w.level for b in w.base)


def test_paper_allocation_passes_verifier():
    game = embed_coalitional(loss_sharing_tu_modified())
    coals = coalitions(3)
    pairs = tuple(coals.index(c) for c in [(0, 1), (0, 2), (1, 2)])
    ok, info = verify_fractional_core_point(game, (-9, -13, -19), active=pairs)
    assert ok, info
    ok2, _ = verify_fractional_core_point(game, (-9, -13, -19))
    assert ok2


def test_original_game_fractional_core_contains_core():
    game = embed_coalitional(loss_sharing_tu())
    res = fractional_core_solve(game)
    assert isinstance(res, Nonempty)
    # a genuine core allocation is a fractional core point via the grand firm
    grand = (game.distinguished,)
    ok, info = verify_fractional_core_point(game, (-8, -12, -15), active=grand)
    assert ok, info


def test_directed_transfers_fractional_core_empty():
    game = directed_transfers_game()
    assert validate_game(game).ok
    assert fractional_core_solve(game) == Empty()


def test_directed_transfers_hand_points_rejected():
    game = directed_transfers_game()
    # the classical-looking split "pair {0,2} works, {1} works alone" is
    # blocked by firm {0}, which can push coordinate 1 up to 10
    ok, info = verify_fractional_core_point(game, (Q(1, 2), 0, Q(1, 2)))
    assert not ok and "blocked" in info
    # an unblocked allocation rewarding player 1 is not admissible
    ok, info = verify_fractional_core_point(game, (-10, 10, 0))
    assert not ok


def test_verifier_failure_reasons():
    game = embed_coalitional(loss_sharing_tu_modified())
    high = (100, 100, 100)  # above every utility set, so unblocked
    assert tau(game.utilities, high) <= 0
    assert verify_fractional_core_point(game, high) == (False, "point is in no utility set")
    assert verify_fractional_core_point(game, high, active=(0,)) == (
        False,
        "point outside utility sets [0]",
    )


@pytest.mark.parametrize("solve", [core_solve, is_balanced_game])
def test_solvers_need_a_distinguished_firm(solve):
    with pytest.raises(ValueError, match="needs a distinguished firm"):
        solve(directed_transfers_game())


def test_only_classical_games_embed():
    with pytest.raises(TypeError, match="cannot embed GeneralizedGame"):
        embed_coalitional(directed_transfers_game())


def test_single_firm_trivial():
    u = ComprehensiveSet((point_orthant((0, 0)),))
    fs = FirmSystem(firms=[(1, 1)], resource=(1, 1))
    game = GeneralizedGame((u,), fs)
    res = fractional_core_solve(game)
    assert isinstance(res, Nonempty)
    assert res.witness.point == (Q(0), Q(0))


def test_symmetric_games_nonempty():
    for game in (symmetric_pairs_game_s1(), symmetric_pairs_game_s2()):
        assert validate_game(game).ok
        res = fractional_core_solve(game)
        assert isinstance(res, Nonempty)
        ok, info = verify_fractional_core_point(game, res.witness.point)
        assert ok, info


def test_core_solve_embedded():
    game = embed_coalitional(loss_sharing_tu())
    res = core_solve(game)
    assert isinstance(res, CorePoint)
    assert contains(game.utilities[game.distinguished], res.point)
    assert all(
        game.utilities[f].uplift(res.point) <= 0
        for f in range(game.firm_count)
        if f != game.distinguished
    )
    # the worked allocation is also a core point of the generalized game
    assert tau(game.utilities, (-8, -12, -15)) <= 0


def test_core_solve_empty_when_grand_weak():
    game = embed_coalitional(loss_sharing_tu_modified())
    assert core_solve(game) == Empty()


def test_core_solve_trivial_single_firm():
    u = ComprehensiveSet((point_orthant((0, 0)),))
    fs = FirmSystem(firms=[(1, 1)], resource=(1, 1))
    game = GeneralizedGame((u,), fs, distinguished=0)
    res = core_solve(game)
    assert isinstance(res, CorePoint)
    assert contains(u, res.point)


def test_is_balanced_game_examples():
    assert isinstance(is_balanced_game(embed_coalitional(loss_sharing_tu())), BalancedGame)
    game = embed_coalitional(loss_sharing_tu_modified())
    res = is_balanced_game(game)
    assert isinstance(res, ViolatedGame)
    # witness invariants: the subset is balanced, the point lies in its
    # intersection but escapes the distinguished set (sum > -100)
    from fraccore.balance import balancing_weights

    assert balancing_weights(res.subset, game.firm_system) is not None
    for i in res.subset:
        assert contains(game.utilities[i], res.point)
    assert not contains(game.utilities[game.distinguished], res.point)
    # minimal-support-first ordering finds {firm {0}, firm {1,2}} (sum -42)
    # before the three-pair family with its -41 allocation
    assert sum(res.point, Q(0)) == Q(-42)
    pairs = tuple(coalitions(3).index(c) for c in [(0, 1), (0, 2), (1, 2)])
    # the pair family violates as well: its best total is -41 > -100
    from fraccore.exact_linear import LinearSystem, Optimal, maximize

    rows = []
    for i in pairs:
        h = game.utilities[i].primitives[0].halfspaces[0]
        rows.append((h.normal, h.offset))
    best = maximize((1, 1, 1), LinearSystem(3, leq=tuple(rows)))
    assert isinstance(best, Optimal) and best.value == Q(-41)


def test_is_balanced_game_single_firm():
    u = ComprehensiveSet((point_orthant((0, 0)),))
    fs = FirmSystem(firms=[(1, 1)], resource=(1, 1))
    game = GeneralizedGame((u,), fs, distinguished=0)
    assert isinstance(is_balanced_game(game), BalancedGame)


def test_is_balanced_game_runs_phase_one_once_per_system(monkeypatch):
    # the one balanced subset without the distinguished firm, {0, 1, 2},
    # gives one membership system, solved for each of the target's 3 rows
    from fraccore import exact_linear

    units = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    fs = FirmSystem(firms=[*units, (1, 1, 1)], resource=(1, 1, 1))
    below = [ComprehensiveSet((point_orthant(p),)) for p in [(0, 0, 0)] * 3 + [(1, 1, 1)]]
    game = GeneralizedGame(tuple(below), fs, distinguished=3)
    assert is_balanced_game(game) == BalancedGame()  # warms the balance cache
    counts = {"_phase_one": 0, "_solve_standard": 0}
    for name in counts:
        inner = getattr(exact_linear, name)

        def counting(*args, name=name, inner=inner):
            counts[name] += 1
            return inner(*args)

        monkeypatch.setattr(exact_linear, name, counting)
    assert is_balanced_game(game) == BalancedGame()
    assert counts == {"_phase_one": 1, "_solve_standard": 3}


def test_is_balanced_game_unsupported_on_union_target():
    u = ComprehensiveSet((point_orthant((0, 0)), point_orthant((1, -1))))
    fs = FirmSystem(firms=[(1, 1)], resource=(1, 1))
    game = GeneralizedGame((u,), fs, distinguished=0)
    assert isinstance(is_balanced_game(game), Unsupported)


# ---------------------------------------------------------------------------
# grid oracle: exhaustive point checks against the solver's verdicts
# ---------------------------------------------------------------------------


def _grid_points(box, spacing, n):
    """Sum-zero grid: free coordinates range over the box, last balances."""
    steps = int(2 * box / spacing)
    axis = [rat(-box) + rat(spacing) * k for k in range(steps + 1)]
    if n == 2:
        for a in axis:
            yield (a, -a)
    elif n == 3:
        for a in axis:
            for b in axis:
                yield (a, b, -a - b)
    else:
        raise ValueError("grid oracle supports n <= 3")


def _grid_witness(game, box, spacing):
    for x in _grid_points(box, spacing, game.dim):
        t = tau(game.utilities, x)
        point = tuple(c + t for c in x)
        ok, _ = verify_fractional_core_point(game, point)
        if ok:
            return point
    return None


def _oracle_box(game):
    bound = max(
        abs(h.offset)
        for u in game.utilities
        for p in u.primitives
        for h in p.halfspaces
    )
    return 2 * bound if bound > 0 else Q(2)


def _random_small_game(rng):
    n = rng.randint(2, 3)
    m = rng.randint(2, 4)
    utilities = []
    for _ in range(m):
        prims = []
        for _ in range(rng.randint(1, 2)):
            kind = rng.random()
            if kind < 0.5:
                prims.append(point_orthant([rng.randint(-2, 2) for _ in range(n)]))
            else:
                members = sorted(
                    rng.sample(range(n), rng.randint(1, n))
                )
                prims.append(coalition_cylinder(n, members, rng.randint(-2, 2)))
        utilities.append(ComprehensiveSet(tuple(prims)))
    firms = []
    for _ in range(m):
        v = [rng.randint(0, 2) for _ in range(n)]
        if sum(v) == 0:
            v[rng.randrange(n)] = 1
        firms.append(tuple(v))
    # resource inside the cone: a positive combination of the firms
    r = [0] * n
    for v in firms:
        for i in range(n):
            r[i] += v[i]
    fs = FirmSystem(firms=firms, resource=tuple(r))
    return GeneralizedGame(tuple(utilities), fs)


def _verifier_cases(rng):
    """A random small game and points to verify with and without an active
    subset: a point with mixed denominators, that point raised by its
    uplift (on the boundary of every set attaining it) and raised by one
    set's own uplift (on that set's boundary)."""
    game = _random_small_game(rng)
    x = tuple(Q(rng.randint(-12, 12), rng.choice((1, 2, 3))) for _ in range(game.dim))
    own = game.utilities[rng.randrange(game.firm_count)].uplift(x)
    points = [x] + [tuple(c + t for c in x) for t in (tau(game.utilities, x), own)]
    firms = range(game.firm_count)
    actives = [None, tuple(rng.sample(firms, rng.randint(1, game.firm_count)))]
    return game, [(y, active) for y in points for active in actives]


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_verifier_matches_the_uplift_and_contains_reference(rng):
    import reference_search as ref

    game, cases = _verifier_cases(rng)
    for point, active in cases:
        got = verify_fractional_core_point(game, point, active=active)
        assert got == ref.verify_fractional_core_point(game, point, active=active)


def test_grid_oracle_agreement():
    rng = random.Random(90210)
    games = [_random_small_game(rng) for _ in range(25)]
    for game in games:
        res = fractional_core_solve(game)
        box = _oracle_box(game)
        found = _grid_witness(game, box, Q(1, 4))
        if found is not None:
            assert isinstance(res, Nonempty), "grid found a point the solver missed"
        if isinstance(res, Empty):
            assert found is None
        else:
            w = res.witness
            ok, info = verify_fractional_core_point(game, w.point, active=w.active)
            assert ok, info


def test_grid_oracle_fine_spacing_small_instance():
    # one small-bound instance scanned at the fine 1/64 spacing
    u1 = ComprehensiveSet((point_orthant((1, 0)),))
    u2 = ComprehensiveSet((point_orthant((0, 1)),))
    fs = FirmSystem(firms=[(1, 0), (0, 1)], resource=(1, 1))
    game = GeneralizedGame((u1, u2), fs)
    res = fractional_core_solve(game)
    assert isinstance(res, Nonempty)
    found = _grid_witness(game, _oracle_box(game), Q(1, 64))
    assert found is not None


# ---------------------------------------------------------------------------
# classical-consistency property: every embedded NTU game has one
# ---------------------------------------------------------------------------


def _random_orthant_ntu(rng, n=3):
    sets = {}
    for coal in coalitions(n):
        p = [rat(rng.randint(-5, 5)) for _ in coal]
        sets[coal] = ComprehensiveSet((point_orthant(p),))
    return CoalitionalNTUGame(n, sets)


def test_embedded_ntu_always_has_fractional_core_quick():
    rng = random.Random(777)
    for _ in range(30):
        ntu = _random_orthant_ntu(rng)
        game = embed_coalitional(ntu)
        res = fractional_core_solve(game)
        assert isinstance(res, Nonempty)
        ok, info = verify_fractional_core_point(
            game, res.witness.point, active=res.witness.active
        )
        assert ok, info


def test_node_cap_raises():
    # a search that runs out after its one node; a cap below 1 is rejected
    # as an argument, below
    game = embed_coalitional(loss_sharing_tu_modified())
    with pytest.raises(CapExceeded):
        fractional_core_solve(game, node_cap=1)


@pytest.mark.parametrize(
    "solve, caps, name",
    [
        (fractional_core_solve, {"subset_cap": -3}, "subset_cap"),
        (fractional_core_solve, {"node_cap": 0}, "node_cap"),
        (core_solve, {"node_cap": 0}, "node_cap"),
        (is_balanced_game, {"subset_cap": 0}, "subset_cap"),
    ],
    ids=["frac-subset", "frac-node", "core-node", "balanced-subset"],
)
def test_caps_below_one_are_bad_arguments(solve, caps, name):
    game = embed_coalitional(loss_sharing_tu_modified())
    with pytest.raises(ValueError, match=f"{name} must be at least 1, got {caps[name]}"):
        solve(game, **caps)


def test_solver_determinism():
    game = symmetric_pairs_game_s1()
    first = fractional_core_solve(game)
    for _ in range(3):
        assert fractional_core_solve(game) == first


def test_nonzero_region_degree_implies_nonempty():
    # sampled-sphere cross-check: a nonzero induced-cover degree on a large
    # region boundary forces a nonempty fractional core
    from fraccore.topology.degree import (
        BalancedSimplexFound,
        Degree,
        SimplexRegion,
        induce_labeling,
        pl_degree,
    )

    game = symmetric_pairs_game_s1()
    big = Q(24)
    region = SimplexRegion(
        (
            (2 * big, -big, -big),
            (-big, 2 * big, -big),
            (-big, -big, 2 * big),
        )
    )
    lc = induce_labeling(game, region, 3)
    res = pl_degree(lc)
    assert isinstance(res, (Degree, BalancedSimplexFound))
    if isinstance(res, Degree) and res.value != 0:
        assert isinstance(fractional_core_solve(game), Nonempty)
    else:
        # a balanced simplex on the boundary does not witness nonemptiness
        # in general (a balanced rim facet can join two complementary
        # coalitions whose sets share no point); this game's core is
        # nonempty all the same
        assert isinstance(fractional_core_solve(game), Nonempty)


# ---------------------------------------------------------------------------
# minimal-subset solvers against the loop over every balanced subset
# ---------------------------------------------------------------------------


def _closure_fractional_core(game):
    """fractional_core_solve as a loop over the full balanced closure."""
    from fraccore.balance import balanced_subsets
    from fraccore.frac_core import (
        _Budget,
        _escape_rows,
        _forced_rows,
        _lp_rows,
        _search,
        _violation,
        make_witness,
    )

    budget = _Budget(10**6)
    membership = _lp_rows(game.utilities)
    escapes = _escape_rows(membership)
    for subset in balanced_subsets(game.firm_system, "cone"):
        rows = _forced_rows(membership, escapes, subset)
        violation = _violation(game.utilities, membership, escapes, subset)
        found = _search(game.dim, rows, violation, budget)
        if found is not None:
            return Nonempty(make_witness(game, found, subset))
    return Empty()


def _closure_balanced_game(game):
    """is_balanced_game as a loop over the full balanced closure."""
    from itertools import product

    from fraccore.balance import balanced_subsets
    from fraccore.exact_linear import Infeasible, LinearSystem, Optimal, maximize

    dist = game.distinguished
    target = game.utilities[dist]
    if len(target.primitives) > 1:
        return Unsupported("distinguished utility set must be a single primitive")
    for subset in balanced_subsets(game.firm_system, "cone"):
        if dist in subset:
            continue
        for choice in product(*(game.utilities[i].primitives for i in subset)):
            rows = [(h.normal, h.offset) for prim in choice for h in prim.halfspaces]
            sys = LinearSystem(game.dim, leq=tuple(rows))
            for h in target.primitives[0].halfspaces:
                res = maximize(h.normal, sys)
                if isinstance(res, Infeasible):
                    break
                if isinstance(res, Optimal) and res.value <= h.offset:
                    continue
                if isinstance(res, Optimal):
                    return ViolatedGame(subset, res.witness)
                base, ray = res.witness, res.ray
                gain = sum(a * r for a, r in zip(h.normal, ray))
                steps = (h.offset - sum(a * b for a, b in zip(h.normal, base))) / gain
                t = steps + 1 if steps > 0 else Q(1)
                return ViolatedGame(subset, tuple(b + t * r for b, r in zip(base, ray)))
    return BalancedGame()


def _differential_games():
    rng = random.Random(4711)
    games = []
    for _ in range(20):
        game = _random_small_game(rng)
        games.append(
            GeneralizedGame(
                game.utilities, game.firm_system, distinguished=rng.randrange(game.firm_count)
            )
        )
    for _ in range(6):
        games.append(embed_coalitional(_random_orthant_ntu(rng)))
    for tu in (loss_sharing_tu(), loss_sharing_tu_modified()):
        games.append(embed_coalitional(tu))
    for game in (directed_transfers_game(), symmetric_pairs_game_s1()):
        games.append(GeneralizedGame(game.utilities, game.firm_system, distinguished=0))
    return games


def test_minimal_subset_solvers_match_closure_loop():
    verdicts = set()
    for game in _differential_games():
        frac = fractional_core_solve(game)
        assert frac == _closure_fractional_core(game)
        balanced = is_balanced_game(game)
        assert balanced == _closure_balanced_game(game)
        verdicts.add((type(frac).__name__, type(balanced).__name__))
    # both verdicts of both solvers occur
    assert {f for f, _ in verdicts} == {"Nonempty", "Empty"}
    assert {b for _, b in verdicts} >= {"BalancedGame", "ViolatedGame"}


def test_witness_reads_the_weights_of_the_deciding_elimination(monkeypatch):
    # no member set is solved twice, by an elimination or an LP: the witness
    # takes the weights the elimination returned when it found the active
    # subset balanced, and those are the weights a fresh LP finds
    from fraccore import balance

    original_lp = balance.balancing_weights
    original_eliminate = balance.BalanceTest._eliminate
    solved = []

    def spy_lp(subset, fs):
        solved.append(tuple(sorted(subset)))
        return original_lp(subset, fs)

    def spy_eliminate(self, members):
        solved.append(members)
        return original_eliminate(self, members)

    monkeypatch.setattr(balance, "balancing_weights", spy_lp)
    monkeypatch.setattr(balance.BalanceTest, "_eliminate", spy_eliminate)
    # the games get new firm systems, and no live system lends them tests
    coalition_firm_system.cache_clear()
    monkeypatch.setattr(balance, "_live", WeakValueDictionary())
    for game in (embed_coalitional(loss_sharing_tu_modified()), symmetric_pairs_game_s1()):
        solved.clear()
        res = fractional_core_solve(game)
        assert isinstance(res, Nonempty)
        assert res.witness.active in solved
        assert len(solved) == len(set(solved))
        assert res.witness.weights == original_lp(res.witness.active, game.firm_system)


# ---------------------------------------------------------------------------
# at most one LP per search node, against the two-LP reference search
# ---------------------------------------------------------------------------


def _count_search_lps(monkeypatch, solve):
    """(LPs run, nodes pruned by an opposed row pair, nodes spent) by one
    call of ``solve``, balance cache warm."""
    from fraccore import exact_linear, frac_core

    solve()  # warm the balancedness cache so that only search LPs remain
    counts = {"lp": 0, "pruned": 0, "nodes": 0}
    solve_standard = exact_linear._solve_standard
    spend = frac_core._Budget.spend
    opposed = frac_core._opposed

    def counting_solve(*args):
        counts["lp"] += 1
        return solve_standard(*args)

    def counting_spend(self):
        counts["nodes"] += 1
        return spend(self)

    def counting_opposed(rows):
        found = opposed(rows)
        counts["pruned"] += found
        return found

    with monkeypatch.context() as m:
        m.setattr(exact_linear, "_solve_standard", counting_solve)
        m.setattr(frac_core._Budget, "spend", counting_spend)
        m.setattr(frac_core, "_opposed", counting_opposed)
        solve()
    return counts["lp"], counts["pruned"], counts["nodes"]


def test_search_runs_one_lp_per_node(monkeypatch):
    # every node runs one LP unless an opposed row pair prunes it first
    deep = pruned = 0
    for game in _differential_games():
        for solve in (
            lambda: fractional_core_solve(game),
            lambda: core_solve(game),
        ):
            lps, cut, nodes = _count_search_lps(monkeypatch, solve)
            assert lps + cut == nodes
            deep = max(deep, nodes)
            pruned += cut
    assert deep > 1
    assert pruned


def _core_point_ok(game, x):
    dist = game.distinguished
    return contains(game.utilities[dist], x) and all(
        u.uplift(x) <= 0 for f, u in enumerate(game.utilities) if f != dist
    )


def _reference_games():
    games = _differential_games()
    rng = random.Random(1312)
    for _ in range(40):
        game = _random_small_game(rng)
        games.append(
            GeneralizedGame(
                game.utilities, game.firm_system, distinguished=rng.randrange(game.firm_count)
            )
        )
    for _ in range(10):
        games.append(embed_coalitional(_random_orthant_ntu(rng)))
    s2 = symmetric_pairs_game_s2()
    games.append(GeneralizedGame(s2.utilities, s2.firm_system, distinguished=1))
    return games


def test_one_lp_search_matches_two_lp_reference():
    import reference_search as ref

    kinds = set()
    for game in _reference_games():
        frac, want = fractional_core_solve(game), ref.fractional_core_solve(game)
        assert type(frac) is type(want)
        if isinstance(frac, Nonempty):
            w = frac.witness
            assert w.active == want.witness.active
            ok, info = verify_fractional_core_point(game, w.point, active=w.active)
            assert ok, info
        core, want_core = core_solve(game), ref.core_solve(game)
        assert type(core) is type(want_core)
        if isinstance(core, CorePoint):
            assert _core_point_ok(game, core.point)
        kinds.add((type(frac).__name__, type(core).__name__))
    assert {f for f, _ in kinds} == {"Nonempty", "Empty"}
    assert {c for _, c in kinds} == {"CorePoint", "Empty"}


# ---------------------------------------------------------------------------
# branching on the condition the LP point violates
# ---------------------------------------------------------------------------


def _late_blocker_game(k):
    """Member firm 0 is a cone with apex 0, the unique LP point of the root.
    Firms 1..k are orthants of two half-spaces far below it, which never
    block; only the last firm's orthant blocks the apex, and escaping its
    first half-space leads to the admissible point (1, -2)."""
    cone = Primitive((HalfSpace((2, 1), 0), HalfSpace((1, 2), 0)))
    utilities = [ComprehensiveSet((cone,))]
    utilities += [ComprehensiveSet((point_orthant((-3 - j, -3 - j)),)) for j in range(k)]
    utilities.append(ComprehensiveSet((point_orthant((1, 1)),)))
    fs = FirmSystem(firms=[(1, 1)] + [(1, 0)] * (k + 1), resource=(1, 1))
    return GeneralizedGame(tuple(utilities), fs, distinguished=0)


def _with_distinguished(game, dist):
    return GeneralizedGame(game.utilities, game.firm_system, distinguished=dist)


def _nested_cylinders_game():
    """Two firms, each balanced alone: firm 0's set x0 + x1 <= 0 lies in
    the interior of firm 1's set x0 + x1 <= 1/2.  Firm 0's row and firm
    1's escape row x0 + x1 >= 1/2 are an opposed pair, so the core search
    and the search over {0} are pruned at their roots; the search over {1}
    finds x0 + x1 = 1/2 with one LP, over rational rows."""
    utilities = (
        ComprehensiveSet((Primitive((HalfSpace((1, 1), 0),)),)),
        ComprehensiveSet((Primitive((HalfSpace((1, 1), Q(1, 2)),)),)),
    )
    fs = FirmSystem(firms=[(1, 1), (1, 1)], resource=(1, 1))
    return GeneralizedGame(utilities, fs, distinguished=0)


# nodes pruned by an opposed row pair in the fractional-core and the core
# search; the prune leaves each search's node count as it was
_PRUNED = {"directed transfers": (2, 0), "nested cylinders": (1, 1)}


@pytest.mark.parametrize(
    "name, game, frac_nodes, core_nodes",
    [
        # the k never-blocking firms come before the blocker; a search that
        # branched on primitives in firm order would spend k + 3 and k + 2
        ("late blocker, k=3", _late_blocker_game(3), 2, 2),
        ("late blocker, k=5", _late_blocker_game(5), 2, 2),
        ("loss sharing", embed_coalitional(loss_sharing_tu()), 1, 1),
        ("loss sharing, modified", embed_coalitional(loss_sharing_tu_modified()), 6, 1),
        ("directed transfers", _with_distinguished(directed_transfers_game(), 0), 6, 1),
        ("nested cylinders", _nested_cylinders_game(), 2, 1),
    ],
)
def test_search_lp_counts(monkeypatch, name, game, frac_nodes, core_nodes):
    # (LPs, pruned, nodes): every node the prune spares runs one LP
    frac_pruned, core_pruned = _PRUNED.get(name, (0, 0))
    frac = _count_search_lps(monkeypatch, lambda: fractional_core_solve(game))
    core = _count_search_lps(monkeypatch, lambda: core_solve(game))
    assert frac == (frac_nodes - frac_pruned, frac_pruned, frac_nodes)
    assert core == (core_nodes - core_pruned, core_pruned, core_nodes)


def test_nested_cylinders_verdicts():
    game = _nested_cylinders_game()
    frac = fractional_core_solve(game)
    assert frac.witness.active == (1,)
    assert sum(frac.witness.point) == Q(1, 2)
    assert core_solve(game) == Empty()


# ---------------------------------------------------------------------------
# the opposed-pair prune: a certificate of infeasibility, and nothing more
# ---------------------------------------------------------------------------


def _pair_opposed(row, other):
    """Whether <a', x> <= b' is <-t*a, x> <= b' with t > 0 and t*b + b' < 0
    for row (a, b), in plain rational arithmetic."""
    (a, b), (a2, b2) = (
        (tuple(map(Q, normal)), Q(bound)) for normal, bound in (row, other)
    )
    k = next(i for i, c in enumerate(a) if c)
    t = -a2[k] / a[k]
    return t > 0 and a2 == tuple(-t * c for c in a) and t * b + b2 < 0


@st.composite
def _search_rows(draw):
    """Rows over 1 to 3 variables along a few base directions, each scaled
    by t = 1, 2, 3, 1/2 or 2/3 and signed, so that opposed pairs and
    same-direction duplicates are common; a row is an integer row or a
    row of rationals, the two forms the search builds."""
    n = draw(st.integers(1, 3))
    normal = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    bases = draw(st.lists(normal, min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        u = draw(st.sampled_from(bases))
        sign = draw(st.sampled_from((1, -1)))
        if draw(st.booleans()):
            t = draw(st.integers(1, 3))
            rows.append((tuple(sign * t * c for c in u), draw(st.integers(-4, 4))))
        else:
            t = draw(st.sampled_from((Q(1), Q(2), Q(1, 2), Q(2, 3))))
            b = Q(draw(st.integers(-8, 8)), draw(st.integers(1, 3)))
            rows.append((tuple(sign * t * c for c in u), b))
    return n, rows


@given(_search_rows())
@example((2, [((1, 2), 3), ((-2, -4), -7)]))  # t = 2: 6 - 7 < 0
@example((2, [((1, 2), 3), ((-2, -4), -6)]))  # 6 - 6 = 0: the line x + 2y = 3
@example((1, [((Q(1, 2),), Q(1)), ((-1,), -3)]))  # x <= 2 and x >= 3
@example((2, [((2, 2), 5), ((1, 1), 1), ((-1, -1), -2)]))  # the tighter duplicate
@settings(max_examples=300, deadline=None)
def test_opposed_rows_are_an_infeasibility_certificate(case):
    from fraccore.exact_linear import Infeasible, LinearSystem, maximize
    from fraccore.frac_core import _opposed

    n, rows = case
    pairs = any(
        _pair_opposed(row, other) for i, row in enumerate(rows) for other in rows[i + 1 :]
    )
    assert _opposed(rows) == pairs
    if pairs:
        assert maximize((1,) * n, LinearSystem(n, leq=tuple(rows))) == Infeasible()


def test_prune_changes_no_verdict_or_witness(monkeypatch):
    # _reference_games() begins with the games of _differential_games()
    from fraccore import frac_core

    opposed, pruned = frac_core._opposed, []

    def counting_opposed(rows):
        found = opposed(rows)
        pruned.append(found)
        return found

    games = _reference_games()
    with monkeypatch.context() as m:
        m.setattr(frac_core, "_opposed", counting_opposed)
        with_prune = [(fractional_core_solve(g), core_solve(g)) for g in games]
    assert any(pruned)
    monkeypatch.setattr(frac_core, "_opposed", lambda rows: False)
    assert [(fractional_core_solve(g), core_solve(g)) for g in games] == with_prune


def test_search_depth_within_primitives_plus_members(monkeypatch):
    from fraccore import frac_core

    search, violation = frac_core._search, frac_core._violation
    state = {"primitives": 0, "bound": 0, "depth": 0}
    nodes = []  # (branchings above a node, #primitives + #members)

    def recording_violation(utilities, membership, escapes, members):
        state["bound"] = state["primitives"] + len(members)
        return violation(utilities, membership, escapes, members)

    def recording_search(n, rows, check, budget):
        nodes.append((state["depth"], state["bound"]))
        state["depth"] += 1
        try:
            return search(n, rows, check, budget)
        finally:
            state["depth"] -= 1

    monkeypatch.setattr(frac_core, "_violation", recording_violation)
    monkeypatch.setattr(frac_core, "_search", recording_search)
    for game in _reference_games():
        state["primitives"] = sum(len(u.primitives) for u in game.utilities)
        fractional_core_solve(game)
        core_solve(game)
    assert all(depth <= bound for depth, bound in nodes)
    assert max(depth for depth, _ in nodes) >= 2


def test_core_point_lies_on_the_distinguished_boundary():
    # the core search escapes every interior, the distinguished one too
    points = 0
    for game in _reference_games():
        core = core_solve(game)
        if isinstance(core, CorePoint):
            assert game.utilities[game.distinguished].uplift(core.point) == 0
            points += 1
    assert points


@pytest.mark.parametrize("solve", [fractional_core_solve, core_solve])
def test_node_cap_raises_mid_search(solve):
    game = _late_blocker_game(3)
    with pytest.raises(CapExceeded):
        solve(game, node_cap=1)
    assert not isinstance(solve(game, node_cap=2), Empty)


# ---------------------------------------------------------------------------
# Scarf: balanced games have core points
# ---------------------------------------------------------------------------


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_balanced_game_with_fractional_core_has_core_point(rng):
    # Scarf's step from the fractional core to the core: a fractional-core
    # point lies in every set of a balanced firm subset, hence in the
    # distinguished set when the game is balanced, and it blocks nowhere
    game = _random_small_game(rng)
    singles = [i for i, u in enumerate(game.utilities) if len(u.primitives) == 1]
    assume(singles)
    game = GeneralizedGame(game.utilities, game.firm_system, distinguished=rng.choice(singles))
    assume(isinstance(is_balanced_game(game), BalancedGame))
    frac = fractional_core_solve(game)
    if isinstance(frac, Nonempty):
        assert _core_point_ok(game, frac.witness.point)
        assert isinstance(core_solve(game), CorePoint)


def test_balanced_game_without_fractional_core_may_have_no_core():
    # the premise above is needed for arbitrary firm systems: {0, 1} is the
    # only balanced subset and contains the distinguished firm, so the game
    # is balanced, but V_0 lies inside the interior of V_1
    fs = FirmSystem(firms=[(1, 0), (0, 1)], resource=(1, 1))
    utilities = (
        ComprehensiveSet((point_orthant((0, 0)),)),
        ComprehensiveSet((point_orthant((1, 1)),)),
    )
    game = GeneralizedGame(utilities, fs, distinguished=0)
    assert is_balanced_game(game) == BalancedGame()
    assert fractional_core_solve(game) == Empty()
    assert core_solve(game) == Empty()


def _random_tu_game(rng):
    """Integer values in [-5, 5]; every other game is built around a core
    point x (v(S) <= x(S), with equality for the grand coalition)."""
    n = rng.randint(2, 3)
    if rng.random() < 0.5:
        return TUGame(n, {c: rng.randint(-5, 5) for c in coalitions(n)})
    x = [rng.randint(-3, 3) for _ in range(n)]
    values = {c: sum(x[i] for i in c) - rng.randint(0, 2) for c in coalitions(n)}
    values[tuple(range(n))] = sum(x)
    return TUGame(n, values)


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_scarf_on_embedded_tu_games(rng):
    # Bondareva-Shapley on both sides of the embedding
    tu = _random_tu_game(rng)
    game = embed_coalitional(tu)
    balanced = isinstance(is_balanced_game(game), BalancedGame)
    assert balanced == isinstance(tu_solver.is_balanced_tu(tu), tu_solver.Balanced)
    assert isinstance(core_solve(game), CorePoint) == balanced
    assert isinstance(tu_solver.core_nonempty(tu), tu_solver.CorePoint) == balanced


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_scarf_on_embedded_ntu_games(rng):
    # classical Scarf: every embedded NTU game has a fractional core, so a
    # balanced one has a core point
    game = embed_coalitional(_random_orthant_ntu(rng))
    if isinstance(is_balanced_game(game), BalancedGame):
        core = core_solve(game)
        assert isinstance(core, CorePoint)
        assert _core_point_ok(game, core.point)


# ---------------------------------------------------------------------------
# integer LP rows beside rational ones, and balance tests kept on systems
# ---------------------------------------------------------------------------


def _rational_game(rng):
    """A small game whose half-spaces have various denominators, so its
    LPs mix rational rows with integer ones; single half-spaces over a few
    coordinates leave directions unbounded, which ``is_balanced_game``
    follows along a ray."""
    n = rng.randint(2, 3)

    def q(lo, hi):
        return Q(rng.randint(lo, hi), rng.randint(1, 4))

    utilities = []
    for _ in range(rng.randint(2, 4)):
        prims = []
        for _ in range(rng.randint(1, 2)):
            halfspaces = []
            for _ in range(rng.randint(1, 2)):
                normal = [q(0, 3) if rng.random() < 0.6 else Q(0) for _ in range(n)]
                if not any(normal):
                    normal[rng.randrange(n)] = q(1, 3)
                halfspaces.append(HalfSpace(tuple(normal), q(-3, 3)))
            prims.append(Primitive(tuple(halfspaces)))
        utilities.append(ComprehensiveSet(tuple(prims)))
    firms = [tuple(q(0, 2) for _ in range(n)) for _ in utilities]
    firms = [v if any(v) else (Q(1),) * n for v in firms]
    resource = tuple(sum(col, Q(0)) for col in zip(*firms))
    fs = FirmSystem(firms=firms, resource=resource)
    return GeneralizedGame(tuple(utilities), fs, distinguished=rng.randrange(len(firms)))


def _rational_rows(utilities):
    """The search's LP rows as the half-spaces' rationals, as the search
    built them before it read the integer rows."""
    return [[tuple((h.normal, h.offset) for h in p.halfspaces) for p in u.primitives]
            for u in utilities]


def test_integer_rows_give_the_rational_rows_results(monkeypatch):
    from fraccore import frac_core

    rng = random.Random(20261)
    games = [_rational_game(rng) for _ in range(60)]
    assert all(
        any(h.scale > 1 for u in g.utilities for p in u.primitives for h in p.halfspaces)
        for g in games
    )

    def solve_all():
        return [(fractional_core_solve(g), core_solve(g), is_balanced_game(g)) for g in games]

    results = solve_all()
    monkeypatch.setattr(frac_core, "_lp_rows", _rational_rows)
    assert results == solve_all()
    kinds = {type(r).__name__ for triple in results for r in triple}
    assert kinds >= {"Nonempty", "Empty", "CorePoint", "BalancedGame", "ViolatedGame"}


def test_lp_rows_keep_integer_rows():
    from fraccore.frac_core import _escape_rows, _lp_rows

    h = HalfSpace((Q(1, 2), Q(1, 3)), Q(5, 6))
    k = HalfSpace((1, 0), 2)
    rows = _lp_rows((ComprehensiveSet((Primitive((h, k)),)),))
    assert rows == [[((h.normal, h.offset), ((1, 0), 2))]]
    # an integer half-space gives its own row; a rational one its rationals
    assert rows[0][0][1][0] is k.row[0] and rows[0][0][0][0] is h.normal
    assert _escape_rows(rows) == [[(((Q(-1, 2), Q(-1, 3)), Q(-5, 6)), ((-1, 0), -2))]]


def test_second_pass_over_many_firm_systems_runs_no_elimination(monkeypatch):
    # each firm system keeps its own tests: no bound on their number
    # evicts an antichain, so a second pass over 80 systems derives none
    from fraccore import balance

    games = [
        GeneralizedGame(
            (ComprehensiveSet((point_orthant((0, 1)),)), ComprehensiveSet((point_orthant((1, 0)),))),
            FirmSystem(firms=((1, k), (k, 1)), resource=(k + 1, k + 1)),
        )
        for k in range(2, 82)
    ]
    eliminated = []
    original = balance.BalanceTest._eliminate

    def spy(self, members):
        eliminated.append(members)
        return original(self, members)

    monkeypatch.setattr(balance.BalanceTest, "_eliminate", spy)
    monkeypatch.setattr(balance, "_live", WeakValueDictionary())
    first = [fractional_core_solve(g) for g in games]
    assert len(eliminated) >= len(games)
    eliminated.clear()
    assert [fractional_core_solve(g) for g in games] == first
    assert eliminated == []
