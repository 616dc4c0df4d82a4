import gc
import sys
import threading
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraccore import balance
from fraccore.balance import (
    BalancedFamily,
    BalanceTest,
    Differs,
    Equivalent,
    NotConvexifiable,
    balance_test,
    balanced_subsets,
    balancing_weights,
    checked_family,
    convex_balancing_weights,
    convexify,
    minimal_balanced_families,
    minimal_balanced_subsets,
    same_balanced_subsets,
)
from fraccore.errors import CapExceeded, CountMismatch, IndexOutOfRange
from fraccore.game_model import FirmSystem, coalition_firm_system, coalitions
from fraccore.rationals import Q


def unit_basis_system():
    # four firms at the unit basis vectors, resource all-ones
    return FirmSystem(firms=[(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
                      resource=(1, 1, 1, 1))


def coalition_system(n):
    return coalition_firm_system(n), coalitions(n)


def test_unit_basis_full_set_balanced():
    fs = unit_basis_system()
    w = balancing_weights((0, 1, 2, 3), fs)
    assert w == (Q(1), Q(1), Q(1), Q(1))


def test_unit_basis_triple_not_balanced():
    fs = unit_basis_system()
    assert balancing_weights((0, 1, 2), fs) is None


def test_pair_family_weights_on_coalition_system():
    fs, coals = coalition_system(3)
    pairs = tuple(coals.index(c) for c in [(0, 1), (0, 2), (1, 2)])
    w = balancing_weights(pairs, fs)
    # firm vectors are half-characteristic vectors, so the classical 1/2
    # weights become 1/3 on the firm side
    assert w == (Q(1, 3), Q(1, 3), Q(1, 3))


def test_weights_resubstitute_exactly():
    fs, coals = coalition_system(3)
    for subset in balanced_subsets(fs, "cone"):
        w = balancing_weights(subset, fs)
        assert w is not None
        total = [Q(0)] * fs.dim
        for wi, i in zip(w, sorted(subset)):
            for k in range(fs.dim):
                total[k] += wi * fs.firms[i][k]
        assert tuple(total) == fs.resource


def test_convex_triangle():
    fs = FirmSystem(firms=[(2, 0), (0, 2), (1, 2)], resource=(1, Q(4, 3)))
    # resource is the barycenter of the three vertices
    w = convex_balancing_weights((0, 1, 2), fs)
    assert w == (Q(1, 3), Q(1, 3), Q(1, 3))
    assert convex_balancing_weights((0, 1), fs) is None


def test_unit_basis_convex_always_fails():
    fs = unit_basis_system()
    # coordinate sums: any convex combination sums to 1, the resource to 4
    for subset in balanced_subsets(fs, "cone"):
        assert convex_balancing_weights(subset, fs) is None


def test_enumerate_unit_basis():
    fs = unit_basis_system()
    assert balanced_subsets(fs, "cone") == [(0, 1, 2, 3)]


def test_enumerate_single_firm():
    fs = FirmSystem(firms=[(2, 2)], resource=(1, 1))
    assert balanced_subsets(fs, "cone") == [(0,)]


def test_enumerate_coalition_convex_membership():
    fs, coals = coalition_system(3)
    found = set(balanced_subsets(fs, "convex"))
    singles = tuple(coals.index(c) for c in [(0,), (1,), (2,)])
    split = tuple(sorted((coals.index((0,)), coals.index((1, 2)))))
    pairs = tuple(sorted(coals.index(c) for c in [(0, 1), (0, 2), (1, 2)]))
    grand = (coals.index((0, 1, 2)),)
    for fam in (singles, split, pairs, grand):
        assert tuple(sorted(fam)) in found
    # supersets stay balanced
    assert tuple(sorted(set(singles) | set(grand))) in found


def test_enumeration_cap():
    fs = FirmSystem(firms=[(1,)] * 25, resource=(1,))
    with pytest.raises(CapExceeded):
        balanced_subsets(fs, "cone")


def test_index_out_of_range():
    fs = unit_basis_system()
    with pytest.raises(IndexOutOfRange):
        balancing_weights((7,), fs)


def test_minimal_families_n1():
    fams = minimal_balanced_families(1)
    assert len(fams) == 1
    assert fams[0].subsets == ((0,),)
    assert fams[0].weights == (Q(1),)


def test_minimal_families_n2():
    fams = minimal_balanced_families(2)
    got = {f.subsets for f in fams}
    assert got == {((0,), (1,)), ((0, 1),)}


def test_minimal_families_n3():
    fams = minimal_balanced_families(3)
    got = {f.subsets: f.weights for f in fams}
    assert len(fams) == 6
    assert got[((0, 1, 2),)] == (Q(1),)
    assert got[((0,), (1,), (2,))] == (Q(1), Q(1), Q(1))
    assert got[((0,), (1, 2))] == (Q(1), Q(1))
    assert got[((1,), (0, 2))] == (Q(1), Q(1))
    assert got[((2,), (0, 1))] == (Q(1), Q(1))
    assert got[((0, 1), (0, 2), (1, 2))] == (Q(1, 2), Q(1, 2), Q(1, 2))


def test_minimal_families_n4_count():
    # 42 verified by independent brute force over all subfamilies of the 15
    # coalitions (balancedness by LP, minimality by direct subfamily search),
    # split 1 + 7 + 12 + 22 across family sizes 1..4
    fams = minimal_balanced_families(4)
    assert len(fams) == 42
    by_size = {}
    for f in fams:
        by_size[len(f.subsets)] = by_size.get(len(f.subsets), 0) + 1
    assert by_size == {1: 1, 2: 7, 3: 12, 4: 22}


def _definition_minimal_families(n):
    """Minimal balanced families by the definition: balanced by an LP, and
    no proper subfamily balanced by an LP.  Families of size <= n suffice
    (Caratheodory); their subfamilies are among them, so each family's LP
    runs once."""
    from fraccore.exact_linear import Feasible, LinearSystem, solve_feasibility

    def weights(family):
        k = len(family)
        eqs = [(tuple(1 if p in s else 0 for s in family), 1) for p in range(n)]
        nonneg = [(tuple(-1 if j == i else 0 for j in range(k)), 0) for i in range(k)]
        res = solve_feasibility(LinearSystem(k, equalities=eqs, leq=nonneg))
        return res.witness if isinstance(res, Feasible) else None

    families = [f for size in range(1, n + 1) for f in combinations(coalitions(n), size)]
    solved = {f: weights(f) for f in families}
    return [
        (f, solved[f])
        for f in families
        if solved[f] is not None
        and not any(solved[sub] is not None
                    for k in range(1, len(f)) for sub in combinations(f, k))
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_minimal_families_match_definition(n):
    got = [(f.subsets, f.weights) for f in minimal_balanced_families(n)]
    want = sorted(_definition_minimal_families(n), key=lambda fw: (len(fw[0]), fw[0]))
    assert got == want


def test_minimal_families_cap():
    with pytest.raises(CapExceeded):
        minimal_balanced_families(6)


def test_minimal_weights_unique():
    # perturbing any single weight breaks the balancing equation
    for fam in minimal_balanced_families(3):
        n = 3
        for k in range(len(fam.weights)):
            bumped = list(fam.weights)
            bumped[k] += Q(1, 7)
            assert not BalancedFamily(fam.subsets, bumped).verify(n)


def test_checked_family_rejects():
    with pytest.raises(ValueError):
        checked_family([(0,), (1,)], [Q(1), Q(2)], 2)


@pytest.mark.parametrize(
    "weights, match", [((1, 1), "one weight per subset"), ((-1,), "nonnegative")]
)
def test_balanced_family_rejects(weights, match):
    with pytest.raises(ValueError, match=match):
        BalancedFamily([(0,)], weights)


def test_families_need_a_player():
    with pytest.raises(ValueError, match="at least one player"):
        minimal_balanced_families(0)


def test_bs_equivalence_needs_equal_firm_counts():
    fs = unit_basis_system()
    fewer = FirmSystem(firms=fs.firms[:3], resource=fs.resource)
    with pytest.raises(CountMismatch):
        same_balanced_subsets(fs, fewer)


def test_bs_equivalent_self():
    fs = unit_basis_system()
    assert same_balanced_subsets(fs, fs, "cone") == Equivalent()


def test_bs_equivalent_under_positive_scaling():
    fs, _ = coalition_system(3)
    scales = [Q(1, 2), Q(3), Q(5, 7), Q(2), Q(9, 4), Q(1), Q(6)]
    fs2 = FirmSystem(
        firms=[tuple(s * c for c in v) for s, v in zip(scales, fs.firms)],
        resource=fs.resource,
    )
    assert same_balanced_subsets(fs, fs2, "cone") == Equivalent()


def test_bs_differs():
    fs1 = FirmSystem(firms=[(1, 0), (0, 1)], resource=(1, 0))
    fs2 = FirmSystem(firms=[(1, 0), (0, 1)], resource=(0, 1))
    res = same_balanced_subsets(fs1, fs2, "cone")
    assert res == Differs((0,))


def test_convexify_unit_basis():
    fs = unit_basis_system()
    out = convexify(fs)
    assert isinstance(out, FirmSystem)
    assert out.firms == tuple(
        tuple(Q(4) * c for c in v) for v in fs.firms
    )
    assert convex_balancing_weights((0, 1, 2, 3), out) == (Q(1, 4),) * 4
    assert same_balanced_subsets(fs, out, "cone") == Equivalent()


def test_convexify_identity_on_plane():
    fs = FirmSystem(firms=[(2, 0), (0, 2)], resource=(1, 1))
    out = convexify(fs)
    assert out.firms == fs.firms


def test_convexify_signals_bad_firm():
    fs = FirmSystem(firms=[(2, -1)], resource=(0, 1))
    assert convexify(fs) == NotConvexifiable(0)


@given(st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=20, deadline=None)
def test_cone_monotonicity(seed_a, seed_b):
    fs, _ = coalition_system(3)
    subsets = balanced_subsets(fs, "cone")
    base = subsets[seed_a % len(subsets)]
    extra = seed_b % fs.count
    enlarged = tuple(sorted(set(base) | {extra}))
    assert balancing_weights(enlarged, fs) is not None


# ---------------------------------------------------------------------------
# the memoized test and the antichain against one LP per subset
# ---------------------------------------------------------------------------


def brute_force_balanced(fs, mode):
    check = balancing_weights if mode == "cone" else convex_balancing_weights
    return [
        subset
        for size in range(1, fs.count + 1)
        for subset in combinations(range(fs.count), size)
        if check(subset, fs) is not None
    ]


@st.composite
def firm_systems(draw, count=None):
    dim = draw(st.integers(2, 4))
    m = count if count is not None else draw(st.integers(1, 6))
    coord = st.integers(-2, 3)
    firms = [tuple(draw(coord) for _ in range(dim)) for _ in range(m)]
    if draw(st.booleans()):
        # the average of a few firms: balanced in both modes
        picks = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3))
        resource = tuple(
            Q(sum(firms[i][k] for i in picks), len(picks)) for k in range(dim)
        )
    else:
        resource = tuple(draw(coord) for _ in range(dim))
    return FirmSystem(firms=firms, resource=resource)


@given(firm_systems(), st.sampled_from(["cone", "convex"]))
@settings(max_examples=80, deadline=None)
def test_antichain_matches_brute_force(fs, mode):
    expected = brute_force_balanced(fs, mode)
    assert balanced_subsets(fs, mode) == expected
    minimal = minimal_balanced_subsets(fs, mode)
    assert list(minimal) == sorted(minimal, key=lambda s: (len(s), s))
    bound = fs.dim + 1 if mode == "convex" else fs.dim
    for a in minimal:
        assert len(a) <= bound
        assert not any(set(b) < set(a) for b in minimal)
    # the antichain is exactly the minimal members of the brute-force family
    found = set(expected)
    assert set(minimal) == {
        s for s in found if not any(set(t) < set(s) for t in found)
    }
    test = balance_test(fs, mode)
    assert [s for s in expected if test(s)] == expected
    assert all(test(s) == (s in found) for s in combinations(range(fs.count), 2))


def test_coalition_system_antichain_pinned():
    fs, _ = coalition_system(4)
    minimal = minimal_balanced_subsets(fs, "cone")
    assert len(minimal) == 42
    assert all(len(s) <= fs.dim for s in minimal)
    assert len(balanced_subsets(fs, "cone")) == 31361


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("mode", ["cone", "convex"])
def test_antichain_runs_no_lp(monkeypatch, n, mode):
    # every candidate of the enumeration is decided by one elimination
    from fraccore import exact_linear

    calls = []
    solve_standard = exact_linear._solve_standard

    def counting_solve(*args):
        calls.append(args)
        return solve_standard(*args)

    fs, _ = coalition_system(n)
    monkeypatch.setattr(exact_linear, "_solve_standard", counting_solve)
    minimal = BalanceTest(fs, mode).minimal()
    assert minimal and calls == []


@pytest.mark.parametrize(
    "fs",
    [
        FirmSystem(firms=[(0, 0), (1, 2), (-1, 3), (0, 0)], resource=(0, 0)),
        FirmSystem(firms=[(), ()], resource=()),
    ],
)
def test_zero_resource_makes_every_singleton_minimal(fs):
    # weight 0 balances a zero resource, on a zero firm vector too, whose
    # column is free in the elimination
    test = BalanceTest(fs, "cone")
    assert test.minimal() == tuple((i,) for i in range(fs.count))
    assert all(test.weights((i,)) == (Q(0),) for i in range(fs.count))


def test_equal_firm_systems_share_one_test():
    fs1, _ = coalition_system(3)
    assert coalition_system(3)[0] is fs1
    fs2 = FirmSystem(firms=fs1.firms, resource=fs1.resource)
    assert fs1 is not fs2
    assert balance_test(fs1, "cone") is balance_test(fs2, "cone")
    assert balance_test(fs1) is balance_test(fs2, mode="cone")
    assert balance_test(fs1, "convex") is balance_test(fs2, "convex")
    assert balance_test(fs1, "convex") is not balance_test(fs1, "cone")


def test_tests_live_as_long_as_their_systems():
    # the registry that lends tests to equal systems holds none alive
    fs = FirmSystem(firms=((7, 1), (1, 7)), resource=(8, 8))
    key = (fs.firms, fs.resource)
    test = balance_test(fs)
    assert test.minimal() == ((0, 1),) and balance._live[key] is fs
    twin = FirmSystem(firms=((7, 1), (1, 7)), resource=(8, 8))
    assert balance_test(twin) is test and twin._tests is fs._tests
    system = weakref.ref(fs)
    del fs, test, twin
    gc.collect()
    assert system() is None and key not in balance._live
    fresh = FirmSystem(firms=((7, 1), (1, 7)), resource=(8, 8))
    assert balance._live.get(key) is None
    assert balance_test(fresh).fs is fresh


def test_first_uses_racing_in_threads_agree():
    # threads that take up equal new systems at once may make two tests;
    # every test answers from the same value (the coalition system tripled,
    # which no other test uses, balances the coalition system's sets)
    fs = coalition_firm_system(3)
    expected = BalanceTest(fs, "cone").minimal()
    results, errors = [], []

    def work():
        try:
            twin = FirmSystem(
                firms=[tuple(3 * x for x in v) for v in fs.firms],
                resource=tuple(3 * x for x in fs.resource),
            )
            test = balance_test(twin, "convex")
            results.append((test.minimal(), balance_test(twin).minimal()))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    convex = BalanceTest(fs, "convex").minimal()
    assert results == [(convex, expected)] * 8


def test_balance_test_rejects_bad_mode_and_members():
    fs = unit_basis_system()
    with pytest.raises(ValueError):
        balance_test(fs, "affine")
    test = balance_test(fs, "cone")
    with pytest.raises(IndexOutOfRange):
        test((0, 9))
    minimal_balanced_subsets(fs, "cone")
    # the members are still checked once the antichain is known
    with pytest.raises(IndexOutOfRange):
        test((0, 9))
    with pytest.raises(IndexOutOfRange):
        test(())


def closure_reference(fs1, fs2, mode):
    b1 = set(brute_force_balanced(fs1, mode))
    b2 = set(brute_force_balanced(fs2, mode))
    if b1 == b2:
        return Equivalent()
    return Differs(min(b1 ^ b2, key=lambda s: (len(s), s)))


@st.composite
def firm_system_pairs(draw):
    fs1 = draw(firm_systems())
    how = draw(st.sampled_from(["rescale", "independent"]))
    if how == "rescale":
        # positive per-firm scaling keeps the cone family, usually not the
        # convex one
        scales = [Q(draw(st.integers(1, 4)), draw(st.integers(1, 3))) for _ in fs1.firms]
        fs2 = FirmSystem(
            firms=[tuple(c * t for c in v) for t, v in zip(scales, fs1.firms)],
            resource=fs1.resource,
        )
    else:
        fs2 = draw(firm_systems(count=fs1.count))
        if fs2.dim != fs1.dim:
            fs2 = FirmSystem(
                firms=[v[: fs1.dim] + (0,) * (fs1.dim - fs2.dim) for v in fs2.firms],
                resource=fs2.resource[: fs1.dim] + (0,) * (fs1.dim - fs2.dim),
            )
    return fs1, fs2


@given(firm_system_pairs(), st.sampled_from(["cone", "convex"]))
@settings(max_examples=60, deadline=None)
def test_same_balanced_subsets_matches_closure_reference(pair, mode):
    fs1, fs2 = pair
    assert same_balanced_subsets(fs1, fs2, mode) == closure_reference(fs1, fs2, mode)


def test_test_weights_come_from_the_deciding_lp():
    fs, coals = coalition_system(3)
    grand = coals.index((0, 1, 2))
    test = balance_test(fs, "cone")
    for subset in test.minimal():
        assert test.weights(subset) == balancing_weights(subset, fs)
    # a non-minimal balanced set is solved once, on request
    assert test.weights((grand, 0)) == balancing_weights((0, grand), fs)
    with pytest.raises(ValueError):
        test.weights((0,))
    with pytest.raises(IndexOutOfRange):
        test.weights((0, 99))


def _answers(test, subsets):
    """Each member set's verdict and weights (None when not balanced)."""
    out = {}
    for s in subsets:
        if test(s):
            out[s] = (True, test.weights(s))
        else:
            with pytest.raises(ValueError):
                test.weights(s)
            out[s] = (False, None)
    return out


@given(firm_systems(), st.sampled_from(["cone", "convex"]), st.data())
@settings(max_examples=60, deadline=None)
def test_balance_test_answers_do_not_depend_on_call_order(fs, mode, data):
    lp = convex_balancing_weights if mode == "convex" else balancing_weights
    subsets = [
        s for size in range(1, fs.count + 1) for s in combinations(range(fs.count), size)
    ]
    expected = {}
    for s in subsets:
        weights = lp(s, fs)
        expected[s] = (weights is not None, weights)
    early = BalanceTest(fs, mode)
    asked = data.draw(st.lists(st.sampled_from(subsets), unique=True))
    before = _answers(early, asked)
    early.minimal()
    late = BalanceTest(fs, mode)
    late.minimal()
    assert before == {s: expected[s] for s in asked}
    assert _answers(early, subsets) == expected
    assert _answers(late, subsets) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_families_are_the_rescaled_coalition_antichain(monkeypatch, n):
    from fraccore import balance

    families = minimal_balanced_families(n)
    fs, coals = coalition_system(n)
    expected = []
    for subset in BalanceTest(fs, "cone").minimal():
        family = [coals[f] for f in subset]
        weights = balancing_weights(subset, fs)
        # sum_S w'_S 1_S / |S| = ones / n, so w_S = n * w'_S / |S|
        classical = [n * w / len(c) for c, w in zip(family, weights)]
        expected.append(checked_family(family, classical, n))
    assert families == sorted(expected, key=lambda f: (len(f.subsets), f.subsets))

    def no_elimination(*args):
        raise AssertionError("the antichain was computed twice")

    # the families filled the shared test of the coalition firm system, which
    # an embedded n-player game then reads without a second enumeration
    monkeypatch.setattr(balance, "gaussian_solve", no_elimination)
    assert len(balance_test(coalition_firm_system(n), "cone").minimal()) == len(families)
