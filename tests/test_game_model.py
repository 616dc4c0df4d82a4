import pytest
import reference_game_model as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from fraccore.balance import balance_test
from fraccore.errors import DimensionMismatch
from fraccore.game_model import (
    CoalitionalNTUGame,
    ComprehensiveSet,
    FirmSystem,
    GeneralizedGame,
    HalfSpace,
    Primitive,
    coalition_cylinder,
    comprehensive_hull,
    contains,
    cover_labels,
    in_induced_cover,
    point_orthant,
    TUGame,
    coalitions,
    tau,
    validate_game,
)
from fraccore.formats import tu_from_json, tu_to_json
from fraccore.rationals import Q, dot, rat, vec


def orthant_set(*points):
    return ComprehensiveSet(tuple(point_orthant(p) for p in points))


def test_contains_orthant_generator():
    # feasible vector for the lone-worker firm that hands everything to
    # player 2: (0, 10, 0) itself is feasible, exceeding a coordinate is not
    u = orthant_set((0, 10, 0))
    assert contains(u, (0, 10, 0))
    assert not contains(u, (0, 10, 1))
    assert contains(u, (-5, 3, -1))


def test_contains_dimension_check():
    u = orthant_set((0, 0))
    with pytest.raises(DimensionMismatch):
        contains(u, (0, 0, 0))


def test_tau_boundary_point():
    u = orthant_set((0, 0, 0))
    assert tau([u], (0, 0, 0)) == 0


def test_tau_closed_form():
    u = orthant_set((0, 0, 0))
    # coordinate gaps are 1, 2, 3; the binding one is 1
    assert tau([u], (-1, -2, -3)) == 1


def test_tau_union_takes_max():
    u = ComprehensiveSet((point_orthant((1, 0)), point_orthant((0, 1))))
    # raising from (-1,-1): first cell allows min(2,1)=1, second min(1,2)=1
    assert tau([u], (-1, -1)) == 1
    v = ComprehensiveSet((point_orthant((3, 3)),))
    assert tau([u, v], (-1, -1)) == 4


def test_induced_cover_membership():
    u1 = orthant_set((1, 0))
    u2 = orthant_set((0, 1))
    fam = [u1, u2]
    assert in_induced_cover(fam, 0, (0, 0))
    assert in_induced_cover(fam, 1, (0, 0))
    assert in_induced_cover(fam, 0, (1, 0))
    assert not in_induced_cover(fam, 1, (1, 0))
    assert cover_labels(fam, (1, 0)) == frozenset({0})


def test_single_set_covers_everything():
    u = orthant_set((2, -1))
    assert in_induced_cover([u], 0, (100, -50))


def test_negative_normal_rejected():
    with pytest.raises(ValueError):
        HalfSpace((1, -1), 0)
    with pytest.raises(ValueError):
        HalfSpace((0, 0), 1)


def _one_firm(dim=1):
    return FirmSystem(firms=[(1,) * dim], resource=(1,) * dim)


def _ntu_sets(grand):
    return {(0,): orthant_set((0,)), (1,): orthant_set((0,)), (0, 1): grand}


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: Primitive(()), ValueError, "at least one half-space"),
        (
            lambda: Primitive((HalfSpace((1,), 0), HalfSpace((1, 1), 0))),
            DimensionMismatch,
            "mixed dimension",
        ),
        (lambda: ComprehensiveSet(()), ValueError, "at least one primitive"),
        (
            lambda: ComprehensiveSet((point_orthant((0,)), point_orthant((0, 0)))),
            DimensionMismatch,
            "mixed dimension",
        ),
        (
            lambda: FirmSystem(firms=[(1, 0), (1,)], resource=(1, 1)),
            DimensionMismatch,
            "firm vector dimension",
        ),
        (
            lambda: GeneralizedGame((orthant_set((0,)),) * 2, _one_firm()),
            DimensionMismatch,
            "one utility set per firm",
        ),
        (
            lambda: GeneralizedGame(
                (orthant_set((0,)), orthant_set((0, 0))),
                FirmSystem(firms=[(1,), (1,)], resource=(1,)),
            ),
            DimensionMismatch,
            "utility sets of mixed dimension",
        ),
        (
            lambda: GeneralizedGame((orthant_set((0,)),), _one_firm(), distinguished=1),
            IndexError,
            "out of range",
        ),
        (lambda: TUGame(1, {(0,): 0, (): 1}), ValueError, "bad coalition"),
        (lambda: TUGame(1, {(0,): 0, (1,): 1}), ValueError, "bad coalition"),
        (lambda: TUGame(2, {(0,): 0, (0, 1): 1}), ValueError, "missing coalition values"),
        (
            lambda: CoalitionalNTUGame(2, _ntu_sets(orthant_set((0,)))),
            DimensionMismatch,
            "must live in 2 coordinates",
        ),
        (
            lambda: CoalitionalNTUGame(2, {(0,): orthant_set((0,))}),
            ValueError,
            "missing coalition sets",
        ),
        (lambda: tau([], (0,)), ValueError, "at least one utility set"),
        (lambda: comprehensive_hull([(0, 1), (1,)]), DimensionMismatch, "mixed dimension"),
        (lambda: dot((1, 2), (1,)), ValueError, "length mismatch"),
        # how many are missing, and the first of them
        (
            lambda: TUGame(3, {(0,): 0, (2,): 0}),
            ValueError,
            r"^missing coalition values: 5, the first \(1,\)$",
        ),
        (
            lambda: CoalitionalNTUGame(2, {(1,): orthant_set((0,))}),
            ValueError,
            r"^missing coalition sets: 2, the first \(0,\)$",
        ),
        # a coalition key is a nonempty set of players of range(n), and no
        # two keys name one coalition
        (lambda: TUGame(1, {(0,): 1, (0, 0): 5}), ValueError, r"^bad coalition \(0, 0\)$"),
        (
            lambda: TUGame(2, {(0,): 0, (1,): 0, (0, 1): 3, (1, 0): 4}),
            ValueError,
            r"^bad coalition \(1, 0\): \(0, 1\) is named twice$",
        ),
        (
            lambda: CoalitionalNTUGame(1, {(0,): orthant_set((0,)), (): orthant_set((0,))}),
            ValueError,
            r"^bad coalition \(\)$",
        ),
        (
            lambda: CoalitionalNTUGame(1, {(0,): orthant_set((0,)), (0, 0): orthant_set((0, 0))}),
            ValueError,
            r"^bad coalition \(0, 0\)$",
        ),
        (
            lambda: CoalitionalNTUGame(1, {(0,): orthant_set((0,)), (5,): orthant_set((0,))}),
            ValueError,
            r"^bad coalition \(5,\)$",
        ),
        (
            lambda: CoalitionalNTUGame(1, {(-1,): orthant_set((0,))}),
            ValueError,
            r"^bad coalition \(-1,\)$",
        ),
        (
            lambda: CoalitionalNTUGame(
                2, {**_ntu_sets(orthant_set((0, 0))), (1, 0): orthant_set((0, 0))}
            ),
            ValueError,
            r"^bad coalition \(1, 0\): \(0, 1\) is named twice$",
        ),
        # a game has a utility set and a player
        (
            lambda: GeneralizedGame((), FirmSystem((), (1,))),
            ValueError,
            r"^a game needs at least one utility set$",
        ),
        (lambda: TUGame(0, {}), ValueError, r"^a game needs at least one player, got n = 0$"),
        (lambda: TUGame(-1, {}), ValueError, r"^a game needs at least one player, got n = -1$"),
        (
            lambda: CoalitionalNTUGame(0, {}),
            ValueError,
            r"^a game needs at least one player, got n = 0$",
        ),
    ],
)
def test_constructors_and_inputs_rejected(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_cylinder():
    c = coalition_cylinder(3, (0, 2), 5)
    s = ComprehensiveSet((c,))
    assert contains(s, (5, 1000, 0))
    assert not contains(s, (5, 0, 1))


def test_validate_game_passes_on_sane_game():
    # three players, two firms in R^2
    u1 = orthant_set((1, 1, 1))
    u2 = ComprehensiveSet((coalition_cylinder(3, (0, 1), 4),))
    fs = FirmSystem(firms=[(1, 0), (0, 1)], resource=(1, 1))
    game = GeneralizedGame((u1, u2), fs)
    report = validate_game(game)
    assert report.ok, report.failures()


def test_validate_game_zero_firm_fails():
    u1 = orthant_set((0, 0))
    fs = FirmSystem(firms=[(0, 0)], resource=(0, 1))
    report = validate_game(GeneralizedGame((u1,), fs))
    names = {c.name: c.passed for c in report.checks}
    assert not names["firm_totals_positive"]
    assert not report.ok
    failed = [c.name for c in report.failures()]
    assert failed == ["firm_totals_positive", "resource_in_cone"]


def test_validate_game_resource_outside_cone():
    u1 = orthant_set((0, 0))
    fs = FirmSystem(firms=[(1, 0)], resource=(0, 1))
    report = validate_game(GeneralizedGame((u1,), fs))
    names = {c.name: c.passed for c in report.checks}
    assert not names["resource_in_cone"]


small_rats = st.fractions(min_value=-5, max_value=5, max_denominator=4).map(rat)


@st.composite
def comprehensive_families(draw, dim=3):
    nsets = draw(st.integers(1, 3))
    sets = []
    for _ in range(nsets):
        nprims = draw(st.integers(1, 2))
        prims = []
        for _ in range(nprims):
            kind = draw(st.booleans())
            if kind:
                p = draw(st.lists(small_rats, min_size=dim, max_size=dim))
                prims.append(point_orthant(p))
            else:
                members = draw(st.lists(st.integers(0, dim - 1), min_size=1, unique=True))
                prims.append(coalition_cylinder(dim, members, draw(small_rats)))
        sets.append(ComprehensiveSet(tuple(prims)))
    return sets


@given(comprehensive_families(), st.lists(small_rats, min_size=3, max_size=3), small_rats)
@settings(max_examples=60, deadline=None)
def test_translation_property(fam, x, s):
    ones = vec((1, 1, 1))
    shifted = tuple(a + s for a in x)
    assert tau(fam, shifted) == tau(fam, x) - s


@given(comprehensive_families(), st.lists(small_rats, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_cover_property(fam, x):
    labels = cover_labels(fam, x)
    assert labels, "the induced cover must cover every point"
    for i in labels:
        assert in_induced_cover(fam, i, x)


@given(
    comprehensive_families(),
    st.lists(small_rats, min_size=3, max_size=3),
    small_rats,
)
@settings(max_examples=60, deadline=None)
def test_ray_invariance(fam, x, t):
    before = cover_labels(fam, x)
    after = cover_labels(fam, tuple(a + t for a in x))
    assert before == after


@given(comprehensive_families(), st.lists(small_rats, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_boundary_property(fam, x):
    t = tau(fam, x)
    eps = Q(1, 1000)
    on_boundary = tuple(a + t for a in x)
    above = tuple(a + t + eps for a in x)
    assert any(contains(u, on_boundary) for u in fam)
    assert not any(contains(u, above) for u in fam)


@given(
    comprehensive_families(),
    st.lists(small_rats, min_size=3, max_size=3),
    st.lists(st.fractions(min_value=0, max_value=3, max_denominator=4).map(rat), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_monotonicity(fam, x, drop):
    lower = tuple(a - d for a, d in zip(x, drop))
    for u in fam:
        if contains(u, x):
            assert contains(u, lower)


def test_properness_always_holds_for_class():
    u = orthant_set((3, 3, 3), (0, 5, 1))
    assert u.is_proper()


@given(comprehensive_families())
@settings(max_examples=60, deadline=None)
def test_the_origin_raised_past_its_uplift_is_excluded(fam):
    # the proof behind is_proper: the uplift falls by exactly t along
    # x + t * ones, so it reads -1 one step past the origin's uplift
    for u in fam:
        t = u.uplift((0, 0, 0)) + 1
        assert u.uplift((t, t, t)) == -1
        assert not contains(u, (t, t, t))


def test_cover_labels_evaluates_each_uplift_once(monkeypatch):
    """``cover_labels``, ``in_induced_cover`` and ``tau`` scale the point
    once and read each set's slack exactly once, without going through the
    public ``uplift``."""
    from fraccore import game_model

    fam = [orthant_set((1, 0)), orthant_set((0, 1)), orthant_set((2, -1), (-1, 2))]
    scalings, slacks, uplifts = [], [], []
    clear, slack = game_model._clear_denominators, ComprehensiveSet._slack

    def counting_clear(values):
        scalings.append(tuple(values))
        return clear(values)

    def counting_slack(self, p, d):
        slacks.append(self)
        return slack(self, p, d)

    monkeypatch.setattr(game_model, "_clear_denominators", counting_clear)
    monkeypatch.setattr(ComprehensiveSet, "_slack", counting_slack)
    monkeypatch.setattr(ComprehensiveSet, "uplift", lambda self, x: uplifts.append(self))
    for x in [(0, 0), (1, 0), (-3, 5), (Q(1, 2), Q(-2, 3))]:
        calls = [lambda: cover_labels(fam, x), lambda: tau(fam, x)]
        calls += [lambda i=i: in_induced_cover(fam, i, x) for i in range(len(fam))]
        for call in calls:
            scalings.clear()
            slacks.clear()
            call()
            assert scalings == [vec(x)]
            assert sorted(map(id, slacks)) == sorted(map(id, fam))
        assert not uplifts
        labels = cover_labels(fam, x)
        assert [in_induced_cover(fam, i, x) for i in range(len(fam))] == [
            i in labels for i in range(len(fam))
        ]


def test_cover_labels_dimension_check():
    fam = [orthant_set((0, 0)), orthant_set((1, -1))]
    for x in [(0, 0, 0), (0,)]:
        with pytest.raises(DimensionMismatch):
            cover_labels(fam, x)
        with pytest.raises(DimensionMismatch):
            in_induced_cover(fam, 0, x)


def _reference_hull(points):
    """comprehensive_hull trying every (point subset, axis subset) system."""
    from itertools import combinations

    from fraccore.linalg import nullspace
    from fraccore.rationals import dot

    pts = [vec(p) for p in points]
    n = len(pts[0])
    seen = {}
    for t_size in range(1, len(pts) + 1):
        for t_idx in combinations(range(len(pts)), t_size):
            anchor = pts[t_idx[0]]
            rows = [[pts[i][k] - anchor[k] for k in range(n)] for i in t_idx[1:]]
            for j_size in range(0, n):
                for axes in combinations(range(n), j_size):
                    system = rows + [[Q(int(k == j)) for k in range(n)] for j in axes]
                    if not system:
                        continue
                    kernel = nullspace(system)
                    if len(kernel) != 1:
                        continue
                    normal = kernel[0]
                    if all(c <= 0 for c in normal):
                        normal = tuple(-c for c in normal)
                    if any(c < 0 for c in normal) or all(c == 0 for c in normal):
                        continue
                    offset = dot(normal, anchor)
                    if any(dot(normal, p) > offset for p in pts):
                        continue
                    scale = sum(normal, Q(0))
                    key = (tuple(c / scale for c in normal), offset / scale)
                    seen[key] = HalfSpace(key[0], key[1])
    return tuple(seen[k] for k in sorted(seen))


@st.composite
def point_sets(draw):
    dim = draw(st.integers(2, 4))
    coords = st.integers(-3, 3) if dim == 4 else small_rats
    point = st.lists(coords, min_size=dim, max_size=dim)
    return draw(st.lists(point, min_size=1, max_size=4 if dim < 4 else 3))


@given(point_sets())
@settings(max_examples=150, deadline=None)
def test_comprehensive_hull_matches_all_systems(points):
    from fraccore.game_model import comprehensive_hull

    want = _reference_hull(points)
    if not want:
        with pytest.raises(ValueError):
            comprehensive_hull(points)
    else:
        assert comprehensive_hull(points).halfspaces == want


def test_comprehensive_hull_needs_a_facet():
    from fraccore.game_model import comprehensive_hull

    with pytest.raises(ValueError):
        comprehensive_hull([(3,)])
    square = comprehensive_hull([(1, 0), (0, 1)])
    assert {(h.normal, h.offset) for h in square.halfspaces} == {
        ((Q(1), Q(0)), Q(1)),
        ((Q(0), Q(1)), Q(1)),
        ((Q(1, 2), Q(1, 2)), Q(1, 2)),
    }


def test_tu_games_compare_by_values():
    low = TUGame(2, {(0,): 0, (1,): 0, (0, 1): 1})
    high = TUGame(2, {(0,): 5, (1,): 5, (0, 1): 1})
    assert low != high
    same = TUGame(2, {(1, 0): 1, (1,): 0, (0,): 0})
    assert same == low and hash(same) == hash(low)


def test_ntu_games_compare_by_sets():
    def game(grand):
        return CoalitionalNTUGame(
            2, {c: orthant_set((grand,) * len(c) if len(c) == 2 else (0,)) for c in coalitions(2)}
        )

    assert game(1) != game(2)
    assert game(1) == game(1) and hash(game(1)) == hash(game(1))


def test_game_mappings_are_read_only():
    values = {(0,): 0, (1,): 0, (0, 1): 1}
    tu = TUGame(2, values)
    with pytest.raises(TypeError):
        tu.values[(0, 1)] = 2
    assert tu.values == values
    assert tu_to_json(tu_from_json(tu_to_json(tu))) == tu_to_json(tu)
    ntu = CoalitionalNTUGame(
        2, {c: orthant_set((1,) * len(c)) for c in coalitions(2)}
    )
    with pytest.raises(TypeError):
        ntu.sets[(0,)] = orthant_set((2,))


def test_firm_system_equality_and_hash_ignore_its_tests():
    fs = FirmSystem(firms=((1, 0), (Q(1, 2), 1)), resource=(1, 1))
    assert fs._derived is None
    assert hash(fs) == hash((fs.firms, fs.resource))
    balance_test(fs)
    assert fs._derived
    same = FirmSystem(firms=((1, 0), (Q(1, 2), 1)), resource=(1, 1))
    assert same == fs and hash(same) == hash(fs)
    assert repr(same) == repr(fs) and "_derived" not in repr(fs)
    assert fs != FirmSystem(firms=((1, 0), (Q(1, 2), 1)), resource=(1, 2))


# ---------------------------------------------------------------------------
# integer rows against the rational closed forms
# ---------------------------------------------------------------------------


def test_wrong_length_points_raise_dimension_mismatch():
    cset = ComprehensiveSet((point_orthant((1, 2)),))
    for x in [(0,), (0, 0, 0)]:
        with pytest.raises(DimensionMismatch):
            cset.uplift(x)
        with pytest.raises(DimensionMismatch):
            contains(cset, x)


denominators = st.sampled_from((1, 2, 3, 4, 6, 12))
mixed_rats = st.builds(Q, st.integers(-36, 36), denominators)
normal_entries = st.one_of(st.just(Q(0)), st.builds(Q, st.integers(1, 12), denominators))


@st.composite
def halfspaces(draw, dim):
    normal = draw(st.lists(normal_entries, min_size=dim, max_size=dim))
    if not any(normal):
        normal[draw(st.integers(0, dim - 1))] = draw(normal_entries.filter(bool))
    return HalfSpace(tuple(normal), draw(mixed_rats))


@st.composite
def primitives(draw, dim):
    return Primitive(tuple(draw(st.lists(halfspaces(dim), min_size=1, max_size=3))))


def _rescaled(prim, k):
    """The same cell with every half-space's normal and offset times k."""
    return Primitive(
        tuple(HalfSpace(tuple(a * k for a in h.normal), h.offset * k) for h in prim.halfspaces)
    )


@st.composite
def families_and_points(draw):
    """Sets in R^1..R^4 with fractional data, a point with mixed denominators,
    and forced ties: a primitive (and a set) whose uplift at the point equals
    a drawn primitive's, and duplicated sets, some rescaled."""
    dim = draw(st.integers(1, 4))
    x = tuple(draw(st.lists(mixed_rats, min_size=dim, max_size=dim)))
    sets = [
        ComprehensiveSet(tuple(draw(st.lists(primitives(dim), min_size=1, max_size=3))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    if draw(st.booleans()):
        # p - R^n_+ with min(p - x) equal to a drawn primitive's uplift at x
        prim = draw(st.sampled_from(sets[draw(st.integers(0, len(sets) - 1))].primitives))
        t = ref.primitive_uplift(prim, x)
        gaps = st.builds(Q, st.integers(0, 12), denominators)
        w = draw(st.lists(gaps, min_size=dim, max_size=dim))
        w[draw(st.integers(0, dim - 1))] = Q(0)
        tied = point_orthant(tuple(c + t + e for c, e in zip(x, w)))
        i = draw(st.integers(0, len(sets) - 1))
        sets[i] = ComprehensiveSet((*sets[i].primitives, tied))
        sets.append(ComprehensiveSet((tied,)))
    for _ in range(draw(st.integers(0, 2))):
        dup = draw(st.sampled_from(sets))
        k = draw(st.sampled_from((Q(1), Q(2), Q(1, 3), Q(7, 4))))
        sets.append(ComprehensiveSet(tuple(_rescaled(p, k) for p in dup.primitives)))
    return draw(st.permutations(sets)), x


def _agrees_with_reference(fam, x):
    for u in fam:
        up = u.uplift(x)
        assert type(up) is Q and up == ref.set_uplift(u, x)
        assert contains(u, x) == ref.set_contains(u, x)
        for p in u.primitives:
            cell = ComprehensiveSet((p,))
            assert cell.uplift(x) == ref.primitive_uplift(p, x)
            assert contains(cell, x) == ref.primitive_contains(p, x)
    assert tau(fam, x) == ref.tau(fam, x)
    assert cover_labels(fam, x) == ref.cover_labels(fam, x)


@given(families_and_points())
@settings(max_examples=300, deadline=None)
def test_integer_rows_match_the_rational_closed_forms(case):
    fam, x = case
    _agrees_with_reference(fam, x)
    # x + tau*ones lies on the boundary of every set attaining tau, and
    # x raised by a primitive's own uplift lies on that primitive's boundary
    t = ref.tau(fam, x)
    raised = tuple(c + t for c in x)
    _agrees_with_reference(fam, raised)
    for u in fam:
        for p in u.primitives:
            y = tuple(c + ref.primitive_uplift(p, x) for c in x)
            cell = ComprehensiveSet((p,))
            assert contains(cell, y) and cell.uplift(y) == 0


def test_equal_integer_rows_do_not_make_half_spaces_equal():
    h, k = HalfSpace((Q(1, 2), 1), Q(3, 2)), HalfSpace((1, 2), 3)
    assert h.row == k.row and h != k
    assert (h.scale, k.scale) == (2, 1)
    assert Primitive((h,)) != Primitive((k,))
    assert "row" not in repr(h) and "rows" not in repr(Primitive((h,)))
    assert "scale" not in repr(h)


@given(halfspaces(2), halfspaces(2))
@settings(max_examples=300, deadline=None)
def test_equality_and_hash_read_only_normal_and_offset(h, k):
    rational = (h.normal, h.offset) == (k.normal, k.offset)
    assert (h == k) == rational
    assert (Primitive((h,)) == Primitive((k,))) == rational
    same = HalfSpace(h.normal, h.offset)
    assert same == h and hash(same) == hash(h)
    assert hash(Primitive((same,))) == hash(Primitive((h,)))
    assert hash(h) == hash((h.normal, h.offset))
