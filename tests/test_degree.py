import random
from functools import cache
from unittest import mock
from weakref import WeakValueDictionary

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from relabel import relabel

from fraccore.errors import CapExceeded, DimensionMismatch, NotClosedManifold
from fraccore.frac_core import embed_coalitional
from fraccore.gallery import loss_sharing_tu
from fraccore.game_model import FirmSystem
from fraccore.rationals import Q
from fraccore.topology.complexes import (
    OrientedComplex,
    SimplicialComplex,
    barycentric_subdivision,
    simplex_boundary,
)
from fraccore.topology.degree import (
    MAX_DEPTH,
    BalancedSimplexFound,
    CubeRegion,
    Degree,
    LabeledCover,
    SimplexRegion,
    closed_star_cover,
    induce_labeling,
    pl_degree,
    rainbow_simplices,
    subdivide_cover,
)


def unit_firms(m):
    firms = [tuple(Q(1) if j == i else Q(0) for j in range(m)) for i in range(m)]
    return FirmSystem(firms=firms, resource=tuple(Q(1, m) for _ in range(m)))


def identity_cover(k):
    fs = unit_firms(k + 2)
    oc = simplex_boundary(k + 1)
    return LabeledCover(oc, [frozenset({i}) for i in range(k + 2)], fs)


def sperner_complex(k, depth):
    """Subdivided simplex boundary plus the original-vertex carrier sets."""
    oc = simplex_boundary(k + 1)
    carriers = [(v,) for v in range(k + 2)]
    for _ in range(depth):
        sub = barycentric_subdivision(oc)
        carriers = [
            tuple(sorted(set().union(*(carriers[v] for v in face))))
            for face in sub.carriers
        ]
        oc = sub.oriented
    return oc, carriers


@pytest.mark.parametrize("k", [1, 2, 3])
def test_identity_labeling_degree_one(k):
    assert pl_degree(identity_cover(k)) == Degree(1)


@pytest.mark.parametrize("k", [1, 2])
def test_orientation_reversal_negates(k):
    lc = identity_cover(k)
    flipped = LabeledCover(lc.oriented.reversed(), lc.labels, lc.firm_system)
    assert pl_degree(flipped) == Degree(-1)


@pytest.mark.parametrize("k", [1, 2])
def test_subdivision_invariance(k):
    lc = identity_cover(k)
    assert pl_degree(subdivide_cover(lc)) == pl_degree(lc)


def test_random_sperner_labelings_quick():
    rng = random.Random(5150)
    for k, depth, trials in ((1, 2, 12), (2, 1, 8)):
        oc, carriers = sperner_complex(k, depth)
        fs = unit_firms(k + 2)
        for _ in range(trials):
            labels = [frozenset({rng.choice(c)}) for c in carriers]
            assert pl_degree(LabeledCover(oc, labels, fs)) == Degree(1)


def test_constant_labeling_degree_zero():
    lc = identity_cover(2)
    constant = LabeledCover(lc.oriented, [frozenset({0})] * 4, lc.firm_system)
    assert pl_degree(constant) == Degree(0)


def test_square_cycle_cyclic_labeling():
    fs = FirmSystem(
        firms=[(1, 1), (-1, 1), (-1, -1), (1, -1)], resource=("1/5", "1/7")
    )
    K = SimplicialComplex(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    oc = OrientedComplex(K, (1, 1, 1, -1))
    lc = LabeledCover(oc, [frozenset({i}) for i in range(4)], fs)
    assert pl_degree(lc) == Degree(1)


def test_balanced_simplex_detected():
    # resource on the segment between the first two firms: any edge labeled
    # {0,1} is convex balanced
    fs = FirmSystem(firms=[(1, 0), (0, 1), (-1, -1)], resource=("1/2", "1/2"))
    K = SimplicialComplex(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    oc = OrientedComplex(K, (1, 1, 1, -1))
    lc = LabeledCover(oc, [frozenset({i % 2}) for i in range(4)], fs)
    res = pl_degree(lc)
    assert isinstance(res, BalancedSimplexFound)


def test_dimension_mismatch_raises():
    # firm span of dimension 3 vs a 1-manifold needs span 2
    fs = unit_firms(4)
    K = SimplicialComplex(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    oc = OrientedComplex(K, (1, 1, 1, -1))
    with pytest.raises(DimensionMismatch):
        pl_degree(LabeledCover(oc, [frozenset({i}) for i in range(4)], fs))


def test_not_closed_raises():
    fs = FirmSystem(firms=[(1, 0), (0, 1), (-1, -1)], resource=("1/3", "1/3"))
    K = SimplicialComplex(3, ((0, 1), (1, 2)))
    oc = OrientedComplex(K, (1, 1))
    with pytest.raises(NotClosedManifold):
        pl_degree(LabeledCover(oc, [frozenset({0})] * 3, fs))


@pytest.mark.parametrize(
    "labels, message",
    [
        ([{0}, {1}], "one label set per vertex"),
        ([{0}, set(), {2}], "at least one label"),
        ([{0}, {1}, {3}], "outside the firm range"),
        ([{0}, {-1}, {2}], "outside the firm range"),
    ],
)
def test_labeled_cover_rejects_bad_labels(labels, message):
    with pytest.raises(ValueError, match=message):
        LabeledCover(simplex_boundary(2), labels, unit_firms(3))


def test_incoherent_orientation_raises():
    # a closed cover with one facet's sign flipped
    lc = identity_cover(2)
    oc = lc.oriented
    flipped = OrientedComplex(oc.complex, (-oc.orientation[0], *oc.orientation[1:]))
    assert pl_degree(lc) == Degree(1)
    with pytest.raises(NotClosedManifold, match="orientation is not coherent"):
        pl_degree(LabeledCover(flipped, lc.labels, lc.firm_system))


def test_induce_labeling_rejections():
    game = embed_coalitional(loss_sharing_tu())
    triangle = SimplexRegion([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(CapExceeded, match="depth"):
        induce_labeling(game, triangle, MAX_DEPTH + 1)
    with pytest.raises(DimensionMismatch, match="region vertices"):
        induce_labeling(game, SimplexRegion([(0, 0, 0), (1, 0)]), 0)
    with pytest.raises(TypeError, match="SimplexRegion or CubeRegion"):
        induce_labeling(game, triangle.vertices, 0)


@pytest.mark.parametrize("depth", [-1, -3])
@pytest.mark.parametrize(
    "region",
    [
        SimplexRegion([(0, 0, 0), (1, 0, 0), (0, 1, 0)]),
        CubeRegion((0, 0, 0), 1),
    ],
    ids=["simplex", "cube"],
)
def test_induce_labeling_rejects_a_negative_depth(region, depth):
    game = embed_coalitional(loss_sharing_tu())
    with pytest.raises(ValueError, match=f"depth must be nonnegative, got {depth}"):
        induce_labeling(game, region, depth)


def test_embedded_cover_degree_one_quick():
    game = embed_coalitional(loss_sharing_tu())
    c = Q(60)
    third = Q(1, 3)
    region = SimplexRegion(
        tuple(
            tuple(-c * ((Q(1) if j == i else Q(0)) - third) for j in range(3))
            for i in range(3)
        )
    )
    lc = induce_labeling(game, region, 3)
    res = pl_degree(lc)
    assert res == Degree(1) or isinstance(res, BalancedSimplexFound)


def test_rainbow_monochromatic_empty():
    fs = unit_firms(4)
    oc = simplex_boundary(3)
    mono = LabeledCover(oc, [frozenset({1})] * 4, fs)
    assert rainbow_simplices(mono, "cone") == []


def test_rainbow_self_labeled_boundary_convex_empty():
    fs = unit_firms(4)
    oc = simplex_boundary(3)
    lc = LabeledCover(oc, [frozenset({i}) for i in range(4)], fs)
    assert rainbow_simplices(lc, "convex") == []


def test_rainbow_detects_balanced_union():
    fs = unit_firms(3)
    oc = simplex_boundary(2)
    lc = LabeledCover(oc, [frozenset({0}), frozenset({1}), frozenset({2})], fs)
    # every edge misses one firm: cone-balanced needs all three
    assert rainbow_simplices(lc, "cone") == []
    enriched = LabeledCover(
        oc, [frozenset({0, 2}), frozenset({1}), frozenset({2})], fs
    )
    assert enriched.labels[0] == frozenset({0, 2})
    out = rainbow_simplices(enriched, "cone")
    assert out == [(0, 1)]


def test_induced_labeling_is_total_and_cover():
    from fraccore.gallery import directed_transfers_game

    game = directed_transfers_game()
    third = Q(1, 3)
    region = SimplexRegion(
        tuple(
            tuple(-Q(30) * ((Q(1) if j == i else Q(0)) - third) for j in range(3))
            for i in range(3)
        )
    )
    lc = induce_labeling(game, region, 3)
    assert all(len(ls) >= 1 for ls in lc.labels)


def test_closed_star_cover_labels():
    oc = simplex_boundary(3)
    fs = unit_firms(4)
    lc = closed_star_cover(oc, (0, 1, 2, 3), fs)
    # a vertex barycenter sees the colors of all facets through that vertex
    carrier_index = {face: w for w, face in enumerate(barycentric_subdivision(oc).carriers)}
    assert lc.labels[carrier_index[(0,)]] == frozenset({0, 1, 2, 3})
    # a facet barycenter sees only its own colors
    assert lc.labels[carrier_index[(0, 1, 2)]] == frozenset({0, 1, 2})


# ---------------------------------------------------------------------------
# the memoized balancedness test against one LP per facet
# ---------------------------------------------------------------------------


@cache
def _fixture_covers():
    from fraccore.gallery import single_bubble_cover, two_bubble_cover
    from fraccore.topology.s3_12 import load

    covers = [identity_cover(k) for k in (1, 2, 3)]
    rng = random.Random(2718)
    oc, carriers = sperner_complex(2, 1)
    for _ in range(3):
        labels = [frozenset(rng.sample(range(4), rng.randint(1, 2))) for _ in carriers]
        covers.append(LabeledCover(oc, labels, unit_firms(4)))
    fs = FirmSystem(firms=[(1, 0), (0, 1), (-1, -1)], resource=("1/2", "1/2"))
    K = SimplicialComplex(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    covers.append(
        LabeledCover(OrientedComplex(K, (1, 1, 1, -1)), [frozenset({i % 2}) for i in range(4)], fs)
    )
    game = embed_coalitional(loss_sharing_tu())
    third = Q(1, 3)
    region = SimplexRegion(
        tuple(
            tuple(-Q(60) * ((Q(1) if j == i else Q(0)) - third) for j in range(3))
            for i in range(3)
        )
    )
    covers.append(induce_labeling(game, region, 2))
    covers += [two_bubble_cover(1, -1), single_bubble_cover(1)]
    sphere, coloring = load()
    covers.append(closed_star_cover(sphere, coloring, unit_firms(4)))
    return tuple(covers)


def _assert_balanced_facets_match_the_reference(lc):
    import reference_degree

    from fraccore.topology.index import balanced_facet_indices

    facets = lc.oriented.complex.facets
    for mode in ("cone", "convex"):
        expected = reference_degree.balanced_facets(lc, mode)
        assert rainbow_simplices(lc, mode) == [facets[i] for i in expected]
    assert balanced_facet_indices(lc) == reference_degree.balanced_facets(lc, "convex")


def test_topology_balancedness_matches_per_facet_lps():
    from fraccore.balance import convex_balancing_weights

    degrees = 0
    for lc in _fixture_covers():
        _assert_balanced_facets_match_the_reference(lc)
        try:
            res = pl_degree(lc)
        except (DimensionMismatch, NotClosedManifold):
            continue
        # the first facet whose lowest labels are convex balanced, by LP
        first = [
            facet
            for facet in lc.oriented.complex.facets
            if convex_balancing_weights(
                sorted({min(lc.labels[u]) for u in facet}), lc.firm_system
            )
            is not None
        ][:1]
        if first:
            assert res == BalancedSimplexFound(first[0])
        else:
            assert isinstance(res, Degree)
            degrees += 1
    assert degrees >= 3


@st.composite
def balance_covers(draw):
    """Sperner covers of unit firms, random label sets over small random
    firm systems, and plane-field covers with extra labels added."""
    from fraccore.gallery import plane_field_cover

    kind = draw(st.sampled_from(["sperner", "random", "field"]), label="kind")
    if kind == "field":
        count = draw(st.integers(1, 2), label="zeros")
        half = st.integers(-3, 2).map(lambda c: Q(2 * c + 1, 2))
        zeros = draw(st.lists(st.tuples(half, half), min_size=count, max_size=count))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=count, max_size=count))
        lc = plane_field_cover(tuple(signs), tuple(zeros), radius=draw(st.integers(2, 3)))
        extra = st.sets(st.integers(0, 2), max_size=1)
        labels = [ls | draw(extra) for ls in lc.labels]
        return LabeledCover(lc.oriented, labels, lc.firm_system)
    k = draw(st.integers(1, 2), label="k")
    oc, carriers = sperner_complex(k, draw(st.integers(0, 2 - k), label="depth"))
    if kind == "sperner":
        labels = [draw(st.sets(st.sampled_from(c), min_size=1, max_size=2)) for c in carriers]
        return LabeledCover(oc, labels, unit_firms(k + 2))
    d = draw(st.integers(1, 3), label="d")
    m = draw(st.integers(2, 5), label="m")
    point = st.tuples(*[st.integers(-2, 2)] * d)
    fs = FirmSystem(firms=draw(st.lists(point, min_size=m, max_size=m)), resource=draw(point))
    labels = [draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=2)) for _ in carriers]
    return LabeledCover(oc, labels, fs)


@given(balance_covers())
@settings(max_examples=60, deadline=None)
def test_balanced_facets_match_the_per_facet_reference(lc):
    _assert_balanced_facets_match_the_reference(lc)


def _cycle_cover(labels):
    """A cycle through the vertices in order, labelled by single firms of
    (1, 0), (0, 1), (-1, -1) around (1/2, 1/2): a facet is balanced, in
    either mode, exactly when its labels are firms 0 and 1."""
    from fraccore.topology.complexes import propagate_orientation

    m = len(labels)
    K = SimplicialComplex(m, tuple(tuple(sorted((i, (i + 1) % m))) for i in range(m)))
    fs = FirmSystem(firms=[(1, 0), (0, 1), (-1, -1)], resource=("1/2", "1/2"))
    return LabeledCover(propagate_orientation(K), [frozenset({c}) for c in labels], fs)


def _counting_balance_calls(monkeypatch):
    from fraccore.balance import BalanceTest

    calls = []
    call = BalanceTest.__call__

    def counting(self, subset):
        calls.append(tuple(sorted(subset)))
        return call(self, subset)

    monkeypatch.setattr(BalanceTest, "__call__", counting)
    return calls


# facets in order (0, 1), (1, 2), ..., (6, 7), (0, 7): the ordered tuple
# ({0}, {2}) of facet (1, 2) repeats at (3, 4), before any balanced facet,
# and the balanced facet (0, 7) repeats the tuple ({0}, {1}) of the balanced
# facet (6, 7) before it
BALANCED_CYCLE = (0, 0, 2, 0, 2, 1, 0, 1)
# the same first four facets, and no facet labelled by firms 0 and 1
UNBALANCED_CYCLE = (0, 0, 2, 0, 2, 2, 1, 2)


@pytest.mark.parametrize("mode", ["cone", "convex"])
def test_balanced_facets_test_each_ordered_label_tuple_once(monkeypatch, mode):
    from fraccore.topology.degree import _balanced_facets

    lc = _cycle_cover(BALANCED_CYCLE)
    facets = lc.oriented.complex.facets
    tuples = [tuple(lc.labels[u] for u in f) for f in facets]
    assert len(set(tuples)) == 6 < len(facets)
    calls = _counting_balance_calls(monkeypatch)
    assert _balanced_facets(lc, mode) == [5, 6, 7]
    assert tuples[7] == tuples[6]
    # one call per distinct ordered tuple, in the order facets reach them;
    # ({0}, {2}) and ({2}, {0}) are distinct tuples with one union
    assert calls == [(0,), (0, 2), (0, 2), (1, 2), (0, 1), (0, 1)]


@pytest.mark.parametrize(
    "labels, facet, expected",
    [
        # skips the repeat at (3, 4) and stops at the first balanced facet
        (BALANCED_CYCLE, (5, 6), [(0,), (0, 2), (0, 2), (1, 2), (0, 1)]),
        # every distinct tuple is tested once before the rays
        (UNBALANCED_CYCLE, None, [(0,), (0, 2), (0, 2), (2,), (1, 2), (1, 2)]),
    ],
    ids=["balanced", "unbalanced"],
)
def test_pl_degree_tests_each_chosen_label_tuple_once(monkeypatch, labels, facet, expected):
    lc = _cycle_cover(labels)
    calls = _counting_balance_calls(monkeypatch)
    res = pl_degree(lc)
    assert calls == expected
    if facet is None:
        assert isinstance(res, Degree)
    else:
        assert res == BalancedSimplexFound(facet)


# ---------------------------------------------------------------------------
# invariance under relabelling the vertices
# ---------------------------------------------------------------------------


def relabel_cover(lc, perm):
    oc, labels = relabel(lc.oriented, lc.labels, perm)
    return LabeledCover(oc, labels, lc.firm_system)


def _degree_or_error(lc):
    try:
        return pl_degree(lc)
    except (DimensionMismatch, NotClosedManifold) as exc:
        return type(exc)


@pytest.mark.parametrize("index", range(len(_fixture_covers())))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_pl_degree_invariant_under_relabelling(index, data):
    from fraccore.balance import balance_test

    lc = _fixture_covers()[index]
    perm = data.draw(st.permutations(range(lc.oriented.complex.num_vertices)))
    before, after = _degree_or_error(lc), _degree_or_error(relabel_cover(lc, perm))
    if isinstance(before, BalancedSimplexFound):
        # the first balanced facet in the new vertex order may be another one
        assert isinstance(after, BalancedSimplexFound)
        preimage = sorted(perm.index(w) for w in after.facet)
        assert tuple(preimage) in lc.oriented.complex.facets
        chosen = {min(lc.labels[u]) for u in preimage}
        assert balance_test(lc.firm_system, "convex")(chosen)
    else:
        assert after == before


# ---------------------------------------------------------------------------
# one reduction per image simplex, against the public linalg calls
# ---------------------------------------------------------------------------

# zero-heavy entries: integers of both signs and non-integers
entries = st.one_of(
    st.just(Q(0)),
    st.integers(-4, 4).map(Q),
    st.builds(Q, st.integers(-9, 9), st.integers(1, 6)),
)
positive = st.one_of(st.integers(1, 4).map(Q), st.builds(Q, st.integers(1, 9), st.integers(1, 6)))
# column entries: zeros only as often as the integers and fractions give them
values = st.one_of(st.integers(-4, 4).map(Q), st.builds(Q, st.integers(-9, 9), st.integers(1, 6)))


def _combination(coeffs, cols):
    return [sum((c * col[r] for c, col in zip(coeffs, cols)), Q(0)) for r in range(len(cols[0]))]


@st.composite
def image_simplices(draw):
    """Columns and a ray in R^n, n = 1..4, with singular, repeated and
    rank-deficient columns and rays on a face or inside a singular span
    forced often, not left to chance."""
    n = draw(st.integers(1, 4))
    cols = [[draw(values) for _ in range(n)] for _ in range(n)]
    if n > 1:
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        shape = draw(st.sampled_from(["free", "repeated", "combined", "zero"]))
        if shape == "repeated":
            cols[i] = list(cols[j])
        elif shape == "combined":
            cols[i] = _combination((draw(entries), draw(entries)), (cols[j], cols[k]))
        elif shape == "zero":
            cols[i] = [Q(0)] * n
    ray_kind = draw(st.sampled_from(["free", "interior", "face", "span"]))
    if ray_kind == "free":
        ray = [draw(entries) for _ in range(n)]
    else:
        coeff = {"interior": positive, "face": st.one_of(st.just(Q(0)), positive), "span": entries}
        coeffs = [draw(coeff[ray_kind]) for _ in range(n)]
        if ray_kind == "face":
            coeffs[draw(st.integers(0, n - 1))] = Q(0)
        ray = _combination(coeffs, cols)
    return cols, ray


@given(image_simplices())
@settings(max_examples=400, deadline=None)
def test_crossing_matches_the_three_call_classification(case):
    from reference_degree import crossing

    from fraccore.topology.degree import _crossing

    cols, ray = case
    assert repr(_crossing(cols, ray)) == repr(crossing(cols, ray))


@st.composite
def firm_systems(draw):
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    firms = [[draw(entries) for _ in range(d)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        i, j, k = (draw(st.integers(0, m - 1)) for _ in range(3))
        firms[i] = _combination((draw(entries), draw(entries)), (firms[j], firms[k]))
    resource = [draw(entries) for _ in range(d)]
    if draw(st.booleans()):
        firms[draw(st.integers(0, m - 1))] = list(resource)
    return FirmSystem(firms=firms, resource=resource), draw(st.integers(0, 3))


def _coordinates_or_error(fn, fs, k):
    try:
        return repr(fn(fs, k))
    except DimensionMismatch as exc:
        return str(exc)


@given(firm_systems())
@settings(max_examples=200, deadline=None)
def test_affine_coordinates_match_affine_basis_and_per_firm_solves(case):
    from reference_degree import affine_coordinates

    from fraccore.topology.degree import _affine_coordinates

    fs, k = case
    assert _coordinates_or_error(_affine_coordinates, fs, k) == _coordinates_or_error(
        affine_coordinates, fs, k
    )


def _over_a_fresh_system(lc):
    """The cover over a new firm system equal to its own, which has no
    derived data yet."""
    fs = lc.firm_system
    return LabeledCover(lc.oriented, lc.labels, FirmSystem(firms=fs.firms, resource=fs.resource))


def ray_on_image_cover():
    fs = FirmSystem(firms=[(1, 0), (0, 1), (-1, -2)], resource=(0, 0))
    return LabeledCover(simplex_boundary(2), [frozenset({i}) for i in range(3)], fs)


@pytest.mark.parametrize(
    "cover,tried",
    [
        # the first ray (1, 2, ..., 2^k) is transversal on every facet
        (lambda: identity_cover(1), 3),
        (lambda: identity_cover(2), 4),
        (lambda: identity_cover(3), 5),
        # 24 facets, but only 9 distinct ordered label tuples
        (lambda: _fixture_covers()[3], 9),
        # (1, 2) is the negative of the third firm's image, so it lies in
        # the span of the first facet's column and the second ray is tried
        (lambda: ray_on_image_cover(), 1 + 3),
        # a balanced facet is returned before any ray is tried
        (lambda: _fixture_covers()[6], 0),
    ],
    ids=["identity-1", "identity-2", "identity-3", "sperner", "retry", "balanced"],
)
def test_pl_degree_reduces_once_per_facet_per_ray(monkeypatch, cover, tried):
    # the name predates the chordal map kept per firm system: a facet whose
    # ordered label tuple an earlier facet had, in this cover or in one over
    # an equal live system, reuses that facet's reduction
    from fraccore import balance, linalg
    from fraccore.topology import degree

    monkeypatch.setattr(balance, "_live", WeakValueDictionary())
    lc = _over_a_fresh_system(cover())
    calls = []
    reduce = linalg._reduce

    def counting(rows, width):
        calls.append(width)
        return reduce(rows, width)

    monkeypatch.setattr(linalg, "_reduce", counting)
    monkeypatch.setattr(degree, "_reduce", counting, raising=False)
    first = pl_degree(lc)
    # on a system no live system equals: one reduction for the firm
    # coordinates, then one per distinct ordered chosen-label tuple per ray
    # tried
    assert len(calls) == 1 + tried
    # an equal but distinct system reads all of them from the shared map
    twin = _over_a_fresh_system(lc)
    assert twin.firm_system is not lc.firm_system
    assert pl_degree(twin) == first and len(calls) == 1 + tried


@st.composite
def ray_prone_covers(draw):
    """Closed spheres labelled from unit firms and extra firms that are
    often positive multiples of the first or second ray, so a facet whose
    chosen labels include one has the ray in a column's span and forces a
    retry; the resource shifts every firm and leaves the coordinates alone.
    Sperner labelings over the unit firms and -(1, ..., 1), the last firm,
    give nonzero degrees."""
    k = draw(st.integers(1, 2), label="k")
    depth = draw(st.integers(0, 1), label="depth")
    oc, carriers = sperner_complex(k, depth)
    n = k + 1
    rays = [tuple(s**p for p in range(n)) for s in (2, 3)]
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    extra = draw(
        st.lists(
            st.one_of(
                st.tuples(*[st.integers(-3, 3)] * n),
                st.builds(
                    lambda c, ray: tuple(c * x for x in ray),
                    st.integers(1, 3),
                    st.sampled_from(rays),
                ),
            ),
            min_size=1,
            max_size=3,
        ),
        label="extra",
    )
    shift = draw(st.tuples(*[st.integers(-2, 2)] * n), label="shift")
    # unit firms first, so the greedy basis is theirs and coordinates are
    # the vectors drawn
    vectors = unit + extra + [(-1,) * n]
    fs = FirmSystem(firms=[tuple(a + b for a, b in zip(v, shift)) for v in vectors], resource=shift)
    # hypothesis favours small draws; count them from the last firm so the
    # extra firms are the ones favoured
    last = len(vectors) - 1
    index = st.integers(0, last).map(lambda i: last - i)
    sperner = draw(st.booleans(), label="sperner")
    labels = []
    for c in carriers:
        if sperner and draw(st.integers(0, 3)):
            # carrier vertex v < n is unit firm v, and v = n the last firm
            v = draw(st.sampled_from(c))
            labels.append({v if v < n else last})
        else:
            labels.append(draw(st.sets(index, min_size=1, max_size=2)))
    # a vertex whose chosen firm is a multiple of the first ray makes every
    # facet through it degenerate for that ray
    on_first_ray = {
        n + i for i, v in enumerate(extra) if v[0] > 0 and v == tuple(v[0] * x for x in rays[0])
    }
    forced = any(min(ls) in on_first_ray for ls in labels)
    return LabeledCover(oc, labels, fs), forced


@given(ray_prone_covers())
@settings(max_examples=150, deadline=None)
def test_pl_degree_matches_the_per_facet_reference_loop(case):
    import reference_degree

    lc, forced = case
    expected, tried = reference_degree.pl_degree(lc)
    assert pl_degree(lc) == expected
    if forced:
        assert isinstance(expected, BalancedSimplexFound) or tried > 1


def test_a_label_on_the_first_ray_forces_a_retry():
    # the retry path the strategy above aims at, on one fixed cover
    import reference_degree

    fs = FirmSystem(firms=[(1, 0), (0, 1), (2, 4)], resource=(0, 0))
    oc, _ = sperner_complex(1, 1)
    labels = [frozenset({2 if u == 0 else u % 2}) for u in range(oc.complex.num_vertices)]
    lc = LabeledCover(oc, labels, fs)
    expected, tried = reference_degree.pl_degree(lc)
    assert tried > 1 and isinstance(expected, Degree)
    assert pl_degree(lc) == expected


def _reference_or_error(lc):
    import reference_degree

    try:
        return reference_degree.pl_degree(lc)[0]
    except (DimensionMismatch, NotClosedManifold) as exc:
        return type(exc)


def _assert_cold_and_warm_match_the_reference(lc, perm):
    """pl_degree on a system no live system equals, again on it, and on a
    relabelled copy over an equal system, against the reference loop."""
    from fraccore import balance

    with mock.patch.object(balance, "_live", WeakValueDictionary()):
        cold = _over_a_fresh_system(lc)
        moved = relabel_cover(_over_a_fresh_system(lc), perm)
        got = [_degree_or_error(cold), _degree_or_error(cold), _degree_or_error(moved)]
    expected = _reference_or_error(cold)
    assert got == [expected, expected, _reference_or_error(moved)]


@given(ray_prone_covers(), st.data())
@settings(max_examples=100, deadline=None)
def test_pl_degree_cold_and_warm_match_the_reference(case, data):
    lc, _ = case
    perm = data.draw(st.permutations(range(lc.oriented.complex.num_vertices)))
    _assert_cold_and_warm_match_the_reference(lc, perm)


@pytest.mark.parametrize("index", range(len(_fixture_covers())))
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_pl_degree_cold_and_warm_match_the_reference_on_fixture_covers(index, data):
    lc = _fixture_covers()[index]
    perm = data.draw(st.permutations(range(lc.oriented.complex.num_vertices)))
    _assert_cold_and_warm_match_the_reference(lc, perm)


def test_first_uses_of_a_chordal_map_racing_in_threads_agree(monkeypatch):
    # threads that take up equal new systems at once may each reduce an
    # entry and store it; every degree still equals the reference loop's
    import sys
    import threading

    import reference_degree

    from fraccore import balance

    monkeypatch.setattr(balance, "_live", WeakValueDictionary())
    covers = [ray_on_image_cover(), _fixture_covers()[3]]
    expected = [reference_degree.pl_degree(lc)[0] for lc in covers]
    results, errors = [], []

    def work():
        try:
            results.append([pl_degree(_over_a_fresh_system(lc)) for lc in covers])
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
    assert results == [expected] * 8


def test_a_dimension_mismatch_stores_nothing_and_the_right_dimension_succeeds(monkeypatch):
    from fraccore import balance

    monkeypatch.setattr(balance, "_live", WeakValueDictionary())
    fs = unit_firms(3)  # a span of dimension 2: degrees of 1-manifolds only
    wrong = LabeledCover(simplex_boundary(3), [{0}, {1}, {2}, {0}], fs)
    for _ in range(2):
        with pytest.raises(DimensionMismatch, match="need 3"):
            pl_degree(wrong)
        assert ("chordal", 2) not in fs._derived
    right = LabeledCover(simplex_boundary(2), [{0}, {1}, {2}], fs)
    assert pl_degree(right) == Degree(1) and ("chordal", 1) in fs._derived
    with pytest.raises(DimensionMismatch, match="need 3"):
        pl_degree(wrong)


@pytest.mark.parametrize(
    "facets, signs, message",
    [
        # a path: its two end ridges lie in one facet each
        (((0, 1), (1, 2)), (1, 1), "every ridge in exactly two facets"),
        # open and incoherent: the closedness check comes first
        (((0, 1), (1, 2)), (1, -1), "every ridge in exactly two facets"),
        # a closed cycle with one sign flipped
        (((0, 1), (1, 2), (0, 2)), (1, 1, 1), "orientation is not coherent"),
    ],
)
def test_pl_degree_rejects_open_or_incoherent_complexes(facets, signs, message):
    fs = FirmSystem(firms=[(1, 0), (0, 1), (-1, -1)], resource=("1/3", "1/3"))
    oc = OrientedComplex(SimplicialComplex(3, facets), signs)
    with pytest.raises(NotClosedManifold, match=message):
        pl_degree(LabeledCover(oc, [frozenset({0})] * 3, fs))


# ---------------------------------------------------------------------------
# simplex regions: integer barycentres against the Fraction reference, and
# induced labelings at the reference positions
# ---------------------------------------------------------------------------


def _as_rationals(numerators, D):
    """Positions given as integer numerators over one common denominator D,
    as tuples of rationals; the numerators must be ints and D positive."""
    assert type(D) is int and D > 0
    assert all(type(c) is int for p in numerators for c in p)
    return [tuple(Q(c, D) for c in p) for p in numerators]


def _assert_subdivision_matches_reference(vertices, depth):
    from reference_degree import subdivide_with_positions

    from fraccore.topology.degree import _subdivide_with_positions

    oc = simplex_boundary(len(vertices) - 1)
    got, numerators, D = _subdivide_with_positions(oc, list(vertices), depth)
    positions = _as_rationals(numerators, D)
    ref, ref_positions = subdivide_with_positions(oc, list(vertices), depth)
    assert got.complex == ref.complex
    assert got.orientation == ref.orientation
    assert positions == ref_positions
    assert repr(positions) == repr(ref_positions)


@pytest.mark.parametrize("depth", range(5))
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_integer_barycentres_match_fraction_reference(depth, data):
    k = data.draw(st.integers(1, 3), label="k")
    n = data.draw(st.integers(1, 4), label="n")
    point = st.tuples(*[values] * n)
    vertices = data.draw(st.lists(point, min_size=k + 1, max_size=k + 1), label="vertices")
    _assert_subdivision_matches_reference(vertices, depth)


def test_integer_barycentres_match_fraction_reference_at_depth_six():
    vertices = [(Q(-7, 2), 5, Q(1, 3)), (2, Q(-9, 4), 0), (-1, -1, Q(6, 5))]
    _assert_subdivision_matches_reference([tuple(map(Q, v)) for v in vertices], 6)


def _triangle(c):
    third = Q(1, 3)
    return tuple(
        tuple(-c * ((Q(1) if j == i else Q(0)) - third) for j in range(3)) for i in range(3)
    )


@pytest.mark.parametrize(
    "n, vertices, depth",
    [
        (3, _triangle(Q(60)), 0),
        (3, _triangle(Q(60)), 3),
        (3, _triangle(Q(-121, 2)), 6),
        (3, ((Q(-7, 2), 5, Q(1, 3)), (2, Q(-9, 4), 0), (-40, 11, Q(-5, 6))), 4),
        (4, tuple(tuple(Q(-9 if j == i else 3, 2) for j in range(4)) for i in range(4)), 2),
    ],
)
def test_induced_simplex_labeling_reads_cover_labels_at_reference_positions(n, vertices, depth):
    from reference_degree import subdivide_with_positions

    from fraccore.game_model import cover_labels

    game = _cube_game(n)
    region = SimplexRegion(vertices)
    lc = induce_labeling(game, region, depth)
    oc, positions = subdivide_with_positions(
        simplex_boundary(len(vertices) - 1), list(region.vertices), depth
    )
    assert lc.oriented == oc
    assert lc.labels == tuple(cover_labels(game.utilities, p) for p in positions)


@pytest.mark.parametrize(
    "region",
    [SimplexRegion(_triangle(Q(-121, 2))), CubeRegion(("-7/2", 5, "1/3"), "5/2")],
    ids=["simplex", "cube"],
)
def test_induce_labeling_labels_integer_numerators_without_cover_labels(monkeypatch, region):
    from fraccore import game_model
    from fraccore.game_model import ComprehensiveSet

    def refuse(*args):
        raise AssertionError("no per-vertex cover_labels call or point scaling")

    game = _cube_game(3)
    expected = induce_labeling(game, region, 2)
    points = []
    slack = ComprehensiveSet._slack

    def recording(self, p, d):
        points.append((p, d))
        return slack(self, p, d)

    monkeypatch.setattr(game_model, "cover_labels", refuse)
    monkeypatch.setattr(game_model, "_clear_denominators", refuse)
    monkeypatch.setattr(ComprehensiveSet, "_slack", recording)
    lc = induce_labeling(game, region, 2)
    assert lc == expected
    # every set's slack once per vertex, on integer numerators over one D
    assert len(points) == len(game.utilities) * lc.oriented.complex.num_vertices
    assert len({d for _, d in points}) == 1
    assert all(type(c) is int for p, d in points for c in (*p, d))


# ---------------------------------------------------------------------------
# cube regions: the boundary grid against its frame-vector reference, and
# induced labelings of payoff dimensions 3 and 4
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, depth", [(3, depth) for depth in range(6)] + [(4, depth) for depth in range(4)]
)
@given(center=st.lists(values, min_size=4, max_size=4), halfwidth=positive)
@settings(max_examples=8, deadline=None)
def test_cube_boundary_grid_matches_frame_vector_reference(n, depth, center, halfwidth):
    from reference_degree import cube_boundary_grid

    from fraccore.topology.degree import _cube_boundary_grid

    oc, numerators, D = _cube_boundary_grid(n, center[:n], halfwidth, depth)
    positions = _as_rationals(numerators, D)
    ref_oc, ref_positions = cube_boundary_grid(n, center[:n], halfwidth, depth)
    assert oc == ref_oc
    assert repr(positions) == repr(ref_positions)


def _cube_game(n):
    from fraccore.gallery import symmetric_pairs_game_s2

    return embed_coalitional(loss_sharing_tu()) if n == 3 else symmetric_pairs_game_s2()


@pytest.mark.parametrize(
    "n, center, halfwidth, depth",
    [
        (3, (-20, -12, -3), 10, 0),
        (3, (-20, -12, -3), 10, 3),
        (3, ("-7/2", 5, "1/3"), "5/2", 5),
        (4, (0, 0, 0, 0), 3, 0),
        (4, (2, -5, 1, 2), "3/2", 1),
        (4, ("-1/2", 4, -3, "-1/2"), 2, 2),
    ],
)
def test_induced_cube_labeling_is_a_closed_coherent_boundary(n, center, halfwidth, depth):
    import reference_complexes

    from fraccore.game_model import cover_labels
    from fraccore.topology.degree import _cube_boundary_grid

    region = CubeRegion(center, halfwidth)
    game = _cube_game(n)
    lc = induce_labeling(game, region, depth)
    K = lc.oriented.complex
    d = n - 1
    assert len(K.facets) == (4 * 2**depth if d == 2 else 12 * 4**depth)
    assert K.dim == d - 1
    assert all(len(inc) == 2 for inc in K.ridges().values())
    assert K.is_connected() and lc.oriented.coherent()
    assert reference_complexes.euler_characteristic(K) == (0 if d == 2 else 2)
    # every labeled position lies on the cube's boundary: its frame
    # coefficients are in [-1, 1] with one at +-1, and the frame e_i - e_last
    # keeps the coordinate sum
    oc, numerators, D = _cube_boundary_grid(n, region.center, region.halfwidth, depth)
    positions = _as_rationals(numerators, D)
    assert oc == lc.oriented
    assert len(set(positions)) == K.num_vertices
    assert lc.labels == tuple(cover_labels(game.utilities, p) for p in positions)
    for p in positions:
        assert sum(p) == sum(region.center)
        coeffs = [(p[i] - region.center[i]) / region.halfwidth for i in range(d)]
        assert max(abs(c) for c in coeffs) == 1
    assert isinstance(pl_degree(lc), (Degree, BalancedSimplexFound))


@pytest.mark.parametrize("halfwidth", [0, "0", "0/3", -1, "-1/2", Q(-3, 4)])
def test_cube_region_rejects_nonpositive_halfwidth(halfwidth):
    # zero puts every vertex on the center; a negative value reflects the grid
    with pytest.raises(ValueError, match="halfwidth must be positive"):
        CubeRegion((0, 0, 0), halfwidth)


def test_cube_region_rejects_other_dimensions():
    from fraccore.game_model import TUGame

    pair = embed_coalitional(TUGame(2, {(0,): 0, (1,): 0, (0, 1): 1}))
    with pytest.raises(DimensionMismatch, match="payoff dimensions 3 and 4"):
        induce_labeling(pair, CubeRegion((0, 0), 1), 0)
    with pytest.raises(DimensionMismatch, match="center"):
        induce_labeling(_cube_game(3), CubeRegion((0, 0), 1), 0)
