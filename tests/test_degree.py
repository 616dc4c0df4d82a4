import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from relabel import relabel

from fraccore.errors import DimensionMismatch, NotClosedManifold
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


def _per_facet(lc, fn, label_sets):
    return [
        i
        for i, facet in enumerate(lc.oriented.complex.facets)
        if fn(sorted(label_sets(facet)), lc.firm_system) is not None
    ]


def test_topology_balancedness_matches_per_facet_lps():
    from fraccore.balance import balancing_weights, convex_balancing_weights
    from fraccore.topology.index import balanced_facet_indices

    degrees = 0
    for lc in _fixture_covers():
        facets = lc.oriented.complex.facets

        def union(facet, lc=lc):
            return set().union(*(lc.labels[u] for u in facet))

        def lowest(facet, lc=lc):
            return {min(lc.labels[u]) for u in facet}

        for mode, fn in (("cone", balancing_weights), ("convex", convex_balancing_weights)):
            expected = [facets[i] for i in _per_facet(lc, fn, union)]
            assert rainbow_simplices(lc, mode) == expected
        assert balanced_facet_indices(lc) == _per_facet(lc, convex_balancing_weights, union)
        try:
            res = pl_degree(lc)
        except (DimensionMismatch, NotClosedManifold):
            continue
        first = _per_facet(lc, convex_balancing_weights, lowest)[:1]
        if first:
            assert res == BalancedSimplexFound(facets[first[0]])
        else:
            assert isinstance(res, Degree)
            degrees += 1
    assert degrees >= 3


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
        (lambda: _fixture_covers()[3], 24),
        # (1, 2) is the negative of the third firm's image, so it lies in
        # the span of the first facet's column and the second ray is tried
        (lambda: ray_on_image_cover(), 1 + 3),
        # a balanced facet is returned before any ray is tried
        (lambda: _fixture_covers()[6], 0),
    ],
    ids=["identity-1", "identity-2", "identity-3", "sperner", "retry", "balanced"],
)
def test_pl_degree_reduces_once_per_facet_per_ray(monkeypatch, cover, tried):
    from fraccore import linalg
    from fraccore.topology import degree

    lc = cover()
    calls = []
    reduce = linalg._reduce

    def counting(rows, width):
        calls.append(width)
        return reduce(rows, width)

    monkeypatch.setattr(linalg, "_reduce", counting)
    monkeypatch.setattr(degree, "_reduce", counting, raising=False)
    pl_degree(lc)
    # one reduction for the firm coordinates, one per facet per ray tried
    assert len(calls) == 1 + tried


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

    oc, positions = _cube_boundary_grid(n, center[:n], halfwidth, depth)
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
    assert K.euler_characteristic() == (0 if d == 2 else 2)
    # every labeled position lies on the cube's boundary: its frame
    # coefficients are in [-1, 1] with one at +-1, and the frame e_i - e_last
    # keeps the coordinate sum
    oc, positions = _cube_boundary_grid(n, region.center, region.halfwidth, depth)
    assert oc == lc.oriented
    assert len(set(positions)) == K.num_vertices
    assert lc.labels == tuple(cover_labels(game.utilities, p) for p in positions)
    for p in positions:
        assert sum(p) == sum(region.center)
        coeffs = [(p[i] - region.center[i]) / region.halfwidth for i in range(d)]
        assert max(abs(c) for c in coeffs) == 1
    assert isinstance(pl_degree(lc), (Degree, BalancedSimplexFound))


def test_cube_region_rejects_other_dimensions():
    from fraccore.game_model import TUGame

    pair = embed_coalitional(TUGame(2, {(0,): 0, (1,): 0, (0, 1): 1}))
    with pytest.raises(DimensionMismatch, match="payoff dimensions 3 and 4"):
        induce_labeling(pair, CubeRegion((0, 0), 1), 0)
    with pytest.raises(DimensionMismatch, match="center"):
        induce_labeling(_cube_game(3), CubeRegion((0, 0), 1), 0)
