import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from relabel import relabel

from fraccore.errors import BoundaryTouchesBalanced, NotIsolated
from fraccore.gallery import single_bubble_cover, two_bubble_cover
from fraccore.game_model import FirmSystem
from fraccore.topology.complexes import OrientedComplex, SimplicialComplex, propagate_orientation
from fraccore.topology.degree import BalancedSimplexFound, Degree, LabeledCover
from fraccore.topology.index import (
    balanced_components,
    component_index,
    index_sum_check,
)


def test_single_bubble_indices():
    lc = single_bubble_cover(1)
    comps = balanced_components(lc)
    assert len(comps) == 1
    assert component_index(lc, comps[0]) == 1
    lc2 = single_bubble_cover(-1)
    comps2 = balanced_components(lc2)
    assert len(comps2) == 1
    assert component_index(lc2, comps2[0]) == -1


@pytest.mark.parametrize(
    "signs,boundary,indices",
    [((1, 1), 2, [1, 1]), ((1, -1), 0, [1, -1]), ((-1, -1), -2, [-1, -1])],
)
def test_two_bubble_index_sum(signs, boundary, indices):
    lc = two_bubble_cover(*signs)
    rep = index_sum_check(lc)
    assert rep.boundary_degree == Degree(boundary)
    assert [ix for _, ix in rep.components] == indices
    assert rep.sum_matches


def _two_ring_cover(center_labels, rim_label=0):
    """A disk with an inner fan (six triangles around vertex 0) and an
    outer annulus ring, so the inner component stays off the boundary."""
    facets = []
    for i in range(6):
        facets.append(tuple(sorted((0, 1 + i, 1 + (i + 1) % 6))))
    for i in range(6):
        a, b = 1 + i, 1 + (i + 1) % 6
        a2, b2 = 7 + i, 7 + (i + 1) % 6
        facets.append(tuple(sorted((a, b, b2))))
        facets.append(tuple(sorted((a, a2, b2))))
    K = SimplicialComplex(13, tuple(facets))
    oc = propagate_orientation(K)
    fs = FirmSystem(firms=[(2, 1), (0, 2), (1, 0)], resource=(1, 1))
    labels = [center_labels] + [frozenset({rim_label})] * 12
    return LabeledCover(oc, tuple(labels), fs)


def test_constant_boundary_component_has_index_zero():
    # the center vertex carries all three labels, so the inner fan is one
    # balanced component; its neighborhood boundary is constantly labeled
    lc = _two_ring_cover(frozenset({0, 1, 2}))
    comps = balanced_components(lc)
    assert len(comps) == 1 and len(comps[0]) == 6
    assert component_index(lc, comps[0]) == 0


def test_component_validation():
    lc = single_bubble_cover(1)
    with pytest.raises(ValueError):
        component_index(lc, frozenset({0}))  # facet 0 is not balanced


def test_not_isolated_raises():
    lc = two_bubble_cover(1, 1)
    comps = balanced_components(lc)
    assert len(comps) == 2
    # passing only one half of a genuinely split pair works; passing a
    # proper subset of one component trips the isolation check
    first = comps[0]
    partial = frozenset(list(sorted(first))[:1])
    if partial != first:
        with pytest.raises(NotIsolated):
            component_index(lc, partial)


def test_boundary_touching_component_raises():
    # a single triangle region whose only facet is balanced: the component
    # touches the region's own boundary, so no isolating collar exists
    K = SimplicialComplex(3, ((0, 1, 2),))
    oc = OrientedComplex(K, (1,))
    fs = FirmSystem(firms=[(2, 1), (0, 2), (1, 0)], resource=(1, 1))
    lc = LabeledCover(oc, (frozenset({0}), frozenset({1}), frozenset({2})), fs)
    comps = balanced_components(lc)
    assert comps
    with pytest.raises(BoundaryTouchesBalanced):
        component_index(lc, comps[0])


def test_index_sum_check_subdivides_once(monkeypatch):
    from fraccore.topology import index

    calls = []
    subdivide = index.barycentric_subdivision

    def counting(oc):
        calls.append(oc)
        return subdivide(oc)

    monkeypatch.setattr(index, "barycentric_subdivision", counting)
    rep = index_sum_check(two_bubble_cover(1, -1))
    assert len(rep.components) == 2
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# invariance under relabelling the vertices
# ---------------------------------------------------------------------------


def _index_covers():
    covers = [single_bubble_cover(sign) for sign in (1, -1)]
    covers += [two_bubble_cover(a, b) for a, b in ((1, 1), (1, -1), (-1, -1))]
    covers += [_two_ring_cover(frozenset({0, 1, 2})), _two_ring_cover(frozenset({0}))]
    return covers


def _by_facet(lc, report):
    """The report with facet indices replaced by the facets themselves."""
    facets = lc.oriented.complex.facets
    boundary = report.boundary_degree
    if isinstance(boundary, BalancedSimplexFound):
        boundary = BalancedSimplexFound
    components = {frozenset(facets[i] for i in c): ix for c, ix in report.components}
    return boundary, components, report.sum_matches


@pytest.mark.parametrize("index", range(len(_index_covers())))
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_index_sum_invariant_under_relabelling(index, data):
    lc = _index_covers()[index]
    perm = data.draw(st.permutations(range(lc.oriented.complex.num_vertices)))
    oc, labels = relabel(lc.oriented, lc.labels, perm)
    moved = LabeledCover(oc, labels, lc.firm_system)
    boundary, components, matches = _by_facet(lc, index_sum_check(lc))
    images = {
        frozenset(tuple(sorted(perm[v] for v in f)) for f in comp): ix
        for comp, ix in components.items()
    }
    assert _by_facet(moved, index_sum_check(moved)) == (boundary, images, matches)


# ---------------------------------------------------------------------------
# one subdivision of the components' stars
# ---------------------------------------------------------------------------


def _recording(monkeypatch):
    from fraccore.topology import index

    calls = []
    subdivide = index.barycentric_subdivision

    def recording(oc):
        calls.append(oc)
        return subdivide(oc)

    monkeypatch.setattr(index, "barycentric_subdivision", recording)
    return calls


def test_index_sum_check_subdivides_the_components_stars(monkeypatch):
    lc = two_bubble_cover(1, -1)
    facets = lc.oriented.complex.facets
    comps = balanced_components(lc)
    verts = {v for c in comps for idx in c for v in facets[idx]}
    stars = [idx for idx, f in enumerate(facets) if verts.intersection(f)]
    assert len(comps) == 2 and len(stars) < len(facets)
    calls = _recording(monkeypatch)
    index_sum_check(lc)
    assert [(oc.facets, oc.orientation) for oc in calls] == [
        (
            tuple(facets[idx] for idx in stars),
            tuple(lc.oriented.orientation[idx] for idx in stars),
        )
    ]


def test_index_sum_check_without_balanced_facets_subdivides_nothing(monkeypatch):
    lc = _two_ring_cover(frozenset({0}))
    calls = _recording(monkeypatch)
    rep = index_sum_check(lc)
    assert rep.components == () and rep.sum_matches
    assert calls == []


def test_empty_component_rejected():
    with pytest.raises(ValueError, match="a component needs at least one facet"):
        component_index(single_bubble_cover(1), frozenset())
