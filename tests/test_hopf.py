import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_fibered import product_bundle_complex, sphere_complex
from relabel import relabel
from fraccore.errors import CoboundaryUnsolvable, NotSimplicial, NotSphere
from fraccore.topology.complexes import (
    barycentric_subdivision,
    propagate_orientation,
    simplex_boundary,
    validate_closed_manifold,
)
from fraccore.topology.hopf import first_homology, hopf_invariant
from fraccore.topology.s3_12 import COLORING, FACETS, checksum, load, SHA256


def test_asset_checksum_and_load():
    assert checksum() == SHA256
    oc, coloring = load()
    assert oc.complex.num_vertices == 12
    assert len(coloring) == 12
    assert sorted(coloring).count(0) == 3
    assert {coloring.count(c) for c in range(4)} == {3}


def test_asset_manifold_checks():
    oc, _ = load()
    rep = validate_closed_manifold(oc.complex)
    assert rep.closed and rep.connected and rep.orientable
    assert rep.euler == 0
    assert rep.links_ok


def test_asset_is_homology_sphere():
    oc, _ = load()
    betti, torsion = first_homology(oc.complex)
    assert betti == 0 and torsion == []


def test_asset_hopf_invariant_is_one():
    oc, coloring = load()
    assert hopf_invariant(oc, coloring) == 1


def test_orientation_reversal_negates_invariant():
    oc, coloring = load()
    assert hopf_invariant(oc.reversed(), coloring) == -1


def test_mirror_construction_cross_check():
    K, coloring = sphere_complex(flip=True)
    rep = validate_closed_manifold(K)
    assert rep.closed and rep.connected and rep.orientable and rep.euler == 0
    assert first_homology(K) == (0, [])
    oc = propagate_orientation(K)
    assert abs(hopf_invariant(oc, coloring)) == 1


def test_builder_reproduces_asset():
    K, coloring = sphere_complex(flip=False)
    assert K.facets == FACETS
    assert tuple(coloring) == COLORING


def test_constant_map_is_trivial():
    oc, _ = load()
    assert hopf_invariant(oc, [0] * 12) == 0


def test_every_facet_has_at_most_three_colors():
    _, coloring = load()
    for facet in FACETS:
        assert len({coloring[v] for v in facet}) <= 3


def test_four_colored_facet_rejected():
    oc = simplex_boundary(4)  # boundary of the 4-simplex is a 3-sphere
    with pytest.raises(NotSimplicial):
        hopf_invariant(oc, [0, 1, 2, 3, 0])


def test_non_sphere_input_rejected():
    oc = simplex_boundary(2)
    with pytest.raises(NotSphere):
        hopf_invariant(oc, [0, 1, 2])


def test_product_bundle_has_unsolvable_coboundary():
    K, coloring = product_bundle_complex()
    rep = validate_closed_manifold(K)
    assert rep.closed and rep.connected and rep.orientable
    assert rep.euler == 0 and rep.links_ok
    betti, torsion = first_homology(K)
    assert betti == 1  # not a homology sphere
    oc = propagate_orientation(K)
    with pytest.raises(CoboundaryUnsolvable):
        hopf_invariant(oc, coloring)


@pytest.fixture(scope="module")
def subdivided_asset():
    """The asset after one barycentric subdivision, each new vertex coloured
    like the lowest vertex of its carrier (so still simplicial)."""
    oc, coloring = load()
    sd = barycentric_subdivision(oc)
    return sd.oriented, [coloring[min(carrier)] for carrier in sd.carriers]


def test_subdivided_asset_is_homology_sphere(subdivided_asset):
    oc, _ = subdivided_asset
    assert (oc.complex.num_vertices, len(oc.complex.facets)) == (180, 936)
    assert first_homology(oc.complex) == (0, [])


def test_invariant_under_subdivision(subdivided_asset):
    oc, colors = subdivided_asset
    assert hopf_invariant(oc, colors) == 1
    assert hopf_invariant(oc.reversed(), colors) == -1


# ---------------------------------------------------------------------------
# invariants: relabelling with the orientation carried over, reversal
# ---------------------------------------------------------------------------


@given(st.permutations(range(12)))
@settings(max_examples=40, deadline=None)
def test_invariant_under_relabelling(perm):
    oc, coloring = load()
    relabelled, colors = relabel(oc, coloring, perm)
    assert relabelled.coherent()
    assert hopf_invariant(relabelled, colors) == hopf_invariant(oc, coloring) == 1


@given(st.permutations(range(12)))
@settings(max_examples=20, deadline=None)
def test_reversal_negates_relabelled_invariant(perm):
    relabelled, colors = relabel(*load(), perm)
    assert hopf_invariant(relabelled.reversed(), colors) == -hopf_invariant(
        relabelled, colors
    )


@given(st.permutations(range(12)))
@settings(max_examples=20, deadline=None)
def test_mirror_invariant_under_relabelling(perm):
    K, coloring = sphere_complex(flip=True)
    oc = propagate_orientation(K)
    relabelled, colors = relabel(oc, coloring, perm)
    assert hopf_invariant(relabelled, colors) == hopf_invariant(oc, coloring)
