import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_fibered import product_bundle_complex, sphere_complex
from relabel import relabel
from fraccore.errors import CoboundaryUnsolvable, NotSimplicial, NotSphere
from fraccore.topology import s3_12
from fraccore.topology.complexes import (
    OrientedComplex,
    SimplicialComplex,
    barycentric_subdivision,
    propagate_orientation,
    simplex_boundary,
    validate_closed_manifold,
)
from fraccore.topology.hopf import first_homology, hopf_invariant
from fraccore.topology.s3_12 import COLORING, FACETS, checksum, load, SHA256

# the 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7
TORUS7 = tuple(
    tuple(sorted((i, (i + d) % 7, (i + 3) % 7))) for i in range(7) for d in (1, 2)
)


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


@pytest.mark.parametrize(
    "vertices, facets, homology",
    [
        # a circle: no triangles, one independent cycle
        (3, [(0, 1), (1, 2), (0, 2)], (1, [])),
        # two points: no edges
        (2, [(0,), (1,)], (0, [])),
        # two disjoint circles
        (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], (2, [])),
        # two disjoint tetrahedron boundaries
        (
            8,
            [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
             (4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7)],
            (0, []),
        ),
        # the 6-vertex projective plane beside a tetrahedron boundary
        (
            10,
            [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
             (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
             (6, 7, 8), (6, 7, 9), (6, 8, 9), (7, 8, 9)],
            (0, [2]),
        ),
    ],
)
def test_first_homology_below_dimension_two(vertices, facets, homology):
    assert first_homology(SimplicialComplex(vertices, facets)) == homology


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


def _open_tetrahedron():
    return OrientedComplex(SimplicialComplex(4, ((0, 1, 2, 3),)), (1,)), [0, 1, 2, 2]


def _suspended_torus():
    # closed, connected and orientable, but the two apexes have torus links
    K = SimplicialComplex(9, tuple(f + (apex,) for f in TORUS7 for apex in (7, 8)))
    return propagate_orientation(K), [0] * 9


def _asset_with_one_sign_flipped():
    oc, coloring = load()
    return OrientedComplex(oc.complex, (-oc.orientation[0], *oc.orientation[1:])), coloring


@pytest.mark.parametrize(
    "build, error, match",
    [
        (_open_tetrahedron, NotSphere, "closed connected orientable"),
        (_suspended_torus, NotSphere, "vertex links"),
        (_asset_with_one_sign_flipped, NotSphere, "orientation is not coherent"),
        (lambda: (load()[0], (*COLORING[:-1], 4)), NotSimplicial, "four target vertices"),
    ],
)
def test_hopf_invariant_rejections(build, error, match):
    oc, vertex_map = build()
    with pytest.raises(error, match=match):
        hopf_invariant(oc, vertex_map)


def test_asset_load_rejects_corrupted_data(monkeypatch):
    monkeypatch.setattr(s3_12, "SHA256", "0" * 64)
    with pytest.raises(NotSphere, match="checksum mismatch"):
        load()
    # an open complex whose checksum matches
    monkeypatch.setattr(s3_12, "FACETS", FACETS[1:])
    monkeypatch.setattr(s3_12, "SHA256", checksum())
    with pytest.raises(NotSphere, match="manifold checks failed"):
        load()


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
