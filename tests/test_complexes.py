import pytest

from fraccore.errors import NotClosedManifold
from fraccore.topology.complexes import (
    OrientedComplex,
    SimplicialComplex,
    barycentric_subdivision,
    boundary_complex,
    propagate_orientation,
    simplex_boundary,
    validate_closed_manifold,
)
from fraccore.topology.hopf import first_homology

# minimal 6-vertex projective plane (antipodal icosahedron quotient)
RP2_FACETS = (
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
)


def test_triangle_boundary_is_circle():
    oc = simplex_boundary(2)
    rep = validate_closed_manifold(oc.complex)
    assert rep.closed and rep.connected and rep.orientable
    assert rep.euler == 0
    assert oc.coherent()


def test_tetrahedron_boundary_is_sphere():
    oc = simplex_boundary(3)
    rep = validate_closed_manifold(oc.complex)
    assert rep.ok
    assert rep.euler == 2


def test_four_sphere_boundary():
    oc = simplex_boundary(4)
    rep = validate_closed_manifold(oc.complex)
    assert rep.ok
    assert rep.euler == 0
    assert rep.links_ok  # every vertex link is a tetrahedron boundary


def test_butterfly_not_closed():
    K = SimplicialComplex(5, ((0, 1, 2), (2, 3, 4)))
    rep = validate_closed_manifold(K)
    assert not rep.closed


def test_projective_plane_detected_nonorientable():
    K = SimplicialComplex(6, RP2_FACETS)
    rep = validate_closed_manifold(K)
    assert rep.closed and rep.connected
    assert rep.euler == 1
    assert not rep.orientable
    assert propagate_orientation(K) is None


def test_projective_plane_has_two_torsion():
    assert first_homology(SimplicialComplex(6, RP2_FACETS)) == (0, [2])


def test_orientation_coherence_signs():
    oc = simplex_boundary(3)
    assert oc.coherent()
    bad = OrientedComplex(oc.complex, tuple(-s if i == 0 else s for i, s in enumerate(oc.orientation)))
    assert not bad.coherent()


def test_subdivision_counts_and_coherence():
    oc = simplex_boundary(2)
    sub = barycentric_subdivision(oc)
    assert len(sub.oriented.complex.facets) == 6
    assert sub.oriented.complex.num_vertices == 6
    assert sub.oriented.coherent()

    oc3 = simplex_boundary(3)
    sub3 = barycentric_subdivision(oc3)
    assert len(sub3.oriented.complex.facets) == 24
    assert sub3.oriented.complex.num_vertices == 14
    assert sub3.oriented.coherent()
    rep = validate_closed_manifold(sub3.oriented.complex)
    assert rep.ok and rep.euler == 2


def test_subdivision_carriers():
    oc = simplex_boundary(2)
    sub = barycentric_subdivision(oc)
    sizes = sorted(len(face) for face in sub.carriers)
    assert sizes == [1, 1, 1, 2, 2, 2]


def test_boundary_of_disk():
    # two triangles forming a square: boundary should be the 4-cycle
    K = SimplicialComplex(4, ((0, 1, 2), (0, 2, 3)))
    oc = propagate_orientation(K)
    rim = boundary_complex(oc)
    assert len(rim.complex.facets) == 4
    assert rim.coherent()
    rep = validate_closed_manifold(rim.complex)
    assert rep.closed and rep.euler == 0


def test_boundary_of_closed_complex_raises():
    with pytest.raises(NotClosedManifold):
        boundary_complex(simplex_boundary(2))


def test_validation_cap_on_dimension():
    K = SimplicialComplex(6, ((0, 1, 2, 3, 4), (0, 1, 2, 3, 5)))
    with pytest.raises(NotClosedManifold):
        validate_closed_manifold(K)


def test_suspended_projective_plane_fails_the_link_check():
    # every ridge lies in two facets, but the two cone points have RP^2 links
    facets = tuple(f + (apex,) for f in RP2_FACETS for apex in (6, 7))
    rep = validate_closed_manifold(SimplicialComplex(8, facets))
    assert rep.closed and rep.connected and not rep.orientable
    assert rep.links_ok is False and not rep.ok
