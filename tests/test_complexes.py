import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_a_ridge_in_three_facets_is_not_coherent():
    # three triangles on one edge; no signs make it coherent
    K = SimplicialComplex(5, ((0, 1, 2), (0, 1, 3), (0, 1, 4)))
    for signs in ((1, 1, 1), (1, -1, 1), (1, 1, -1)):
        assert not OrientedComplex(K, signs).coherent()


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


@pytest.mark.parametrize(
    "num_vertices, facets, match",
    [
        (3, (), "at least one facet"),
        (4, ((0, 1, 2), (2, 3)), "mixed dimension"),
        (3, ((0, 1, 1),), "repeated vertex"),
        (3, ((0, 1, 3),), "outside vertex range"),
        (3, ((-1, 0, 1),), "outside vertex range"),
        (3, ((),), "empty facet"),
        (3, ((), (0, 1)), "empty facet"),
    ],
)
def test_simplicial_complex_rejections(num_vertices, facets, match):
    with pytest.raises(ValueError, match=match):
        SimplicialComplex(num_vertices, facets)


@pytest.mark.parametrize(
    "signs, match",
    [
        ((1, -1, 1), "one sign per facet"),
        ((1, -1, 1, 0), "must be \\+1 or -1"),
        ((1, -1, 1, 2), "must be \\+1 or -1"),
        # a sign is the int 1 or -1 itself, never truncated to one
        ((1, -1, 1, 1.9), "must be \\+1 or -1"),
        ((1, -1, 1, "1"), "must be \\+1 or -1"),
        ((1, -1, 1, -1.5), "must be \\+1 or -1"),
        ((1, -1, 1, True), "must be \\+1 or -1"),
        ((1, -1, 1, 1.0), "must be \\+1 or -1"),
    ],
)
def test_oriented_complex_rejections(signs, match):
    with pytest.raises(ValueError, match=match):
        OrientedComplex(simplex_boundary(3).complex, signs)


# ---------------------------------------------------------------------------
# manifold validation from face counts against the per-link reference
# ---------------------------------------------------------------------------


def _sphere_at_the_cone_point_of_a_coned_solid_torus():
    """The boundary of the 4-simplex glued at one vertex to the cone point
    of a solid torus whose boundary torus is coned off.  The glued vertex
    has link S^2 + T^2 (Euler characteristic 2, two components); every
    other vertex link is a 2-sphere."""
    m = 4  # a triangle times a 4-cycle, each prism cut into three tetrahedra
    facets = []
    for i in range(m):
        a0, b0, c0 = (3 * i + j for j in range(3))
        a1, b1, c1 = (3 * ((i + 1) % m) + j for j in range(3))
        facets += [(a0, b0, c0, a1), (b0, c0, a1, b1), (c0, a1, b1, c1)]
    cone = 3 * m
    rim = [r for r, inc in SimplicialComplex(cone, facets).ridges().items() if len(inc) == 1]
    facets += [r + (cone,) for r in rim]
    sphere = range(cone, cone + 5)
    facets += [tuple(v for v in sphere if v != w) for w in sphere]
    return SimplicialComplex(cone + 5, facets)


def _relabeled_assets(count=6):
    from relabel import relabel

    from fraccore.topology.s3_12 import load

    sphere, coloring = load()
    rng = random.Random("validate-closed-manifold")
    out = [sphere.complex]
    for _ in range(count):
        perm = list(range(sphere.complex.num_vertices))
        rng.shuffle(perm)
        out.append(relabel(sphere, coloring, perm)[0].complex)
    return out


@cache
def _validation_cases():
    cases = {
        "circle": simplex_boundary(2).complex,
        "butterfly": SimplicialComplex(5, ((0, 1, 2), (2, 3, 4))),
        "rp2": SimplicialComplex(6, RP2_FACETS),
        "boundary-3-simplex": simplex_boundary(3).complex,
        "boundary-4-simplex": simplex_boundary(4).complex,
        "sd-boundary-4-simplex": barycentric_subdivision(simplex_boundary(4)).oriented.complex,
        "suspended-rp2": SimplicialComplex(
            8, tuple(f + (apex,) for f in RP2_FACETS for apex in (6, 7))
        ),
        "open-3-ball": SimplicialComplex(5, simplex_boundary(4).complex.facets[1:]),
        "two-3-spheres": SimplicialComplex(
            10,
            tuple(
                tuple(v + shift for v in f)
                for shift in (0, 5)
                for f in simplex_boundary(4).complex.facets
            ),
        ),
        "sphere-at-coned-solid-torus": _sphere_at_the_cone_point_of_a_coned_solid_torus(),
    }
    for i, K in enumerate(_relabeled_assets()):
        cases[f"sphere-asset-{i}"] = K
    return cases


@pytest.mark.parametrize("name", sorted(_validation_cases()))
def test_validation_matches_the_per_link_reference(name):
    from reference_complexes import validate_closed_manifold as reference

    K = _validation_cases()[name]
    assert validate_closed_manifold(K) == reference(K)


def test_a_disconnected_link_of_euler_characteristic_two_fails():
    # only connectivity fails: chi(S^2 + T^2) = 2 + 0, and every ridge lies
    # in two facets of a connected, orientable complex
    K = _sphere_at_the_cone_point_of_a_coned_solid_torus()
    rep = validate_closed_manifold(K)
    assert rep.closed and rep.connected and rep.orientable
    assert rep.euler == 0
    assert rep.links_ok is False and not rep.ok


# ---------------------------------------------------------------------------
# the flag-table subdivision against the per-permutation reference
# ---------------------------------------------------------------------------


def _assert_same_subdivision(oc):
    from reference_complexes import barycentric_subdivision as reference

    got, expected = barycentric_subdivision(oc), reference(oc)
    assert got.oriented.complex == expected.oriented.complex
    assert got.oriented.orientation == expected.oriented.orientation
    assert got.carriers == expected.carriers
    return got


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_subdivision_matches_reference_on_simplex_boundaries(k):
    oc = simplex_boundary(k)
    for _ in range(3):
        oc = _assert_same_subdivision(oc).oriented


def test_subdivision_matches_reference_on_the_sphere_asset():
    from fraccore.topology.s3_12 import load

    _assert_same_subdivision(load()[0])


@cache
def _star_bases():
    from fraccore.topology.s3_12 import load

    return (
        load()[0],
        barycentric_subdivision(simplex_boundary(3)).oriented,
        barycentric_subdivision(barycentric_subdivision(simplex_boundary(2)).oriented).oriented,
    )


@pytest.mark.parametrize("base", range(3))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_subdivision_matches_reference_on_signed_stars(base, data):
    # as component_index builds them: the facets meeting a vertex set, on
    # the full vertex range, so ids are not contiguous; signs are mixed
    oc = _star_bases()[base]
    facets = oc.complex.facets
    verts = data.draw(
        st.sets(st.integers(0, oc.complex.num_vertices - 1), min_size=1, max_size=3), label="verts"
    )
    star = [i for i, f in enumerate(facets) if verts.intersection(f)]
    flips = data.draw(
        st.lists(st.booleans(), min_size=len(star), max_size=len(star)), label="flips"
    )
    signs = tuple(-oc.orientation[i] if flip else oc.orientation[i] for i, flip in zip(star, flips))
    K = SimplicialComplex(oc.complex.num_vertices, tuple(facets[i] for i in star))
    _assert_same_subdivision(OrientedComplex(K, signs))


def test_closed_star_cover_of_the_asset_is_unchanged(monkeypatch):
    from reference_complexes import barycentric_subdivision as reference

    from fraccore.game_model import FirmSystem
    from fraccore.topology import degree
    from fraccore.topology.s3_12 import load

    sphere, coloring = load()
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    fs = FirmSystem(firms=units, resource=(1, 1, 1, 1))
    got = degree.closed_star_cover(sphere, coloring, fs)
    monkeypatch.setattr(degree, "barycentric_subdivision", reference)
    assert got == degree.closed_star_cover(sphere, coloring, fs)
