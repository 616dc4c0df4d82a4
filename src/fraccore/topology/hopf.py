"""Hopf invariant of simplicial maps from oriented 3-spheres to the
tetrahedron boundary, via exact simplicial cohomology.

Pull back the duals of two different target triangles, alpha_1 of (1,2,3)
and alpha_2 of (0,1,2) negated, write alpha_1 as an integral coboundary
(possible exactly when the second cohomology of the domain vanishes), and
evaluate beta_1 cup alpha_2 on the fundamental cycle, with Alexander-Whitney
front/back faces under the global vertex order.  Cupping a cocycle with its
own primitive instead would add the Steenrod term alpha cup_1 alpha, which
does not vanish on a chain and makes the value depend on the vertex
numbering.  The term alpha_1 cup_1 alpha_2 does vanish: no facet maps onto
all four target vertices, so the nonzero faces of a facet all map to one
triangle.  ``first_homology`` and ``hopf_invariant`` read the one
coboundary each complex keeps, reduced once: the homology off its pivots,
beta_1 by replaying its row log on alpha_1.
"""

from __future__ import annotations

from ..errors import CoboundaryUnsolvable, NotSimplicial, NotSphere
from .complexes import OrientedComplex, _classes, _perm_sign, validate_closed_manifold
from .intlinalg import _invariant_factors, _solve


def _pullback(triangles, vertex_map, target):
    """f* of the dual of the target triangle, as a map triangle -> int."""
    value = {}
    for tri in triangles:
        images = [vertex_map[v] for v in tri]
        if sorted(images) == list(target):
            value[tri] = _perm_sign([target.index(t) for t in images])
        else:
            value[tri] = 0
    return value


def first_homology(K):
    """(first Betti number, torsion coefficients) over the integers.

    rank d1 = #vertices - #components, the vertices that ``_classes`` over
    the facets does not take as representatives.  d2 and its transpose have
    the same invariant factors, so they are read off the pivots of the
    complex's reduced coboundary.  A complex of dimension below 2 has no
    triangles, so no pivots, and one of dimension 0 has no edges."""
    eid, _, (pivots, _, _) = K._coboundary
    rank_d1 = sum(1 for v, root in _classes(K.facets).items() if v != root)
    betti = len(eid) - rank_d1 - len(pivots)
    return betti, [d for d in _invariant_factors(pivots) if d > 1]


def hopf_invariant(oc: OrientedComplex, vertex_map) -> int:
    """Exact Hopf invariant of the simplicial map given by ``vertex_map``
    (vertex index -> target vertex, an int in 0..3).

    Raises NotSphere when the complex fails the 3-sphere combinatorial
    checks, NotSimplicial when the map is not one such int per vertex or
    some facet carries four distinct target vertices, CoboundaryUnsolvable
    when the pullback is not an integral coboundary (second cohomology
    nonzero, so not a homology sphere).
    """
    K = oc.complex
    if K.dim != 3:
        raise NotSphere("hopf_invariant needs a 3-dimensional complex")
    report = validate_closed_manifold(K)
    if not (report.closed and report.connected and report.orientable):
        raise NotSphere("complex is not a closed connected orientable 3-manifold")
    if not report.links_ok:  # spherical links force Euler characteristic 0
        raise NotSphere("complex fails the sphere checks (vertex links)")
    if not oc.coherent():
        raise NotSphere("orientation is not coherent")
    vertex_map = tuple(vertex_map)
    if len(vertex_map) != K.num_vertices:
        raise NotSimplicial(f"vertex map has {len(vertex_map)} entries, not {K.num_vertices}")
    if any(type(t) is not int or t < 0 or t > 3 for t in vertex_map):
        raise NotSimplicial("vertex map must land in the four target vertices")
    for facet in K.facets:
        if len({vertex_map[v] for v in facet}) == 4:
            raise NotSimplicial(
                f"facet {facet} maps onto all four target vertices"
            )
    eid, tris, reduction = K._coboundary
    alpha1 = _pullback(tris, vertex_map, (1, 2, 3))
    alpha2 = _pullback(tris, vertex_map, (0, 1, 2))
    beta1 = _solve(reduction, len(eid), [alpha1[tri] for tri in tris])
    if beta1 is None:
        raise CoboundaryUnsolvable(
            "pullback cocycle is not an integral coboundary (H^2 != 0)"
        )
    total = 0
    for facet, sign in zip(K.facets, oc.orientation):
        w0, w1, w2, w3 = facet
        back = alpha2[(w1, w2, w3)]
        if back:  # alpha_2 is the negated pullback
            total -= sign * beta1[eid[(w0, w1)]] * back
    return total
