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
triangle.
"""

from __future__ import annotations

from ..errors import CoboundaryUnsolvable, NotSimplicial, NotSphere
from .complexes import OrientedComplex, validate_closed_manifold
from .intlinalg import integer_rank, smith_normal_form, solve_integer


def _sorted_with_sign(tri):
    order = sorted(range(3), key=lambda i: tri[i])
    sign = 1
    perm = [order.index(i) for i in range(3)]
    # parity of a 3-permutation
    if perm in ([1, 0, 2], [0, 2, 1], [2, 1, 0]):
        sign = -1
    return tuple(tri[i] for i in order), sign


def _pullback(triangles, vertex_map, target):
    """f* of the dual of the target triangle, as a map triangle -> int."""
    value = {}
    for tri in triangles:
        images = tuple(vertex_map[v] for v in tri)
        if len(set(images)) != 3:
            value[tri] = 0
            continue
        sorted_imgs, sign = _sorted_with_sign(images)
        value[tri] = sign if sorted_imgs == target else 0
    return value


def first_homology(K):
    """(first Betti number, torsion coefficients) over the integers."""
    faces = K.all_faces()
    verts = sorted(faces[0])
    edges = sorted(faces[1])
    tris = sorted(faces[2])
    vid = {v: i for i, v in enumerate(verts)}
    eid = {e: i for i, e in enumerate(edges)}
    d1 = [[0] * len(edges) for _ in verts]
    for j, (a, b) in enumerate(edges):
        d1[vid[(a,)]][j] -= 1
        d1[vid[(b,)]][j] += 1
    d2 = [[0] * len(tris) for _ in edges]
    for j, (a, b, c) in enumerate(tris):
        d2[eid[(b, c)]][j] += 1
        d2[eid[(a, c)]][j] -= 1
        d2[eid[(a, b)]][j] += 1
    rank_d1 = integer_rank(d1)
    diag, _, _ = smith_normal_form(d2)
    rank_d2 = sum(1 for d in diag if d != 0)
    betti = len(edges) - rank_d1 - rank_d2
    torsion = [d for d in diag if d not in (0, 1)]
    return betti, torsion


def hopf_invariant(oc: OrientedComplex, vertex_map) -> int:
    """Exact Hopf invariant of the simplicial map given by ``vertex_map``
    (vertex index -> target vertex in 0..3).

    Raises NotSphere when the complex fails the 3-sphere combinatorial
    checks, NotSimplicial when some facet carries four distinct target
    vertices, CoboundaryUnsolvable when the pullback is not an integral
    coboundary (second cohomology nonzero, so not a homology sphere).
    """
    K = oc.complex
    if K.dim != 3:
        raise NotSphere("hopf_invariant needs a 3-dimensional complex")
    report = validate_closed_manifold(K)
    if not (report.closed and report.connected and report.orientable):
        raise NotSphere("complex is not a closed connected orientable 3-manifold")
    if report.euler != 0 or not report.links_ok:
        raise NotSphere("complex fails the sphere checks (euler, links)")
    if not oc.coherent():
        raise NotSphere("orientation is not coherent")
    vertex_map = tuple(int(vertex_map[v]) for v in range(K.num_vertices))
    if any(t < 0 or t > 3 for t in vertex_map):
        raise NotSimplicial("vertex map must land in the four target vertices")
    for facet in K.facets:
        if len({vertex_map[v] for v in facet}) == 4:
            raise NotSimplicial(
                f"facet {facet} maps onto all four target vertices"
            )
    faces = K.all_faces()
    edges = sorted(faces[1])
    tris = sorted(faces[2])
    alpha1 = _pullback(tris, vertex_map, (1, 2, 3))
    alpha2 = _pullback(tris, vertex_map, (0, 1, 2))
    eid = {e: i for i, e in enumerate(edges)}
    rows = []
    rhs = []
    for tri in tris:
        a, b, c = tri
        row = [0] * len(edges)
        row[eid[(b, c)]] += 1
        row[eid[(a, c)]] -= 1
        row[eid[(a, b)]] += 1
        rows.append(row)
        rhs.append(alpha1[tri])
    beta1 = solve_integer(rows, rhs)
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
