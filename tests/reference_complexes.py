"""Reference versions of ``fraccore.topology.complexes.barycentric_subdivision``
and ``validate_closed_manifold``.

Test-only.  ``barycentric_subdivision`` is the per-permutation loop the
library used before it read each facet's flags off a table per facet size:
every permutation of a facet's positions grows its chain of faces one vertex
at a time, numbers each face on first sight, and signs the flag by the
permutation and by the sort of its vertex ids, both computed per flag.  It
must return exactly the ``Subdivision`` the library returns.

``validate_closed_manifold`` builds each vertex link of a closed 3-complex
as a ``SimplicialComplex`` and asks it ``is_connected()`` and
``euler_characteristic()``, as the library did before it read the links off
face counts.  It must return exactly the library's ``ManifoldReport``.
"""

from __future__ import annotations

from itertools import permutations

from fraccore.errors import NotClosedManifold
from fraccore.topology.complexes import (
    ManifoldReport,
    OrientedComplex,
    SimplicialComplex,
    Subdivision,
    propagate_orientation,
)


def perm_sign(perm) -> int:
    sign = 1
    p = list(perm)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def barycentric_subdivision(oc: OrientedComplex) -> Subdivision:
    face_ids = {}
    carriers = []

    def face_id(face):
        if face not in face_ids:
            face_ids[face] = len(carriers)
            carriers.append(face)
        return face_ids[face]

    sd_facets = []
    sd_signs = []
    for fi, f in enumerate(oc.complex.facets):
        base_sign = oc.orientation[fi]
        k = len(f)
        for perm in permutations(range(k)):
            chain = []
            acc = []
            for idx in perm:
                acc.append(f[idx])
                chain.append(face_id(tuple(sorted(acc))))
            sign = base_sign * perm_sign(perm)
            order = sorted(range(k), key=lambda i: chain[i])
            sorted_chain = tuple(chain[i] for i in order)
            sign *= perm_sign(tuple(order))
            sd_facets.append(sorted_chain)
            sd_signs.append(sign)
    K = SimplicialComplex(len(carriers), tuple(sd_facets))
    return Subdivision(OrientedComplex(K, tuple(sd_signs)), tuple(carriers))


def validate_closed_manifold(K: SimplicialComplex) -> ManifoldReport:
    if K.dim > 3:
        raise NotClosedManifold("manifold validation supports dimension <= 3")
    closed = all(len(inc) == 2 for inc in K.ridges().values())
    links_ok = None
    if K.dim == 3 and closed:
        links = {}
        for f in K.facets:
            for p, v in enumerate(f):
                links.setdefault(v, []).append(f[:p] + f[p + 1 :])
        links_ok = all(
            link.is_connected() and link.euler_characteristic() == 2
            for link in (SimplicialComplex(K.num_vertices, f) for f in links.values())
        )
    return ManifoldReport(
        dim=K.dim,
        pure=True,
        closed=closed,
        connected=K.is_connected(),
        orientable=propagate_orientation(K) is not None if closed else False,
        euler=K.euler_characteristic(),
        links_ok=links_ok,
    )
