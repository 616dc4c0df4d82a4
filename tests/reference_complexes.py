"""Reference version of ``fraccore.topology.complexes.barycentric_subdivision``.

Test-only.  This is the per-permutation loop the library used before it read
each facet's flags off a table per facet size: every permutation of a
facet's positions grows its chain of faces one vertex at a time, numbers
each face on first sight, and signs the flag by the permutation and by the
sort of its vertex ids, both computed per flag.  It must return exactly the
``Subdivision`` the library returns.
"""

from __future__ import annotations

from itertools import permutations

from fraccore.topology.complexes import OrientedComplex, SimplicialComplex, Subdivision


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
