"""Reference versions of ``fraccore.topology.complexes.barycentric_subdivision``
and ``validate_closed_manifold``.

Test-only.  ``barycentric_subdivision`` is the per-permutation loop the
library used before it read each facet's flags off a table per facet size:
every permutation of a facet's positions grows its chain of faces one vertex
at a time, numbers each face on first sight, and signs the flag by the
permutation and by the sort of its vertex ids, both computed per flag.  It
must return exactly the ``Subdivision`` the library returns.

``validate_closed_manifold`` builds each vertex link of a closed 3-complex
as a ``SimplicialComplex`` and asks it ``euler_characteristic()`` and
``is_connected`` below, as the library did before it read the links off
face counts.  It must return exactly the library's ``ManifoldReport``.

``is_connected`` is the depth-first search over per-vertex adjacency sets
that ``SimplicialComplex.is_connected`` ran before the library answered
every connectivity question with one union-find, so the reference shares no
connectivity code with the library it checks.
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


def is_connected(K: SimplicialComplex) -> bool:
    adj = {}
    for f in K.facets:
        for a in f:
            adj.setdefault(a, set()).update(u for u in f if u != a)
    verts = set(adj)
    seen = set()
    stack = [next(iter(verts))]
    while stack:
        a = stack.pop()
        if a in seen:
            continue
        seen.add(a)
        stack.extend(adj[a] - seen)
    return seen == verts


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
            is_connected(link) and link.euler_characteristic() == 2
            for link in (SimplicialComplex(K.num_vertices, f) for f in links.values())
        )
    return ManifoldReport(
        dim=K.dim,
        pure=True,
        closed=closed,
        connected=is_connected(K),
        orientable=propagate_orientation(K) is not None if closed else False,
        euler=K.euler_characteristic(),
        links_ok=links_ok,
    )
