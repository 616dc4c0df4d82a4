"""Abstract simplicial complexes: orientation, manifold checks, subdivision.

Facets are sorted vertex tuples of uniform dimension.  An orientation is a
sign per facet, coherent when the two induced signs on every interior ridge
cancel; the induced sign of a facet (v0<...<vk, s) on the ridge omitting
position p is s*(-1)^p.  ``ridges_coherent`` is that rule over one
``ridges()`` map, so a caller that also checks closedness builds the map once.
``validate_closed_manifold`` reads closedness and orientability off one such
map, and checks each vertex link of a 3-complex from face counts instead of
building the link as a complex.  Each complex builds its face table
(``all_faces()``) once, on first use, and keeps it read-only for every
reader; so too its coboundary of 1-cochains, reduced once for ``hopf``.
One union-find, ``_classes``, answers every connectivity question: whether
a complex or each vertex link is connected, the components of balanced
facets (``index``) and rank d1 = #vertices - #components (``hopf``).

Barycentric subdivision reads each facet off a flag table per facet size k,
built once: the k positions' 2^k - 1 faces in the order the permutations of
range(k) first reach them, each permutation's chain of those faces with its
sign, and the sign of every permutation for sorting a flag's vertex ids.
The table holds each face and each chain as an ``itemgetter``, which reads
a facet's faces and a flag's face ids.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, permutations
from operator import itemgetter
from types import MappingProxyType

from ..errors import NotClosedManifold
from .intlinalg import _diagonalize


@dataclass(frozen=True)
class SimplicialComplex:
    num_vertices: int
    facets: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "facets", tuple(tuple(sorted(f)) for f in self.facets)
        )
        if not self.facets:
            raise ValueError("a complex needs at least one facet")
        if not all(self.facets):
            raise ValueError("empty facet")
        dims = {len(f) for f in self.facets}
        if len(dims) != 1:
            raise ValueError("facets of mixed dimension")
        for f in self.facets:
            if len(set(f)) != len(f):
                raise ValueError(f"repeated vertex in facet {f}")
            if f[0] < 0 or f[-1] >= self.num_vertices:
                raise ValueError(f"facet {f} outside vertex range")

    @property
    def dim(self) -> int:
        return len(self.facets[0]) - 1

    def ridges(self):
        """Map ridge -> list of (facet index, omitted position)."""
        out = {}
        for fi, f in enumerate(self.facets):
            for p in range(len(f)):
                ridge = f[:p] + f[p + 1 :]
                out.setdefault(ridge, []).append((fi, p))
        return out

    def all_faces(self):
        """Map dimension -> frozenset of faces (downward closure).  The
        table is built on first use and kept, read-only, so every caller on
        this complex shares one."""
        return self._faces

    @cached_property
    def _faces(self):
        return MappingProxyType(
            {
                d: frozenset(face for f in self.facets for face in combinations(f, d + 1))
                for d in range(self.dim + 1)
            }
        )

    @cached_property
    def _coboundary(self):
        """The edge index, the sorted triangles and ``_diagonalize``'s log of
        the coboundary of 1-cochains, the transpose of d2: one sparse row per
        triangle (a, b, c), (delta beta)(a, b, c) = beta(b, c) - beta(a, c)
        + beta(a, b)."""
        eid = {e: i for i, e in enumerate(sorted(self._faces.get(1, ())))}
        tris = sorted(self._faces.get(2, ()))
        rows = [{eid[(a, b)]: 1, eid[(a, c)]: -1, eid[(b, c)]: 1} for a, b, c in tris]
        return eid, tris, _diagonalize(rows)

    def is_connected(self) -> bool:
        return len(set(_classes(self.facets).values())) == 1


def _classes(groups):
    """Union-find: map every element of the nonempty groups to the
    representative of its class, the finest partition that puts each group
    in one class."""
    parent = {}

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    for first, *others in groups:
        parent.setdefault(first, first)
        first = root(first)
        for x in others:
            parent.setdefault(x, x)
            parent[root(x)] = first
    return {x: root(x) for x in parent}


@dataclass(frozen=True)
class OrientedComplex:
    """Complex plus a sign per facet, the int 1 or -1 (need not be globally
    coherent when the complex has boundary; coherence holds at interior
    ridges)."""

    complex: SimplicialComplex
    orientation: tuple

    def __post_init__(self):
        signs = tuple(self.orientation)
        object.__setattr__(self, "orientation", signs)
        if len(signs) != len(self.complex.facets):
            raise ValueError("one sign per facet")
        # each sign is the int 1 or -1: not a bool, a float or a string
        if not ({int}.issuperset(map(type, signs)) and {-1, 1}.issuperset(signs)):
            raise ValueError("orientation signs must be +1 or -1")

    @property
    def facets(self):
        return self.complex.facets

    def reversed(self) -> "OrientedComplex":
        return OrientedComplex(self.complex, tuple(-s for s in self.orientation))

    def coherent(self) -> bool:
        return ridges_coherent(self.orientation, self.complex.ridges().values())


def ridges_coherent(orientation, incidences) -> bool:
    """The coherence rule over ``ridges()`` values: no ridge lies in more
    than two facets, and the two induced signs on an interior ridge cancel."""
    for incidence in incidences:
        if len(incidence) == 2:
            total = sum(orientation[fi] * (-1) ** p for fi, p in incidence)
            if total != 0:
                return False
        elif len(incidence) > 2:
            return False
    return True


def propagate_orientation(K: SimplicialComplex):
    """Coherent orientation by breadth-first propagation, or None."""
    signs = _propagated_signs(K, K.ridges())
    return None if signs is None else OrientedComplex(K, signs)


def _propagated_signs(K: SimplicialComplex, ridges):
    """``propagate_orientation``'s signs over the ``ridges()`` map, or None."""
    signs = [0] * len(K.facets)
    for start in range(len(K.facets)):
        if signs[start] != 0:
            continue
        signs[start] = 1
        stack = [start]
        while stack:
            fi = stack.pop()
            f = K.facets[fi]
            for p in range(len(f)):
                ridge = f[:p] + f[p + 1 :]
                for gj, q in ridges[ridge]:
                    if gj == fi:
                        continue
                    needed = -signs[fi] * (-1) ** p * (-1) ** q
                    if signs[gj] == 0:
                        signs[gj] = needed
                        stack.append(gj)
                    elif signs[gj] != needed:
                        return None
    return tuple(signs)


@dataclass(frozen=True)
class ManifoldReport:
    dim: int
    pure: bool
    closed: bool
    connected: bool
    orientable: bool
    euler: int
    links_ok: "bool | None"

    @property
    def ok(self) -> bool:
        base = self.pure and self.closed and self.connected and self.orientable
        if self.links_ok is None:
            return base
        return base and self.links_ok


def validate_closed_manifold(K: SimplicialComplex) -> ManifoldReport:
    """Combinatorial closed-manifold checks for dim <= 3.

    For dim 3 the vertex links must be connected closed surfaces of Euler
    characteristic 2, which suffices at this dimension.  A link of a closed
    3-complex is a closed surface already: its triangles are the facets at
    the vertex less the vertex, and each of its edges lies in the two
    facets of its ridge.  So only connectivity and Euler characteristic
    are tested, from face counts and the union-find ``_classes``
    (``_links_ok``), without building the links.  Spherical links force
    Euler characteristic 0 on K.  Closedness and orientability are read off
    one ``ridges()`` map, and the Euler characteristics off one ``all_faces()``.
    """
    if K.dim > 3:
        raise NotClosedManifold("manifold validation supports dimension <= 3")
    ridges = K.ridges()
    closed = all(len(inc) == 2 for inc in ridges.values())
    orientable = closed and _propagated_signs(K, ridges) is not None
    faces = K.all_faces()
    links_ok = None
    if K.dim == 3 and closed:
        links_ok = _links_ok(K.facets, faces[2])
    return ManifoldReport(
        dim=K.dim,
        pure=True,  # enforced structurally by the constructor
        closed=closed,
        connected=K.is_connected(),
        orientable=orientable,
        euler=_euler(faces),
        links_ok=links_ok,
    )


def _euler(faces) -> int:
    return sum((-1) ** d * len(fs) for d, fs in faces.items())


def _links_ok(facets, triangles) -> bool:
    """Every vertex link of a closed 3-complex is connected with Euler
    characteristic 2.  The link of v has a vertex (v, u) per edge at v and
    chi = #edges at v - #triangles at v + #facets at v; it is connected when
    ``_classes`` over those pairs, one group per facet at v, has one root."""
    chi = Counter()
    for face in triangles:
        for v in face:
            chi[v] -= 1
    groups = []
    for f in facets:
        for v in f:
            chi[v] += 1
            groups.append([(v, u) for u in f if u != v])
    edges, roots = Counter(), Counter()
    for pair, root in _classes(groups).items():
        edges[pair[0]] += 1
        roots[pair[0]] += pair == root
    return all(e + chi[v] == 2 and roots[v] == 1 for v, e in edges.items())


def simplex_boundary(k: int) -> OrientedComplex:
    """The boundary of the standard k-simplex with its alternating signs."""
    verts = tuple(range(k + 1))
    facets = []
    signs = []
    for i in range(k + 1):
        facets.append(verts[:i] + verts[i + 1 :])
        signs.append((-1) ** i)
    return OrientedComplex(SimplicialComplex(k + 1, tuple(facets)), tuple(signs))


def boundary_complex(oc: OrientedComplex) -> OrientedComplex:
    """Oriented boundary: ridges lying in exactly one facet, with the
    induced signs (sorted-ridge convention)."""
    facets = []
    signs = []
    for ridge, (fi, p) in sorted(
        (ridge, incidence[0])
        for ridge, incidence in oc.complex.ridges().items()
        if len(incidence) == 1
    ):
        facets.append(ridge)
        signs.append(oc.orientation[fi] * (-1) ** p)
    if not facets:
        raise NotClosedManifold("complex has no boundary")
    return OrientedComplex(
        SimplicialComplex(oc.complex.num_vertices, tuple(facets)), tuple(signs)
    )


def _perm_sign(perm) -> int:
    sign = 1
    p = list(perm)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


@dataclass(frozen=True)
class Subdivision:
    """Barycentric subdivision with carrier bookkeeping.

    ``carriers[w]`` is the original face whose barycenter the subdivision
    vertex w is; original vertices carry themselves.
    """

    oriented: OrientedComplex
    carriers: tuple


def _getter(indices):
    """``itemgetter(*indices)``, returning a tuple for one index too."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


@cache
def _flag_table(k: int):
    """For facet size k: a getter of each of the 2^k - 1 faces' positions,
    in the order the permutations of range(k) first reach them, each
    permutation's getter of its chain of face indices with its sign, and
    {permutation: sign}."""
    masks = {}
    flags = []
    signs = {}
    for perm in permutations(range(k)):
        chain = []
        mask = 0
        for idx in perm:
            mask |= 1 << idx
            chain.append(masks.setdefault(mask, len(masks)))
        signs[perm] = _perm_sign(perm)
        flags.append((_getter(chain), signs[perm]))
    faces = tuple(_getter([i for i in range(k) if mask >> i & 1]) for mask in masks)
    return faces, tuple(flags), signs


def barycentric_subdivision(oc: OrientedComplex) -> Subdivision:
    """One flag of faces f_1 < ... < f_k per facet and permutation of its
    positions, signed by the facet, the permutation and the sort of the
    flag's vertex ids.  Faces are numbered in first-seen order: per facet,
    in the order of ``_flag_table``, which is the order the permutations
    reach them."""
    face_ids = {}
    carriers = []
    sd_facets = []
    sd_signs = []
    for f, base_sign in zip(oc.complex.facets, oc.orientation):
        faces, flags, signs = _flag_table(len(f))
        ids = []
        for face_of in faces:
            face = face_of(f)
            w = face_ids.get(face)
            if w is None:
                w = face_ids[face] = len(carriers)
                carriers.append(face)
            ids.append(w)
        for chain_of, sign in flags:
            flag = chain_of(ids)
            ordered = tuple(sorted(flag))
            sd_facets.append(ordered)
            sd_signs.append(base_sign * sign * signs[tuple(map(flag.index, ordered))])
    K = SimplicialComplex(len(carriers), tuple(sd_facets))
    return Subdivision(OrientedComplex(K, tuple(sd_signs)), tuple(carriers))
