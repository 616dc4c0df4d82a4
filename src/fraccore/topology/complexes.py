"""Abstract simplicial complexes: orientation, manifold checks, subdivision.

Facets are sorted vertex tuples of uniform dimension.  An orientation is a
sign per facet, coherent when the two induced signs on every interior ridge
cancel; the induced sign of a facet (v0<...<vk, s) on the ridge omitting
position p is s*(-1)^p.  ``ridges_coherent`` is that rule over one
``ridges()`` map, so a caller that also checks closedness builds the map once.

Barycentric subdivision reads each facet off a flag table per facet size k,
built once: the k positions' 2^k - 1 faces in the order the permutations of
range(k) first reach them, each permutation's chain of those faces with its
sign, and the sign of every permutation for sorting a flag's vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations

from ..errors import NotClosedManifold


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
        """Map dimension -> set of faces (downward closure)."""
        out = {d: set() for d in range(self.dim + 1)}
        for f in self.facets:
            for d in range(self.dim + 1):
                for face in combinations(f, d + 1):
                    out[d].add(face)
        return out

    def euler_characteristic(self) -> int:
        faces = self.all_faces()
        return sum((-1) ** d * len(fs) for d, fs in faces.items())

    def is_connected(self) -> bool:
        adj = {}
        for f in self.facets:
            for a in f:
                adj.setdefault(a, set()).update(u for u in f if u != a)
        verts = set(adj)
        if not verts:
            return True
        seen = set()
        stack = [next(iter(verts))]
        while stack:
            a = stack.pop()
            if a in seen:
                continue
            seen.add(a)
            stack.extend(adj[a] - seen)
        return seen == verts


@dataclass(frozen=True)
class OrientedComplex:
    """Complex plus a sign per facet (need not be globally coherent when the
    complex has boundary; coherence holds at interior ridges)."""

    complex: SimplicialComplex
    orientation: tuple

    def __post_init__(self):
        object.__setattr__(self, "orientation", tuple(int(s) for s in self.orientation))
        if len(self.orientation) != len(self.complex.facets):
            raise ValueError("one sign per facet")
        if any(s not in (-1, 1) for s in self.orientation):
            raise ValueError("orientation signs must be +1 or -1")

    @property
    def facets(self):
        return self.complex.facets

    @property
    def dim(self) -> int:
        return self.complex.dim

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
    ridges = K.ridges()
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
    return OrientedComplex(K, tuple(signs))


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


def _is_closed_surface_sphere(link: SimplicialComplex) -> bool:
    if link.dim != 2:
        return False
    if any(len(inc) != 2 for inc in link.ridges().values()):
        return False
    return link.is_connected() and link.euler_characteristic() == 2


def validate_closed_manifold(K: SimplicialComplex) -> ManifoldReport:
    """Combinatorial closed-manifold checks for dim <= 3.

    For dim 3 the vertex links must be connected closed surfaces of Euler
    characteristic 2, which suffices at this dimension.
    """
    if K.dim > 3:
        raise NotClosedManifold("manifold validation supports dimension <= 3")
    closed = all(len(inc) == 2 for inc in K.ridges().values())
    connected = K.is_connected()
    orientable = propagate_orientation(K) is not None if closed else False
    links_ok = None
    if K.dim == 3 and closed:
        links = {}
        for f in K.facets:
            for p, v in enumerate(f):
                links.setdefault(v, []).append(f[:p] + f[p + 1 :])
        links_ok = all(
            _is_closed_surface_sphere(SimplicialComplex(K.num_vertices, link))
            for link in links.values()
        )
    return ManifoldReport(
        dim=K.dim,
        pure=True,  # enforced structurally by the constructor
        closed=closed,
        connected=connected,
        orientable=orientable,
        euler=K.euler_characteristic(),
        links_ok=links_ok,
    )


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
    ridges = oc.complex.ridges()
    facets = []
    signs = []
    for ridge, incidence in sorted(ridges.items()):
        if len(incidence) == 1:
            fi, p = incidence[0]
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


@cache
def _flag_table(k: int):
    """For facet size k: the positions of the 2^k - 1 faces in the order
    the permutations of range(k) first reach them, each permutation's chain
    of face indices with its sign, and {permutation: sign}."""
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
        flags.append((tuple(chain), signs[perm]))
    faces = tuple(tuple(i for i in range(k) if mask >> i & 1) for mask in masks)
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
        for positions in faces:
            face = tuple([f[i] for i in positions])
            w = face_ids.get(face)
            if w is None:
                w = face_ids[face] = len(carriers)
                carriers.append(face)
            ids.append(w)
        for chain, sign in flags:
            flag = [ids[i] for i in chain]
            ordered = sorted(flag)
            sd_facets.append(tuple(ordered))
            sd_signs.append(base_sign * sign * signs[tuple(map(flag.index, ordered))])
    K = SimplicialComplex(len(carriers), tuple(sd_facets))
    return Subdivision(OrientedComplex(K, tuple(sd_signs)), tuple(carriers))
