"""Abstract simplicial complexes: orientation, manifold checks, subdivision.

Facets are sorted vertex tuples of uniform dimension.  An orientation is a
sign per facet, coherent when the two induced signs on every interior ridge
cancel; the induced sign of a facet (v0<...<vk, s) on the ridge omitting
position p is s*(-1)^p.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        for ridge, incidence in self.complex.ridges().items():
            if len(incidence) == 2:
                total = sum(
                    self.orientation[fi] * (-1) ** p for fi, p in incidence
                )
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
            sign = base_sign * _perm_sign(perm)
            order = sorted(range(k), key=lambda i: chain[i])
            sorted_chain = tuple(chain[i] for i in order)
            sign *= _perm_sign(tuple(order))
            sd_facets.append(sorted_chain)
            sd_signs.append(sign)
    K = SimplicialComplex(len(carriers), tuple(sd_facets))
    return Subdivision(OrientedComplex(K, tuple(sd_signs)), tuple(carriers))
