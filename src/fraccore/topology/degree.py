"""PL degree of labeled covers, rainbow detection, induced labelings.

The chordal map of a vertex labeling sends vertex u to the firm vector of
the lowest firm in its label; its degree as a map to the sphere around the
resource is computed by exact signed ray crossing in affine-hull
coordinates.  A facet whose labels already admit convex balancing weights
means the chordal image hits the resource and no degree exists; that facet
is returned instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import lcm

from ..balance import balance_test
from ..errors import CapExceeded, DimensionMismatch, NotClosedManifold
from ..game_model import FirmSystem, GeneralizedGame, _labels
from ..linalg import _clear_denominators, _reduce
from ..rationals import Q, rat, vec
from .complexes import (
    OrientedComplex,
    SimplicialComplex,
    barycentric_subdivision,
    propagate_orientation,
    ridges_coherent,
    simplex_boundary,
)


@dataclass(frozen=True)
class LabeledCover:
    """Oriented complex, a nonempty firm-index label set per vertex, and the
    firm system the labels refer to."""

    oriented: OrientedComplex
    labels: tuple
    firm_system: FirmSystem

    def __post_init__(self):
        object.__setattr__(
            self, "labels", tuple(frozenset(ls) for ls in self.labels)
        )
        if len(self.labels) != self.oriented.complex.num_vertices:
            raise ValueError("one label set per vertex")
        m = self.firm_system.count
        for ls in self.labels:
            if not ls:
                raise ValueError("every vertex needs at least one label")
            if any(i < 0 or i >= m for i in ls):
                raise ValueError("label outside the firm range")


@dataclass(frozen=True)
class Degree:
    value: int


@dataclass(frozen=True)
class BalancedSimplexFound:
    facet: tuple


def _affine_coordinates(fs: FirmSystem, k: int):
    """Coordinates of v_i - r in the greedy basis of their span: the pivot
    columns of one reduction, read the way ``nullspace`` reads a free column.

    The span must have dimension k+1 for a degree on a k-manifold.
    """
    diffs = [tuple(a - b for a, b in zip(v, fs.resource)) for v in fs.firms]
    a, pivots, _, _ = _reduce(list(zip(*diffs)), len(diffs))
    if len(pivots) != k + 1:
        raise DimensionMismatch(
            f"affine hull of firms and resource has dimension {len(pivots)}, "
            f"need {k + 1}"
        )
    return [
        tuple(Q(row[i], row[c]) for row, c in zip(a, pivots))
        for i in range(len(diffs))
    ]


def _crossing(cols, ray):
    """0 when the ray lies in the span of all but one of ``cols`` (re-choose
    it), None when it misses their cone, else the sign of det(cols).  One
    reduction of [cols | ray] reads all three: every pivot entry ends equal
    to one value p, so the ray's coordinates a[i][-1] / p need signs only."""
    a, pivots, d, _ = _reduce([[*row, r] for row, r in zip(zip(*cols), ray)], len(ray))
    if len(pivots) < len(ray):
        return None if any(row[-1] for row in a[len(pivots) :]) else 0
    p = a[0][pivots[0]]
    if any(row[-1] == 0 for row in a):
        return 0
    if all((row[-1] > 0) == (p > 0) for row in a):
        return 1 if d > 0 else -1
    return None


def _ray_candidates(k: int):
    s = 2
    while True:
        yield tuple(rat(s) ** p for p in range(k + 1))
        s += 1


def pl_degree(lc: LabeledCover):
    """Exact degree of the label-induced chordal map, or a balanced facet.

    Needs a closed coherently oriented complex.  The crossing ray is chosen
    from a deterministic moment-curve sequence (1, s, ..., s^k) and
    re-chosen until every facet is transversal (bad directions lie on
    finitely many hyperplanes, which the moment curve meets finitely often).
    The curve starts at s = 2: s = 1 gives (1, ..., 1), which lies on the
    symmetric faces of identity and Sperner covers and so forces a retry.

    Closedness and coherence are read off one ``ridges()`` map.  A facet's
    balance and crossing depend only on its ordered tuple of chosen labels,
    so the balance scan tests each distinct tuple once, in the order the
    facets first reach them (which returns the first balanced facet), and
    each ray reduces once per distinct tuple and looks the rest up.
    """
    oc = lc.oriented
    K = oc.complex
    incidences = K.ridges().values()
    if any(len(inc) != 2 for inc in incidences):
        raise NotClosedManifold("pl_degree needs every ridge in exactly two facets")
    if not ridges_coherent(oc.orientation, incidences):
        raise NotClosedManifold("orientation is not coherent")
    k = K.dim
    coords = _affine_coordinates(lc.firm_system, k)
    chosen = [min(ls) for ls in lc.labels]
    facet_labels = [tuple([chosen[u] for u in facet]) for facet in K.facets]
    balanced = balance_test(lc.firm_system, "convex")
    first_facet = {}
    for facet, labels in zip(K.facets, facet_labels):
        first_facet.setdefault(labels, facet)
    for labels, facet in first_facet.items():
        if balanced(set(labels)):
            return BalancedSimplexFound(facet)
    # orientation convention: the sphere around the resource is oriented so
    # that the identity labeling of the standard simplex boundary has degree
    # +1; in the greedy difference basis that costs a factor (-1)^(k+1)
    normalizer = (-1) ** (k + 1)
    for ray in _ray_candidates(k):
        crossings = {}
        total = 0
        for labels, sign in zip(facet_labels, oc.orientation):
            if labels not in crossings:
                crossings[labels] = _crossing([coords[i] for i in labels], ray)
            crossing = crossings[labels]
            if crossing == 0:
                break
            if crossing:
                total += sign * crossing
        else:
            return Degree(normalizer * total)
    raise AssertionError("unreachable: ray search always terminates")


def _balanced_facets(lc: LabeledCover, mode: str):
    """Indices of the facets whose vertex-label union contains a balanced
    firm subset; the union is built and tested once per distinct ordered
    tuple of the facet's vertex labels."""
    balanced = balance_test(lc.firm_system, mode)
    labels = lc.labels
    verdicts = {}
    out = []
    for idx, facet in enumerate(lc.oriented.complex.facets):
        key = tuple([labels[u] for u in facet])
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = balanced(frozenset().union(*key))
        if verdict:
            out.append(idx)
    return out


def rainbow_simplices(lc: LabeledCover, mode: str = "cone"):
    """Facets whose vertex-label union contains a balanced firm subset."""
    facets = lc.oriented.complex.facets
    return [facets[idx] for idx in _balanced_facets(lc, mode)]


def subdivide_cover(lc: LabeledCover) -> LabeledCover:
    """One barycentric subdivision; new vertices inherit the label set of
    the lowest vertex of their carrier face."""
    sub = barycentric_subdivision(lc.oriented)
    labels = tuple(lc.labels[min(face)] for face in sub.carriers)
    return LabeledCover(sub.oriented, labels, lc.firm_system)


def closed_star_cover(
    oc: OrientedComplex, coloring, firm_system: FirmSystem
) -> LabeledCover:
    """The cover by unions of closed vertex stars per color, as a labeled
    barycentric subdivision.

    A point belongs to the color-c set exactly when some facet containing
    its carrier face has a vertex of color c, so a subdivision vertex gets
    the union of the vertex colors over the facets containing its carrier.
    """
    sub = barycentric_subdivision(oc)
    face_colors = {}
    for facet in oc.complex.facets:
        colors = frozenset(coloring[v] for v in facet)
        for size in range(1, len(facet) + 1):
            for face in combinations(facet, size):
                face_colors[face] = face_colors.get(face, frozenset()) | colors
    labels = tuple(face_colors[face] for face in sub.carriers)
    return LabeledCover(sub.oriented, labels, firm_system)


# ---------------------------------------------------------------------------
# induced labelings of region boundaries
# ---------------------------------------------------------------------------

MAX_DEPTH = 6


@dataclass(frozen=True)
class SimplexRegion:
    """A geometric simplex given by its vertex positions in R^n."""

    vertices: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(vec(v) for v in self.vertices))


@dataclass(frozen=True)
class CubeRegion:
    """An axis cube in sum-zero coordinates of R^n (frame e_i - e_last)."""

    center: tuple
    halfwidth: "Q"

    def __post_init__(self):
        object.__setattr__(self, "center", vec(self.center))
        object.__setattr__(self, "halfwidth", rat(self.halfwidth))
        if self.halfwidth <= 0:
            # zero collapses the grid onto the center; a negative value
            # reflects it through the center
            raise ValueError(f"cube halfwidth must be positive, got {self.halfwidth}")


def _subdivide_with_positions(oc: OrientedComplex, positions, depth: int):
    """Subdivide ``depth`` times, carrying vertex positions.

    Returns (oriented complex, numerators, D): every position is its tuple
    of integer numerators over one common denominator D.  Each level
    multiplies D by L = lcm(1..facet size), so the barycentre of a face is
    (L / |face|) times the sum of its vertices' numerators.
    """
    n = len(positions[0])
    nums, D = _clear_denominators([c for p in positions for c in p])
    pts = [tuple(nums[i : i + n]) for i in range(0, len(nums), n)]
    L = lcm(*range(1, oc.complex.dim + 2))
    for _ in range(depth):
        sub = barycentric_subdivision(oc)
        pts = [
            tuple(L // len(face) * sum(col) for col in zip(*(pts[v] for v in face)))
            for face in sub.carriers
        ]
        D *= L
        oc = sub.oriented
    return oc, pts, D


def _cube_boundary_grid(n_coords: int, center, halfwidth, depth: int):
    """Triangulated boundary of a cube in d = n_coords - 1 frame coords,
    oriented by propagation from its first facet, as (oriented complex,
    numerators, D): every position is its tuple of integer numerators over
    one common denominator D."""
    d = n_coords - 1
    if d not in (2, 3):
        raise DimensionMismatch("cube regions support payoff dimensions 3 and 4")
    steps = 2**depth
    # position = center + halfwidth * (c / steps) * (e_i - e_last) for the
    # integer grid coefficients c = 2t - steps, in numerators over D * steps
    (*base, h), D = _clear_denominators((*center, halfwidth))
    base = [b * steps for b in base]
    denom = D * steps
    verts = {}
    positions = []

    def vid(coeffs):
        if coeffs not in verts:
            verts[coeffs] = len(positions)
            pos = [b + h * c for b, c in zip(base, coeffs)]
            pos.append(base[-1] - h * sum(coeffs))
            positions.append(tuple(pos))
        return verts[coeffs]

    grid = range(-steps, steps + 1, 2)
    lo, hi = grid[0], grid[-1]
    if d == 2:
        # the four sides of a square as one closed path
        path = (
            [(g, lo) for g in grid[:-1]]
            + [(hi, g) for g in grid[:-1]]
            + [(g, hi) for g in grid[:0:-1]]
            + [(lo, g) for g in grid[:0:-1]]
        )
        ids = [vid(c) for c in path]
        facets = list(zip(ids, ids[1:] + ids[:1]))
    else:
        # six faces, each a grid of squares cut into two triangles
        facets = []
        for axis in range(3):
            for side in (lo, hi):
                for a in range(steps):
                    for b in range(steps):
                        corners = []
                        for da, db in ((0, 0), (1, 0), (1, 1), (0, 1)):
                            c = [side] * 3
                            c[(axis + 1) % 3] = grid[a + da]
                            c[(axis + 2) % 3] = grid[b + db]
                            corners.append(vid(tuple(c)))
                        p, q, r, s = corners
                        facets += [(p, q, r), (p, r, s)]
    # a connected closed surface or cycle: coherent from its first facet
    oc = propagate_orientation(SimplicialComplex(len(positions), tuple(facets)))
    assert oc is not None
    return oc, positions, denom


def induce_labeling(game: GeneralizedGame, region, depth: int) -> LabeledCover:
    """Triangulate the region's boundary and label every vertex with its
    exact induced-cover membership set.

    The dimension is checked once per region; each vertex is labelled by
    ``cover_labels``' kernel on its integer numerators over the region's
    common denominator, which gives the same labels, since scaling every
    slack by one positive denominator keeps their cross-multiplied order.
    """
    if depth < 0:
        raise ValueError(f"subdivision depth must be nonnegative, got {depth}")
    if depth > MAX_DEPTH:
        raise CapExceeded(f"subdivision depth {depth} exceeds cap {MAX_DEPTH}")
    n = game.dim
    if isinstance(region, SimplexRegion):
        pts = region.vertices
        if any(len(p) != n for p in pts):
            raise DimensionMismatch("region vertices must live in the payoff space")
        oc = simplex_boundary(len(pts) - 1)
        oc, positions, D = _subdivide_with_positions(oc, pts, depth)
    elif isinstance(region, CubeRegion):
        if len(region.center) != n:
            raise DimensionMismatch("region center must live in the payoff space")
        oc, positions, D = _cube_boundary_grid(n, region.center, region.halfwidth, depth)
    else:
        raise TypeError("region must be a SimplexRegion or CubeRegion")
    labels = tuple(_labels(game.utilities, p, D) for p in positions)
    return LabeledCover(oc, labels, game.firm_system)
