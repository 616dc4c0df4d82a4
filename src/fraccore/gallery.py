"""Built-in example games used by the test-suite and the CLI gallery."""

from __future__ import annotations

from .game_model import (
    ComprehensiveSet,
    FirmSystem,
    GeneralizedGame,
    TUGame,
    coalition_cylinder,
    coalition_firm_system,
    comprehensive_hull,
    point_orthant,
)
from .rationals import Q


def loss_sharing_tu(grand_value=-35) -> TUGame:
    """Three players sharing losses; cooperation shrinks the total loss.

    With the default grand value the core is nonempty; at -100 the grand
    coalition is too ineffective and the core empties while part-time
    cooperation across the three pairs still works.
    """
    return TUGame(
        3,
        {
            (0,): -10,
            (1,): -15,
            (2,): -20,
            (0, 1): -22,
            (0, 2): -28,
            (1, 2): -32,
            (0, 1, 2): grand_value,
        },
    )


def loss_sharing_tu_modified() -> TUGame:
    return loss_sharing_tu(-100)


def directed_transfers_game() -> GeneralizedGame:
    """Three players where coalition output lands on prescribed recipients.

    Player 0 alone produces 10 but may hand it only to player 1; the pair
    {0,2} produces 1 for itself; everything else produces 0.  Each firm's
    feasible set constrains exactly its recipients' coordinates, so firm
    {0} insists on x_1 <= 10 regardless of its own payoff.  The goals of
    {0} and {0,2} conflict and the fractional core is empty.
    """
    cyl = coalition_cylinder
    utilities = (
        # singletons {0}, {1}, {2}: output recipients are (1,), (1,), (2,)
        ComprehensiveSet((cyl(3, (1,), 10),)),
        ComprehensiveSet((cyl(3, (1,), 0),)),
        ComprehensiveSet((cyl(3, (2,), 0),)),
        # pairs {0,1}, {0,2}, {1,2} split among themselves
        ComprehensiveSet((cyl(3, (0, 1), 0),)),
        ComprehensiveSet((cyl(3, (0, 2), 1),)),
        ComprehensiveSet((cyl(3, (1, 2), 0),)),
        # grand coalition
        ComprehensiveSet((cyl(3, (0, 1, 2), 0),)),
    )
    return GeneralizedGame(utilities, coalition_firm_system(3))


def symmetric_pairs_game_s1() -> GeneralizedGame:
    """Two competitor pairs of firms over three payoff coordinates.

    Firms come in centrally symmetric pairs (their resource vectors average
    to the resource), utilities are orthants at antipodal sum-zero points.
    Nonempty fractional core through either competitor pair.
    """
    fs = FirmSystem(
        firms=[(2, 1), (1, 2), (0, 1), (1, 0)],
        resource=(1, 1),
    )
    utilities = tuple(
        ComprehensiveSet((point_orthant(p),))
        for p in [(1, -1, 0), (0, 1, -1), (-1, 1, 0), (0, -1, 1)]
    )
    return GeneralizedGame(utilities, fs)


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _conj(a):
    return (a[0], -a[1])


_SECTOR_DIRS = ((Q(1), Q(0)), (Q(-1), Q(1)), (Q(0), Q(-1)))


def _sector(w) -> int:
    """Index of the sector [d_i, d_{i+1}) containing a nonzero direction;
    the three sectors partition the directions, each narrower than 180 degrees."""
    if w == (Q(0), Q(0)):
        raise ValueError("zero field value cannot be labeled")

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    for i in range(2):
        a, b = _SECTOR_DIRS[i], _SECTOR_DIRS[i + 1]
        if cross(a, w) >= 0 and cross(w, b) > 0:
            return i
    return 2


def plane_field_cover(zero_signs, zeros, radius=6):
    """Labeled triangulated square whose labels discretize a product of
    linear fields, one factor per zero (sign -1 conjugates its factor).

    Each zero of the field becomes a cluster of fully-labeled triangles
    whose index equals the sign; the boundary winds by the sign total.
    """
    from .topology.complexes import OrientedComplex, SimplicialComplex
    from .topology.degree import LabeledCover
    from .linalg import det

    fs = FirmSystem(firms=[(2, 1), (0, 2), (1, 0)], resource=(1, 1))

    def field(p):
        total = (Q(1), Q(0))
        for sign, z in zip(zero_signs, zeros):
            factor = (p[0] - z[0], p[1] - z[1])
            if sign < 0:
                factor = _conj(factor)
            total = _cmul(total, factor)
        return total

    coords = list(range(-radius, radius + 1))
    index_of = {}
    positions = []
    for y in coords:
        for x in coords:
            index_of[(x, y)] = len(positions)
            positions.append((Q(x), Q(y)))
    facets = []
    signs = []
    for y in coords[:-1]:
        for x in coords[:-1]:
            a = index_of[(x, y)]
            b = index_of[(x + 1, y)]
            c = index_of[(x + 1, y + 1)]
            d = index_of[(x, y + 1)]
            for tri in ((a, b, c), (a, c, d)):
                tri_sorted = tuple(sorted(tri))
                p0, p1, p2 = (positions[v] for v in tri_sorted)
                orient = det(
                    [
                        [p1[0] - p0[0], p2[0] - p0[0]],
                        [p1[1] - p0[1], p2[1] - p0[1]],
                    ]
                )
                facets.append(tri_sorted)
                signs.append(1 if orient > 0 else -1)
    labels = tuple(frozenset({_sector(field(p))}) for p in positions)
    oc = OrientedComplex(SimplicialComplex(len(positions), tuple(facets)), tuple(signs))
    return LabeledCover(oc, labels, fs)


def two_bubble_cover(sign_a: int, sign_b: int):
    """Two isolated field zeros of the given signs in one square region."""
    return plane_field_cover(
        (sign_a, sign_b), ((Q(-5, 2), Q(1, 2)), (Q(5, 2), Q(1, 2))), radius=6
    )


def single_bubble_cover(sign: int):
    return plane_field_cover((sign,), ((Q(0), Q(1, 2)),), radius=3)


def sphere_vertex_positions():
    """Sum-zero rational coordinates for the 12 sphere-asset vertices.

    Vertices of one color cluster around a common direction with small
    sum-zero jitter; only the zero coordinate-sum matters for the game's
    admissibility and blocking structure.
    """
    from .topology.s3_12 import COLORING

    q = Q(1, 4)
    jitters = (
        (0, 0, 0, 0, 0),
        (q, -q, 0, 0, 0),
        (0, 0, q, -q, 0),
    )
    seen_per_color = {}
    positions = []
    for v, color in enumerate(COLORING):
        slot = seen_per_color.get(color, 0)
        seen_per_color[color] = slot + 1
        base = [Q(-1)] * 5
        base[color] += Q(5)
        positions.append(tuple(b + j for b, j in zip(base, jitters[slot])))
    return tuple(positions)


def hopf_fibration_game() -> GeneralizedGame:
    """Four firms at the unit basis vectors of R^4 sharing across five
    payoff coordinates; utilities are the comprehensive hulls of the
    closed-star cover of the sphere asset, embedded in the sum-zero
    hyperplane of R^5."""
    from .topology.s3_12 import COLORING, FACETS

    positions = sphere_vertex_positions()
    utilities = []
    for color in range(4):
        prims = []
        for facet in FACETS:
            if color in {COLORING[v] for v in facet}:
                prims.append(comprehensive_hull([positions[v] for v in facet]))
        utilities.append(ComprehensiveSet(tuple(prims)))
    firms = []
    for c in range(4):
        v = [Q(0)] * 4
        v[c] = Q(1)
        firms.append(tuple(v))
    fs = FirmSystem(firms=firms, resource=(1, 1, 1, 1))
    return GeneralizedGame(tuple(utilities), fs)


def symmetric_pairs_game_s2() -> GeneralizedGame:
    """Three competitor pairs over four payoff coordinates."""
    r = (1, 1, 1)
    firms = []
    points = []
    for axis in range(3):
        for sign in (1, -1):
            v = [1, 1, 1]
            v[axis] += sign
            firms.append(tuple(v))
            q = [-1, -1, -1, -1]
            q[axis] += 4  # 4*e_axis - ones
            points.append(tuple(sign * c for c in q))
    fs = FirmSystem(firms=firms, resource=r)
    utilities = tuple(
        ComprehensiveSet((point_orthant(p),)) for p in points
    )
    return GeneralizedGame(utilities, fs)
