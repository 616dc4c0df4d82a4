"""Seeded workload inputs for the fraccore benchmark.

Generation uses only the standard library, so the inputs a seed yields do
not depend on the fraccore version under test.  Each workload generator
returns ``(inputs, expectations)``: ``inputs`` is what the program receives,
as canonical fraccore JSON; ``expectations`` stays with the checker.

Operation kinds follow a fixed cyclic schedule and only the contents are
random, so every run of a workload has the same mix and its latency
percentiles never fall on the seam between two kinds.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction as F
from itertools import combinations, permutations

from check import balanced

# The 12-vertex sphere asset of fraccore.topology.s3_12 (facets and the
# coloring whose simplicial map has Hopf invariant one).  Kept as data here
# so relabelled copies can be generated without the program under test.
SPHERE_FACETS = (
    (0, 1, 2, 5), (0, 1, 2, 6), (0, 1, 4, 5), (0, 1, 4, 10), (0, 1, 6, 10),
    (0, 2, 3, 5), (0, 2, 3, 9), (0, 2, 6, 8), (0, 2, 8, 9), (0, 3, 4, 5),
    (0, 3, 4, 10), (0, 3, 9, 10), (0, 6, 8, 9), (0, 6, 9, 10), (1, 2, 5, 11),
    (1, 2, 6, 7), (1, 2, 7, 11), (1, 4, 5, 11), (1, 4, 10, 11), (1, 6, 7, 10),
    (1, 7, 10, 11), (2, 3, 5, 9), (2, 5, 9, 11), (2, 6, 7, 8), (2, 7, 8, 11),
    (2, 8, 9, 11), (3, 4, 5, 8), (3, 4, 7, 8), (3, 4, 7, 10), (3, 5, 6, 8),
    (3, 5, 6, 9), (3, 6, 7, 8), (3, 6, 7, 10), (3, 6, 9, 10), (4, 5, 8, 11),
    (4, 7, 8, 11), (4, 7, 10, 11), (5, 6, 8, 9), (5, 8, 9, 11),
)
SPHERE_COLORING = (0, 1, 2, 2, 0, 1, 1, 2, 0, 3, 3, 3)

# Large enough that region boundaries satisfy the carrier (KKMS) condition
# for values in [-20, 20]: any coalition not inside a face's carrier loses
# at least c/n^2 of uplift, and c/n^2 > 40 for n <= 4.
REGION_SCALE = (700, 1000)

MAX_SEARCH_BOUND = 8


def canonical(obj) -> str:
    """fraccore's canonical JSON: sorted keys, two-space indent, newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def rj(q):
    q = F(q)
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def coalitions(n):
    """Nonempty coalitions of range(n) in (size, lex) order."""
    return [c for size in range(1, n + 1) for c in combinations(range(n), size)]


def unit(n, i):
    return tuple(F(1) if j == i else F(0) for j in range(n))


def game_json(utilities, firms, resource, distinguished=None):
    """utilities: per firm a list of primitives, each a list of (a, b)."""
    return {
        "schema": "fraccore.game/1",
        "dimension": len(utilities[0][0][0][0]),
        "firms": [[rj(c) for c in v] for v in firms],
        "resource": [rj(c) for c in resource],
        "utilities": [
            {
                "primitives": [
                    {"halfspaces": [{"a": [rj(c) for c in a], "b": rj(b)} for a, b in prim]}
                    for prim in u
                ]
            }
            for u in utilities
        ],
        "distinguished": distinguished,
    }


def orthant(p):
    n = len(p)
    return [(unit(n, i), F(p[i])) for i in range(n)]


def cylinder(n, members, bound):
    return [(tuple(F(1) if i in members else F(0) for i in range(n)), F(bound))]


def coalition_firms(n):
    firms = []
    for coal in coalitions(n):
        firms.append(tuple(F(1, len(coal)) if i in coal else F(0) for i in range(n)))
    return firms, (F(1, n),) * n


# ---------------------------------------------------------------------------
# games
# ---------------------------------------------------------------------------


def tu_game(rng, n, with_core):
    """Integer values in [-20, 20].  Uniform draws almost never have a core
    point, so half the games are built around one: v(S) <= x(S) for a
    random x, with equality for the grand coalition."""
    if with_core:
        x = [rng.randint(-4, 4) for _ in range(n)]
        values = {}
        for c in coalitions(n):
            slack = 0 if len(c) == n else rng.randint(0, 4)
            values[c] = max(-20, sum(x[i] for i in c) - slack)
    else:
        values = {c: rng.randint(-20, 20) for c in coalitions(n)}
    keyed = {",".join(str(i + 1) for i in c): v for c, v in values.items()}
    return {"schema": "fraccore.tu/1", "n": n, "values": keyed}


def embedded_tu(values, n, distinguished=True):
    """Coalition firm system with cylinders sum_S x <= v(S)."""
    coals = coalitions(n)
    utilities = [[cylinder(n, c, values[c])] for c in coals]
    firms, resource = coalition_firms(n)
    dist = coals.index(tuple(range(n))) if distinguished else None
    return game_json(utilities, firms, resource, dist)


def random_embedded_tu(rng, n):
    return embedded_tu({c: rng.randint(-20, 20) for c in coalitions(n)}, n)


def embedded_ntu3(rng):
    """Each V(S) is an orthant at a random point of R^S, lifted to R^3."""
    coals = coalitions(3)
    utilities = []
    for coal in coals:
        prim = []
        for player in coal:
            prim.append((unit(3, player), F(rng.randint(-5, 5))))
        utilities.append([prim])
    firms, resource = coalition_firms(3)
    return game_json(utilities, firms, resource, coals.index((0, 1, 2)))


def core_tu4(rng):
    """Four-player TU game with a core point by construction.

    Given without a distinguished firm: on the 15-firm system
    ``is_balanced_game`` needs about 95 s per balanced game, and empty-core
    games send the fractional-core search through every balanced subset.
    """
    x = [rng.randint(-10, 10) for _ in range(4)]
    values = {}
    for c in coalitions(4):
        values[c] = sum(x[i] for i in c) - (0 if len(c) == 4 else rng.randint(0, 6))
    return embedded_tu(values, 4, distinguished=False)


def count_balanced(firms, resource) -> int:
    """Number of firm subsets whose cone contains the resource."""
    found = []
    for size in range(1, len(firms) + 1):
        for subset in combinations(range(len(firms)), size):
            if any(set(prev) <= set(subset) for prev in found) or balanced(
                firms, resource, subset
            ):
                found.append(subset)
    return len(found)


def random_small_game(rng):
    """n in {2, 3}, 2-5 firms in R^2 or R^3, 1-2 orthant or cylinder cells
    per firm.

    About 40% of these have an empty fractional core.  Draws whose search
    bound (balanced subsets times escape branching, the product of
    half-space counts) exceeds MAX_SEARCH_BOUND are redrawn: the exhaustive
    search of an empty game grows with it, up to 20 s for one game, and
    such a tail makes the run-to-run spread of every metric exceed its
    bound.  The cap leaves mostly two- and three-firm games.
    """
    while True:
        n = rng.choice((2, 3))
        m = rng.randint(2, 5)
        d = rng.choice((2, 3))
        firms = []
        while len(firms) < m:
            v = tuple(F(rng.randint(0, 3)) for _ in range(d))
            if sum(v) > 0:
                firms.append(v)
        resource = [F(0)] * d
        for i in rng.sample(range(m), rng.randint(1, m)):
            w = rng.randint(1, 2)
            resource = [r + w * c for r, c in zip(resource, firms[i])]
        utilities = []
        for _ in range(m):
            cells = []
            for _ in range(rng.randint(1, 2)):
                if rng.random() < 0.5:
                    cells.append(orthant([rng.randint(-5, 5) for _ in range(n)]))
                else:
                    members = rng.sample(range(n), rng.randint(1, n))
                    cells.append(cylinder(n, members, rng.randint(-5, 5)))
            utilities.append(cells)
        branches = math.prod(len(c) for u in utilities for c in u)
        if branches <= MAX_SEARCH_BOUND and (
            branches * count_balanced(firms, resource) <= MAX_SEARCH_BOUND
        ):
            return game_json(utilities, firms, resource, None)


# ---------------------------------------------------------------------------
# covers and complexes
# ---------------------------------------------------------------------------


def simplex_region(rng, n):
    c = F(rng.randint(*REGION_SCALE))
    verts = [[rj(-c * ((1 if j == i else 0) - F(1, n))) for j in range(n)] for i in range(n)]
    return {"simplex": verts}


def cube_region(rng, n):
    center = [rng.randint(-5, 5) for _ in range(n - 1)]
    center.append(-sum(center))
    return {"cube": {"center": center, "halfwidth": rng.randint(*REGION_SCALE)}}


def perm_sign(perm) -> int:
    sign = 1
    p = list(perm)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def subdivide(facets, signs, carriers):
    """One barycentric subdivision with fraccore's vertex numbering and
    orientation convention; new vertices carry the union of the carriers
    of their face's vertices."""
    face_ids = {}
    new_carriers = []
    out_facets = []
    out_signs = []
    for f, s in zip(facets, signs):
        k = len(f)
        for perm in permutations(range(k)):
            chain = []
            acc = []
            for idx in perm:
                acc.append(f[idx])
                face = tuple(sorted(acc))
                if face not in face_ids:
                    face_ids[face] = len(new_carriers)
                    new_carriers.append(
                        tuple(sorted(set().union(*(carriers[v] for v in face))))
                    )
                chain.append(face_ids[face])
            order = sorted(range(k), key=lambda i: chain[i])
            out_facets.append(tuple(chain[i] for i in order))
            out_signs.append(s * perm_sign(perm) * perm_sign(order))
    return out_facets, out_signs, new_carriers


def sperner_cover(rng, k, depth):
    """Subdivided boundary of the (k+1)-simplex, each vertex labelled by a
    random vertex of its carrier face; unit firms, uniform resource."""
    m = k + 2
    facets = [tuple(v for v in range(m) if v != i) for i in range(m)]
    signs = [(-1) ** i for i in range(m)]
    carriers = [(v,) for v in range(m)]
    for _ in range(depth):
        facets, signs, carriers = subdivide(facets, signs, carriers)
    return {
        "schema": "fraccore.cover/1",
        "vertices": len(carriers),
        "facets": [list(f) for f in facets],
        "orientation": signs,
        "labels": [[rng.choice(c)] for c in carriers],
        "firms": [[rj(c) for c in unit(m, i)] for i in range(m)],
        "resource": [rj(F(1, m))] * m,
    }


_SECTOR_DIRS = ((F(1), F(0)), (F(-1), F(1)), (F(0), F(-1)))


def _sector(w) -> int:
    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    for i in range(3):
        a, b = _SECTOR_DIRS[i], _SECTOR_DIRS[(i + 1) % 3]
        if cross(a, w) >= 0 and cross(w, b) > 0:
            return i
    return 2


def plane_field_cover(zeros, signs, radius):
    """Triangulated square labelled by the sector of a product of linear
    fields, one factor per zero (conjugated for sign -1)."""

    def field(p):
        total = (F(1), F(0))
        for sign, z in zip(signs, zeros):
            fx, fy = p[0] - z[0], p[1] - z[1]
            if sign < 0:
                fy = -fy
            total = (total[0] * fx - total[1] * fy, total[0] * fy + total[1] * fx)
        return total

    coords = range(-radius, radius + 1)
    index_of = {}
    positions = []
    for y in coords:
        for x in coords:
            index_of[(x, y)] = len(positions)
            positions.append((F(x), F(y)))
    facets, orientation = [], []
    for y in range(-radius, radius):
        for x in range(-radius, radius):
            a, b = index_of[(x, y)], index_of[(x + 1, y)]
            c, d = index_of[(x + 1, y + 1)], index_of[(x, y + 1)]
            for tri in ((a, b, c), (a, c, d)):
                t = tuple(sorted(tri))
                p0, p1, p2 = (positions[v] for v in t)
                det = (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1])
                facets.append(list(t))
                orientation.append(1 if det > 0 else -1)
    return {
        "schema": "fraccore.cover/1",
        "vertices": len(positions),
        "facets": facets,
        "orientation": orientation,
        "labels": [[_sector(field(p))] for p in positions],
        "firms": [[2, 1], [0, 2], [1, 0]],
        "resource": [1, 1],
    }


def field_zeros(rng, count, radius):
    """Zeros at square centres, at least 4 apart and 2.5 inside the rim."""
    lo, hi = -radius + 2, radius - 3
    if count > 1 and hi - lo < 4:
        raise ValueError(f"radius {radius} leaves no room for {count} zeros 4 apart")
    while True:
        cells = [
            (F(2 * rng.randint(lo, hi) + 1, 2), F(2 * rng.randint(lo, hi) + 1, 2))
            for _ in range(count)
        ]
        if all(
            max(abs(p[0] - q[0]), abs(p[1] - q[1])) >= 4
            for p, q in combinations(cells, 2)
        ):
            return cells


def sphere_op(perm):
    """The sphere asset with vertex v renumbered perm[v]."""
    facets = sorted(tuple(sorted(perm[v] for v in f)) for f in SPHERE_FACETS)
    colors = [0] * 12
    for v in range(12):
        colors[perm[v]] = SPHERE_COLORING[v]
    return {
        "complex": {
            "schema": "fraccore.complex/1",
            "vertices": 12,
            "facets": [list(f) for f in facets],
            "labels": [[c] for c in colors],
        },
        "firms": [[1 if j == i else 0 for j in range(4)] for i in range(4)],
        "resource": [1, 1, 1, 1],
    }


def hopf_probe(seed, count=16):
    """Seeded vertex relabelings of the sphere asset for the untimed probe
    of the known ``hopf_invariant`` defect: ``(ops, perms)``."""
    rng = random.Random(f"hopf-probe:{seed}")
    perms = []
    for _ in range(count):
        perm = list(range(12))
        rng.shuffle(perm)
        perms.append(perm)
    return [{"kind": "hopf", **sphere_op(perm)} for perm in perms], perms


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# n = 4 fills the middle of the sorted latencies and n = 5 (~0.8 s each)
# the top fifth, so the median and the 90th percentile each sit inside one
# game size.
TU_SCHEDULE = (3, 4, 4, 4, 5)

FRAC_PERIOD = 600  # one four-player game per period, early in the run
FRAC_TU4_SLOT = 5


def tu_lp(rng, count):
    period = len(TU_SCHEDULE)
    inputs = [tu_game(rng, TU_SCHEDULE[i % period], (i // period) % 2 == 0) for i in range(count)]
    return inputs, [{} for _ in inputs]


def frac_core(rng, count):
    inputs, expect = [], []
    for i in range(count):
        if i % FRAC_PERIOD == FRAC_TU4_SLOT:
            inputs.append(core_tu4(rng))
            expect.append({"family": "tu4"})
        elif i % 3 == 0:
            inputs.append(random_small_game(rng))
            expect.append({"family": "random"})
        else:
            inputs.append(embedded_ntu3(rng))
            expect.append({"family": "ntu3"})
    return inputs, expect


# One cycle of cover operations.  Within a kind the cost is narrow (about
# +-15%), so the sorted latencies form blocks: six cheap slots, four
# single-zero index sums holding the median, and the two two-zero index sums
# holding the 90th percentile below the one Hopf pipeline (~2 s).
COVER_SCHEDULE = (
    ("sperner", 1, 3),
    ("induce", 3, "simplex", 2),
    ("index", 1, 3),
    ("induce", 3, "cube", 2),
    ("induce", 4, "cube", 1),
    ("index", 2, 5),
    ("sperner", 2, 1),
    ("index", 1, 3),
    ("induce", 3, "simplex", 4),
    ("induce", 4, "simplex", 2),
    ("index", 1, 3),
    ("induce", 3, "cube", 4),
    ("induce", 3, "simplex", 6),
    ("index", 2, 5),
    ("index", 1, 3),
    ("hopf",),
)


def cover_op(rng, spec):
    kind = spec[0]
    if kind == "induce":
        _, n, shape, depth = spec
        game = embedded_ntu3(rng) if n == 3 and rng.random() < 0.5 else random_embedded_tu(rng, n)
        region = simplex_region(rng, n) if shape == "simplex" else cube_region(rng, n)
        op = {"kind": "induce", "game": game, "region": region, "depth": depth}
        return op, {"exact_degree": shape == "simplex"}
    if kind == "sperner":
        _, k, depth = spec
        return {"kind": "sperner", "cover": sperner_cover(rng, k, depth)}, {}
    if kind == "index":
        _, count, radius = spec
        zeros = field_zeros(rng, count, radius)
        signs = [rng.choice((1, -1)) for _ in zeros]
        cover = plane_field_cover(zeros, signs, radius)
        expect = {"zeros": [[rj(c) for c in z] for z in zeros], "signs": signs, "radius": radius}
        return {"kind": "index", "cover": cover}, expect
    if kind == "hopf":
        # The asset's own numbering: on relabelings hopf_invariant has a
        # known defect, which run.py probes outside the timed loop.
        return {"kind": "hopf", **sphere_op(list(range(12)))}, {}
    raise ValueError(kind)


def cover_topology(rng, count):
    inputs, expect = [], []
    for i in range(count):
        op, exp = cover_op(rng, COVER_SCHEDULE[i % len(COVER_SCHEDULE)])
        inputs.append(op)
        expect.append(exp)
    return inputs, expect


GENERATORS = {"tu-lp": tu_lp, "frac-core": frac_core, "cover-topology": cover_topology}


def generate(workload: str, seed: int, count: int):
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, count)
