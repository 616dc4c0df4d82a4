"""Reference versions of private ``fraccore.topology.degree`` routines.

Test-only.  The ray crossing and firm coordinates are the classifications
``degree`` used before it read both off one ``linalg._reduce`` each: the
crossing takes ``solve_square``, a ``gaussian_solve`` fallback and ``det``,
and the coordinates take ``affine_basis`` plus one ``gaussian_solve`` per
firm.  The cube boundary builds its positions from explicit frame vectors
and signs the square's cycle by hand.  The subdivision carries ``Fraction``
barycentres level by level over the per-permutation subdivision of
``reference_complexes``, where ``degree`` keeps integer numerators over one
common denominator.  The degree takes one crossing per facet per ray, where
``pl_degree`` takes one per distinct ordered label tuple per ray, and its
balance scan tests every facet in turn.  The balanced facets solve one
balancing LP per facet, where ``_balanced_facets`` tests each distinct
ordered tuple of vertex labels once.  Every function here must return
exactly what its namesake there returns; the degree also returns the
number of rays it tried.
"""

from __future__ import annotations

from reference_complexes import barycentric_subdivision

from fraccore.balance import balance_test, balancing_weights, convex_balancing_weights
from fraccore.errors import DimensionMismatch, NotClosedManifold
from fraccore.linalg import affine_basis, det, gaussian_solve, solve_square
from fraccore.rationals import ONE, ZERO, rat
from fraccore.topology.complexes import (
    OrientedComplex,
    SimplicialComplex,
    propagate_orientation,
)
from fraccore.topology.degree import BalancedSimplexFound, Degree, _ray_candidates


def crossing(cols, ray):
    """0 when the ray is degenerate for the image simplex of ``cols``, None
    when it misses, else the sign of the determinant."""
    n = len(cols)
    matrix = [[cols[j][row] for j in range(n)] for row in range(n)]
    sol = solve_square(matrix, list(ray))
    if sol is None:
        # degenerate image simplex: fine unless the ray meets its span
        return 0 if gaussian_solve(matrix, list(ray)) is not None else None
    if any(c == ZERO for c in sol):
        return 0
    if all(c > ZERO for c in sol):
        return 1 if det(matrix) > ZERO else -1
    return None


def pl_degree(lc):
    """``pl_degree`` with one reference crossing per facet per ray, and the
    number of rays tried (0 when a balanced facet is returned)."""
    oc = lc.oriented
    K = oc.complex
    if any(len(inc) != 2 for inc in K.ridges().values()):
        raise NotClosedManifold("pl_degree needs every ridge in exactly two facets")
    if not oc.coherent():
        raise NotClosedManifold("orientation is not coherent")
    k = K.dim
    coords = affine_coordinates(lc.firm_system, k)
    chosen = [min(ls) for ls in lc.labels]
    balanced = balance_test(lc.firm_system, "convex")
    for facet in K.facets:
        if balanced({chosen[u] for u in facet}):
            return BalancedSimplexFound(facet), 0
    for tried, ray in enumerate(_ray_candidates(k), 1):
        total = 0
        for facet, sign in zip(K.facets, oc.orientation):
            c = crossing([coords[chosen[u]] for u in facet], ray)
            if c == 0:
                break
            if c:
                total += sign * c
        else:
            return Degree((-1) ** (k + 1) * total), tried
    raise AssertionError("unreachable")


def affine_coordinates(fs, k):
    """Coordinates of v_i - r in the greedy basis of their span."""
    diffs = [tuple(a - b for a, b in zip(v, fs.resource)) for v in fs.firms]
    basis = [diffs[i - 1] for i in affine_basis((fs.resource, *fs.firms))[1:]]
    if len(basis) != k + 1:
        raise DimensionMismatch(
            f"affine hull of firms and resource has dimension {len(basis)}, "
            f"need {k + 1}"
        )
    cols = list(zip(*basis))
    coords = []
    for d in diffs:
        sol = gaussian_solve([list(row) for row in cols], list(d))
        assert sol is not None, "firm vector outside the measured span"
        coords.append(tuple(sol[0]))
    return coords


def cube_boundary_grid(n_coords: int, center, halfwidth, depth: int):
    """Triangulated boundary of a cube in d = n_coords - 1 frame coords."""
    d = n_coords - 1
    if d not in (2, 3):
        raise DimensionMismatch("cube regions support payoff dimensions 3 and 4")
    steps = 2**depth
    frame = []
    for i in range(d):
        u = [ZERO] * n_coords
        u[i] = ONE
        u[-1] = -ONE
        frame.append(tuple(u))

    def position(coeffs):
        pos = list(center)
        for c, u in zip(coeffs, frame):
            for j in range(n_coords):
                pos[j] += halfwidth * c * u[j]
        return tuple(pos)

    verts = {}
    positions = []

    def vid(coeffs):
        key = tuple(coeffs)
        if key not in verts:
            verts[key] = len(positions)
            positions.append(position(key))
        return verts[key]

    facets = []
    grid = [rat(-1) + rat(2 * t) / steps for t in range(steps + 1)]
    if d == 2:
        # the four sides of a square, oriented as one counterclockwise cycle
        path = []
        for t in range(steps):
            path.append((grid[t], rat(-1)))
        for t in range(steps):
            path.append((rat(1), grid[t]))
        for t in range(steps):
            path.append((grid[steps - t], rat(1)))
        for t in range(steps):
            path.append((rat(-1), grid[steps - t]))
        ids = [vid(c) for c in path]
        m = len(ids)
        signs = []
        for a in range(m):
            u, w = ids[a], ids[(a + 1) % m]
            facets.append((u, w))
            signs.append(1 if u < w else -1)
        return (
            OrientedComplex(
                SimplicialComplex(len(positions), tuple(facets)), tuple(signs)
            ),
            positions,
        )
    # d == 3: six faces, each a triangulated grid; orientation fixed by
    # propagation afterwards (cube surface is connected and orientable)
    for axis in range(3):
        for side in (-1, 1):
            for a in range(steps):
                for b in range(steps):
                    corners = []
                    for da, db in ((0, 0), (1, 0), (1, 1), (0, 1)):
                        c = [None] * 3
                        c[axis] = rat(side)
                        c[(axis + 1) % 3] = grid[a + da]
                        c[(axis + 2) % 3] = grid[b + db]
                        corners.append(vid(tuple(c)))
                    facets.append(tuple(sorted((corners[0], corners[1], corners[2]))))
                    facets.append(tuple(sorted((corners[0], corners[2], corners[3]))))
    K = SimplicialComplex(len(positions), tuple(facets))
    oc = propagate_orientation(K)
    assert oc is not None
    return oc, positions


def subdivide_with_positions(oc, positions, depth: int):
    """``depth`` barycentric subdivisions; each new vertex sits at the
    rational barycentre of its carrier face."""
    for _ in range(depth):
        sub = barycentric_subdivision(oc)
        new_positions = []
        for face in sub.carriers:
            pts = [positions[v] for v in face]
            n = len(pts)
            new_positions.append(tuple(sum(col, ZERO) / n for col in zip(*pts)))
        oc = sub.oriented
        positions = new_positions
    return oc, positions


def balanced_facets(lc, mode: str):
    """``_balanced_facets``: the indices of the facets whose vertex-label
    union admits balancing weights, one LP per facet."""
    lp = convex_balancing_weights if mode == "convex" else balancing_weights
    return [
        idx
        for idx, facet in enumerate(lc.oriented.complex.facets)
        if lp(sorted(set().union(*(lc.labels[u] for u in facet))), lc.firm_system) is not None
    ]
