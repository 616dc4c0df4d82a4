"""Reference versions of private ``fraccore.topology.degree`` routines.

Test-only.  The ray crossing and firm coordinates are the classifications
``degree`` used before it read both off one ``linalg._reduce`` each: the
crossing takes ``solve_square``, a ``gaussian_solve`` fallback and ``det``,
and the coordinates take ``affine_basis`` plus one ``gaussian_solve`` per
firm.  The cube boundary builds its positions from explicit frame vectors
and signs the square's cycle by hand.  Every function here must return
exactly what its private namesake there returns.
"""

from __future__ import annotations

from fraccore.errors import DimensionMismatch
from fraccore.linalg import affine_basis, det, gaussian_solve, solve_square
from fraccore.rationals import ONE, ZERO, rat
from fraccore.topology.complexes import (
    OrientedComplex,
    SimplicialComplex,
    propagate_orientation,
)


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
