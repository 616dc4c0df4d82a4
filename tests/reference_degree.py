"""Reference ray crossing and firm coordinates through public ``linalg`` calls.

Test-only.  These are the classifications ``fraccore.topology.degree`` used
before it read both off one ``linalg._reduce`` each: the crossing takes
``solve_square``, a ``gaussian_solve`` fallback and ``det``, and the
coordinates take ``affine_basis`` plus one ``gaussian_solve`` per firm.
Every function here must return exactly what its private namesake there
returns.
"""

from __future__ import annotations

from fraccore.errors import DimensionMismatch
from fraccore.linalg import affine_basis, det, gaussian_solve, solve_square
from fraccore.rationals import ZERO


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
