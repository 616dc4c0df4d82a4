"""Reference uplift and membership in ``Fraction`` arithmetic.

Test-only.  These are the rational closed forms that ``fraccore.game_model``
replaced with integer rows; every function here must return exactly what its
namesake there returns.  They read only a half-space's rational ``normal`` and
``offset``.
"""

from __future__ import annotations

from fraccore.rationals import ZERO, dot


def halfspace_uplift(h, x):
    """(offset - <normal, x>) / <normal, ones>."""
    return (h.offset - dot(h.normal, x)) / sum(h.normal, ZERO)


def primitive_contains(prim, x) -> bool:
    return all(dot(h.normal, x) <= h.offset for h in prim.halfspaces)


def primitive_uplift(prim, x):
    return min(halfspace_uplift(h, x) for h in prim.halfspaces)


def set_uplift(cset, x):
    return max(primitive_uplift(p, x) for p in cset.primitives)


def set_contains(cset, x) -> bool:
    return any(primitive_contains(p, x) for p in cset.primitives)


def tau(utilities, x):
    return max(set_uplift(u, x) for u in utilities)


def cover_labels(utilities, x) -> frozenset:
    ups = [set_uplift(u, x) for u in utilities]
    best = max(ups)
    return frozenset(i for i, t in enumerate(ups) if t == best)
