"""Exact rational scalars and small vector helpers.

Every quantity in this package (weights, utility levels, coordinates) is an
exact rational.  ``Q`` is gmpy2's mpq when available (much faster) and falls
back to the stdlib Fraction; both store lowest terms with positive
denominator and interoperate with ints.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Q  # type: ignore[import-untyped]
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Q  # type: ignore[assignment]

ZERO = Q(0)
ONE = Q(1)


def rat(value) -> "Q":
    """Coerce an int, string ("p/q" or "p"), Fraction or Q to an exact rational."""
    if type(value) is Q:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass an int, string or rational")
    if isinstance(value, str):
        return Q(value)
    try:
        return Q(value.numerator, value.denominator)
    except AttributeError:
        return Q(value)


def vec(values) -> tuple:
    """Coerce a sequence to a tuple of exact rationals."""
    return tuple(rat(v) for v in values)


def dot(a, b) -> "Q":
    if len(a) != len(b):
        raise ValueError("dot: length mismatch")
    total = ZERO
    for x, y in zip(a, b):
        total += x * y
    return total


def vsum(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a) -> tuple:
    c = rat(c)
    return tuple(c * x for x in a)


def rat_str(q) -> str:
    """Serialize exactly: plain integer if integral, else "p/q"."""
    q = rat(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rat_json(q):
    """JSON form of a rational: int when integral, else the "p/q" string."""
    q = rat(q)
    if q.denominator == 1:
        return int(q.numerator)
    return f"{q.numerator}/{q.denominator}"
