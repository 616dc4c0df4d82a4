"""Data model for TU, coalitional NTU and generalized cooperative games.

Utility sets are finite unions of half-space intersections whose normals are
componentwise nonnegative (and nonzero).  That class is closed under the
constructions used throughout the package (coalition cylinders, point
orthants, comprehensive hulls of simplices), is automatically comprehensive,
and admits a closed form for the best uniform raise ("uplift") of a point,
which keeps every membership and blocking decision exact.

Each half-space also holds an integer row, computed once at construction:
its normal and offset times the lcm of their denominators (its scale;
``frac_core`` passes the row to its LPs when the scale is 1), and the
gauge (the sum of the scaled normal), which is positive.  ``_scaled_for``
scales a point once, to integer numerators p over a common denominator
d > 0, for all the sets it meets.  Each primitive or set then gives one
integer slack s (``_slack``), its uplift being s / (g * d) with g > 0; a
primitive's slack is one loop over its rows, and a set's is the greatest
of its primitives' slacks (the one primitive's, for a set of one).  So a
point-versus-set question is the sign of s: x lies in U when s >= 0,
escapes the interior of U when s <= 0, and a primitive blocks x when its
own s > 0.  ``tau`` and ``cover_labels`` compare the sets' slacks by
cross-multiplying, exact since every gauge is positive and the denominator
is common.  ``cover_labels`` is one labelling kernel, ``_labels``, on the
scaled point; induced labelings in ``topology.degree`` call that kernel
directly on the integer numerators of each vertex over the region's common
denominator.  A rational is built only for a returned value: one per
``uplift`` or ``tau`` call and none per membership test or induced-cover
vertex.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from operator import mul
from types import MappingProxyType

from .errors import DimensionMismatch
from .exact_linear import Feasible, LinearSystem, solve_feasibility
from .linalg import _clear_denominators, nullspace
from .rationals import ONE, ZERO, Q, dot, rat, vec


@dataclass(frozen=True)
class HalfSpace:
    """{x : <normal, x> <= offset} with normal >= 0, normal != 0.

    ``row`` is (a, b, g): the normal and offset scaled to integers by
    ``scale``, the lcm of their denominators, and the gauge g = sum(a) > 0.
    Both are derived data, so equality, hashing and repr ignore them."""

    normal: tuple
    offset: "Q"
    row: tuple = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "normal", vec(self.normal))
        object.__setattr__(self, "offset", rat(self.offset))
        (*a, b), s = _clear_denominators((*self.normal, self.offset))
        if any(x < 0 for x in a):
            raise ValueError("half-space normal must be componentwise nonnegative")
        if not any(a):
            raise ValueError("half-space normal must be nonzero")
        object.__setattr__(self, "row", (tuple(a), b, sum(a)))
        object.__setattr__(self, "scale", s)

    @property
    def dim(self) -> int:
        return len(self.normal)


@dataclass(frozen=True)
class Primitive:
    """Closed convex comprehensive cell: the intersection of its half-spaces.

    ``rows`` holds the integer row of each half-space, in order."""

    halfspaces: tuple
    rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        if not self.halfspaces:
            raise ValueError("a primitive needs at least one half-space")
        dims = {h.dim for h in self.halfspaces}
        if len(dims) != 1:
            raise DimensionMismatch("half-spaces of mixed dimension in one primitive")
        object.__setattr__(self, "rows", tuple(h.row for h in self.halfspaces))

    @property
    def dim(self) -> int:
        return self.halfspaces[0].dim

    def _slack(self, p, d) -> tuple:
        """(s, g) with uplift s / (g * d) at the point p / d (p integer,
        d > 0): the least of the rows' (b*d - <a, p>) / g, found by
        cross-multiplying, since every g is positive."""
        best_s = best_g = None
        for a, b, g in self.rows:
            s = b * d - sum(map(mul, a, p))
            if best_g is None or s * best_g < best_s * g:
                best_s, best_g = s, g
        return best_s, best_g


@dataclass(frozen=True)
class ComprehensiveSet:
    """Finite union of primitives over a common dimension."""

    primitives: tuple

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))
        if not self.primitives:
            raise ValueError("a comprehensive set needs at least one primitive")
        dims = {p.dim for p in self.primitives}
        if len(dims) != 1:
            raise DimensionMismatch("primitives of mixed dimension in one set")

    @property
    def dim(self) -> int:
        return self.primitives[0].dim

    def uplift(self, x) -> "Q":
        """The greatest primitive uplift at x; one rational is built, for
        the result."""
        _, p, d = _scaled_for((self,), x)
        s, g = self._slack(p, d)
        return Q(s, g * d)

    def _slack(self, p, d) -> tuple:
        """(s, g) with uplift s / (g * d) at the point p / d (p integer,
        d > 0): the greatest of the primitives' slacks (``_greatest``); a
        set of one primitive gives that primitive's, without a list."""
        prims = self.primitives
        if len(prims) == 1:
            return prims[0]._slack(p, d)
        return _greatest([prim._slack(p, d) for prim in prims])

    def is_proper(self) -> bool:
        """True: some point is excluded, for every set of this class.

        The uplift falls by exactly t along x + t*ones, because every gauge
        is positive.  So at the origin raised to origin + (u(origin) + 1) *
        ones it is u(origin) - (u(origin) + 1) = -1 < 0, and that point lies
        outside the set.
        """
        return True


def point_orthant(p) -> Primitive:
    """p - R^n_+ : everything componentwise below p."""
    p = vec(p)
    n = len(p)
    hs = []
    for i in range(n):
        normal = [ZERO] * n
        normal[i] = ONE
        hs.append(HalfSpace(tuple(normal), p[i]))
    return Primitive(tuple(hs))


def coalition_cylinder(n: int, members, bound) -> Primitive:
    """{x : sum over members <= bound} as a single half-space in R^n."""
    normal = [ZERO] * n
    for i in members:
        normal[i] = ONE
    return Primitive((HalfSpace(tuple(normal), rat(bound)),))


def comprehensive_hull(points) -> Primitive:
    """Exact half-space representation of conv(points) - R^n_+.

    The polyhedron is full-dimensional with recession cone the negative
    orthant, so every facet normal is componentwise nonnegative.  A facet's
    normal is the kernel of n - 1 independent rows: differences from its
    first incident point (the anchor) to later incident points, and the
    axes it contains.  So for each anchor every choice of n - 1 such rows
    with a line of solutions is a candidate (a larger system of rank n - 1
    has the kernel of one of these); candidates failing nonnegativity or
    validity are discarded.
    """
    pts = [vec(p) for p in points]
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise DimensionMismatch("points of mixed dimension")
    axes = [tuple(ONE if k == j else ZERO for k in range(n)) for j in range(n)]
    seen = {}
    for t, anchor in enumerate(pts):
        diffs = [tuple(a - b for a, b in zip(p, anchor)) for p in pts[t + 1 :]]
        for system in combinations(diffs + axes, n - 1):
            if not system:
                continue
            kernel = nullspace(system)
            if len(kernel) != 1:
                continue
            # 1 on its free column: nonzero, and a nonnegative facet normal
            # is a positive multiple of it
            normal = kernel[0]
            if any(c < ZERO for c in normal):
                continue
            offset = dot(normal, anchor)
            if any(dot(normal, p) > offset for p in pts):
                continue
            scale = sum(normal, ZERO)
            key = (tuple(c / scale for c in normal), offset / scale)
            seen[key] = HalfSpace(key[0], key[1])
    if not seen:
        raise ValueError("no supporting half-spaces found")
    return Primitive(tuple(seen[k] for k in sorted(seen)))


def contains(cset: ComprehensiveSet, x) -> bool:
    """Exact membership in the union: the set's slack at x is >= 0."""
    _, p, d = _scaled_for((cset,), x)
    return cset._slack(p, d)[0] >= 0


def _greatest(slacks) -> tuple:
    """The greatest of the slacks (s, g), each standing for s / g with
    g > 0, compared by cross-multiplying; the first of equal ones."""
    it = iter(slacks)
    first = next(it, None)
    if first is None:
        raise ValueError("the uplift needs at least one utility set")
    best_s, best_g = first
    for s, g in it:
        if s * best_g > best_s * g:
            best_s, best_g = s, g
    return best_s, best_g


def _scaled_for(utilities, x) -> tuple:
    """(utilities, p, d): the sets as a tuple and x == p / d, scaled once
    for all of them after checking that every set has the point's length."""
    x = vec(x)
    utilities = tuple(utilities)
    if any(u.dim != len(x) for u in utilities):
        raise DimensionMismatch("point dimension does not match utilities")
    p, d = _clear_denominators(x)
    return utilities, p, d


def tau(utilities, x) -> "Q":
    """Best uniform raise: max t with x + t*ones in the union of all sets.

    Closed form: max over primitives of min over half-spaces of
    (offset - <a,x>) / <a,ones>; finite because every gauge is positive.
    """
    utilities, p, d = _scaled_for(utilities, x)
    s, g = _greatest([u._slack(p, d) for u in utilities])
    return Q(s, g * d)


def in_induced_cover(utilities, i: int, x) -> bool:
    """True iff set i attains the global uplift at x (x + tau(x)*ones in U_i)."""
    return i in cover_labels(utilities, x)


def cover_labels(utilities, x) -> frozenset:
    """All indices whose set attains the uplift at x (never empty)."""
    return _labels(*_scaled_for(utilities, x))


def _labels(utilities, p, d) -> frozenset:
    """``cover_labels`` at the point p / d (p integer, d > 0), whose length
    the caller has checked: set i is a label when s_i * g == s * g_i for
    the greatest of the sets' slacks (s, g), each read once."""
    slacks = [u._slack(p, d) for u in utilities]
    s, g = _greatest(slacks)
    return frozenset(i for i, (si, gi) in enumerate(slacks) if si * g == s * gi)


@dataclass(frozen=True)
class FirmSystem:
    """Firm resource vectors in R^d plus the resource vector r.

    ``_tests`` holds the system's balance tests per mode once
    ``balance.balance_test`` has made them; it is derived data, so
    equality, hashing and repr ignore it."""

    firms: tuple
    resource: tuple
    _tests: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "firms", tuple(vec(v) for v in self.firms))
        object.__setattr__(self, "resource", vec(self.resource))
        d = len(self.resource)
        for v in self.firms:
            if len(v) != d:
                raise DimensionMismatch("firm vector dimension != resource dimension")

    @property
    def count(self) -> int:
        return len(self.firms)

    @property
    def dim(self) -> int:
        return len(self.resource)

    def check_positive_totals(self) -> bool:
        return all(sum(v, ZERO) > ZERO for v in self.firms)

    def resource_in_cone(self) -> bool:
        return _balancing_lp(self, range(self.count), False) is not None


def _balancing_equations(fs: FirmSystem, members, convex: bool) -> tuple:
    """Rows (coefficients, rhs) of sum_i w_i v_i = r over the members, one
    weight per member in order, plus sum_i w_i = 1 when ``convex``."""
    eqs = [(tuple(fs.firms[i][k] for i in members), fs.resource[k]) for k in range(fs.dim)]
    if convex:
        eqs.append(((ONE,) * len(members), ONE))
    return tuple(eqs)


def _balancing_lp(fs: FirmSystem, members, convex: bool):
    """The balancing LP: nonnegative weights, one per member in order,
    solving the balancing equations, or None when there are none."""
    eqs = _balancing_equations(fs, members, convex)
    res = solve_feasibility(LinearSystem(len(members), equalities=eqs, nonneg=True))
    return res.witness if isinstance(res, Feasible) else None


@dataclass(frozen=True)
class GeneralizedGame:
    """Utility sets in R^n, a firm system in R^d, optional distinguished firm."""

    utilities: tuple
    firm_system: FirmSystem
    distinguished: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "utilities", tuple(self.utilities))
        if not self.utilities:
            raise ValueError("a game needs at least one utility set")
        if len(self.utilities) != self.firm_system.count:
            raise DimensionMismatch("one utility set per firm is required")
        dims = {u.dim for u in self.utilities}
        if len(dims) > 1:
            raise DimensionMismatch("utility sets of mixed dimension")
        if self.distinguished is not None and not (
            0 <= self.distinguished < len(self.utilities)
        ):
            raise IndexError("distinguished firm index out of range")

    @property
    def dim(self) -> int:
        return self.utilities[0].dim

    @property
    def firm_count(self) -> int:
        return len(self.utilities)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def validate_game(game: GeneralizedGame) -> ValidationReport:
    """Run the definitional checks; failures are reported, not raised."""
    checks = []
    # normal nonnegativity is structural (constructors reject violations)
    checks.append(CheckResult("normals_nonnegative", True, "enforced at construction"))
    for i, u in enumerate(game.utilities):
        checks.append(
            CheckResult(
                f"utility_{i}_proper",
                u.is_proper(),
                "some point must be excluded",
            )
        )
    fs = game.firm_system
    checks.append(
        CheckResult(
            "firm_totals_positive",
            fs.check_positive_totals(),
            "<v_i, ones> > 0 for every firm",
        )
    )
    checks.append(
        CheckResult(
            "resource_nonzero", any(c != ZERO for c in fs.resource), "r != 0"
        )
    )
    checks.append(
        CheckResult("resource_in_cone", fs.resource_in_cone(), "r in cone(V)")
    )
    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# classical games
# ---------------------------------------------------------------------------


def coalitions(n: int):
    """All nonempty coalitions of range(n) in (size, lex) order."""
    out = []
    for size in range(1, n + 1):
        out.extend(tuple(c) for c in combinations(range(n), size))
    return out


def _check_players(n: int):
    if n < 1:
        raise ValueError(f"a game needs at least one player, got n = {n}")


def _coalition_key(coal, n: int, seen) -> tuple:
    """The sorted tuple naming ``coal``: a nonempty set of players of
    range(n), none repeated, that no key in ``seen`` names already."""
    key = tuple(sorted(coal))
    if not key or key[0] < 0 or key[-1] >= n or len(set(key)) < len(key):
        raise ValueError(f"bad coalition {coal}")
    if key in seen:
        raise ValueError(f"bad coalition {coal}: {key} is named twice")
    return key


@cache
def coalition_firm_system(n: int) -> FirmSystem:
    """Firms 1_S/|S|, one per coalition S in ``coalitions`` order, and
    resource ones/n: the firm system of an embedded classical game.

    One instance per n, so every embedded n-player game and
    ``balance.minimal_balanced_families(n)`` read one antichain off the
    balance test that this system keeps."""
    firms = [tuple(Q(1, len(c)) if i in c else ZERO for i in range(n)) for c in coalitions(n)]
    return FirmSystem(firms=firms, resource=(Q(1, n),) * n)


@dataclass(frozen=True)
class TUGame:
    """Characteristic function on all nonempty coalitions of range(n).

    ``values`` is a read-only mapping from sorted coalition tuples to
    rationals, so a game cannot change while a memo keeps it as a key.
    """

    n: int
    values: Mapping = field(hash=False)

    def __post_init__(self):
        _check_players(self.n)
        fixed = {}
        for coal, val in self.values.items():
            fixed[_coalition_key(coal, self.n, fixed)] = rat(val)
        object.__setattr__(self, "values", MappingProxyType(fixed))
        missing = [c for c in coalitions(self.n) if c not in fixed]
        if missing:
            raise ValueError(f"missing coalition values: {len(missing)}, the first {missing[0]}")

    def value(self, coal) -> "Q":
        return self.values[tuple(sorted(coal))]

    @property
    def grand(self) -> tuple:
        return tuple(range(self.n))


@dataclass(frozen=True)
class CoalitionalNTUGame:
    """One comprehensive set V(S) in R^S per nonempty coalition S.

    ``sets`` maps sorted coalition tuples to ComprehensiveSets over |S|
    coordinates, ordered as the sorted members; it is read-only.
    """

    n: int
    sets: Mapping = field(hash=False)

    def __post_init__(self):
        _check_players(self.n)
        fixed = {}
        for coal, cs in self.sets.items():
            key = _coalition_key(coal, self.n, fixed)
            fixed[key] = cs
            if cs.dim != len(key):
                raise DimensionMismatch(
                    f"V({key}) must live in {len(key)} coordinates"
                )
        object.__setattr__(self, "sets", MappingProxyType(fixed))
        missing = [c for c in coalitions(self.n) if c not in fixed]
        if missing:
            raise ValueError(f"missing coalition sets: {len(missing)}, the first {missing[0]}")

    def bounded_above(self) -> bool:
        """Each V(S) cut to the nonnegative orthant must be bounded.

        There x >= 0 and every normal is >= 0, so a primitive is empty
        exactly when some offset is < 0 (else it holds 0), and a nonempty
        one is bounded exactly when each coordinate j has a half-space with
        normal[j] > 0 (else it holds every t * e_j with t >= 0)."""
        return all(
            any(h.offset < ZERO for h in p.halfspaces)
            or all(any(h.normal[j] > ZERO for h in p.halfspaces) for j in range(p.dim))
            for cs in self.sets.values()
            for p in cs.primitives
        )
