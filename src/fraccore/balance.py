"""Balanced sets of firms, minimal balanced families, and convexification.

A set of firms is balanced when nonnegative weights on its members combine
exactly to the resource vector ("cone" mode); the convex variant also
requires the weights to sum to one.  Families of coalitions with weighted
characteristic vectors summing to the all-ones vector are the classical
special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import CapExceeded, CountMismatch, IndexOutOfRange
from .exact_linear import Feasible, LinearSystem, solve_feasibility
from .game_model import FirmSystem, coalitions
from .linalg import gaussian_solve
from .rationals import ONE, ZERO, Q, dot, vec

DEFAULT_FIRM_CAP = 20
DEFAULT_PLAYER_CAP = 5


@dataclass(frozen=True)
class BalancedFamily:
    """Coalitions with weights whose characteristic vectors sum to all-ones."""

    subsets: tuple
    weights: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "subsets", tuple(tuple(sorted(s)) for s in self.subsets)
        )
        object.__setattr__(self, "weights", vec(self.weights))
        if len(self.subsets) != len(self.weights):
            raise ValueError("one weight per subset")
        if any(w < ZERO for w in self.weights):
            raise ValueError("weights must be nonnegative")

    def combination(self, n: int) -> tuple:
        total = [ZERO] * n
        for s, w in zip(self.subsets, self.weights):
            for i in s:
                total[i] += w
        return tuple(total)

    def verify(self, n: int) -> bool:
        return self.combination(n) == (ONE,) * n


def checked_family(subsets, weights, n: int) -> BalancedFamily:
    fam = BalancedFamily(tuple(subsets), tuple(weights))
    if not fam.verify(n):
        raise ValueError("weights do not balance the all-ones vector")
    return fam


def _weights_system(members, fs: FirmSystem, convex: bool) -> LinearSystem:
    k = len(members)
    eqs = []
    for row in range(fs.dim):
        eqs.append(
            (tuple(fs.firms[i][row] for i in members), fs.resource[row])
        )
    if convex:
        eqs.append(((ONE,) * k, ONE))
    nonneg = []
    for j in range(k):
        e = [ZERO] * k
        e[j] = -ONE
        nonneg.append((tuple(e), ZERO))
    return LinearSystem(k, equalities=tuple(eqs), leq=tuple(nonneg))


def _check_members(subset, fs: FirmSystem) -> tuple:
    members = tuple(sorted(set(subset)))
    if not members:
        raise IndexOutOfRange("empty firm subset")
    if members[0] < 0 or members[-1] >= fs.count:
        raise IndexOutOfRange(f"firm index outside 0..{fs.count - 1}")
    return members


def balancing_weights(subset, fs: FirmSystem):
    """Nonnegative weights with sum_i w_i v_i = resource, or None.

    Weights align with the sorted member list.
    """
    members = _check_members(subset, fs)
    res = solve_feasibility(_weights_system(members, fs, convex=False))
    return res.witness if isinstance(res, Feasible) else None


def convex_balancing_weights(subset, fs: FirmSystem):
    """As balancing_weights but additionally requiring sum of weights = 1."""
    members = _check_members(subset, fs)
    res = solve_feasibility(_weights_system(members, fs, convex=True))
    return res.witness if isinstance(res, Feasible) else None


def _mode_fn(mode: str):
    if mode == "cone":
        return balancing_weights
    if mode == "convex":
        return convex_balancing_weights
    raise ValueError(f"unknown mode {mode!r} (use 'cone' or 'convex')")


def balanced_subsets(fs: FirmSystem, mode: str = "cone", cap: int = DEFAULT_FIRM_CAP):
    """All balanced subsets of firm indices, canonically sorted.

    Balancedness is upward closed in both modes (extra firms may carry zero
    weight in cone mode and dilute nothing in convex mode), so supersets of a
    found subset skip their LP.  Subsets come in order of size, so a subset
    contains a found one exactly when dropping one of its members leaves a
    found subset.
    """
    check = _mode_fn(mode)
    if fs.count > cap:
        raise CapExceeded(f"{fs.count} firms exceeds the enumeration cap {cap}")
    found = []
    found_set = set()
    indices = range(fs.count)
    for size in range(1, fs.count + 1):
        for subset in combinations(indices, size):
            if (
                any(subset[:k] + subset[k + 1 :] in found_set for k in range(size))
                or check(subset, fs) is not None
            ):
                found.append(subset)
                found_set.add(subset)
    return found


@dataclass(frozen=True)
class Equivalent:
    pass


@dataclass(frozen=True)
class Differs:
    witness: tuple


def same_balanced_subsets(
    fs1: FirmSystem, fs2: FirmSystem, mode: str = "cone", cap: int = DEFAULT_FIRM_CAP
):
    """Index-wise comparison of the two balanced-set families."""
    if fs1.count != fs2.count:
        raise CountMismatch("firm systems of different sizes")
    b1 = set(balanced_subsets(fs1, mode, cap))
    b2 = set(balanced_subsets(fs2, mode, cap))
    if b1 == b2:
        return Equivalent()
    witness = min(b1.symmetric_difference(b2), key=lambda s: (len(s), s))
    return Differs(witness)


@dataclass(frozen=True)
class NotConvexifiable:
    firm_index: int


def convexify(fs: FirmSystem):
    """Rescale each firm onto the plane <x, r> = |r|^2.

    Valid only when every <v_i, r> is positive; per-firm positive scaling
    preserves cone balancedness, and on that plane cone and convex
    balancedness coincide.
    """
    r = fs.resource
    rr = dot(r, r)
    scaled = []
    for idx, v in enumerate(fs.firms):
        vr = dot(v, r)
        if vr <= ZERO:
            return NotConvexifiable(idx)
        scaled.append(tuple(c * rr / vr for c in v))
    return FirmSystem(firms=tuple(scaled), resource=r)


# ---------------------------------------------------------------------------
# minimal balanced families of coalitions
# ---------------------------------------------------------------------------


def _family_balanced(family, n: int) -> bool:
    """LP feasibility of nonnegative weights summing to the all-ones vector."""
    k = len(family)
    eqs = []
    for player in range(n):
        eqs.append(
            (tuple(ONE if player in s else ZERO for s in family), ONE)
        )
    nonneg = []
    for j in range(k):
        e = [ZERO] * k
        e[j] = -ONE
        nonneg.append((tuple(e), ZERO))
    sys = LinearSystem(k, equalities=tuple(eqs), leq=tuple(nonneg))
    return isinstance(solve_feasibility(sys), Feasible)


def minimal_balanced_families(n: int, cap: int = DEFAULT_PLAYER_CAP):
    """All minimal balanced families of coalitions of range(n), with weights.

    Candidates only need size <= n (any larger balanced family has a proper
    balanced subfamily by Caratheodory, hence is not minimal) and unique
    strictly positive weights; minimality itself is certified by checking
    every proper subfamily for balancedness, per the definition.
    """
    if n > cap:
        raise CapExceeded(f"{n} players exceeds the cap {cap}")
    if n < 1:
        raise ValueError("need at least one player")
    coals = coalitions(n)
    ones = [ONE] * n
    out = []
    for size in range(1, n + 1):
        for family in combinations(coals, size):
            cols = [[ONE if p in s else ZERO for s in family] for p in range(n)]
            solved = gaussian_solve(cols, ones)
            if solved is None:
                continue
            weights, pivots, free = solved
            if free:
                # dependent characteristic vectors: never minimal
                continue
            if any(w <= ZERO for w in weights):
                continue
            proper = False
            for sub_size in range(1, size):
                for sub in combinations(family, sub_size):
                    if _family_balanced(sub, n):
                        proper = True
                        break
                if proper:
                    break
            if not proper:
                out.append(checked_family(family, weights, n))
    out.sort(key=lambda f: (len(f.subsets), f.subsets))
    return out
