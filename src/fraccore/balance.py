"""Balanced sets of firms, minimal balanced families, and convexification.

A set of firms is balanced when nonnegative weights on its members combine
exactly to the resource vector ("cone" mode); the convex variant also
requires the weights to sum to one.  Minimal balanced families of
coalitions are the minimal balanced subsets of the coalition firm system,
their weights rescaled.

Balancedness depends only on the firm system, so each (firm system, mode)
pair gets one memoized test, kept in a bounded process-wide cache keyed by
the firm system's value.  One rule decides a member set: the balancing LP
that ``game_model`` builds, run once per set and remembered.  The minimal
balanced subsets are found apart from it, each by one exact elimination,
and their weights join the same memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import CapExceeded, CountMismatch, IndexOutOfRange
from .game_model import (
    FirmSystem,
    _balancing_equations,
    _balancing_lp,
    coalition_firm_system,
    coalitions,
)
from .linalg import gaussian_solve
from .rationals import ONE, ZERO, dot, vec

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
    return _balancing_lp(fs, _check_members(subset, fs), False)


def convex_balancing_weights(subset, fs: FirmSystem):
    """As balancing_weights but additionally requiring sum of weights = 1."""
    return _balancing_lp(fs, _check_members(subset, fs), True)


def _mask(subset) -> int:
    return sum(1 << i for i in subset)


def _contains_any(mask: int, masks) -> bool:
    return any(mask & m == m for m in masks)


class BalanceTest:
    """Memoized balancedness of member sets of one firm system.

    One memo maps each member set to its balancing weights, or to None when
    it is not balanced; a set missing from it is decided by one LP.
    ``minimal`` adds the minimal balanced subsets with the weights that
    decided them, which are unique and so the LP's: answers do not depend
    on the order of the calls.  Concurrent callers may compute an answer
    twice; they store the same value.
    """

    def __init__(self, fs: FirmSystem, mode: str):
        if mode not in ("cone", "convex"):  # rejected before it is cached
            raise ValueError(f"unknown mode {mode!r} (use 'cone' or 'convex')")
        self.fs = fs
        self.mode = mode
        self._memo = {}
        self._minimal = None

    def _answer(self, members):
        """The weights of sorted, distinct members, or None; the first time
        by one LP, which also rejects members outside the firm system."""
        if members not in self._memo:
            lp = convex_balancing_weights if self.mode == "convex" else balancing_weights
            self._memo[members] = lp(members, self.fs)
        return self._memo[members]

    def _eliminate(self, members) -> bool:
        """A candidate of ``minimal``: balanced iff its balancing equations
        have a nonnegative particular solution."""
        eqs = _balancing_equations(self.fs, members, self.mode == "convex")
        solved = gaussian_solve([row for row, _ in eqs], [b for _, b in eqs])
        if solved is None or any(w < ZERO for w in solved[0]):
            return False
        # a resource of dimension 0 gives no equations: the one weight is 0
        self._memo[members] = solved[0] or (ZERO,)
        return True

    def __call__(self, subset) -> bool:
        return self._answer(tuple(sorted(set(subset)))) is not None

    def weights(self, subset) -> tuple:
        """Balancing weights of a balanced member set, aligned with its
        sorted members."""
        members = tuple(sorted(set(subset)))
        weights = self._answer(members)
        if weights is None:
            raise ValueError(f"member set {members} is not balanced")
        return weights

    def minimal(self) -> tuple:
        """The minimal balanced subsets, in (size, lex) order.

        By Caratheodory a minimal cone-balanced set has at most dim members
        and a minimal convex-balanced set at most dim + 1, so only candidates
        up to that size are tested.  A candidate containing a found subset is
        skipped: by induction on size, exactly when one of its one-smaller
        subsets was found or skipped.  Any other has no balanced proper
        subset, so it is balanced exactly when one elimination of its
        equations gives a nonnegative particular solution.  Such a solution
        proves balance.  Conversely, a balancing solution is unique: with two
        or more members, a zero weight or a move along a kernel vector until
        a weight reaches zero would balance a proper subset; one member's
        weight is free only on a zero firm vector.  With resource zero every
        singleton is balanced in cone mode, and the elimination gives it
        weight 0.  Otherwise an LP finds the same, unique, weights.
        """
        if self._minimal is None:
            fs = self.fs
            top = fs.dim + 1 if self.mode == "convex" else max(fs.dim, 1)
            found, closed = [], set()
            for size in range(1, min(top, fs.count) + 1):
                for subset in combinations(range(fs.count), size):
                    mask = _mask(subset)
                    if any(mask ^ (1 << i) in closed for i in subset):
                        closed.add(mask)
                    elif self._eliminate(subset):
                        found.append(subset)
                        closed.add(mask)
            self._minimal = tuple(found)
        return self._minimal


# firm systems (per mode) whose tests stay cached, least recently used out
TEST_CACHE_SIZE = 64


@lru_cache(maxsize=TEST_CACHE_SIZE)
def _cached_test(fs: FirmSystem, mode: str) -> BalanceTest:
    return BalanceTest(fs, mode)


def balance_test(fs: FirmSystem, mode: str = "cone") -> BalanceTest:
    """The process-wide memoized test of (fs, mode), keyed by fs's value."""
    return _cached_test(fs, mode)


def minimal_balanced_subsets(
    fs: FirmSystem, mode: str = "cone", cap: int = DEFAULT_FIRM_CAP
) -> tuple:
    """Minimal balanced subsets of firm indices, in (size, lex) order."""
    if fs.count > cap:
        raise CapExceeded(f"{fs.count} firms exceeds the enumeration cap {cap}")
    return balance_test(fs, mode).minimal()


def balanced_subsets(fs: FirmSystem, mode: str = "cone", cap: int = DEFAULT_FIRM_CAP):
    """All balanced subsets of firm indices, canonically sorted.

    Balancedness is upward closed in both modes (extra firms may carry zero
    weight in cone mode and dilute nothing in convex mode), so these are
    the subsets containing a minimal balanced subset.
    """
    masks = [_mask(s) for s in minimal_balanced_subsets(fs, mode, cap)]
    return [
        subset
        for size in range(1, fs.count + 1)
        for subset in combinations(range(fs.count), size)
        if _contains_any(_mask(subset), masks)
    ]


@dataclass(frozen=True)
class Equivalent:
    pass


@dataclass(frozen=True)
class Differs:
    witness: tuple


def same_balanced_subsets(
    fs1: FirmSystem, fs2: FirmSystem, mode: str = "cone", cap: int = DEFAULT_FIRM_CAP
):
    """Index-wise comparison of the two balanced-set families.

    Two upward-closed families are equal exactly when their antichains of
    minimal members are, so the antichains are compared.  The witness is
    still the first subset in (size, lex) order that lies in one family and
    not the other: that subset is minimal in its family (a smaller minimal
    subset inside it would differ earlier), and every difference of the
    antichains is, or contains, a difference of the families, so none comes
    earlier.
    """
    if fs1.count != fs2.count:
        raise CountMismatch("firm systems of different sizes")
    a1 = set(minimal_balanced_subsets(fs1, mode, cap))
    a2 = set(minimal_balanced_subsets(fs2, mode, cap))
    if a1 == a2:
        return Equivalent()
    witness = min(a1.symmetric_difference(a2), key=lambda s: (len(s), s))
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


def coalition_family(n: int, firms, weights) -> BalancedFamily:
    """The coalitions of ``firms`` in ``coalition_firm_system(n)`` with the
    weights w' balancing them there made classical: w_S = n * w'_S / |S|."""
    coals = coalitions(n)
    subsets = [coals[f] for f in firms]
    return checked_family(subsets, [n * w / len(s) for s, w in zip(subsets, weights)], n)


def minimal_balanced_families(n: int, cap: int = DEFAULT_PLAYER_CAP):
    """All minimal balanced families of coalitions of range(n), with weights:
    the antichain of ``coalition_firm_system(n)``, shared with every
    embedded n-player game, with the weights that decided it made
    classical."""
    if n > cap:
        raise CapExceeded(f"{n} players exceeds the cap {cap}")
    if n < 1:
        raise ValueError("need at least one player")
    test = balance_test(coalition_firm_system(n), "cone")
    families = [coalition_family(n, s, test.weights(s)) for s in test.minimal()]
    return sorted(families, key=lambda f: (len(f.subsets), f.subsets))
