"""Core and balancedness for transferable-utility games, from one LP.

The balancing LP maximizes the weighted coalition values over balancing
weights; by Bondareva-Shapley its dual is the core LP.  The game is
balanced, and its core nonempty, exactly when the optimum is the grand
coalition's value: then the dual point is a core allocation, otherwise
the optimal support is a violating balanced family.

The constraints depend only on the player count, so each count gets one
balancing system, built once per process: its rows are scaled to integers
and its phase 1 runs on the first game of that count, and every game then
runs only the phase-2 pivots that its values decide.

Both questions read the same LP, so its last result is memoized for one
game, keyed by the game's value: ``core_nonempty`` followed by
``is_balanced_tu`` on one game solves it once.  The memo holds one entry,
so only consecutive questions about equal games share an LP.

``check_core_point`` decides on integers: it scales the allocation to
numerators over one denominator and compares each coalition's shortfall by
cross-multiplying, so it builds a rational only for its message.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

from .balance import BalancedFamily, checked_family
from .errors import DimensionMismatch
from .exact_linear import LinearSystem, Optimal, maximize
from .game_model import TUGame, coalitions
from .linalg import _clear_denominators
from .rationals import ONE, ZERO, Q, vec


@dataclass(frozen=True)
class CorePoint:
    allocation: tuple


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Balanced:
    optimum: "Q"


@dataclass(frozen=True)
class Violated:
    family: BalancedFamily
    value: "Q"


@dataclass(frozen=True)
class Accept:
    pass


@dataclass(frozen=True)
class Reject:
    coalition: tuple | None
    reason: str


@cache
def _balancing_system(n: int):
    """The coalitions of n players in ``coalitions`` order, and the system
    w >= 0 with sum_{S ∋ i} w_S = 1 per player i, one column per coalition."""
    coals = tuple(coalitions(n))
    eqs = [(tuple(ONE if i in c else ZERO for c in coals), ONE) for i in range(n)]
    return coals, LinearSystem(len(coals), equalities=tuple(eqs), nonneg=True)


@lru_cache(maxsize=1)
def _balancing_lp(game: TUGame):
    """max sum_S w_S v(S) over the balancing system of game.n players."""
    coals, sys = _balancing_system(game.n)
    res = maximize([game.values[c] for c in coals], sys)
    assert isinstance(res, Optimal), "balancing polytope is nonempty and bounded"
    return coals, res


def core_nonempty(game: TUGame):
    """A core allocation (sum = value of the grand coalition, no coalition
    short-changed) or Empty, read off the balancing LP's dual y = c_B B^-1.

    The reduced cost of coalition S is y(S) - v(S) >= 0 at the optimum, so
    no coalition is short-changed; the singletons are coalitions 0..n-1
    with unit columns, so y_i = v({i}) + its reduced cost.  sum(y) = y.1 is
    the optimum, which is v(N) exactly when the game is balanced.
    """
    _, res = _balancing_lp(game)
    if res.value > game.values[game.grand]:
        return Empty()
    return CorePoint(tuple(game.values[(i,)] + res.reduced_costs[i] for i in range(game.n)))


def is_balanced_tu(game: TUGame):
    """Maximize the weighted coalition values over all balancing weights.

    The optimum is always >= the grand value (the grand coalition alone is
    feasible); the game is balanced exactly when equality holds, and an
    optimal support exceeding it is returned as the violating family.
    """
    coals, res = _balancing_lp(game)
    if res.value <= game.values[game.grand]:
        return Balanced(res.value)
    support = [(c, w) for c, w in zip(coals, res.witness) if w > ZERO]
    family = checked_family([c for c, _ in support], [w for _, w in support], game.n)
    return Violated(family, res.value)


def check_core_point(game: TUGame, x):
    """Accept iff efficient and unblocked; otherwise name the worst offender,
    the first in ``coalitions`` order among equally short ones.

    With x = xs / d, coalition S with v(S) = p / q is short by
    (p d - q xs(S)) / (q d); the numerators are compared over their
    denominators q, since d is common to all."""
    x = vec(x)
    if len(x) != game.n:
        raise DimensionMismatch("allocation length does not match player count")
    xs, d = _clear_denominators(x)
    grand_value = game.values[game.grand]
    total = sum(xs)
    if total * grand_value.denominator != grand_value.numerator * d:
        return Reject(None, f"efficiency fails: sum {Q(total, d)} != {grand_value}")
    coals, _ = _balancing_system(game.n)
    worst = None  # (coalition, shortfall numerator, its q)
    for coal in coals:
        v = game.values[coal]
        q = v.denominator
        short = v.numerator * d - q * sum(xs[i] for i in coal)
        if short > 0 and (worst is None or short * worst[2] > worst[1] * q):
            worst = (coal, short, q)
    if worst is None:
        return Accept()
    coal, short, q = worst
    return Reject(coal, f"coalition {coal} is short by {Q(short, q * d)}")
