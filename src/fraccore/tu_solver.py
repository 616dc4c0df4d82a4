"""Core and balancedness for transferable-utility games, from one LP.

The balancing LP maximizes the weighted coalition values over balancing
weights; by Bondareva-Shapley its dual is the core LP.  The game is
balanced, and its core nonempty, exactly when the optimum is the grand
coalition's value: then the dual point is a core allocation, otherwise
the optimal support is a violating balanced family.

Both questions read the same LP, so its last result is memoized for one
game, keyed by the game's value: ``core_nonempty`` followed by
``is_balanced_tu`` on one game solves it once.  The memo holds one entry,
so only consecutive questions about equal games share an LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .balance import BalancedFamily, checked_family
from .errors import DimensionMismatch
from .exact_linear import LinearSystem, Optimal, maximize
from .game_model import TUGame, coalitions
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


@lru_cache(maxsize=1)
def _balancing_lp(game: TUGame):
    """max sum_S w_S v(S) over w >= 0 with sum_{S ∋ i} w_S = 1 per player i."""
    coals = tuple(coalitions(game.n))
    eqs = [(tuple(ONE if i in c else ZERO for c in coals), ONE) for i in range(game.n)]
    sys = LinearSystem(len(coals), equalities=tuple(eqs), nonneg=True)
    res = maximize([game.value(c) for c in coals], sys)
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
    if res.value > game.value(game.grand):
        return Empty()
    return CorePoint(tuple(game.value((i,)) + res.reduced_costs[i] for i in range(game.n)))


def is_balanced_tu(game: TUGame):
    """Maximize the weighted coalition values over all balancing weights.

    The optimum is always >= the grand value (the grand coalition alone is
    feasible); the game is balanced exactly when equality holds, and an
    optimal support exceeding it is returned as the violating family.
    """
    coals, res = _balancing_lp(game)
    if res.value <= game.value(game.grand):
        return Balanced(res.value)
    support = [(c, w) for c, w in zip(coals, res.witness) if w > ZERO]
    family = checked_family([c for c, _ in support], [w for _, w in support], game.n)
    return Violated(family, res.value)


def check_core_point(game: TUGame, x):
    """Accept iff efficient and unblocked; otherwise name the worst offender."""
    x = vec(x)
    if len(x) != game.n:
        raise DimensionMismatch("allocation length does not match player count")
    total = sum(x, ZERO)
    grand_value = game.value(game.grand)
    if total != grand_value:
        return Reject(None, f"efficiency fails: sum {total} != {grand_value}")
    worst = None
    for coal in coalitions(game.n):
        got = sum((x[i] for i in coal), ZERO)
        gap = game.value(coal) - got
        if gap > ZERO and (worst is None or gap > worst[1]):
            worst = (coal, gap)
    if worst is None:
        return Accept()
    return Reject(worst[0], f"coalition {worst[0]} is short by {worst[1]}")
