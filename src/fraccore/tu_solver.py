"""Core feasibility and balancedness for transferable-utility games.

The core is one exact LP (efficiency equality plus one coverage row per
coalition); balancedness is the dual LP over balancing weights, whose
optimal support yields a violating family when the optimum exceeds the
grand-coalition value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .balance import BalancedFamily, checked_family
from .errors import DimensionMismatch
from .exact_linear import Feasible, LinearSystem, Optimal, maximize, solve_feasibility
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


def core_nonempty(game: TUGame):
    """A core allocation (sum = value of the grand coalition, no coalition
    short-changed) or Empty."""
    n = game.n
    eqs = [((ONE,) * n, game.value(game.grand))]
    leq = []
    for coal in coalitions(n):
        row = [ZERO] * n
        for i in coal:
            row[i] = -ONE
        leq.append((tuple(row), -game.value(coal)))
    res = solve_feasibility(LinearSystem(n, equalities=tuple(eqs), leq=tuple(leq)))
    if isinstance(res, Feasible):
        return CorePoint(res.witness)
    return Empty()


def is_balanced_tu(game: TUGame):
    """Maximize the weighted coalition values over all balancing weights.

    The optimum is always >= the grand value (the grand coalition alone is
    feasible); the game is balanced exactly when equality holds, and an
    optimal support exceeding it is returned as the violating family.
    """
    n = game.n
    coals = coalitions(n)
    m = len(coals)
    eqs = []
    for player in range(n):
        eqs.append((tuple(ONE if player in c else ZERO for c in coals), ONE))
    sys = LinearSystem(m, equalities=tuple(eqs), nonneg=True)
    objective = [game.value(c) for c in coals]
    res = maximize(objective, sys)
    assert isinstance(res, Optimal), "balancing polytope is nonempty and bounded"
    grand_value = game.value(game.grand)
    if res.value <= grand_value:
        return Balanced(res.value)
    support = [(c, w) for c, w in zip(coals, res.witness) if w > ZERO]
    family = checked_family(
        [c for c, _ in support], [w for _, w in support], n
    )
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
