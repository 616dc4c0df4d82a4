"""Exact decision procedures for fractional cores and cores of generalized
games, plus the embedding of classical TU/NTU games.

A point belongs to the fractional core exactly when it lies in every utility
set of some balanced firm set and escapes the interior of every utility set.
For this representation class a point escapes an interior iff the set's
uplift there is <= 0, so the fractional core is a finite union of
polyhedra: membership in one primitive per active firm and one reversed
half-space per primitive anywhere.  The solver branches only on the
condition its current point violates (Balas's disjunctive programming):
each search node maximizes the total payoff over its rows with one LP,
prunes when they are infeasible, and otherwise reads the signs of the
firms' primitive slacks (``game_model``) at the LP's point, scaled once.
The first blocking primitive (slack above 0) or member missing the point
(every slack below 0) gives the children; a point with neither is a
witness.  A core is searched the same way, with the distinguished firm as
the only member.  The verifier reads one slack sign per set.

Each solve builds its LP rows once: an integer half-space's own integer
row, any other half-space's rationals, and the escape rows as those rows
negated.

Everything is deterministic: subsets in (size, lex) order, primitives and
half-spaces in construction order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from operator import neg

from .balance import DEFAULT_FIRM_CAP as DEFAULT_SUBSET_CAP
from .balance import balance_test, minimal_balanced_subsets
from .errors import CapExceeded
from .exact_linear import Infeasible, LinearSystem, Optimal, maximize
from .game_model import (
    CoalitionalNTUGame,
    ComprehensiveSet,
    GeneralizedGame,
    HalfSpace,
    Primitive,
    TUGame,
    _scaled_for,
    coalition_cylinder,
    coalition_firm_system,
    coalitions,
    tau,
)
from .linalg import _clear_denominators
from .rationals import ONE, ZERO, Q, vec

DEFAULT_NODE_CAP = 1_000_000


@dataclass(frozen=True)
class FractionalCoreWitness:
    point: tuple  # x' = base + level * ones
    base: tuple  # sum-zero representative
    level: "Q"  # the uplift of the base
    active: tuple  # balanced firm subset actually used
    weights: tuple  # balancing weights for the active subset


@dataclass(frozen=True)
class Nonempty:
    witness: FractionalCoreWitness


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class CorePoint:
    point: tuple


@dataclass(frozen=True)
class BalancedGame:
    pass


@dataclass(frozen=True)
class ViolatedGame:
    subset: tuple
    point: tuple


@dataclass(frozen=True)
class Unsupported:
    reason: str


# ---------------------------------------------------------------------------
# embedding of classical games
# ---------------------------------------------------------------------------


def embed_coalitional(game) -> GeneralizedGame:
    """Classical game -> generalized game over the coalition firm system.

    TU coalitions become single-half-space cylinders sum_S x_i <= value;
    NTU coalition sets become cylinders mentioning only their coordinates.
    The grand coalition is the distinguished firm (its firm vector equals
    the resource).
    """
    if not isinstance(game, (TUGame, CoalitionalNTUGame)):
        raise TypeError(f"cannot embed {type(game).__name__}")
    n = game.n
    coals = coalitions(n)
    utilities = []
    if isinstance(game, TUGame):
        for coal in coals:
            utilities.append(
                ComprehensiveSet((coalition_cylinder(n, coal, game.value(coal)),))
            )
    else:
        for coal in coals:
            cs = game.sets[coal]
            prims = []
            for p in cs.primitives:
                lifted = []
                for h in p.halfspaces:
                    normal = [ZERO] * n
                    for local, player in enumerate(coal):
                        normal[player] = h.normal[local]
                    lifted.append(HalfSpace(tuple(normal), h.offset))
                prims.append(Primitive(tuple(lifted)))
            utilities.append(ComprehensiveSet(tuple(prims)))
    return GeneralizedGame(
        tuple(utilities),
        coalition_firm_system(n),
        distinguished=coals.index(tuple(range(n))),
    )


# ---------------------------------------------------------------------------
# witness verification (independent of the search)
# ---------------------------------------------------------------------------


def verify_fractional_core_point(game: GeneralizedGame, x, active=None):
    """Check the definition directly; returns (ok, reason).

    With ``active`` given, membership is required for exactly that subset;
    otherwise the member set of x must support balancing weights.
    """
    utilities, p, d = _scaled_for(game.utilities, x)
    slacks = [u._slack(p, d)[0] for u in utilities]
    blocked = [i for i, s in enumerate(slacks) if s > 0]
    if blocked:
        return False, f"blocked by firms {blocked}"
    if active is not None:
        members = tuple(sorted(active))
        missing = [i for i in members if slacks[i] < 0]
        if missing:
            return False, f"point outside utility sets {missing}"
    else:
        members = tuple(i for i, s in enumerate(slacks) if s >= 0)
        if not members:
            return False, "point is in no utility set"
    if not balance_test(game.firm_system, "cone")(members):
        return False, f"member set {members} is not balanced"
    return True, "admissible and unblocked"


def make_witness(game: GeneralizedGame, x, active) -> FractionalCoreWitness:
    x = vec(x)
    n = game.dim
    level = sum(x, ZERO) / n
    base = tuple(c - level for c in x)
    assert tau(game.utilities, base) == level, "level must equal the uplift"
    active = tuple(sorted(active))
    weights = balance_test(game.firm_system, "cone").weights(active)
    return FractionalCoreWitness(x, base, level, active, weights)


# ---------------------------------------------------------------------------
# certificate search
# ---------------------------------------------------------------------------


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n):
        self.left = n

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise CapExceeded("certificate search exceeded its node cap")


def _lp_rows(utilities):
    """Each primitive's membership rows <a, x> <= b, per utility set: the
    half-space's integer row when its data are integers, else its
    rationals, which each LP clears with the rest of its rows."""
    return [
        [
            tuple(h.row[:2] if h.scale == 1 else (h.normal, h.offset) for h in p.halfspaces)
            for p in u.primitives
        ]
        for u in utilities
    ]


def _escape_rows(membership):
    """Each membership row reversed, <-a, x> <= -b: the point is out of
    the half-space's interior."""
    return [[tuple((tuple(map(neg, a)), -b) for a, b in prim) for prim in u] for u in membership]


def _forced_rows(membership, escapes, members):
    """Rows every admissible point satisfies: membership in each
    single-primitive member, and escape from each single-half-space
    primitive."""
    rows = []
    for i in members:
        if len(membership[i]) == 1:
            rows += membership[i][0]
    for u in escapes:
        rows += [prim[0] for prim in u if len(prim) == 1]
    return rows


def _violation(utilities, membership, escapes, members):
    """The definition check of a search as ``violation(point)``: ``None``
    if the point passes, else the options of the first violated condition,
    one escape row per half-space of a blocking primitive (slack > 0), or
    the membership rows of each primitive of a member missing the point
    (every slack < 0).  The point is scaled once, and only the signs of
    the primitives' slacks are read."""
    members = frozenset(members)

    def violation(point):
        p, d = _clear_denominators(point)
        for i, u in enumerate(utilities):
            slacks = [prim._slack(p, d)[0] for prim in u.primitives]
            blocking = [s > 0 for s in slacks]
            if any(blocking):
                return [[row] for row in escapes[i][blocking.index(True)]]
            if i in members and max(slacks) < 0:
                return [list(prim) for prim in membership[i]]
        return None

    return violation


def _search(n, rows, violation, budget):
    """Depth-first branching on violated conditions: one LP per node, which
    maximizes the total payoff over its rows; infeasible rows prune, a point
    that passes ``violation`` is returned, and otherwise there is one child
    per option of the violated condition.  Every admissible point of the
    node satisfies that condition, so it lies in a child and the search is
    complete.  A condition branched on holds everywhere below, so none
    repeats on a path: a path branches at most #primitives + #members times.
    """
    budget.spend()
    res = maximize((ONE,) * n, LinearSystem(n, leq=tuple(rows)))
    if isinstance(res, Infeasible):
        return None
    options = violation(res.witness)
    if options is None:
        return res.witness
    for option in options:
        found = _search(n, rows + option, violation, budget)
        if found is not None:
            return found
    return None


def fractional_core_solve(
    game: GeneralizedGame,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
):
    """Decide fractional-core nonemptiness exactly.

    Iterates the minimal balanced firm subsets in (size, lex) order; for
    each, searches for a point inside every member's set that escapes every
    primitive's interior.  That is enough: a point admissible for a
    balanced subset is admissible for every minimal balanced subset inside
    it, which comes earlier in that order, so the first subset with a point
    is always minimal.
    """
    n = game.dim
    budget = _Budget(node_cap)
    membership = _lp_rows(game.utilities)
    escapes = _escape_rows(membership)
    for subset in minimal_balanced_subsets(game.firm_system, "cone", subset_cap):
        rows = _forced_rows(membership, escapes, subset)
        violation = _violation(game.utilities, membership, escapes, subset)
        found = _search(n, rows, violation, budget)
        if found is not None:
            return Nonempty(make_witness(game, found, subset))
    return Empty()


def core_solve(game: GeneralizedGame, node_cap: int = DEFAULT_NODE_CAP):
    """Decide core nonemptiness: a point of the distinguished firm's set
    escaping every other firm's interior.

    The search also makes the point escape the distinguished firm's own
    interior.  That loses no core: every uplift falls by t along x + t*ones,
    so a core point raised by its distinguished uplift is still one, and it
    lies on that firm's boundary.
    """
    if game.distinguished is None:
        raise ValueError("core_solve needs a distinguished firm")
    dist = (game.distinguished,)
    membership = _lp_rows(game.utilities)
    escapes = _escape_rows(membership)
    rows = _forced_rows(membership, escapes, dist)
    violation = _violation(game.utilities, membership, escapes, dist)
    found = _search(game.dim, rows, violation, _Budget(node_cap))
    return Empty() if found is None else CorePoint(vec(found))


def is_balanced_game(
    game: GeneralizedGame,
    subset_cap: int = DEFAULT_SUBSET_CAP,
):
    """Check that every balanced intersection sits inside the distinguished
    firm's set (which must be a single primitive).

    Only minimal balanced subsets are checked, in (size, lex) order: a
    balanced subset's intersection lies inside that of each minimal
    balanced subset it contains, which comes earlier and contains the
    distinguished firm only if the larger one does, so the first violation
    is always found at a minimal subset.
    """
    if game.distinguished is None:
        raise ValueError("is_balanced_game needs a distinguished firm")
    dist = game.distinguished
    target = game.utilities[dist]
    if len(target.primitives) > 1:
        return Unsupported("distinguished utility set must be a single primitive")
    target_rows = target.primitives[0].halfspaces
    n = game.dim
    membership = _lp_rows(game.utilities)
    for subset in minimal_balanced_subsets(game.firm_system, "cone", subset_cap):
        if dist in subset:
            continue  # the intersection then lies inside the target trivially
        for choice in product(*(membership[i] for i in subset)):
            sys = LinearSystem(n, leq=tuple(chain.from_iterable(choice)))
            for h in target_rows:
                res = maximize(h.normal, sys)
                if isinstance(res, Optimal):
                    if res.value <= h.offset:
                        continue
                    return ViolatedGame(subset, res.witness)
                # unbounded: walk the ray far enough to leave the target
                base, ray = res.witness, res.ray
                gain = sum(a * rdir for a, rdir in zip(h.normal, ray))
                assert gain > ZERO
                steps = (h.offset - sum(a * b for a, b in zip(h.normal, base))) / gain
                t = steps + ONE if steps > ZERO else ONE
                point = tuple(b + t * rdir for b, rdir in zip(base, ray))
                return ViolatedGame(subset, point)
    return BalancedGame()
