"""Reference certificate search with two LPs per node.

Test-only.  This is the certificate-list search ``fraccore.frac_core``
used before it branched on violated conditions: it walks a fixed list of
disjunctive groups, one per primitive of each member (membership) and one
per primitive anywhere (escape), and every node first solves a feasibility
LP and tests its point, then maximizes the total payoff over the same rows
and tests that point too.  Both searches are complete over the same
polyhedra, so they must agree on the verdict kind and the active subset;
only witness points may differ.

``verify_fractional_core_point`` is the verifier as it was before it read
one slack sign per set: a rational uplift per set for blocking and a
``contains`` per set for membership.  It must return exactly what the
library's verifier returns.
"""

from __future__ import annotations

from fraccore.balance import balance_test, minimal_balanced_subsets
from fraccore.exact_linear import (
    Feasible,
    LinearSystem,
    Optimal,
    Unbounded,
    maximize,
    solve_feasibility,
)
from fraccore.frac_core import (
    DEFAULT_NODE_CAP,
    DEFAULT_SUBSET_CAP,
    CorePoint,
    Empty,
    Nonempty,
    _Budget,
    make_witness,
)
from fraccore.game_model import contains
from fraccore.rationals import ONE, ZERO, vec


def _membership_rows(prim):
    return [(h.normal, h.offset) for h in prim.halfspaces]


def _escape_options(prim):
    """Rows forcing the point out of the primitive's interior (disjunctive)."""
    return [
        [(tuple(-a for a in h.normal), -h.offset)] for h in prim.halfspaces
    ]


def _feasible_point(rows, n):
    res = solve_feasibility(LinearSystem(n, leq=tuple(rows)))
    return res.witness if isinstance(res, Feasible) else None


def _probe_point(rows, n):
    """A point pushed toward the upper boundary (max total payoff)."""
    res = maximize((ONE,) * n, LinearSystem(n, leq=tuple(rows)))
    if isinstance(res, (Optimal, Unbounded)):
        return res.witness
    return None


def search(n, rows, pending, accept, budget):
    budget.spend()
    while pending and len(pending[0]) == 1:
        rows = rows + pending[0][0]
        pending = pending[1:]
    point = _feasible_point(rows, n)
    if point is None:
        return None
    if accept(point):
        return point
    probe = _probe_point(rows, n)
    if probe is not None and accept(probe):
        return probe
    if not pending:
        # every point of a full certificate's polyhedron is admissible
        raise AssertionError("leaf certificate point failed re-verification")
    head, rest = pending[0], pending[1:]
    for option in head:
        found = search(n, rows + option, rest, accept, budget)
        if found is not None:
            return found
    return None


def fractional_core_solve(
    game, subset_cap=DEFAULT_SUBSET_CAP, node_cap=DEFAULT_NODE_CAP
):
    n = game.dim
    budget = _Budget(node_cap)
    all_prims = [p for u in game.utilities for p in u.primitives]
    escapes = [_escape_options(q) for q in all_prims]
    for subset in minimal_balanced_subsets(game.firm_system, "cone", subset_cap):

        def accept(point, _subset=subset):
            x = vec(point)
            if any(u.uplift(x) > ZERO for u in game.utilities):
                return False
            return all(contains(game.utilities[i], x) for i in _subset)

        memberships = [
            [_membership_rows(p) for p in game.utilities[i].primitives]
            for i in subset
        ]
        found = search(n, [], memberships + escapes, accept, budget)
        if found is not None:
            return Nonempty(make_witness(game, found, subset))
    return Empty()


def core_solve(game, node_cap=DEFAULT_NODE_CAP):
    n = game.dim
    dist = game.distinguished
    budget = _Budget(node_cap)
    others = [
        p
        for f, u in enumerate(game.utilities)
        if f != dist
        for p in u.primitives
    ]

    def accept(point):
        if not contains(game.utilities[dist], point):
            return False
        return all(
            game.utilities[f].uplift(point) <= ZERO
            for f in range(game.firm_count)
            if f != dist
        )

    memberships = [[_membership_rows(p) for p in game.utilities[dist].primitives]]
    found = search(
        n, [], memberships + [_escape_options(q) for q in others], accept, budget
    )
    if found is None:
        return Empty()
    return CorePoint(vec(found))


def verify_fractional_core_point(game, x, active=None):
    x = vec(x)
    blocked = [i for i, u in enumerate(game.utilities) if u.uplift(x) > ZERO]
    if blocked:
        return False, f"blocked by firms {blocked}"
    if active is not None:
        members = tuple(sorted(active))
        missing = [i for i in members if not contains(game.utilities[i], x)]
        if missing:
            return False, f"point outside utility sets {missing}"
    else:
        members = tuple(i for i, u in enumerate(game.utilities) if contains(u, x))
        if not members:
            return False, "point is in no utility set"
    if not balance_test(game.firm_system, "cone")(members):
        return False, f"member set {members} is not balanced"
    return True, "admissible and unblocked"
