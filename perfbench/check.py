"""Independent verdict checks, written with the standard library only.

Nothing here calls fraccore.  Every claim is re-derived from the generated
input (plain JSON) and the program's answer (rationals as strings) with the
checker's own arithmetic: a Caratheodory enumeration for cone membership,
the closed-form uplift for membership and blocking, and the known answers
of the generated covers.

Each check returns ``None`` when the verdict holds, or ``(reason, known)``
where ``known`` marks the one documented defect: ``hopf_invariant`` depends
on the vertex numbering and returns 0 or +-2 on some relabellings of the
sphere asset.  Only the untimed defect probe (``check_hopf_probe``) sees
relabellings; the timed operations use the asset's own numbering.
"""

from __future__ import annotations

from fractions import Fraction as F
from itertools import combinations

# ---------------------------------------------------------------------------
# exact helpers
# ---------------------------------------------------------------------------


def vecq(values):
    return tuple(F(v) for v in values)


def dot(a, b):
    return sum((x * y for x, y in zip(a, b)), F(0))


def _solve_independent(cols, rhs):
    """Weights w with sum_j w_j cols[j] = rhs when the columns are linearly
    independent and rhs lies in their span; otherwise None."""
    k = len(cols)
    rows = [[col[i] for col in cols] + [rhs[i]] for i in range(len(rhs))]
    pivot_row = 0
    for c in range(k):
        p = next((i for i in range(pivot_row, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            return None  # dependent columns: a smaller subset covers this case
        rows[pivot_row], rows[p] = rows[p], rows[pivot_row]
        inv = 1 / rows[pivot_row][c]
        rows[pivot_row] = [x * inv for x in rows[pivot_row]]
        for i in range(len(rows)):
            if i != pivot_row and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[pivot_row])]
        pivot_row += 1
    if any(rows[i][k] != 0 for i in range(pivot_row, len(rows))):
        return None
    return [rows[i][k] for i in range(k)]


def in_cone(vectors, r) -> bool:
    """r in the cone of ``vectors`` (Caratheodory: some linearly independent
    subset carries nonnegative weights)."""
    vectors = list(vectors)
    for size in range(1, min(len(vectors), len(r)) + 1):
        for subset in combinations(vectors, size):
            w = _solve_independent(subset, r)
            if w is not None and all(x >= 0 for x in w):
                return True
    return False


def balanced(firms, resource, members, convex=False) -> bool:
    vecs = [firms[i] for i in members]
    if convex:
        vecs = [v + (F(1),) for v in vecs]
        resource = tuple(resource) + (F(1),)
    return in_cone(vecs, resource)


class Game:
    """Plain-arithmetic view of a fraccore.game/1 document."""

    def __init__(self, gj):
        self.n = gj["dimension"]
        self.firms = [vecq(v) for v in gj["firms"]]
        self.resource = vecq(gj["resource"])
        self.cells = [
            [[(vecq(h["a"]), F(h["b"])) for h in p["halfspaces"]] for p in u["primitives"]]
            for u in gj["utilities"]
        ]
        self.distinguished = gj.get("distinguished")

    def uplift(self, i, x):
        return max(
            min((b - dot(a, x)) / sum(a) for a, b in cell) for cell in self.cells[i]
        )

    def contains(self, i, x) -> bool:
        return any(all(dot(a, x) <= b for a, b in cell) for cell in self.cells[i])

    def unblocked(self, x) -> bool:
        return all(self.uplift(i, x) <= 0 for i in range(len(self.cells)))


# ---------------------------------------------------------------------------
# tu-lp
# ---------------------------------------------------------------------------


def check_tu(tj, v):
    n = tj["n"]
    values = {
        tuple(sorted(int(s) - 1 for s in key.split(","))): F(val)
        for key, val in tj["values"].items()
    }
    grand = values[tuple(range(n))]
    bal = v["balanced"]
    if v["core"] is not None:
        x = vecq(v["core"])
        if sum(x) != grand:
            return "core witness is not efficient", False
        for coal, val in values.items():
            if sum(x[i] for i in coal) < val:
                return f"core witness short-changes {coal}", False
        if v["check"] != "accept":
            return f"check_core_point rejected the witness: {v['check']}", False
        if bal["kind"] != "balanced":
            return "core nonempty but game reported unbalanced (Bondareva-Shapley)", False
        if F(bal["value"]) != grand:
            return "balanced optimum differs from the grand value", False
        return None
    if bal["kind"] != "violated":
        return "core empty but game reported balanced (Bondareva-Shapley)", False
    weights = vecq(bal["weights"])
    family = [tuple(s) for s in bal["family"]]
    if any(w < 0 for w in weights) or len(weights) != len(family):
        return "violating family has negative or missing weights", False
    cover = [F(0)] * n
    for s, w in zip(family, weights):
        for i in s:
            cover[i] += w
    if cover != [F(1)] * n:
        return "violating family weights do not sum to all-ones", False
    total = sum((w * values[s] for s, w in zip(family, weights)), F(0))
    if total != F(bal["value"]) or total <= grand:
        return "violating family value does not exceed the grand value", False
    return None


# ---------------------------------------------------------------------------
# frac-core
# ---------------------------------------------------------------------------

GRID_STEPS = {2: (F(1, 6), 10), 3: (F(1, 2), 8)}  # step, half-range


def grid_counterexample(game: Game):
    """A fractional-core point found on a sum-zero grid, or None.

    A grid point y lifted by its best uniform raise is unblocked and lies in
    exactly the sets attaining that raise; if those firms are balanced the
    lifted point is in the fractional core.
    """
    step, half = GRID_STEPS[game.n]
    ticks = [step * t for t in range(-int(half / step), int(half / step) + 1)]
    if game.n == 2:
        points = [(a, -a) for a in ticks]
    else:
        points = [(a, b, -a - b) for a in ticks for b in ticks]
    seen = {}
    for y in points:
        ups = [game.uplift(i, y) for i in range(len(game.cells))]
        top = max(ups)
        members = tuple(i for i, u in enumerate(ups) if u == top)
        if members not in seen:
            seen[members] = balanced(game.firms, game.resource, members)
        if seen[members]:
            return tuple(c + top for c in y)
    return None


def _check_frac_witness(game: Game, w):
    x = vecq(w["point"])
    base = vecq(w["base"])
    level = F(w["level"])
    active = list(w["active"])
    weights = vecq(w["weights"])
    if sum(base) != 0 or tuple(b + level for b in base) != x:
        return "witness point is not base + level * ones with sum-zero base"
    if max(game.uplift(i, base) for i in range(len(game.cells))) != level:
        return "witness level is not the uplift of its base"
    if len(weights) != len(active) or any(c < 0 for c in weights):
        return "balancing weights negative or misaligned"
    combo = [F(0)] * len(game.resource)
    for i, c in zip(active, weights):
        combo = [s + c * t for s, t in zip(combo, game.firms[i])]
    if tuple(combo) != game.resource:
        return "balancing weights do not combine to the resource"
    for i in active:
        if not game.contains(i, x):
            return f"witness outside the utility set of active firm {i}"
    if not game.unblocked(x):
        return "witness lies in the interior of some utility set"
    return None


def check_frac(gj, expect, v):
    game = Game(gj)
    family = expect["family"]
    fr = v["frac"]
    if fr["kind"] == "nonempty":
        reason = _check_frac_witness(game, fr)
        if reason:
            return reason, False
    elif family != "random":
        return f"{family} game reported with an empty fractional core", False
    elif game.n <= 3:
        found = grid_counterexample(game)
        if found is not None:
            return f"empty verdict but {[str(c) for c in found]} is in the fractional core", False
    if game.distinguished is None:
        return None
    dist = game.distinguished
    core = v["core"]
    if core["kind"] == "point":
        x = vecq(core["point"])
        if not game.contains(dist, x):
            return "core point outside the distinguished set", False
        if any(game.uplift(i, x) > 0 for i in range(len(game.cells)) if i != dist):
            return "core point blocked by another firm", False
    bal = v["balanced"]
    if bal["kind"] == "violated":
        subset = list(bal["subset"])
        x = vecq(bal["point"])
        if dist in subset or not balanced(game.firms, game.resource, subset):
            return "violating subset is not a balanced subset without the distinguished firm", False
        if not all(game.contains(i, x) for i in subset) or game.contains(dist, x):
            return "violating point is not in the balanced intersection outside the target", False
    elif bal["kind"] == "balanced" and core["kind"] == "empty":
        return "balanced game with an empty core (Scarf)", False
    elif bal["kind"] not in ("balanced", "violated"):
        return f"unexpected balancedness verdict {bal['kind']}", False
    return None


# ---------------------------------------------------------------------------
# cover-topology
# ---------------------------------------------------------------------------


def _check_rainbow(firms, resource, facets, labels, rainbow):
    verdicts = {}
    expected = []
    for f in facets:
        union = tuple(sorted(set().union(*(labels[u] for u in f))))
        if union not in verdicts:
            verdicts[union] = balanced(firms, resource, union)
        if verdicts[union]:
            expected.append(list(f))
    if expected != [list(f) for f in rainbow]:
        return "rainbow facets differ from the independently balanced ones"
    return None


def check_induce(op, expect, v):
    game = Game(op["game"])
    labels = [set(ls) for ls in v["labels"]]
    if any(not ls or not ls <= set(range(len(game.cells))) for ls in labels):
        return "induced label sets empty or outside the firm range", False
    deg = v["degree"]
    if deg["kind"] == "degree":
        want = "== 1" if expect["exact_degree"] else "|d| == 1"
        ok = deg["value"] == 1 if expect["exact_degree"] else abs(deg["value"]) == 1
        if not ok:
            return f"boundary degree {deg['value']}, expected {want}", False
    else:
        chosen = sorted({min(labels[u]) for u in deg["facet"]})
        if not balanced(game.firms, game.resource, chosen, convex=True):
            return "reported balanced simplex is not convex-balanced", False
    reason = _check_rainbow(game.firms, game.resource, v["facets"], labels, v["rainbow"])
    return (reason, False) if reason else None


def check_sperner(op, expect, v):
    deg = v["degree"]
    if deg != {"kind": "degree", "value": 1}:
        return f"carrier-constrained labelling gave {deg}, expected degree 1", False
    return None


def check_index(op, expect, v):
    signs = expect["signs"]
    zeros = [vecq(z) for z in expect["zeros"]]
    radius = expect["radius"]
    width = 2 * radius + 1
    facets = op["cover"]["facets"]
    if v["boundary"] != {"kind": "degree", "value": sum(signs)}:
        return f"boundary degree {v['boundary']}, expected {sum(signs)}", False
    if len(v["components"]) != len(zeros):
        return f"{len(v['components'])} balanced components for {len(zeros)} zeros", False
    matched = set()
    for comp, index in v["components"]:
        pts = [
            (F(u % width - radius), F(u // width - radius))
            for fi in comp
            for u in facets[fi]
        ]
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        nearest = min(range(len(zeros)), key=lambda j: abs(zeros[j][0] - cx) + abs(zeros[j][1] - cy))
        if nearest in matched:
            return "two balanced components around one zero", False
        matched.add(nearest)
        if index != signs[nearest]:
            return f"component index {index} at a zero of sign {signs[nearest]}", False
    if not v["sum_matches"]:
        return "index sum reported as not matching", False
    return None


def check_hopf(op, expect, v):
    if v["homology"] != [0, []]:
        return f"H_1 of the sphere reported as {v['homology']}", False
    firms = [vecq(f) for f in op["firms"]]
    resource = vecq(op["resource"])
    labels = [set(ls) for ls in v["cover_labels"]]
    reason = _check_rainbow(firms, resource, v["cover_facets"], labels, v["rainbow"])
    if reason:
        return reason, False
    if abs(v["hopf"]) != 1:
        return f"hopf_invariant returned {v['hopf']} on the sphere asset, expected |H| = 1", False
    return None


def check_hopf_probe(homology, invariant):
    """One relabeling of the defect probe: H_1 = 0 and |H| = 1.  A wrong
    invariant is the known defect; anything else is not."""
    if homology != [0, []]:
        return f"H_1 of the sphere reported as {homology}", False
    if abs(invariant) != 1:
        return f"hopf_invariant returned {invariant}, expected |H| = 1", True
    return None


COVER_CHECKS = {
    "induce": check_induce,
    "sperner": check_sperner,
    "index": check_index,
    "hopf": check_hopf,
}


def check(workload, op, expect, verdict):
    if workload == "tu-lp":
        return check_tu(op, verdict)
    if workload == "frac-core":
        return check_frac(op, expect, verdict)
    return COVER_CHECKS[op["kind"]](op, expect, verdict)
