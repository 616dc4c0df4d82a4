"""Command-line front end: exact game solvers and cover topology.

Every command prints one JSON report (canonical formatting) to stdout.
Exit codes: 0 computed, 1 usage error, 2 enumeration cap exceeded,
3 malformed input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from importlib import resources

from . import balance, frac_core, gallery, tu_solver
from .errors import CapExceeded, FraccoreError
from .formats import (
    MalformedInput,
    complex_from_json,
    cover_from_json,
    cover_to_json,
    firm_system_from_json,
    game_from_json,
    game_to_json,
    point_from_json,
    rational_vector_json,
    serialize,
    tu_from_json,
)
from .game_model import FirmSystem, coalition_firm_system, validate_game
from .rationals import rat, rat_json
from .topology import degree as topo_degree
from .topology import index as topo_index
from .topology.hopf import hopf_invariant
from .topology.s3_12 import load as load_sphere_asset


def _unique_keys(pairs):
    """A JSON object whose keys are all distinct; plain ``json`` would keep
    the last value of a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise MalformedInput(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
        raise MalformedInput(f"$: cannot read JSON from {path}: {exc}") from exc


def _load_firm_system(path) -> FirmSystem:
    obj = _load_json(path)
    if isinstance(obj, dict) and "utilities" in obj:
        return game_from_json(obj).firm_system
    return firm_system_from_json(obj)


def _json_arg(text, what):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise MalformedInput(f"$.{what}: invalid JSON: {exc}") from exc


def _point(obj, path, dim):
    point = point_from_json(obj, path)
    if len(point) != dim:
        raise MalformedInput(f"{path}: {len(point)} entries, expected {dim}")
    return point


def _vector_arg(text, what, dim):
    return _point(_json_arg(text, what), f"$.{what}", dim)


def _subset_arg(text, fs: FirmSystem) -> tuple:
    subset = _json_arg(text, "subset")
    if not isinstance(subset, list) or not subset:
        raise MalformedInput("$.subset: expected a nonempty list of firm indices")
    for i, idx in enumerate(subset):
        if type(idx) is not int or not 0 <= idx < fs.count:
            raise MalformedInput(
                f"$.subset[{i}]: not a firm index in 0..{fs.count - 1}: {idx!r}"
            )
    return tuple(subset)


def _witness_json(w: frac_core.FractionalCoreWitness, game=None) -> dict:
    out = {
        "point": rational_vector_json(w.point),
        "base": rational_vector_json(w.base),
        "level": rat_json(w.level),
        "active_firms": list(w.active),
        "weights": rational_vector_json(w.weights),
    }
    # equality decides; the count first spares a game with many coordinates
    # and few firms from building 2^n - 1 coalition firms
    if (
        game is not None
        and game.firm_count == 2 ** game.dim - 1
        and game.firm_system == coalition_firm_system(game.dim)
    ):
        fam = balance.coalition_family(game.dim, w.active, w.weights)
        out["coalition_weights"] = {
            ",".join(str(i + 1) for i in s): rat_json(wt)
            for s, wt in zip(fam.subsets, fam.weights)
        }
    return out


# ---------------------------------------------------------------------------
# command handlers: each returns (verdict, details)
# ---------------------------------------------------------------------------


def _cmd_validate(args):
    game = game_from_json(_load_json(args.input))
    report = validate_game(game)
    checks = [
        {"name": c.name, "passed": c.passed, "detail": c.detail}
        for c in report.checks
    ]
    return ("valid" if report.ok else "invalid"), {"checks": checks}


def _require(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise _UsageError(f"--{name} is required for this action")


def _cmd_balance(args):
    if args.action == "minimal":
        _require(args, "players")
        if args.players < 1:
            raise _UsageError("--players must be at least 1")
        fams = balance.minimal_balanced_families(args.players)
        return "computed", {
            "count": len(fams),
            "families": [
                {
                    "subsets": [[i + 1 for i in s] for s in f.subsets],
                    "weights": rational_vector_json(f.weights),
                }
                for f in fams
            ],
        }
    _require(args, "input")
    fs = _load_firm_system(args.input)
    if args.action == "enumerate":
        subsets = balance.balanced_subsets(fs, args.mode)
        return "computed", {"balanced_subsets": [list(s) for s in subsets]}
    if args.action == "check":
        _require(args, "subset")
        subset = _subset_arg(args.subset, fs)
        test = balance.balance_test(fs, args.mode)
        if not test(subset):
            return "not-balanced", {"subset": list(subset)}
        return "balanced", {
            "subset": sorted(subset),
            "weights": rational_vector_json(test.weights(subset)),
        }
    if args.action == "convexify":
        out = balance.convexify(fs)
        if isinstance(out, balance.NotConvexifiable):
            return "not-convexifiable", {"firm_index": out.firm_index}
        return "computed", {
            "firms": [rational_vector_json(v) for v in out.firms],
            "resource": rational_vector_json(out.resource),
        }
    if args.action == "equivalent":
        _require(args, "other")
        fs2 = _load_firm_system(args.other)
        res = balance.same_balanced_subsets(fs, fs2, args.mode)
        if isinstance(res, balance.Equivalent):
            return "equivalent", {}
        return "differs", {"witness_subset": list(res.witness)}
    raise MalformedInput(f"$: unknown balance action {args.action!r}")


def _cmd_tu_core(args):
    game = tu_from_json(_load_json(args.input))
    details = {}
    res = tu_solver.core_nonempty(game)
    if isinstance(res, tu_solver.CorePoint):
        verdict = "nonempty"
        details["core_point"] = rational_vector_json(res.allocation)
    else:
        verdict = "empty"
    if args.check_point:
        point = _vector_arg(args.check_point, "check_point", game.n)
        check = tu_solver.check_core_point(game, point)
        if isinstance(check, tu_solver.Accept):
            details["check_point"] = {"verdict": "accept"}
        else:
            details["check_point"] = {
                "verdict": "reject",
                "coalition": None
                if check.coalition is None
                else [i + 1 for i in check.coalition],
                "reason": check.reason,
            }
    return verdict, details


def _cmd_tu_balanced(args):
    game = tu_from_json(_load_json(args.input))
    res = tu_solver.is_balanced_tu(game)
    if isinstance(res, tu_solver.Balanced):
        return "balanced", {"optimum": rat_json(res.optimum)}
    return "violated", {
        "family": [[i + 1 for i in s] for s in res.family.subsets],
        "weights": rational_vector_json(res.family.weights),
        "value": rat_json(res.value),
    }


def _cmd_frac_core(args):
    game = game_from_json(_load_json(args.input))
    details = {}
    res = frac_core.fractional_core_solve(
        game, subset_cap=args.firm_cap, node_cap=args.node_cap
    )
    if isinstance(res, frac_core.Nonempty):
        verdict = "nonempty"
        details["witness"] = _witness_json(res.witness, game)
    else:
        verdict = "empty"
    if args.verify_point:
        point = _vector_arg(args.verify_point, "verify_point", game.dim)
        ok, info = frac_core.verify_fractional_core_point(game, point)
        details["verify_point"] = {"accepted": ok, "info": info}
    return verdict, details


def _distinguished_game(args):
    game = game_from_json(_load_json(args.input))
    if game.distinguished is None:
        raise MalformedInput(f"$.distinguished: {args.command} needs a distinguished firm")
    return game


def _cmd_core(args):
    game = _distinguished_game(args)
    res = frac_core.core_solve(game, node_cap=args.node_cap)
    if isinstance(res, frac_core.CorePoint):
        return "nonempty", {"core_point": rational_vector_json(res.point)}
    return "empty", {}


def _cmd_game_balanced(args):
    game = _distinguished_game(args)
    res = frac_core.is_balanced_game(game, subset_cap=args.firm_cap)
    if isinstance(res, frac_core.BalancedGame):
        return "balanced", {}
    if isinstance(res, frac_core.Unsupported):
        return "unsupported", {"reason": res.reason}
    return "violated", {
        "subset": list(res.subset),
        "point": rational_vector_json(res.point),
    }


def _cmd_embed(args):
    game = tu_from_json(_load_json(args.input))
    embedded = frac_core.embed_coalitional(game)
    sys.stdout.write(serialize(game_to_json(embedded)))
    return None, None  # the JSON document itself is the output


def _cmd_induce_cover(args):
    game = game_from_json(_load_json(args.input))
    if args.region == "simplex":
        _require(args, "vertices")
        pts = _json_arg(args.vertices, "vertices")
        if not isinstance(pts, list) or len(pts) < 2:
            raise MalformedInput("$.vertices: expected a list of at least two points")
        region = topo_degree.SimplexRegion(
            tuple(_point(p, f"$.vertices[{i}]", game.dim) for i, p in enumerate(pts))
        )
    else:
        _require(args, "center")
        try:
            halfwidth = rat(args.halfwidth)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInput(f"$.halfwidth: not a rational: {args.halfwidth!r}") from exc
        center = _vector_arg(args.center, "center", game.dim)
        try:
            region = topo_degree.CubeRegion(center, halfwidth)
        except ValueError as exc:
            raise MalformedInput(f"$.halfwidth: {exc}") from exc
    try:
        lc = topo_degree.induce_labeling(game, region, args.depth)
    except ValueError as exc:
        # the only ValueError here: a negative depth
        raise MalformedInput(f"$.depth: {exc}") from exc
    sys.stdout.write(serialize(cover_to_json(lc)))
    return None, None


def _cmd_degree(args):
    lc = cover_from_json(_load_json(args.input))
    res = topo_degree.pl_degree(lc)
    if isinstance(res, topo_degree.Degree):
        return "degree", {"value": res.value}
    return "balanced-simplex", {"facet": list(res.facet)}


def _cmd_rainbow(args):
    lc = cover_from_json(_load_json(args.input))
    facets = topo_degree.rainbow_simplices(lc, args.mode)
    return "computed", {"count": len(facets), "facets": [list(f) for f in facets]}


def _cmd_index_sum(args):
    lc = cover_from_json(_load_json(args.input))
    rep = topo_index.index_sum_check(lc)
    return ("consistent" if rep.sum_matches else "inconsistent"), {
        "boundary": {"degree": rep.boundary_degree.value},
        "components": [
            {"facets": list(facets), "index": ix} for facets, ix in rep.components
        ],
    }


def _cmd_hopf(args):
    oc, labels = complex_from_json(_load_json(args.input))
    if (
        labels is None
        or len(labels) != oc.complex.num_vertices
        or any(len(ls) != 1 for ls in labels)
    ):
        raise MalformedInput("$.labels: need exactly one target vertex per vertex")
    vertex_map = [min(ls) for ls in labels]
    value = hopf_invariant(oc, vertex_map)
    return "computed", {"hopf_invariant": value}


def _cmd_examples(args):
    name = args.name
    if name == "list":
        return "computed", {"names": sorted(_EXAMPLES)}
    if name not in _EXAMPLES:
        raise MalformedInput(f"$: unknown example {name!r}; try 'examples list'")
    return "computed", _EXAMPLES[name]()


def _example_worked_tu():
    game = gallery.loss_sharing_tu()
    core = tu_solver.core_nonempty(game)
    balanced = tu_solver.is_balanced_tu(game)
    check = tu_solver.check_core_point(game, (-8, -12, -15))
    embedded = frac_core.embed_coalitional(game)
    gcore = frac_core.core_solve(embedded)
    return {
        "tu_core": "nonempty" if isinstance(core, tu_solver.CorePoint) else "empty",
        "core_point": rational_vector_json(core.allocation),
        "worked_allocation_accepted": isinstance(check, tu_solver.Accept),
        "tu_balanced": isinstance(balanced, tu_solver.Balanced),
        "generalized_core": "nonempty"
        if isinstance(gcore, frac_core.CorePoint)
        else "empty",
    }


def _example_worked_tu_modified():
    game = gallery.loss_sharing_tu_modified()
    core = tu_solver.core_nonempty(game)
    balanced = tu_solver.is_balanced_tu(game)
    embedded = frac_core.embed_coalitional(game)
    frac = frac_core.fractional_core_solve(embedded)
    ok, info = frac_core.verify_fractional_core_point(embedded, (-9, -13, -19))
    details = {
        "tu_core": "nonempty" if isinstance(core, tu_solver.CorePoint) else "empty",
        "tu_balanced": "balanced"
        if isinstance(balanced, tu_solver.Balanced)
        else "violated",
        "fractional_core": "nonempty"
        if isinstance(frac, frac_core.Nonempty)
        else "empty",
        "worked_point_verified": ok,
    }
    if isinstance(balanced, tu_solver.Violated):
        details["violating_family"] = [[i + 1 for i in s] for s in balanced.family.subsets]
        details["violating_weights"] = rational_vector_json(balanced.family.weights)
        details["violating_value"] = rat_json(balanced.value)
    if isinstance(frac, frac_core.Nonempty):
        details["witness"] = _witness_json(frac.witness, embedded)
    return details


def _example_directed_transfers():
    game = gallery.directed_transfers_game()
    rep = validate_game(game)
    res = frac_core.fractional_core_solve(game)
    return {
        "valid": rep.ok,
        "fractional_core": "nonempty"
        if isinstance(res, frac_core.Nonempty)
        else "empty",
    }


def _example_symmetric(game_fn):
    def run():
        game = game_fn()
        res = frac_core.fractional_core_solve(game)
        out = {
            "fractional_core": "nonempty"
            if isinstance(res, frac_core.Nonempty)
            else "empty"
        }
        if isinstance(res, frac_core.Nonempty):
            out["witness"] = _witness_json(res.witness)
        return out

    return run


def _example_hopf():
    oc, coloring = load_sphere_asset()
    fs = FirmSystem(
        firms=[(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        resource=(1, 1, 1, 1),
    )
    cover = topo_degree.closed_star_cover(oc, coloring, fs)
    rainbow = topo_degree.rainbow_simplices(cover, "cone")
    invariant = hopf_invariant(oc, coloring)
    shipped = resources.files("fraccore").joinpath("data/hopf-game.json").read_text()
    game = game_from_json(json.loads(shipped))  # gallery.hopf_fibration_game()
    res = frac_core.fractional_core_solve(game)
    return {
        "asset_valid": True,
        "vertices": oc.complex.num_vertices,
        "facets": len(oc.complex.facets),
        "rainbow_facets": len(rainbow),
        "hopf_invariant": invariant,
        "fractional_core": "nonempty"
        if isinstance(res, frac_core.Nonempty)
        else "empty",
    }


def _example_two_bubbles():
    out = {}
    for pair in ((1, 1), (1, -1), (-1, -1)):
        lc = gallery.two_bubble_cover(*pair)
        rep = topo_index.index_sum_check(lc)
        out["%+d%+d" % pair] = {
            "boundary_degree": rep.boundary_degree.value,
            "indices": [ix for _, ix in rep.components],
            "matches": rep.sum_matches,
        }
    return out


_EXAMPLES = {
    "example1": _example_worked_tu,
    "example1-modified": _example_worked_tu_modified,
    "example2": _example_directed_transfers,
    "symmetric-s1": _example_symmetric(gallery.symmetric_pairs_game_s1),
    "symmetric-s2": _example_symmetric(gallery.symmetric_pairs_game_s2),
    "hopf": _example_hopf,
    "two-bubbles": _example_two_bubbles,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise _UsageError(message)


class _UsageError(Exception):
    pass


_SIGNED_VALUE = re.compile(r"-[\d.]")


def _attach_signed_values(argv):
    """Write ``--halfwidth -1/2`` as ``--halfwidth=-1/2``: argparse reads a
    separate "-1/2" (unlike "-1") as an option, but an attached one as the
    value, which the halfwidth check then rejects with exit 3."""
    out = []
    for arg in argv:
        if out and out[-1] == "--halfwidth" and _SIGNED_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _build_parser() -> _Parser:
    p = _Parser(prog="fraccore", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", _cmd_validate)
    sp.add_argument("input")

    sp = add("balance", _cmd_balance)
    sp.add_argument("action", choices=["enumerate", "check", "minimal", "convexify", "equivalent"])
    sp.add_argument("--input", help="game or firm-system JSON")
    sp.add_argument("--mode", choices=["cone", "convex"], default="cone")
    sp.add_argument("--subset", help="JSON list of firm indices (for check)")
    sp.add_argument("--players", type=int, help="player count (for minimal)")
    sp.add_argument("--other", help="second firm system (for equivalent)")

    for name, fn in (("tu-core", _cmd_tu_core), ("tu-balanced", _cmd_tu_balanced)):
        sp = add(name, fn)
        sp.add_argument("input")
        if name == "tu-core":
            sp.add_argument("--check-point", help="JSON allocation to test")

    sp = add("frac-core", _cmd_frac_core)
    sp.add_argument("input")
    sp.add_argument("--verify-point", help="JSON point to verify independently")
    sp.add_argument("--firm-cap", type=int, default=frac_core.DEFAULT_SUBSET_CAP)
    sp.add_argument("--node-cap", type=int, default=frac_core.DEFAULT_NODE_CAP)

    sp = add("core", _cmd_core)
    sp.add_argument("input")
    sp.add_argument("--node-cap", type=int, default=frac_core.DEFAULT_NODE_CAP)

    sp = add("game-balanced", _cmd_game_balanced)
    sp.add_argument("input")
    sp.add_argument("--firm-cap", type=int, default=frac_core.DEFAULT_SUBSET_CAP)

    sp = add("embed", _cmd_embed)
    sp.add_argument("input")

    sp = add("induce-cover", _cmd_induce_cover)
    sp.add_argument("input")
    sp.add_argument("--region", choices=["simplex", "cube"], default="simplex")
    sp.add_argument("--vertices", help="JSON list of points (simplex region)")
    sp.add_argument("--center", help="JSON point (cube region)")
    sp.add_argument("--halfwidth", default="1")
    sp.add_argument("--depth", type=int, default=2)

    for name, fn in (("degree", _cmd_degree), ("index-sum", _cmd_index_sum)):
        sp = add(name, fn)
        sp.add_argument("input")

    sp = add("rainbow", _cmd_rainbow)
    sp.add_argument("input")
    sp.add_argument("--mode", choices=["cone", "convex"], default="cone")

    sp = add("hopf", _cmd_hopf)
    sp.add_argument("input")

    sp = add("examples", _cmd_examples)
    sp.add_argument("name")
    return p


def main(argv=None) -> int:
    t0 = time.time()
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
        verdict, details = args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MalformedInput as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 3
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except FraccoreError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if verdict is None:
        return 0  # command wrote its own document
    report = {
        "schema": "fraccore.report/1",
        "command": args.command,
        "verdict": verdict,
        "details": details,
        "elapsed_ms": int((time.time() - t0) * 1000),
    }
    sys.stdout.write(serialize(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
