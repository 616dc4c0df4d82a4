"""The benchmark's view of the program: parse a workload's canonical JSON
through ``fraccore.formats``, run one operation per input, and turn each
result into a plain verdict (rationals as strings) for checking and digests.

Importing this module imports no fraccore code; ``load`` does, so the setup
probe can time that import.
"""

from __future__ import annotations

import importlib
import json

PROGRAM_MODULES = (
    "fraccore",
    "fraccore.formats",
    "fraccore.game_model",
    "fraccore.tu_solver",
    "fraccore.frac_core",
    "fraccore.topology.degree",
    "fraccore.topology.index",
    "fraccore.topology.hopf",
)


class Program:
    """The imported fraccore modules the workloads call, by short name."""

    def __init__(self):
        for name in PROGRAM_MODULES:
            setattr(self, name.rsplit(".", 1)[-1], importlib.import_module(name))


def read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def parse(program, doc):
    """``parse(...)[i]`` is what operation i of the pool runs on."""
    parser = PARSERS[doc["workload"]]
    return [parser(program, op) for op in doc["ops"]]


def load(path):
    """Import fraccore, then read and parse a generated inputs file."""
    program = Program()
    return program, parse(program, read(path))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse_tu(p, op):
    return p.formats.tu_from_json(op)


def parse_game(p, op):
    return p.formats.game_from_json(op)


def parse_cover_op(p, op):
    kind = op["kind"]
    fmt = p.formats
    if kind == "induce":
        region = op["region"]
        if "simplex" in region:
            reg = p.degree.SimplexRegion(
                tuple(fmt.point_from_json(v) for v in region["simplex"])
            )
        else:
            cube = region["cube"]
            reg = p.degree.CubeRegion(
                fmt.point_from_json(cube["center"]), cube["halfwidth"]
            )
        return kind, (fmt.game_from_json(op["game"]), reg, op["depth"])
    if kind in ("sperner", "index"):
        return kind, (fmt.cover_from_json(op["cover"]),)
    if kind == "hopf":
        oc, labels = fmt.complex_from_json(op["complex"])
        coloring = tuple(min(ls) for ls in labels)
        fs = p.game_model.FirmSystem(
            firms=tuple(fmt.point_from_json(v) for v in op["firms"]),
            resource=fmt.point_from_json(op["resource"]),
        )
        return kind, (oc, coloring, fs)
    raise ValueError(f"unknown cover operation {kind!r}")


PARSERS = {"tu-lp": parse_tu, "frac-core": parse_game, "cover-topology": parse_cover_op}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def run_tu(p, game):
    core = p.tu_solver.core_nonempty(game)
    bal = p.tu_solver.is_balanced_tu(game)
    checked = None
    if type(core).__name__ == "CorePoint":
        checked = p.tu_solver.check_core_point(game, core.allocation)
    return core, bal, checked


def run_frac(p, game):
    frac = p.frac_core.fractional_core_solve(game)
    if game.distinguished is None:
        return frac, None, None
    return frac, p.frac_core.core_solve(game), p.frac_core.is_balanced_game(game)


def run_cover(p, item):
    kind, args = item
    deg = p.degree
    if kind == "induce":
        lc = deg.induce_labeling(*args)
        return kind, lc, deg.pl_degree(lc), deg.rainbow_simplices(lc)
    if kind == "sperner":
        return kind, args[0], deg.pl_degree(args[0])
    if kind == "index":
        return kind, args[0], p.index.index_sum_check(args[0])
    oc, coloring, fs = args
    homology = p.hopf.first_homology(oc.complex)
    invariant = p.hopf.hopf_invariant(oc, coloring)
    cover = deg.closed_star_cover(oc, coloring, fs)
    return kind, homology, invariant, cover, deg.rainbow_simplices(cover)


RUNNERS = {"tu-lp": run_tu, "frac-core": run_frac, "cover-topology": run_cover}


def probe_hopf(p, item):
    """The defect probe's call on one relabeled sphere, as a plain verdict."""
    _, (oc, coloring, _) = item
    homology = p.hopf.first_homology(oc.complex)
    return {
        "homology": [homology[0], list(homology[1])],
        "hopf": p.hopf.hopf_invariant(oc, coloring),
    }


# ---------------------------------------------------------------------------
# verdicts: plain JSON values, so checks and digests never touch fraccore
# ---------------------------------------------------------------------------


def rs(q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def rv(v):
    return [rs(c) for c in v]


def kind_of(obj) -> str:
    return type(obj).__name__


def verdict_tu(raw):
    core, bal, checked = raw
    if kind_of(bal) == "Balanced":
        balanced = {"kind": "balanced", "value": rs(bal.optimum)}
    else:
        balanced = {
            "kind": "violated",
            "family": [list(s) for s in bal.family.subsets],
            "weights": rv(bal.family.weights),
            "value": rs(bal.value),
        }
    return {
        "core": rv(core.allocation) if kind_of(core) == "CorePoint" else None,
        "balanced": balanced,
        "check": None if checked is None else kind_of(checked).lower(),
    }


def verdict_frac(raw):
    frac, core, bal = raw
    if kind_of(frac) == "Nonempty":
        w = frac.witness
        out = {
            "frac": {
                "kind": "nonempty",
                "point": rv(w.point),
                "base": rv(w.base),
                "level": rs(w.level),
                "active": list(w.active),
                "weights": rv(w.weights),
            }
        }
    else:
        out = {"frac": {"kind": "empty"}}
    if core is None:
        return out
    if kind_of(core) == "CorePoint":
        out["core"] = {"kind": "point", "point": rv(core.point)}
    else:
        out["core"] = {"kind": "empty"}
    if kind_of(bal) == "ViolatedGame":
        out["balanced"] = {"kind": "violated", "subset": list(bal.subset), "point": rv(bal.point)}
    elif kind_of(bal) == "BalancedGame":
        out["balanced"] = {"kind": "balanced"}
    else:
        out["balanced"] = {"kind": kind_of(bal).lower()}
    return out


def degree_verdict(res, lc):
    if kind_of(res) == "Degree":
        return {"kind": "degree", "value": res.value}
    return {
        "kind": "balanced_simplex",
        "facet": list(res.facet),
        "labels": [sorted(lc.labels[u]) for u in res.facet],
    }


def verdict_cover(raw):
    kind = raw[0]
    if kind == "induce":
        _, lc, res, rainbow = raw
        return {
            "degree": degree_verdict(res, lc),
            "rainbow": [list(f) for f in rainbow],
            "facets": [list(f) for f in lc.oriented.complex.facets],
            "labels": [sorted(ls) for ls in lc.labels],
        }
    if kind == "sperner":
        return {"degree": degree_verdict(raw[2], raw[1])}
    if kind == "index":
        _, lc, rep = raw
        return {
            "boundary": degree_verdict(rep.boundary_degree, lc),
            "components": [[list(c), ix] for c, ix in rep.components],
            "sum_matches": rep.sum_matches,
        }
    _, homology, invariant, cover, rainbow = raw
    return {
        "homology": [homology[0], list(homology[1])],
        "hopf": invariant,
        "rainbow": [list(f) for f in rainbow],
        "cover_facets": [list(f) for f in cover.oriented.complex.facets],
        "cover_labels": [sorted(ls) for ls in cover.labels],
    }


VERDICTS = {"tu-lp": verdict_tu, "frac-core": verdict_frac, "cover-topology": verdict_cover}


def op_kind(workload, op, expect) -> str:
    """Short label of an operation, for failure listings."""
    if workload == "tu-lp":
        return f"tu n={op['n']}"
    if workload == "frac-core":
        return expect["family"]
    return op["kind"]
