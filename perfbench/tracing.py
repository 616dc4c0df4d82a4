"""Per-layer spans recorded from outside the program.

``Tracer`` wraps the public functions of each fraccore layer.  A module that
did ``from .exact_linear import solve_feasibility`` holds its own reference,
so every fraccore module namespace that binds a wrapped function (by
identity) is patched, not only the defining module; class methods are
patched on their class.  Leaving the ``with`` block restores every original.

Each span records function, layer, start, end (process CPU time, like the
end-to-end latencies), parent span and operation id, and stays in memory
until ``write`` saves the lot.  A span's self time
is its duration minus the durations of its child spans.  Counters for the
ratio metrics are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = {
    "exact_linear": ("fraccore.exact_linear", ("maximize", "solve_feasibility")),
    "linalg": (
        "fraccore.linalg",
        ("gaussian_solve", "rank", "det", "solve_square", "nullspace", "affine_basis"),
    ),
    "balance": (
        "fraccore.balance",
        (
            "balancing_weights",
            "convex_balancing_weights",
            "balanced_subsets",
            "same_balanced_subsets",
            "minimal_balanced_families",
            "convexify",
        ),
    ),
    "game_model": (
        "fraccore.game_model",
        (
            "ComprehensiveSet.uplift",
            "ComprehensiveSet.is_proper",
            "FirmSystem.resource_in_cone",
            "contains",
            "tau",
            "cover_labels",
            "in_induced_cover",
            "comprehensive_hull",
            "validate_game",
        ),
    ),
    "tu_solver": ("fraccore.tu_solver", ("core_nonempty", "is_balanced_tu", "check_core_point")),
    "frac_core": (
        "fraccore.frac_core",
        (
            "fractional_core_solve",
            "core_solve",
            "is_balanced_game",
            "verify_fractional_core_point",
            "embed_coalitional",
        ),
    ),
    "topology.complexes": (
        "fraccore.topology.complexes",
        (
            "barycentric_subdivision",
            "propagate_orientation",
            "boundary_complex",
            "simplex_boundary",
            "validate_closed_manifold",
            "OrientedComplex.coherent",
        ),
    ),
    "topology.degree": (
        "fraccore.topology.degree",
        (
            "pl_degree",
            "rainbow_simplices",
            "induce_labeling",
            "closed_star_cover",
            "subdivide_cover",
        ),
    ),
    "topology.index": (
        "fraccore.topology.index",
        ("index_sum_check", "balanced_components", "component_index", "balanced_facet_indices"),
    ),
    "topology.intlinalg": (
        "fraccore.topology.intlinalg",
        ("smith_normal_form", "solve_integer", "integer_rank"),
    ),
    "topology.hopf": ("fraccore.topology.hopf", ("first_homology", "hopf_invariant")),
    "formats": (
        "fraccore.formats",
        (
            "game_from_json",
            "tu_from_json",
            "cover_from_json",
            "complex_from_json",
            "point_from_json",
        ),
    ),
}

# span fields
NAME, LAYER, START, END, PARENT, OP = range(6)


def _system_arg(args, kwargs, position):
    if len(args) > position:
        return args[position]
    return kwargs["sys"]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.open = {}
        self.counts = {}
        self._members = set()
        self._firm_systems = {}
        self._patched = []
        self._probes = {
            "maximize": self._probe_lp(1),
            "solve_feasibility": self._probe_lp(0),
            "balancing_weights": self._probe_balancing("cone"),
            "convex_balancing_weights": self._probe_balancing("convex"),
            "balanced_subsets": self._probe_subsets,
            "fractional_core_solve": self._probe_solve,
        }

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        program = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "fraccore"]
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules[modname]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrap(layer, name, original))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(layer, name, original)
                for mod in program:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _wrap(self, layer, name, fn):
        spans, stack, opened, clock = self.spans, self.stack, self.open, time.process_time
        probe = self._probes.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            opened[name] = opened.get(name, 0) + 1
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                opened[name] -= 1
            if probe is not None:
                probe(span, args, kwargs, result)
            return result

        return wrapper

    # -- counters ---------------------------------------------------------

    def _count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _is_entry(self, span) -> bool:
        parent = span[PARENT]
        return parent < 0 or self.spans[parent][LAYER] != span[LAYER]

    def _probe_lp(self, position):
        def probe(span, args, kwargs, result):
            if not self._is_entry(span):
                return
            system = _system_arg(args, kwargs, position)
            self._count("lp")
            self._count("lp.vars", system.num_vars)
            self._count("lp.rows", len(system.equalities) + len(system.leq) + len(system.lt))
            if type(result).__name__ == "Infeasible":
                self._count("lp.infeasible")
            if self.open.get("fractional_core_solve"):
                self._count("lp.in_frac_solve")

        return probe

    def _probe_balancing(self, mode):
        def probe(span, args, kwargs, result):
            subset = args[0] if args else kwargs["subset"]
            fs = args[1] if len(args) > 1 else kwargs["fs"]
            self._firm_systems[id(fs)] = fs  # keeps ids unique while counted
            self._members.add((mode, id(fs), tuple(sorted(set(subset)))))
            self._count("balancing")
            if self.open.get("balanced_subsets"):
                self._count("balancing.in_subsets")

        return probe

    def _probe_subsets(self, span, args, kwargs, result):
        self._count("subsets.returned", len(result))

    def _probe_solve(self, span, args, kwargs, result):
        self._count("frac_solves")

    # -- results ----------------------------------------------------------

    def layer_metrics(self, traced_total_s):
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        calls = {layer: 0 for layer in LAYERS}
        self_s = {layer: 0.0 for layer in LAYERS}
        for i, span in enumerate(self.spans):
            self_s[span[LAYER]] += span[END] - span[START] - child[i]
            if self._is_entry(span):
                calls[span[LAYER]] += 1
        c = self.counts.get

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
            out[f"{layer}.share"] = (ratio(self_s[layer], traced_total_s), "ratio")
        out["exact_linear.vars_per_call"] = (ratio(c("lp.vars", 0), c("lp", 0)), "count")
        out["exact_linear.rows_per_call"] = (ratio(c("lp.rows", 0), c("lp", 0)), "count")
        out["exact_linear.infeasible_ratio"] = (ratio(c("lp.infeasible", 0), c("lp", 0)), "ratio")
        out["balance.lp_per_subset"] = (
            ratio(c("balancing.in_subsets", 0), c("subsets.returned", 0)),
            "ratio",
        )
        out["balance.distinct_ratio"] = (ratio(len(self._members), c("balancing", 0)), "ratio")
        out["frac_core.lp_per_solve"] = (ratio(c("lp.in_frac_solve", 0), c("frac_solves", 0)), "count")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
