"""Print the CPU time of a benchmark pool split by operation kind.

Usage (from the repository root):

    python3 tools/pool_kinds.py SRC WORKLOAD SEED

Generates the seed's pool with ``perfbench/gen.py``, as many operations as
``perfbench/run.py`` generates for the workload (its ``POOL``), and runs
it through ``perfbench/workloads.py`` against the fraccore package under
``SRC``: once to fill every memo, then four warm passes.  As in
``perfbench/run.py``, each operation's CPU time follows a
``calibrate.reference()`` reading and is scaled to reference seconds by
the readings around it.  Prints one JSON line: throughput, p50 and p90
latency over the warm operations, the reference milliseconds one warm
pass spends on each operation kind (``pool_ms``), and the same for the
first, cold pass (``cold_pool_ms``), which fills the memos and so shows
what they cost a caller that runs each operation once.  Run it
alternately on two checkouts' ``src`` directories to see which kind of
operation a change moved; ``run.py`` and its tracer report layers, not
kinds.  Standard library only; nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import calibrate  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from run import POOL  # noqa: E402

PASSES = 4


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", type=Path)
    ap.add_argument("workload", choices=sorted(gen.GENERATORS))
    ap.add_argument("seed", type=int)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    program = workloads.Program()
    run = workloads.RUNNERS[args.workload]
    inputs, expect = gen.generate(args.workload, args.seed, POOL[args.workload])
    doc = json.loads(gen.canonical({"workload": args.workload, "ops": inputs}))
    parsed = workloads.parse(program, doc)
    kinds = [workloads.op_kind(args.workload, op, ex) for op, ex in zip(inputs, expect)]

    def one(item):
        try:
            run(program, item)
        except Exception:  # a failing op is timed like any other
            return 1
        return 0

    def timed(passes):
        """Reference seconds per operation over ``passes`` passes, and the
        number of failed operations."""
        raw, refs, failed = [], [], 0
        for _ in range(passes):
            for item in parsed:
                refs.append(calibrate.reference())
                t0 = time.process_time()
                failed += one(item)
                raw.append(time.process_time() - t0)
        return [t * f for t, f in zip(raw, calibrate.factors(refs))], failed

    def by_kind(lat, passes):
        per_kind = {}
        for i, t in enumerate(lat):
            kind = kinds[i % len(parsed)]
            per_kind[kind] = per_kind.get(kind, 0.0) + t
        return {k: round(v * 1e3 / passes, 2) for k, v in sorted(per_kind.items())}

    cold, _ = timed(1)
    lat, failed = timed(PASSES)
    print(json.dumps({
        "src": str(args.src),
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(lat),
        "failed": failed,
        "throughput_ops_s": round(len(lat) / sum(lat), 2),
        "latency_p50_ms": round(statistics.median(lat) * 1e3, 4),
        "latency_p90_ms": round(statistics.quantiles(lat, n=10)[-1] * 1e3, 4),
        "pool_ms": by_kind(lat, PASSES),
        "cold_pool_ms": by_kind(cold, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
