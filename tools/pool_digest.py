"""Print one SHA-256 per seed over the verdicts of a whole benchmark pool.

Usage (from the repository root):

    python3 tools/pool_digest.py SRC WORKLOAD SEED [SEED ...]

Generates each seed's pool with ``perfbench/gen.py``, as many operations as
``perfbench/run.py`` generates for the workload (its ``POOL``), runs every
operation once through ``perfbench/workloads.py`` against the fraccore
package under ``SRC`` and hashes the canonical verdicts in order; a failing
operation contributes its exception type and message.  Run it on two
checkouts' ``src`` directories with the same arguments: equal lines mean
byte-identical verdicts.  Standard library only; nothing under
``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402
import workloads  # noqa: E402
from run import POOL  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", type=Path)
    ap.add_argument("workload", choices=sorted(gen.GENERATORS))
    ap.add_argument("seeds", type=int, nargs="+")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    program = workloads.Program()
    run, verdict = workloads.RUNNERS[args.workload], workloads.VERDICTS[args.workload]
    for seed in args.seeds:
        inputs, _ = gen.generate(args.workload, seed, POOL[args.workload])
        doc = json.loads(gen.canonical({"workload": args.workload, "ops": inputs}))
        digest = hashlib.sha256()
        for item in workloads.parse(program, doc):
            try:
                out = verdict(run(program, item))
            except Exception as exc:  # a failing op is part of the verdicts
                out = f"{type(exc).__name__}: {exc}"
            digest.update(json.dumps(out, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        print(seed, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
