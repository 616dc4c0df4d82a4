"""fraccore benchmark: one closed-loop client calling the library in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload tu-lp --seed 1 --seconds 35 --trace 0

Generates the workload's inputs from the seed, writes them as canonical
JSON, parses them through ``fraccore.formats`` and runs one operation after
another until ``--seconds`` have passed.  Every verdict is then checked by
``check.py``, which calls no fraccore code.  ``cover-topology`` runs also
probe the known ``hopf_invariant`` defect on relabelled spheres, untimed
and outside ``failed``.  Report lines come first; the
last line of standard output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).

Exit status: 0 with a result, 1 when a verdict digest differs between runs
of the same seed and program (or between the traced and untraced runs),
2 when ``src/fraccore`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import check  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

WORK_DIR = ".perfbench_work"
# Inputs generated per run, about as many operations as a run completes
# with the current code.  Faster programs cycle through the pool again;
# repeated inputs must then repeat their verdicts exactly.
POOL = {"tu-lp": 300, "frac-core": 600, "cover-topology": 256}
# Operations every run completes, whatever the time limit, and over which
# the cross-run verdict digest is taken.
DIGEST_OPS = {"tu-lp": 12, "frac-core": 24, "cover-topology": 16}
SETUP_REPEATS = 5


class DigestMismatch(Exception):
    pass


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "fraccore").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    """Rational backend, Python version and usable CPUs of this run."""
    q = sys.modules["fraccore.rationals"].Q
    return {
        "backend": f"{q.__module__}.{q.__name__}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure_setup(src: Path, inputs: Path) -> list:
    """Cold ``import fraccore`` plus parsing, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(src), str(inputs)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Evaluator:
    """Checks each result as soon as its operation ends, outside the timed
    span, and keeps only a digest of its verdict, so memory does not grow
    with the number of operations a run completes."""

    def __init__(self, workload, inputs, expect):
        self.workload, self.inputs, self.expect = workload, inputs, expect
        self.to_verdict = workloads.VERDICTS[workload]
        self.digests = []
        self.failures = []  # (op, kind, reason)
        self._seen = {}

    def __call__(self, i, result, error):
        j = i % len(self.inputs)
        kind = workloads.op_kind(self.workload, self.inputs[j], self.expect[j])
        if error is None:
            try:
                verdict = self.to_verdict(result)
            except (AttributeError, TypeError, ValueError) as exc:
                error = f"unreadable result: {type(exc).__name__}: {exc}"
        if error is not None:
            self.digests.append(sha(error))
            self.failures.append((i, kind, error))
            return
        self.digests.append(sha(json.dumps(verdict, sort_keys=True, separators=(",", ":"))))
        if self._seen.setdefault(j, self.digests[-1]) != self.digests[-1]:
            raise DigestMismatch(f"input {j} gave two different verdicts in one run")
        outcome = check.check(self.workload, self.inputs[j], self.expect[j], verdict)
        if outcome is not None:
            self.failures.append((i, kind, outcome[0]))

    def digest(self, ops=None) -> str:
        """Digest of the verdicts of the first ``ops`` operations (all by default)."""
        return sha("".join(self.digests[:ops]))


def run_loop(runner, program, parsed, evaluate, *, seconds=None, min_ops=0, count=None, tracer=None):
    """Closed loop: the next operation starts when the previous one ends.

    Runs ``count`` operations, or until ``seconds`` of wall time have passed
    and at least ``min_ops`` completed.  A raising operation is recorded, not
    fatal; ``evaluate(i, result, error)`` sees every outcome.  Each
    operation's latency is its CPU time in reference seconds (see
    ``calibrate``), from a reference reading taken just before it.  Returns
    the latencies, the wall seconds and the unscaled CPU seconds of the
    operations.
    """
    raw, refs = [], []
    wall, cpu = time.perf_counter, time.process_time
    start = wall()
    i = 0
    while (i < count) if count is not None else (i < min_ops or wall() - start < seconds):
        refs.append(calibrate.reference())
        if tracer is not None:
            tracer.op = i
        item = parsed[i % len(parsed)]
        t0 = cpu()
        try:
            result, error = runner(program, item), None
        except Exception as exc:  # an operation failure is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        raw.append(cpu() - t0)
        evaluate(i, result, error)
        i += 1
    return [t * f for t, f in zip(raw, calibrate.factors(refs))], wall() - start, sum(raw)


def remember_digest(ctx, args, env, value: str, part: str = "ops"):
    """Fail when an earlier run of the same seed, program and backend
    disagrees."""
    key = f"{args.workload}:{args.seed}:{part}:{ctx['program_digest']}:{env['backend']}"
    path = ctx["work"] / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if known.setdefault(key, value) != value:
        raise DigestMismatch(f"verdict digest {value} differs from an earlier run's {known[key]}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)


def record_result(work: Path, env: dict, entry: dict):
    """Append to the result log; flag results from another rational backend."""
    path = work / "results.jsonl"
    if path.exists():
        others = {json.loads(line)["env"]["backend"] for line in path.read_text().splitlines()}
        others.discard(env["backend"])
        if others:
            print(
                f"NOT COMPARABLE: backend {env['backend']} differs from earlier results "
                f"in this checkout ({', '.join(sorted(others))})"
            )
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env, **entry}, sort_keys=True) + "\n")


def hopf_probe(args, ctx, program, env):
    """Untimed probe of the known defect: ``hopf_invariant`` on the seed's
    relabelings of the sphere asset.  Returns the failures as
    ``(relabeling, perm, reason, known)``; prints nothing."""
    if args.workload != "cover-topology":
        return []
    ops, perms = gen.hopf_probe(args.seed)
    failures, digests = [], []
    for j, (op, perm) in enumerate(zip(ops, perms)):
        try:
            verdict = workloads.probe_hopf(program, workloads.parse_cover_op(program, op))
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
            digests.append(sha(reason))
            failures.append((j, perm, reason, False))
            continue
        digests.append(sha(json.dumps(verdict, sort_keys=True)))
        outcome = check.check_hopf_probe(verdict["homology"], verdict["hopf"])
        if outcome is not None:
            failures.append((j, perm, *outcome))
    remember_digest(ctx, args, env, sha("".join(digests)), part="hopf-probe")
    ctx["probe_size"] = len(ops)
    return failures


def report_probe(ctx, probe):
    if "probe_size" not in ctx:
        return
    known = sum(1 for *_, k in probe if k)
    print(
        f"hopf_probe {len(probe)} of {ctx['probe_size']} relabelings wrong, {known} of them "
        f"the known hopf_invariant defect (untimed, not in error_rate)"
    )
    for j, perm, reason, k in probe:
        tag = " [known defect]" if k else ""
        print(f"hopf_probe relabeling {j} perm={perm}: {reason}{tag}")


def print_header(args, ctx, env):
    print(f"env: backend={env['backend']} python={env['python']} nproc={env['nproc']}")
    print(f"inputs: {args.workload} seed={args.seed} pool={len(ctx['inputs'])} digest={ctx['input_digest']}")


def report_failures(failures):
    for i, kind, reason in failures:
        print(f"failed op {i} ({kind}): {reason}")


def percentile_90(latencies):
    return statistics.quantiles(latencies, n=10)[-1]


def untraced(args, ctx):
    samples = measure_setup(ctx["src"], ctx["inputs_path"])
    program, parsed = workloads.load(ctx["inputs_path"])
    runner = workloads.RUNNERS[args.workload]
    ev = Evaluator(args.workload, ctx["inputs"], ctx["expect"])
    lat, wall, _ = run_loop(
        runner, program, parsed, ev, seconds=args.seconds, min_ops=DIGEST_OPS[args.workload]
    )
    busy, failures = sum(lat), ev.failures
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    env = environment()
    head = ev.digest(DIGEST_OPS[args.workload])
    remember_digest(ctx, args, env, head)
    probe = hopf_probe(args, ctx, program, env)

    n = len(lat)
    p90 = percentile_90(lat) if n >= 2 else lat[0]
    metrics = {
        "throughput_ops_s": (n / busy, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    beyond = sum(1 for x in lat if x > p90)
    print_header(args, ctx, env)
    print(f"verdicts: first {DIGEST_OPS[args.workload]} ops digest={head}; all {n} ops digest={ev.digest()}")
    print(f"throughput_ops_s {metrics['throughput_ops_s'][0]:.4f} 1/s ({n} ops in {busy:.3f} reference s, {wall:.3f} wall s)")
    print(f"latency_p50_ms {metrics['latency_p50_ms'][0]:.3f} ms ({n} samples)")
    print(f"latency_p90_ms {metrics['latency_p90_ms'][0]:.3f} ms ({n} samples, {beyond} beyond)")
    print(f"error_rate {len(failures) / n:.4f} ({len(failures)} failed / {n} attempted)")
    print(f"setup_s {metrics['setup_s'][0]:.4f} s (median of {len(samples)} samples)")
    print(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB (1 sample)")
    if beyond < 10:
        print(f"warning: only {beyond} operations lie beyond the p90 latency")
    report_failures(failures)
    report_probe(ctx, probe)
    record_result(ctx["work"], env, {"workload": args.workload, "seed": args.seed, "trace": 0,
                                     "metrics": {k: v for k, (v, _) in metrics.items()}})
    return n, failures, probe, metrics


def traced(args, ctx):
    program = workloads.Program()
    doc = workloads.read(ctx["inputs_path"])
    runner = workloads.RUNNERS[args.workload]
    tracer = Tracer()
    with tracer:
        tracer.op = "parse"
        t0 = time.process_time()
        parsed = workloads.parse(program, doc)
        parse_s = time.process_time() - t0
    ev = Evaluator(args.workload, ctx["inputs"], ctx["expect"])
    lat, _, _ = run_loop(
        runner, program, parsed, ev, seconds=args.seconds / 2, min_ops=DIGEST_OPS[args.workload]
    )
    n = len(lat)
    t_ev = Evaluator(args.workload, ctx["inputs"], ctx["expect"])
    with tracer:
        t_lat, _, t_cpu = run_loop(runner, program, parsed, t_ev, count=n, tracer=tracer)
    busy, t_busy, failures = sum(lat), sum(t_lat), ev.failures
    env = environment()
    if t_ev.digest() != ev.digest():
        raise DigestMismatch("traced and untraced runs gave different verdicts")
    remember_digest(ctx, args, env, ev.digest(DIGEST_OPS[args.workload]))
    probe = hopf_probe(args, ctx, program, env)

    metrics = tracer.layer_metrics(parse_s + t_cpu)
    metrics["tracing.overhead"] = (busy / t_busy, "ratio")
    spans_path = ctx["work"] / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans_path)
    print_header(args, ctx, env)
    print(f"verdicts: {n} ops, untraced and traced digest={ev.digest()}")
    print(f"traced {n} ops in {t_busy:.3f} reference s vs {busy:.3f} untraced; {len(tracer.spans)} spans -> {spans_path}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    report_failures(failures)
    report_probe(ctx, probe)
    record_result(ctx["work"], env, {"workload": args.workload, "seed": args.seed, "trace": 1,
                                     "metrics": {k: v for k, (v, _) in metrics.items()}})
    return n, failures, probe, metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "fraccore" / "__init__.py").is_file():
        print(f"perfbench: no fraccore sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    inputs, expect = gen.generate(args.workload, args.seed, POOL[args.workload])
    text = gen.canonical({"workload": args.workload, "seed": args.seed, "ops": inputs})
    inputs_path = work / f"inputs-{args.workload}-{args.seed}.json"
    inputs_path.write_text(text, encoding="utf-8")
    ctx = {
        "src": src,
        "work": work,
        "inputs": inputs,
        "expect": expect,
        "inputs_path": inputs_path,
        "input_digest": sha(text),
        "program_digest": source_digest(src),
    }
    try:
        n, failures, probe, metrics = (traced if args.trace else untraced)(args, ctx)
    except DigestMismatch as exc:
        print(f"perfbench: digest mismatch: {exc}", file=sys.stderr)
        return 1
    correct = not failures and all(known for *_, known in probe)
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
