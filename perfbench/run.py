"""REMI benchmark: cold batch mining, hot fleet serving and write churn.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --short          # all workloads, tiny sizes

``--trace 0`` runs the workload and prints its end-to-end metrics;
``--trace 1`` runs the traced replay (``tracing.py``) and prints the
per-layer metrics instead.  Either way the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``,
after a human-readable report.  Every reply is checked against a cold
``REMI`` on the same triples (``reference.py``); any divergence prints
``"correct": false`` and exits 1.  The program is built from ``src/`` of
the checkout; without it the benchmark exits 2 and prints no result.

The benchmark makes itself the subreaper of everything it starts
(``sut.adopt_orphans``) and, on every way out, waits for each of those
processes to end (``sut.reap_all``) before it prints its result.

``--short`` is the benchmark's own test: each workload untraced and
traced at tiny sizes, checking that every metric is present, positive
and finite, and that no reply diverged.

``BENCHMARK.json`` lists batch-cold and serve-hot only.  serve-churn runs
and is checked like the others, but it is too unsteady for a regression
bound: a 15 s run serves about 1 000 reads, its median read falls in the
sparse stretch between warm reads (1–2 ms) and reads that find their set
cold after an update (5–40 ms), and ``p50_ms`` moved by 0.24–0.41 of its
median (interquartile range) over runs of one build on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("batch-cold", "serve-hot", "serve-churn")


def run_workload(name: str, seed: int, seconds: float, trace: bool, short: bool):
    """Run one workload in a fresh work directory; returns (result, report)."""
    import workloads
    import tracing

    sizes = workloads.SHORT if short else workloads.FULL
    workdir = ROOT / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if trace:
            return tracing.run_traced(name, SRC, workdir, seed, seconds, sizes)
        if name == "batch-cold":
            outcome = workloads.run_batch_cold(SRC, workdir, seed, seconds, sizes)
        else:
            outcome = workloads.run_serve(SRC, workdir, seed, seconds, sizes, churn=name == "serve-churn")
        return untraced_result(outcome, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def untraced_result(outcome, workloads):
    values = workloads.metrics(outcome)
    lines = [f"workload {outcome.workload}: {json.dumps(outcome.facts)}"]
    lines += [f"  {name:16s} {value:14.6f} {unit}" for name, (value, unit) in values.items()]
    lines += [f"  {name:16s} {value:14.6f} {unit}" for name, (value, unit) in workloads.printed(outcome).items()]
    if len(outcome.blocks) > 1:
        lines.append("  blocks (req/s, p50 ms, p99 ms, MB): " + "; ".join(
            f"{b.completed / b.wall:.1f}, {workloads.statistics.median(b.reads) * 1000:.4f}, "
            f"{workloads.percentile(b.reads, 99) * 1000:.3f}, {b.rss_mb:.1f}" for b in outcome.blocks))
    lines.append(f"  attempted {outcome.attempted}, unknown {outcome.unknown} (spurious {outcome.spurious_unknown}), errors {outcome.errors} {outcome.error_codes}")
    if outcome.fleet:
        lines.append(f"  fleet {json.dumps(outcome.fleet)}")
    lines += [f"  DIVERGENCE {d}" for d in outcome.divergences[:20]]
    result = {
        "correct": not outcome.divergences,
        "attempted": outcome.attempted,
        "failed": outcome.errors,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    return result, lines


def self_test(seconds: float) -> int:
    """Every workload, untraced and traced, at tiny sizes."""
    failures = []
    for name in WORKLOADS:
        for trace in (False, True):
            result, lines = run_workload(name, 1, seconds, trace, short=True)
            print("\n".join(lines))
            label = f"{name} trace={int(trace)}"
            if not result["correct"]:
                failures.append(f"{label}: divergence")
            for metric, entry in result["metrics"].items():
                value = entry["value"]
                if not (isinstance(value, (int, float)) and math.isfinite(value)):
                    failures.append(f"{label}: {metric} = {value!r}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="self-test at tiny sizes")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.short:
        parser.error("--workload is required (or --short)")
    sys.path[:0] = [str(HERE), str(SRC)]
    import sut

    sut.adopt_orphans()
    try:
        if args.short:
            return self_test(min(args.seconds, 2.0))
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), short=False)
    finally:
        sut.reap_all()
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
