"""Runs one workload in its own process and prints one JSON line.

Started by run.py; not meant to be run by hand.  Closed loop: one client,
and the next operation starts when the previous one has been checked.
Operations repeat until the run has lasted about --seconds (at least one).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import tracer
import workloads


def run(workload: str, seed: int, seconds: float, trace: bool, size: str, outdir: Path) -> dict:
    import torusq

    wl = workloads.WORKLOADS[workload](seed, size, trace, outdir)
    t = None
    if trace and wl.in_process:
        t = tracer.Tracer()
        missing = tracer.install(t)
        if missing:
            sys.stderr.write(f"worker: not traced (missing): {', '.join(missing)}\n")
    times, layers = [], []
    attempted = failed = 0
    known, problems = set(), []
    start = time.perf_counter()
    while True:
        if t is not None:
            t.begin_op()
        t0 = time.perf_counter()
        out = wl.operation()
        times.append(time.perf_counter() - t0)
        if t is not None:
            t.end_op()
            layers.append(t.summary(len(times) - 1))
        elif trace:
            layers.append(wl.layers())
        a, f, k, p = wl.check(out)
        attempted += a
        failed += f
        known.update(k)
        problems += p
        # Start another operation only if it should end nearer the target
        # length than stopping now would.
        if time.perf_counter() - start + 0.5 * statistics.median(times) >= seconds:
            break
    if t is not None:
        t.write(outdir / f"spans-{workload}.json")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "operations": len(times),
        "verdict_s": statistics.median(times),
        "known_faults": sorted(known),
        "problems": problems[:20],
        "torusq": str(Path(torusq.__file__).resolve().parent),
    }
    if trace:
        result["layers"] = tracer.median_summary(layers)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--outdir", type=Path, required=True)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, args.outdir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
