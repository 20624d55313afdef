"""torusq benchmark: time to verdict, set-up time, peak memory and per-layer
timings on three workloads.

One run of one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload physical-n64 --seed 1 --seconds 30 --trace 0

prints each metric by name and unit, then, as its last line, one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics (setup_s, verdict_s, peak_rss_mb); --trace 1 reports the
per-layer metrics of a separate traced run.

Every workload, untraced then traced, with the tracing overhead:

    python3 perfbench/run.py --all --seed 1 --seconds 30

perfbench/ sits at the root of a torusq source tree: the package is imported
from src/ beside it, and the command fails if that is not there.  Outputs
(result records and span files) go to .perfbench/ at the root.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
OUTDIR = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 9
SETUP_PROBE = "import torusq, torusq.cli"

END_TO_END = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MB"}


def environment(seed: int) -> tuple[dict, dict]:
    """Child environment with the checkout's src first and BLAS/OpenMP
    threads pinned to the CPUs this process may use; and its record."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(nproc)
    record = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": nproc,
        "threads": {var: env[var] for var in THREAD_VARS},
        "seed": seed,
    }
    return env, record


def measure_setup(env: dict) -> float:
    """Median wall time for a fresh interpreter to import torusq and its CLI.
    One untimed run first fills the bytecode cache, as a user's would be."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT, check=True)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_worker(workload: str, seed: int, seconds: float, trace: bool, size: str,
               env: dict) -> tuple[dict, float]:
    """Run the workload in a child process; return its result and the child's
    peak resident set in MB (getrusage of that child, via wait4)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--size", size, "--outdir", str(OUTDIR)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), usage.ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns the result object and extra detail."""
    env, record = environment(seed)
    OUTDIR.mkdir(exist_ok=True)
    setup_s = None if trace else measure_setup(env)
    result, peak_mb = run_worker(workload, seed, seconds, trace, size, env)
    src = str((ROOT / "src" / "torusq").resolve())
    if result["torusq"] != src:
        raise RuntimeError(f"measured torusq at {result['torusq']}, expected {src}")
    if trace:
        metrics = {name: {"value": result["layers"].get(name, 0.0),
                          "unit": tracer.metric_unit(name)} for name in tracer.metric_names()}
        metrics["traced.verdict_s"]["value"] = result["verdict_s"]
    else:
        values = {"setup_s": setup_s, "verdict_s": result["verdict_s"], "peak_rss_mb": peak_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    summary = {"correct": result["correct"], "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    detail = {"workload": workload, "trace": int(trace), "size": size, "env": record,
              "operations": result["operations"], "known_faults": result["known_faults"],
              "problems": result["problems"]}
    (OUTDIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**summary, **detail}, indent=1))
    return {"summary": summary, "detail": detail}


def report(run: dict) -> None:
    summary, detail = run["summary"], run["detail"]
    print(f"workload {detail['workload']} trace={detail['trace']} "
          f"operations={detail['operations']} env={json.dumps(detail['env'])}")
    for name, m in summary["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted = {summary['attempted']}, failed = {summary['failed']}, "
          f"correct = {summary['correct']}")
    for name in detail["known_faults"]:
        print(f"  known fault: {name} reports FAIL on correct mathematics (see README.md)")
    for problem in detail["problems"]:
        print(f"  PROBLEM: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if not (ROOT / "src" / "torusq" / "__init__.py").is_file():
        sys.stderr.write(f"error: no torusq source at {ROOT / 'src' / 'torusq'}; "
                         "run from the root of a torusq checkout\n")
        return 2
    if args.workload:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        report(run)
        print(json.dumps(run["summary"]))
        return 0
    overall = {}
    for workload in workloads.WORKLOADS:
        plain = measure(workload, args.seed, args.seconds, False)
        traced = measure(workload, args.seed, args.seconds, True)
        report(plain)
        report(traced)
        overhead = (traced["summary"]["metrics"]["traced.verdict_s"]["value"]
                    - plain["summary"]["metrics"]["verdict_s"]["value"])
        print(f"  tracing overhead = {overhead:.6g} s per operation")
        overall[workload] = {"untraced": plain["summary"], "traced": traced["summary"],
                             "trace_overhead_s": overhead}
    print(json.dumps(overall))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
