#!/usr/bin/env python3
"""Benchmark for fermi1d, run from the root of a source checkout.

    python3 perfbench/run.py --workload closed_forms --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is a seeded closed loop with one client (see workloads.py).
With --trace 0 it prints the end-to-end metrics; with --trace 1 a separate
run times each layer through wrappers (tracing.py) and prints the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  The package runs from
`src/` with PYTHONPATH, because it is not installed; without `src/` the
benchmark exits 2 and prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("closed_forms", "site_arrays", "memory_protocol", "cli_oneshot")
SETUP_RUNS = 5          # set-ups per run; setup_s is their median
DEADLINE_S = 170.0      # one workload, set-ups included
# OpenBLAS threads, pinned so that dense solves time the same on every
# run.  One thread was steadier than two on a 2-core machine shared with
# other load, and leaves a core to the rest of the system.
BLAS_THREADS = 1

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_share": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.main.self_s": "s",
    "cli.calls": "count",
    "pointcore.busy_s": "s",
    "pointcore.calls": "count",
    "pointcore.points": "count",
    "pointcore.ns_per_point": "ns",
    "pointcore.flagged": "count",
    "channels.assemble_system.busy_s": "s",
    "channels.solve_scattering.self_s": "s",
    "channels.full_s_matrix.busy_s": "s",
    "channels.dense_bytes": "B-computed",
    "channels.solves": "count",
    "channels.solves_per_s_matrix": "solves/matrix",
    "channels.flagged": "count",
    "channels.max_flux_residual": "dimensionless",
    "qmemory.write.busy_s": "s",
    "qmemory.reset.busy_s": "s",
    "qmemory.read_clean.busy_s": "s",
    "qmemory.scatter_events": "count",
    "qmemory.failed": "count",
    "qmemory.max_recovery_error": "dimensionless",
    "verify.resolvent_closed.busy_s": "s",
    "verify.resolvent_integral.busy_s": "s",
    "verify.ode.busy_s": "s",
    "verify.log_reduction.busy_s": "s",
    "verify.transfer_matrix.busy_s": "s",
    "verify.pointcore_calls": "count",
    "trace.overhead_share": "fraction",
}


class BenchError(Exception):
    pass


def _worker(name, seed, seconds, trace, setup_only, deadline) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the worker started")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} worker did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def _tail(lat_ms: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with ten samples beyond it."""
    lat = sorted(lat_ms)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def run_workload(name, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(_worker(name, seed, seconds, trace, True,
                                  deadline)["setup_s"])
    res = _worker(name, seed, seconds, trace, False, deadline)
    setups.append(res["setup_s"])
    attempted = len(res["latencies_s"])
    failed = res["failed"]
    print("environment " + json.dumps(res["environment"], sort_keys=True))
    print(f"workload {name} seed {seed}: request mix "
          + json.dumps(res["mix"], sort_keys=True))
    for problem in res["failures"]:
        print(f"  FAILED {problem}")
    if trace:
        metrics = {k: {"value": res["layers"][k], "unit": u}
                   for k, u in PER_LAYER.items()}
        print(f"  traced passes {res['passes']}; spans in "
              f".bench_work/spans-{name}.jsonl")
        from tracing import BLIND_SPOTS
        for note in BLIND_SPOTS:
            print(f"  not traced: {note}")
    else:
        lat = res["latencies_s"]
        tail, pct = _tail([t * 1e3 for t in lat])
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput_rps": attempted / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_tail_ms": tail,
            "success_share": 1.0 - failed / attempted,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in metrics.items()}
        print(f"  {attempted // res['repetitions']} requests x "
              f"{res['repetitions']} repetitions in {sum(lat):.2f} s of "
              f"request time; setup_s is the median of {len(setups)} "
              f"set-ups; latency_tail_ms is p{pct:.1f} of all {attempted} "
              f"samples; failed_share {failed / attempted:g} ({failed} of "
              f"{attempted}); peak_rss_mb is " + res["rss_of"])
    for key, m in metrics.items():
        print(f"  {key} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fermi1d" / "cli.py").is_file():
        print(f"fermi1d sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
