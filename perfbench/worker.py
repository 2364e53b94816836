"""One benchmark process: set up a workload, then run its timed loop or its
traced passes, and print one JSON line for run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--setup-only]

run.py starts it with PYTHONPATH and the BLAS thread count set.  The
process, and every CLI child it starts, is pinned to the first CPU it may
use, so a run stays on one CPU.  On a 2-core host shared with other load,
the p50 of identical memory_protocol runs ranged over 30% unpinned, 16%
pinned to CPU 1 and 2% pinned to CPU 0.
Set-up time runs from the top of this file, before numpy is imported, to
the start of the loop: imports, generating the cycle, preparing
references and a warm-up over the cycle's small requests.
"""

import os
import time

T0 = time.perf_counter()
PINNED_CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {PINNED_CPU})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SAMPLES = 11        # the tail percentile needs ten samples beyond it


def run_one(wl, req, tracer=None) -> tuple[float, str | None]:
    """Time one request and check its output with the clock stopped.

    The outcome is None for a correct answer, or the first problem found.
    """
    start = time.perf_counter()
    try:
        raw = wl.execute(req, tracer)
    except Exception as exc:
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        problems = wl.check(req, wl.load(req, raw))
    except Exception as exc:
        return elapsed, f"check raised {type(exc).__name__}: {exc}"
    return elapsed, problems[0] if problems else None


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.failed = 0
        self.mix: Counter = Counter()

    def add(self, req, elapsed, outcome) -> None:
        self.latencies.append(elapsed)
        self.mix[req.kind] += 1
        if outcome:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{req.kind}: {outcome}")

    def result(self) -> dict:
        return {"latencies_s": self.latencies, "failed": self.failed,
                "failures": self.failures, "mix": dict(self.mix)}


def timed(wl, cycle, seconds: float) -> dict:
    """Repeat the cycle until `seconds` have passed; keep every latency."""
    tally = Tally()
    reps = 0
    start = time.perf_counter()
    while True:
        for req in cycle:
            tally.add(req, *run_one(wl, req))
        reps += 1
        if (time.perf_counter() - start >= seconds
                and len(tally.latencies) >= MIN_SAMPLES):
            break
    usage = resource.getrusage(resource.RUSAGE_CHILDREN
                               if wl.rss_of_children
                               else resource.RUSAGE_SELF)
    return {**tally.result(), "repetitions": reps,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "rss_of": ("the largest CLI child" if wl.rss_of_children
                       else "the workload process")}


def import_times() -> dict:
    """Cumulative import times from `python -X importtime` in a fresh
    process: all of `fermi1d.cli`, and its scipy share."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import fermi1d.cli"],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=60, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return {"cli.import_s": cumulative["fermi1d.cli"],
            "cli.import_scipy_s": (cumulative.get("scipy.optimize", 0.0)
                                   + cumulative.get("scipy.integrate", 0.0))}


def traced(wl, cycle, seconds: float, spans_path: Path) -> dict:
    """Pairs of passes over the cycle, untraced then traced.

    Every pass runs the same requests, so counts repeat exactly; times
    are medians over the traced passes.
    """
    from tracing import Tracer, layer_metrics, median_metrics

    tracer = Tracer()
    tally = Tally()
    passes, overheads = [], []
    start = time.perf_counter()
    while True:
        plain = 0.0
        for req in cycle:
            elapsed, outcome = run_one(wl, req)
            tally.add(req, elapsed, outcome)
            plain += elapsed
        tracer.spans = []
        tracer.install()
        try:
            with_trace = 0.0
            for rid, req in enumerate(cycle):
                tracer.request = rid
                elapsed, outcome = run_one(wl, req, tracer)
                tally.add(req, elapsed, outcome)
                with_trace += elapsed
        finally:
            tracer.uninstall()
        passes.append(layer_metrics(tracer.spans))
        overheads.append(with_trace / plain - 1.0)
        if time.perf_counter() - start >= seconds:
            break
    tracer.dump(spans_path)
    layers = median_metrics(passes)
    layers.update(import_times())
    layers["trace.overhead_share"] = statistics.median(overheads)
    return {**tally.result(), "layers": layers, "passes": len(passes)}


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")[
                "Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_numpy": blas(numpy), "openblas_scipy": blas(scipy),
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "pinned_cpu": PINNED_CPU, "cpu": cpu}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        import workloads

        wl = workloads.WORKLOADS[args.workload](work, args.seed)
        cycle = wl.cycle()
        wl.prepare(cycle)
        # Warm-up outputs are not counted: every warm request runs again,
        # and is checked, in the loop.
        for req in cycle:
            if req.warm:
                run_one(wl, req)
        result = {"setup_s": time.perf_counter() - T0}
        if not args.setup_only:
            if args.trace:
                spans = ROOT / ".bench_work" / f"spans-{args.workload}.jsonl"
                result.update(traced(wl, cycle, args.seconds, spans))
            else:
                result.update(timed(wl, cycle, args.seconds))
            result["environment"] = environment()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
