#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a source checkout.

    python3 perfbench/selftest.py

1. Negative control: for each workload, run requests of its first cycle,
   assert that their outputs pass the check, then perturb each output by
   a small amount and assert that the check counts it as failed.
2. Coverage: run every workload briefly with --trace 0 and --trace 1 and
   assert that the last line has the four result keys and every metric
   named in BENCHMARK.json, with its unit.
3. A directory holding only BENCHMARK.json and perfbench/ makes run.py
   exit non-zero without printing a result.

Exits 0 when every assertion holds.  Takes about three minutes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def negative_control() -> None:
    """Runs inside a child with PYTHONPATH and BLAS threads set."""
    import workloads

    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        for name, cls in workloads.WORKLOADS.items():
            (work / name).mkdir(parents=True)
            wl = cls(work / name, seed=3)
            cycle = wl.cycle()
            wl.prepare(cycle)
            picked = cycle if name == "cli_oneshot" else [
                r for r in cycle if r.warm]
            caught = 0
            for req in picked:
                data = wl.load(req, wl.execute(req))
                problems = wl.check(req, data)
                assert not problems, f"{name} {req.kind}: {problems}"
                if data is None:        # a flagged resonance: nothing to spoil
                    continue
                assert wl.check(req, wl.perturb(req, data)), \
                    f"{name} {req.kind}: perturbed output passed the check"
                caught += 1
            assert caught, f"{name}: no request was perturbed"
            print(f"negative control {name}: {caught} perturbed outputs "
                  "counted as failed")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=300)


def coverage() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, wl["name"], trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, result
            expected = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == expected, (wl["name"], trace, got, expected)
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values())
            print(f"coverage {wl['name']} --trace {trace}: "
                  f"{len(got)} metrics with units")


def bare_directory() -> None:
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "closed_forms", 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
        print(f"bare directory: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    if sys.argv[1:] == ["--negative-control"]:
        negative_control()
        return 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = "1"
    subprocess.run([sys.executable, __file__, "--negative-control"],
                   env=env, cwd=ROOT, check=True, timeout=300)
    coverage()
    bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
