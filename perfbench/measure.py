"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/measure.py --seeds 1-10
    python3 perfbench/measure.py --seeds 1-10 --write-baseline

For every workload in ``BENCHMARK.json`` this runs ``run.py`` once per
seed with tracing off, for ``run_seconds``, one after another, and prints
each end-to-end metric's median, quartiles and spread: the distance
between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the bound in ``BENCHMARK.json``.  It exits 1 if a run
failed a check or a spread exceeds its bound.

``--write-baseline`` also makes one traced run per workload (first seed)
and writes ``perfbench/baseline.json``: an environment stamp, the
layer-to-end-to-end map, and every number measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def environment() -> dict[str, object]:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(), "git_commit": commit}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    baseline: dict[str, dict] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run(workload, seed, seconds, 0) for seed in seeds]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        ok &= failed == 0 and all(r["correct"] for r in results)
        print(f"{workload}: {len(seeds)} runs, seeds {args.seeds}, "
              f"{failed} of {attempted} checks failed")
        entry: dict[str, dict] = {"end_to_end": {}}
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            within = s["spread"] <= bound
            ok &= within
            print(f"  {name:14s} median {s['median']:12.4f} {s['unit']:3s} "
                  f"q1 {s['q1']:12.4f} q3 {s['q3']:12.4f} spread {s['spread']:.4f} "
                  f"(bound {bound}, third {bound / 3:.4f}){'' if within else '  OVER'}")
        if args.write_baseline:
            traced = run(workload, seeds[0], seconds, 1)
            ok &= traced["correct"]
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        baseline[workload] = entry

    if args.write_baseline:
        env = environment()  # puts src on sys.path, which tracing imports from
        import tracing

        doc = {"environment": env, "run_seconds": seconds, "seeds": args.seeds,
               "layer_map": tracing.LAYER_MAP, "workloads": baseline}
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print("wrote perfbench/baseline.json")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
