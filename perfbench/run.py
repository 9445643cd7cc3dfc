"""Run one workload of the prestigesim benchmark and print its metrics.

    python3 perfbench/run.py --workload chain_blocks --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a prestigesim checkout; it imports the package
from the checkout's ``src`` directory, so nothing needs installing.  Each
run sets the workload up from ``--seed`` (the same seed gives the same
inputs), then repeats the workload's timed part, one call after another,
until ``--seconds`` have passed (at least once), checking every output.

``--trace 0`` reports the end-to-end metrics: ``wall_per_ref`` (median, over
repetitions, of one repetition's timed part divided by the time of a fixed
pure-Python reference loop run just before and after it), ``setup_s``
(median, over fresh interpreters, of the time from process start to the
first timed call) and ``peak_rss_mb``.  Dividing by the reference loop
cancels the speed swings of a shared host, which move every repetition's
seconds by 20-50 % over tens of seconds; the seconds themselves are printed
for people.  ``--trace 1`` alternates untraced and traced repetitions, at
least two of each, and reports the per-layer metrics of the traced ones
(see ``tracing.py``); all spans are written to ``.perfbench_out/`` in the
checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
checks that did not hold: a CLI exit code other than 0, an output digest
that differs from the pinned one (``digests.json``) or from the first
repetition's, a scenario verdict or chain invariant that broke, an honest
ack rejected or a replay accepted.  The lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("study_all", "chain_blocks")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5  # fresh interpreters timed for setup_s
REFERENCE_LOOPS = 300_000  # about 50 ms of pure Python on a 2 vCPU cloud host

clock = time.perf_counter


def prepare() -> bool:
    """Pin BLAS/OpenMP threads to 1 and put the checkout's ``src`` first on sys.path.

    Returns False when the checkout holds no prestigesim sources.  Call it
    before anything imports numpy.
    """
    if not (SRC / "prestigesim" / "__init__.py").is_file():
        return False
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return True


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the inputs for the benchmark's self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready <epoch seconds>', exit")
    return parser.parse_args(argv)


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh interpreter to the workload being set up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-only"]
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    word, _, stamp = proc.stdout.strip().partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return float(stamp) - started


def load_pins(workload: str, seed: int, size: str) -> dict[str, str]:
    """Pinned output digests for this workload and seed at full size, if any."""
    if size != "full":
        return {}
    pins = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return pins.get(workload, {}).get(str(seed), {})


class Tally:
    """Checks attempted and failed over a run, and the first repetition's digests."""

    def __init__(self, pins: dict[str, str]) -> None:
        self.pins = pins
        self.first: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0

    def add(self, outcome) -> None:
        expected = self.pins or self.first or {}
        for key, digest in outcome.digests.items():
            if key in expected:
                outcome.check(digest == expected[key])
        if self.first is None:
            self.first = dict(outcome.digests)
        self.attempted += outcome.attempted
        self.failed += outcome.failed


def reference_s() -> float:
    """Seconds this host takes right now for a fixed pure-Python loop."""
    t0 = clock()
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(REFERENCE_LOOPS):
        key = i % 997
        counts[key] = counts.get(key, 0) + 1
        total += key * 0.5
    return clock() - t0


def run_untraced(workload, args, tally: Tally) -> tuple[dict, list[str]]:
    walls: list[float] = []
    refs = [reference_s()]
    latencies: dict[str, list[float]] = {}
    deadline = clock() + args.seconds
    while not walls or clock() < deadline:
        outcome = workload.run_once()
        refs.append(reference_s())
        tally.add(outcome)
        walls.append(outcome.wall)
        for key, values in outcome.latencies.items():
            latencies.setdefault(key, []).extend(values)
    setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_per_ref": {"value": statistics.median(
            w / ((a + b) / 2) for w, a, b in zip(walls, refs, refs[1:])), "unit": "ratio"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    notes = [f"repetitions: {len(walls)}; wall_s each: "
             + " ".join(f"{w:.4f}" for w in walls),
             f"wall_s: {statistics.median(walls):.4f}; reference loop s each: "
             + " ".join(f"{r:.4f}" for r in refs),
             "setup_s probes: " + " ".join(f"{s:.4f}" for s in setup)]
    # Per-call latencies of chain_blocks, for people: the JSON line carries
    # only metrics that every workload has.
    for key, scale, unit, pcts in (("submit", 1e6, "us", (50, 99)),
                                   ("block", 1e3, "ms", (50, 90))):
        if latencies.get(key):
            values = sorted(latencies[key])
            for p in pcts:
                at = values[min(len(values) - 1, int(len(values) * p / 100))]
                notes.append(f"{key}_{unit}_p{p}: {at * scale:.3f} {unit} "
                             f"(of {len(values)} calls)")
    return metrics, notes


def run_traced(workload, args, tally: Tally) -> tuple[dict, list[str]]:
    import tracing

    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    deadline = clock() + args.seconds
    while len(traced) < 2 or clock() < deadline:  # two, so counts_repeat compares
        outcome = workload.run_once()
        tally.add(outcome)
        plain.append(outcome.wall)
        with tracer.installed():
            outcome = workload.run_once()
        tracer.end_iteration(outcome.wall)
        tally.add(outcome)
        traced.append(outcome.wall)
    tally.attempted += 1
    tally.failed += not tracer.counts_repeat()
    values = tracer.metrics()
    values["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.dump(spans)
    metrics = {name: {"value": v, "unit": tracing.unit_of(name)} for name, v in values.items()}
    notes = [f"repetitions: {len(plain)} untraced, {len(traced)} traced; "
             f"{len(tracer.start)} spans written to {spans.relative_to(ROOT)}"]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not prepare():
        print(f"perfbench: no prestigesim package under {SRC}; "
              "run inside a prestigesim checkout", file=sys.stderr)
        return 2
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    if args.setup_only:
        workloads.make(args.workload, args.seed, args.size, workdir)
        print(f"ready {time.time():.6f}", flush=True)
        return 0

    try:
        workload = workloads.make(args.workload, args.seed, args.size, workdir)
        tally = Tally(load_pins(args.workload, args.seed, args.size))
        run = run_traced if args.trace else run_untraced
        metrics, notes = run(workload, args, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, "
          f"trace {args.trace}: {tally.failed} of {tally.attempted} checks failed")
    for line in notes:
        print(f"  {line}")
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {name:48s} {shown} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
