"""Recompute ``perfbench/digests.json``: the SHA-256 of every output each
workload produces at full size, per seed.

    python3 perfbench/pin_digests.py --seeds 0-15

The benchmark counts any output that differs from its pinned digest as a
failed check, so run this only when a change to prestigesim's output is
deliberate, and list that change in CHANGES.md.  A seed whose run fails
any other check is not pinned.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import run
from measure import parse_seeds

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-15", help="inclusive range, e.g. 0-15")
    args = parser.parse_args(argv)
    if not run.prepare():
        print("pin_digests: run inside a prestigesim checkout", file=sys.stderr)
        return 2
    import workloads

    pins: dict[str, dict[str, dict[str, str]]] = {}
    out = run.OUT / "pin"
    try:
        for name in run.WORKLOADS:
            pins[name] = {}
            for seed in parse_seeds(args.seeds):
                outcome = workloads.make(name, seed, "full", out).run_once()
                if outcome.failed:
                    print(f"{name} seed {seed}: {outcome.failed} checks failed; not pinned",
                          file=sys.stderr)
                    return 1
                pins[name][str(seed)] = outcome.digests
                print(f"{name} seed {seed}: pinned {len(outcome.digests)} digests", flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    (HERE / "digests.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
