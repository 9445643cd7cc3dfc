"""Smoke test of the benchmark itself, at tiny sizes, so the harness cannot rot.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.prepare()
import tracing  # noqa: E402
import workloads  # noqa: E402
from prestigesim import chain  # noqa: E402
from prestigesim.errors import DuplicateTask  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(workload: str, trace: int, out: Path, pins: dict[str, str] | None = None):
    """One run of run.py's measuring loop, in process, at the tiny size."""
    args = run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0",
                           "--trace", str(trace), "--size", "tiny"])
    tally = run.Tally(pins or {})
    measure = run.run_traced if trace else run.run_untraced
    metrics, _ = measure(workloads.make(workload, 3, "tiny", out), args, tally)
    return tally, metrics


def test_benchmark_json_names_the_workloads_run_py_knows():
    assert WORKLOADS == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    tally, metrics = bench(workload, 0, tmp_path)
    assert tally.attempted > 0 and tally.failed == 0
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_self_times_add_up(workload, tmp_path):
    runs = [bench(workload, 1, tmp_path) for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for tally, metrics in runs:
        assert tally.failed == 0
        assert {k: v["unit"] for k, v in metrics.items()} == expected
        values = {k: v["value"] for k, v in metrics.items()}
        self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert math.isclose(self_total + values["unattributed_s"], values["traced_wall_s"],
                            rel_tol=1e-9)
    counts = [{k: v["value"] for k, v in m.items() if tracing.unit_of(k) in ("count", "bytes")}
              for _, m in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    assert not hasattr(chain.submit_ack, "__wrapped__")  # originals restored


def test_wrong_pinned_digest_counts_as_failure(tmp_path):
    tally, _ = bench("chain_blocks", 0, tmp_path, pins={"final_snapshot": "0" * 64})
    assert tally.failed == 1
    tally, _ = bench("study_all", 0, tmp_path, pins={"file_distribution.csv": "0" * 64})
    assert tally.failed == 1


def test_broken_coin_identity_counts_as_failure(tmp_path, monkeypatch):
    advance = chain.advance_block

    def minting_a_stray_coin(state):
        state, block = advance(state)
        acct = state.accounts[block.minter]
        state.accounts[block.minter] = type(acct)(acct.id, acct.coins + 1, acct.prestige,
                                                  acct.verification_key)
        return state, block

    monkeypatch.setattr(chain, "advance_block", minting_a_stray_coin)
    tally, _ = bench("chain_blocks", 0, tmp_path)
    assert tally.failed > 0


def test_accepted_replay_counts_as_failure(tmp_path, monkeypatch):
    submit = chain.submit_ack

    def accepting_replays(state, ack, beneficiary=None):
        try:
            return submit(state, ack, beneficiary)
        except DuplicateTask:
            return state

    monkeypatch.setattr(chain, "submit_ack", accepting_replays)
    tally, _ = bench("chain_blocks", 0, tmp_path)
    assert tally.failed > 0


def test_command_line_prints_json_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "chain_blocks", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "chain_blocks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_traced_run_compares_counts_of_two_repetitions(tmp_path, monkeypatch):
    load = chain.load_snapshot
    per_repetition = workloads.SIZES["tiny"].blocks // workloads.SIZES["tiny"].snapshot_every
    traced_loads = []

    def one_more_save_after_the_first_repetition(text):
        state = load(text)
        if hasattr(chain.save_snapshot, "__wrapped__"):  # inside a traced repetition
            traced_loads.append(text)
            if len(traced_loads) > per_repetition:
                chain.save_snapshot(state)
        return state

    monkeypatch.setattr(chain, "load_snapshot", one_more_save_after_the_first_repetition)
    tally, _ = bench("chain_blocks", 1, tmp_path)
    assert len(traced_loads) >= 2 * per_repetition
    assert tally.failed == 1
