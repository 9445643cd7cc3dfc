"""Golden bytes: every scenario at its defaults reproduces the pinned output.

The SHA-256 pins live in ``perfbench/digests.json`` (workload ``study_all``,
seed 0), the same file the benchmark checks its runs against, so a change
that reorders float operations or draws fails here as well as there.
"""

import hashlib
import json
from pathlib import Path

import pytest

from prestigesim import SCENARIOS

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
PINNED = json.loads(DIGESTS.read_text(encoding="utf-8"))["study_all"]["0"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_output_matches_pinned_digest(name):
    result = SCENARIOS[name](seed=0)
    assert sha256(result.csv_text()) == PINNED[f"{name}.csv"]
    assert sha256(result.summary_text()) == PINNED[f"{name}_summary.txt"]
