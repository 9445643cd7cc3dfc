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


# Non-default paths the default pins never reach: progressive ``global``,
# the file-distribution fee/branch grid re-runs, and a single-tree
# ``dag_study`` with its modes reversed.  Pinned here rather than in
# ``perfbench/digests.json``, which holds only the benchmark's own runs.
NON_DEFAULT_PINS = [
    ("global", dict(seed=3, blocks=200, mode="progressive"),
     "b3009b827649e75385ded8284cc09be57c47acb648938bf9aa20b4e07096c524",
     "9ee58afd824d3a620ec4d4a0903e1cb2b5cc4fffd3b29a7476baf899283615c8"),
    ("file_distribution",
     dict(seed=1, scale=4000, fee_grid=(150.0, 600.0), branch_grid=(0.1, 2.0)),
     "810ff259f8a53cb2b2a1e0d3e9d4bc2e42c1f59760a6093066c8a4b040f990ee",
     "4527e6819e89b849e532de589621ddb1f6a7125174fc5b55359cce6810aa41be"),
    ("dag_study",
     dict(seed=2, n_users=300, n_trees=1, fanout=3, modes=("progressive", "simple")),
     "641676ace6abcabd0cd888b998d6288fb00094055eea44e2fef87fe3543f9442",
     "7b0e48f37978cc1f8700466402c4128f9f9ef81bb55f134f2c592edab16ec527"),
]


@pytest.mark.parametrize(
    "name, kwargs, csv_digest, summary_digest", NON_DEFAULT_PINS,
    ids=[case[0] for case in NON_DEFAULT_PINS],
)
def test_non_default_output_matches_pinned_digest(name, kwargs, csv_digest, summary_digest):
    result = SCENARIOS[name](**kwargs)
    assert sha256(result.csv_text()) == csv_digest
    assert sha256(result.summary_text()) == summary_digest
