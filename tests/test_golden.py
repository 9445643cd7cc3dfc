"""Golden bytes: every scenario at its defaults reproduces the pinned output.

The SHA-256 pins live in ``perfbench/digests.json`` (workload ``study_all``,
seed 0), the same file the benchmark checks its runs against, so a change
that reorders float operations or draws fails here as well as there. One
fixed chain history is pinned here too: what each submit returns, what
each block settles and the final snapshot bytes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from prestigesim import (
    SCENARIOS,
    ChainState,
    PrestigeError,
    SystemParams,
    advance_block,
    extend_path_ack,
    keygen,
    load_snapshot,
    make_root_ack,
    make_simple_ack,
    register_motivator_reward,
    save_snapshot,
    setup,
    submit_ack,
)

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
# the file-distribution fee/branch grid re-runs, a single-tree
# ``dag_study`` with its modes reversed, ``theorem_checks`` at 200
# conservation and collusion instances (the default runs 50 of each), and
# ``decay`` with its own users, spike and length, and the batched grid and
# trial paths at sizes the defaults miss: ``gain_vs_decay`` and ``tradeoff``
# on unsorted grids, ``theorem_checks`` at 10000 trials (many 8-part
# splits).  Pinned here rather than in ``perfbench/digests.json``, which
# holds only the benchmark's own runs.
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
    ("theorem_checks", dict(seed=1, trials=2000),
     "ba8ccc2117528347504a3b4ca214f2c811dce9afad3a8f7298f2f7d58c3b53b1",
     "65ddc721d9bdf2dd8b755d9e5c2ad8ed3642b22d8dc3795ea9b8a776490ab4f9"),
    ("decay",
     dict(seed=4, blocks=260, users=((7, 0.5), (120, 0.02), (0, 0.9), (33, 0.25)), spike=37.5),
     "b66ed4960ed52adfffd233171e9e5acb20226d2ee06fe56345f1fb459e8f8872",
     "88589db21f820181d31c0d46736117ef40bf85a724f91b5ba48d627ba36549d7"),
    ("gain_vs_decay", dict(decay_grid=(0.5, 0.02), injections=(3.0, 0.0, 7.5), blocks=500),
     "1e0358740ea8d0febda74c06805e1143b0577eaa1b6e6854f62cb1b2cb7f9e42",
     "b7ca3b10ade79cbe25983ea6a5e0ce7b7a655a5c072fab3d01757be3c8f7cd7d"),
    ("tradeoff", dict(seed=2, blocks=150, decay_grid=(0.7, 0.05, 0.3)),
     "e291620b31d11aa97c79d521b3c0e912567e33ada011571a46fda62ed205c47e",
     "b9aa56bf1df70d82c6f20581b34600e845f3988dcbc260c5fc81c8c3921e8079"),
    ("theorem_checks", dict(seed=0, trials=10000),
     "945f64a82df414d73a41875befb65a1dcbe673b695465d6552ec2e4ce2e9fba8",
     "1624fdac12b9f8a9e5e2f8bee9c0eadb0473e608b705ccdb0e15dda1dc9a2bf3"),
]


def pin_ids(cases):
    """Each case's scenario name, with ``-2``, ``-3``, ... on a repeated name."""
    seen: dict[str, int] = {}
    ids = []
    for name, *_ in cases:
        seen[name] = seen.get(name, 0) + 1
        ids.append(name if seen[name] == 1 else f"{name}-{seen[name]}")
    return ids


@pytest.mark.parametrize(
    "name, kwargs, csv_digest, summary_digest", NON_DEFAULT_PINS,
    ids=pin_ids(NON_DEFAULT_PINS),
)
def test_non_default_output_matches_pinned_digest(name, kwargs, csv_digest, summary_digest):
    result = SCENARIOS[name](**kwargs)
    assert sha256(result.csv_text()) == csv_digest
    assert sha256(result.summary_text()) == summary_digest


# --- chain ---------------------------------------------------------------------

def chain_history():
    """Run a fixed four-block history; return per-block pins and the final snapshot.

    It covers the block subsidy, acknowledgment fees and a motivator; root
    acks; joins, one extending a path still queued in the same block;
    simple acks with and without the beneficiary hint; exact replays; a
    path naming a node placed elsewhere; a path reusing one task id on two
    hops; submits refused for the fee; and a snapshot round trip.
    """
    names = ("r1", "r2", "A", "B", "C", "D", "E", "F", "G", "m")
    kp = {n: keygen(setup(128), n) for n in names}
    coins = dict(r1=40, r2=30, A=20, B=12, C=9, D=6, E=5, F=4, G=1, m=50)
    state = ChainState.genesis(
        list(coins.items()), SystemParams(decay=0.25, branch_power=0.5),
        rng_seed=11, subsidy=3, ack_fee=2,
    )
    register_motivator_reward(state, "m", coins_per_block=4, duration_blocks=3)

    def task(n):
        return hashlib.sha256(b"golden-%d" % n).digest()

    def join(prev, node, n, amount):
        return extend_path_ack(prev, kp[node], task(n), kp[node].vk, amount)

    root1, root2 = make_root_ack(kp["r1"], task(1)), make_root_ack(kp["r2"], task(2))
    path_a = join(root1, "A", 3, 7)
    path_b = join(path_a, "B", 4, 5)  # extends path_a while it is still queued
    hinted = make_simple_ack(kp["A"], task(5), kp["C"].vk, 3)
    bare = make_simple_ack(kp["m"], task(6), kp["D"].vk, 4)
    path_c = join(path_b, "C", 7, 2)  # the r1, A and B hops are already settled
    path_e = join(join(root2, "D", 8, 3), "E", 8, 2)  # task 8 twice: D's hop settles it
    path_f = join(path_e, "F", 10, 6)
    blocks = [
        [(root1, None), (root2, None), (path_a, None), (path_b, None), (hinted, "A"),
         (bare, None), (path_a, None), (hinted, "A")],
        [(path_c, None), (path_e, None), (join(root1, "C", 9, 1), None), (bare, None),
         (make_simple_ack(kp["C"], task(11), kp["r2"].vk, 6), "C")],
        [(path_f, None), (make_simple_ack(kp["r1"], task(12), kp["F"].vk, 9), None),
         (path_e, None),
         # G holds 1 coin against a fee of 2, so these two are refused and
         # task 13 stays free for the third
         (make_simple_ack(kp["r1"], task(13), kp["G"].vk, 1), None),
         (join(path_f, "G", 14, 1), None),
         (make_simple_ack(kp["G"], task(13), kp["C"].vk, 1), "G")],
        [],
    ]
    pins = []
    for k, submits in enumerate(blocks):
        outcomes = []
        for ack, hint in submits:
            try:
                submit_ack(state, ack, hint)
                outcomes.append("accepted")
            except PrestigeError as exc:
                outcomes.append(type(exc).__name__)
        state, block = advance_block(state)
        records = tuple(
            (r.beneficiary, r.contributor, repr(r.amount), r.mode.value,
             tuple((n, repr(a)) for n, a in r.retained_by))
            for r in block.processed_acks
        )
        pins.append((tuple(outcomes), sha256("\n".join(block.ack_hexes)), records))
        if k == 0:
            text = save_snapshot(state)
            state = load_snapshot(text)
            assert save_snapshot(state) == text
    return pins, save_snapshot(state)


CHAIN_BLOCK_PINS = [
    (("accepted", "accepted", "accepted", "accepted", "accepted", "accepted",
      "DuplicateTask", "DuplicateTask"),
     "37d7ecf4ee4cd1ed6928c08091a2b953f9541597af318781af4343bf87fc229b",
     (("A", "r1", "7.0", "progressive", (("r1", "7.0"),)),
      ("B", "A", "5.0", "progressive",
       (("A", "1.6417910447761195"), ("r1", "3.3582089552238807"))),
      ("A", "C", "3.0", "simple", (("C", "3.0"),)),
      ("m", "D", "4.0", "simple", (("D", "4.0"),)))),
    (("accepted", "accepted", "InvalidSignature", "DuplicateTask", "accepted"),
     "c51aa6e466419af54b2d0ee9f141dac421f48e61ccacef402512567fdeec49ac",
     (("C", "B", "2.0", "progressive",
       (("B", "0.3767123287671233"), ("A", "0.5699206247599541"),
        ("r1", "1.0533670464729226"))),
      ("D", "r2", "3.0", "progressive", (("r2", "3.0"),)),
      ("C", "r2", "6.0", "simple", (("r2", "6.0"),)))),
    (("accepted", "accepted", "DuplicateTask", "InsufficientFunds", "InsufficientFunds",
      "accepted"),
     "f627bedf6fc5a66e0cde1a9a9a5367c127dd98183b620b9ee12183692511f652",
     (("F", "E", "6.0", "progressive",
       (("E", "1.036144578313253"), ("D", "1.0616338185110383"),
        ("r2", "3.9022216031757084"))),
      ("r1", "F", "9.0", "simple", (("F", "9.0"),)),
      ("G", "C", "1.0", "simple", (("C", "1.0"),)))),
    ((), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", ()),
]
CHAIN_FINAL_SNAPSHOT = "2fbbea5f139d799879ed2c4d8da08b73f7fae6f262a28556a2c3a1ed113cc2f4"


def test_chain_history_matches_pinned_blocks_and_snapshot():
    pins, final = chain_history()
    assert pins == CHAIN_BLOCK_PINS
    assert sha256(final) == CHAIN_FINAL_SNAPSHOT
