"""Complexity gates: how much Python work a layer does as its input grows.

Each gate counts the ``line`` events ``sys.settrace`` reports in frames of
the prestigesim package (comprehension iterations included) while one layer
runs at size n and at 4n, and reads the exponent log(count ratio) / log 4.
A count, unlike a wall time, is exact and the same on every host, so a
quadratic path shows at sizes in the hundreds.

Blind spot: numpy and other C loops emit no line events, so a quadratic
``set(big_list)`` or ``np.concatenate`` per call passes these gates.
"""

from __future__ import annotations

import math
import os
import sys

import prestigesim
from prestigesim import (
    ChainState,
    MiningDag,
    ScenarioResult,
    SystemParams,
    advance_block,
    extend_path_ack,
    keygen,
    load_snapshot,
    make_root_ack,
    make_simple_ack,
    run_file_distribution,
    save_snapshot,
    setup,
    submit_ack,
)

PACKAGE = os.path.dirname(prestigesim.__file__) + os.sep


def line_events(run) -> int:
    """Line events in prestigesim frames while ``run()`` runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    before = sys.gettrace()
    sys.settrace(enter)
    try:
        run()
    finally:
        sys.settrace(before)
    return count


def exponent(prepare, n: int) -> float:
    """log4 of the line-event ratio of the runs ``prepare(4n)`` and ``prepare(n)`` return."""
    small, large = line_events(prepare(n)), line_events(prepare(4 * n))
    return math.log(large / small) / math.log(4)


def simple_acks(q: int):
    """A fresh two-account chain and q simple acks from b's work paid by a."""
    state = ChainState.genesis([("a", 5), ("b", 5)], SystemParams(decay=0.5), rng_seed=1)
    payer, contributor = keygen(setup(128), "a"), keygen(setup(128), "b")
    return state, [make_simple_ack(payer, i.to_bytes(32, "big"), contributor.vk, 1) for i in range(q)]


def fill_queue(q: int):
    """Submit q simple acks, each naming its beneficiary, to a fresh two-account chain."""
    state, acks = simple_acks(q)
    return lambda: [submit_ack(state, ack, beneficiary="a") for ack in acks]


def settle_queue(q: int):
    """Mint one block that settles q queued simple acks."""
    state, acks = simple_acks(q)
    for ack in acks:
        submit_ack(state, ack, beneficiary="a")
    return lambda: advance_block(state)


def genesis(n: int) -> ChainState:
    """A height-0 chain of n keyed accounts, u0 to u{n-1}."""
    return ChainState.genesis([(f"u{i}", i % 7) for i in range(n)], SystemParams(decay=0.5),
                              rng_seed=1, subsidy=1)


def empty_block(n: int):
    """Mint one block with nothing queued over n accounts."""
    state = genesis(n)
    return lambda: advance_block(state)


def join_below(depth: int):
    """Submit a path ack one hop longer than an accepted path of *depth* hops."""
    state = genesis(depth + 1)
    keys = [keygen(setup(128), f"u{i}") for i in range(depth + 1)]
    path = make_root_ack(keys[0], bytes(32))
    for i in range(1, depth):
        path = extend_path_ack(path, keys[i], i.to_bytes(32, "big"), keys[i].vk, 1)
    submit_ack(state, path)
    join = extend_path_ack(path, keys[depth], depth.to_bytes(32, "big"), keys[depth].vk, 1)
    return lambda: submit_ack(state, join)


def save_accounts(n: int):
    """Render the snapshot of a genesis state of n accounts: no DAG or '# seen' lines."""
    state = genesis(n)
    return lambda: save_snapshot(state)


def load_accounts(n: int):
    """Load the snapshot of a genesis state of n accounts."""
    text = save_snapshot(genesis(n))
    return lambda: load_snapshot(text)


def render_rows(n: int):
    """Render n CSV rows of an int, a float and a bool column."""
    result = ScenarioResult("gate", ("i", "x", "even"),
                            ([*range(n)], [i / 7 for i in range(n)], [i % 2 == 0 for i in range(n)]))
    return result.csv_text


def walk_branch(depth: int):
    """Walk a branch of *depth* nodes from its leaf to the root."""
    dag = MiningDag().add_root("n0")
    for i in range(1, depth):
        dag.attach(f"n{i - 1}", f"n{i}")
    return lambda: dag.path_to_root(f"n{depth - 1}")


def distribute(n: int):
    """One file_distribution episode of n joins (tasks), each settled along its path."""
    return lambda: run_file_distribution(scale=1, episodes=1, viewers_range=(n, n),
                                         budget_cents=10_000)


def test_submit_ack_costs_the_same_at_any_queue_depth():
    # one submit is O(1) in the queue: filling Q acks is linear (1.0 exactly when measured);
    # a set rebuilt over the queue per call reads near 2
    assert exponent(fill_queue, 250) <= 1.15


def test_an_empty_block_does_no_python_work_per_account():
    # regeneration and the election are array expressions: about 0 (0.0 when measured)
    assert exponent(empty_block, 250) <= 0.15


def test_path_to_root_is_linear_in_depth():
    # one step per ancestor: just under 1.0 with the call's own fixed lines
    assert exponent(walk_branch, 50) <= 1.15


def test_a_block_settles_each_queued_ack_in_constant_work():
    # one settle and one record per ack: just under 1.0 with the block's fixed lines (0.99
    # when measured)
    assert exponent(settle_queue, 250) <= 1.15


def test_a_join_is_linear_in_path_depth():
    # one hash and one shape check per hop: under 1.0 with the submit's fixed lines (0.97
    # when measured)
    assert exponent(join_below, 50) <= 1.15


def test_save_and_load_are_linear_in_accounts():
    # save: one comprehension step per account line, under 1.0 with its fixed lines (0.95
    # when measured); a check of each line against every earlier one reads near 2
    assert exponent(save_accounts, 250) <= 1.15
    # load reads the account lines as one block, a column at a time, so it does no Python
    # work per account: about 0 (0.0 when measured); a loop pass per line reads near 1
    assert exponent(load_accounts, 250) <= 0.15


def test_csv_rendering_is_linear_in_rows():
    # only the bool column renders in Python, one generator step per row (0.95 when measured)
    assert exponent(render_rows, 250) <= 1.15


def test_file_distribution_is_near_linear_in_tasks():
    # one grow step and one settle per join, along a path whose depth grows as log n, so the
    # bound leaves room above 1.0 (0.99 when measured); a per-join walk over every earlier
    # joiner read 1.69
    assert exponent(distribute, 250) <= 1.25
