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
    SystemParams,
    advance_block,
    keygen,
    make_simple_ack,
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


def fill_queue(q: int):
    """Submit q simple acks, each naming its beneficiary, to a fresh two-account chain."""
    state = ChainState.genesis([("a", 5), ("b", 5)], SystemParams(decay=0.5), rng_seed=1)
    payer, contributor = keygen(setup(128), "a"), keygen(setup(128), "b")
    acks = [make_simple_ack(payer, i.to_bytes(32, "big"), contributor.vk, 1) for i in range(q)]
    return lambda: [submit_ack(state, ack, beneficiary="a") for ack in acks]


def empty_block(n: int):
    """Mint one block with nothing queued over n accounts."""
    state = ChainState.genesis([(f"u{i}", i % 7) for i in range(n)], SystemParams(decay=0.5),
                               rng_seed=1, subsidy=1)
    return lambda: advance_block(state)


def walk_branch(depth: int):
    """Walk a branch of *depth* nodes from its leaf to the root."""
    dag = MiningDag().add_root("n0")
    for i in range(1, depth):
        dag.attach(f"n{i - 1}", f"n{i}")
    return lambda: dag.path_to_root(f"n{depth - 1}")


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
