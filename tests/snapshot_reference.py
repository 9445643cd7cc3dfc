"""The line-at-a-time snapshot parser ``load_snapshot`` replaced, kept as the
reference its differential test compares against: it checks and converts each
account line where it stands, so its first error is by construction the first
bad line's."""

from __future__ import annotations

from prestigesim.chain import (
    _FIELDS,
    _HEADERS as _HEADER_VALUES,
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    ChainState,
    Ledger,
    RewardSchedule,
    _check_snapshot_safe,
    _count,
)
from prestigesim.acks import TASK_ID_BYTES
from prestigesim.core import SystemParams, check_account
from prestigesim.errors import SnapshotError
from prestigesim.mining import MiningDag


def _written(name: str, text: str, value: object) -> object:
    """*value*, parsed from header text *text*, if save_snapshot writes it as *text*."""
    if text != str(value):
        raise ValueError(f"{name} {text!r} must be written {str(value)!r}")
    return value


def _load_lines(text: str) -> ChainState:
    """``load_snapshot`` one line at a time, '#' lines first and then the account
    lines; the source of every SnapshotError it raises."""
    header: dict[str, object] = {}
    dag = MiningDag()
    rewards: list[RewardSchedule] = []
    seen: set[bytes] = set()
    ids, coins, prestige, keys = [], [], [], []  # the ledger's columns
    pos: dict[str, int] = {}

    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    if ids:  # save writes every '#' line before the accounts
                        raise ValueError("a '#' line after the first account line")
                    parts = line[1:].split()
                    if not parts:
                        continue
                    key, count = parts[0], _FIELDS.get(parts[0])
                    if count is None:
                        raise ValueError(f"unknown header {key!r}")
                    if len(parts) - 1 != count:
                        raise ValueError(f"{key!r} takes {count} value{'s' if count > 1 else ''}, "
                                         f"got {len(parts) - 1}")
                    value = parts[1]
                    # most header lines are seen task ids and DAG edges: test those first
                    if key == "seen":
                        task = bytes.fromhex(value)
                        if len(task) != TASK_ID_BYTES or task in seen:
                            raise ValueError(f"task id {value!r} must be {TASK_ID_BYTES} bytes, seen once")
                        if value != task.hex():
                            raise ValueError(f"task id {value!r} must be written {task.hex()!r}")
                        seen.add(task)
                    elif key == "edge":
                        child, parent = value, parts[2]
                        if parent not in dag:  # attach's KeyError would read as a missing header
                            raise ValueError(f"dangling DAG edge: parent {parent!r} of {child!r} "
                                             "is not a node on an earlier line")
                        dag.attach(parent, child)
                    elif key == "root":
                        dag.add_root(value)
                    elif key == "reward":
                        coins_per_block = _count("coins_per_block", parts[2])
                        remaining_blocks = _count("remaining_blocks", parts[3])
                        rewards.append(RewardSchedule(
                            value, _written("coins_per_block", parts[2], coins_per_block),
                            _written("remaining_blocks", parts[3], remaining_blocks)))
                    elif key in header:
                        raise ValueError(f"repeated header {key!r}")
                    elif key == SNAPSHOT_MAGIC:
                        header[key] = value
                    else:
                        header[key] = _written(key, value, _HEADER_VALUES[key][1](value))
                    continue
                fields = line.split(",")
                if len(fields) != 4:
                    raise ValueError("expected id,coins,prestige,vk")
                vk = bytes.fromhex(fields[3])
                acct_id, n, p = fields[0], int(fields[1]), float(fields[2])
                check_account(acct_id, n, vk)
                _check_snapshot_safe(acct_id, p)
                # each field as save_snapshot writes it, so the line re-saves as the same bytes
                for name, text, written in zip(("coins", "prestige", "key"), fields[1:],
                                               (str(n), repr(p), vk.hex())):
                    if text != written:
                        raise ValueError(f"{name} {text!r} must be written {written!r}")
                if acct_id in pos:
                    raise ValueError(f"duplicate account {acct_id!r}")
            except ValueError as exc:
                raise SnapshotError(f"line {lineno}: {exc}") from exc
            pos[acct_id] = len(ids)
            ids.append(acct_id)
            coins.append(n)
            prestige.append(p)
            keys.append(vk)

        if header.get(SNAPSHOT_MAGIC) != str(SNAPSHOT_VERSION):
            raise SnapshotError("missing or unsupported snapshot header")
        # every header is read, in _HEADERS order, before the DAG nodes are checked
        state = ChainState(
            height=header["height"],
            params=SystemParams(
                decay=header["decay"],
                branch_power=header["branch-power"],
                service_fee=header["service-fee"],
            ),
            rng_seed=header["seed"],
            subsidy=header["subsidy"],
            ack_fee=header["ack-fee"],
            initial_coins=header["initial-coins"],
            fees_pending=header["fees-pending"],
            accounts=Ledger()._fill(ids, coins, prestige, keys),
            dag=dag,
            motivator_rewards=rewards,
            seen_tasks=seen,
        )
        for node in dag.parents:
            if node not in pos:
                raise SnapshotError(f"DAG node {node!r} has no account line")
        return state
    except KeyError as exc:
        raise SnapshotError(f"missing header {exc}") from exc
