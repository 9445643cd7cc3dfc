"""Block-by-block state machine tying the pieces together.

Each minted block applies, in order: (1) one regeneration/decay step to every
account, (2) the queued acknowledgments in submission order, turning each into
a prestige transfer, (3) election of a minter with probability proportional to
max(prestige, 0), (4) coin rewards to the minter (block subsidy, escrowed
acknowledgment fees, and any active motivator schedules), then the height
advances. Given the same starting state and seed the whole evolution is
deterministic; the per-block RNG stream is derived from (seed, height).

Accounts live in arrays behind a mapping view, the ``Ledger``: coins in an
int64 array and prestige in a float64 array, so regeneration is one array
expression. ``Account`` rejects coins past 2**63 - 1 with a ValueError naming
coins, and a reward that would pass the limit raises instead of wrapping.

Coins are integers and conserved exactly: at any time

    sum(account coins) + escrowed motivator coins + pending fees
        == initial coins + height * subsidy

Replay protection is the persisted set of accepted task ids. Accepting an
ack records its task ids there and its path's new placements in the DAG at
once, and queues the transfers it settles at the next block. A path ack that
was partially accepted earlier (e.g. an ancestor already uploaded its shorter
path) transfers only for its unseen hops.

State snapshots serialize to a line-oriented text format, one account per
line (id, coins, prestige, optional vk hex), with '#'-prefixed header lines
carrying the metadata needed to resume (params, height, seed, DAG edges,
reward schedules, seen task ids). The pending queue is not persisted, so
snapshots are taken between blocks: ``save_snapshot`` refuses a state with
acks pending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, MutableMapping

import numpy as np

from .acks import PathAck, SimpleAck, keygen, setup, verify_path_ack, verify_simple_ack
# step_account goes unused here: perfbench/tracing.py patches chain.step_account by name.
from .core import Account, SystemParams, step_account  # noqa: F401
from .errors import (
    DuplicateTask,
    InsufficientFunds,
    InvalidSignature,
    NoAccounts,
    SnapshotError,
    UnknownAccount,
)
from .mining import MiningDag, MiningMode, TransferRecord, apply_transfer

SNAPSHOT_MAGIC = "prestigesim-state"
SNAPSHOT_VERSION = 1


@dataclass
class RewardSchedule:
    """Motivator escrow: coins_per_block paid to the minter while blocks remain."""

    funder: str
    coins_per_block: int
    remaining_blocks: int


@dataclass(frozen=True)
class Block:
    """Result of one advance: who minted and what was processed."""

    height: int
    minter: str
    processed_acks: tuple[TransferRecord, ...]
    fees_collected: int
    subsidy: int
    motivator_payout: int
    ack_hexes: tuple[str, ...] = ()


@dataclass(frozen=True)
class _Pending:
    """An accepted ack and the (beneficiary, contributor, amount, mode)
    transfers it settles at the next block."""

    ack: SimpleAck | PathAck
    transfers: tuple[tuple[str, str, float, MiningMode], ...]


class Ledger(MutableMapping[str, Account]):
    """Accounts by id, column-wise: position i of ``ids``, ``coins``, ``prestige``
    and ``keys`` is one account. A read builds an ``Account``, a set writes one
    through; ``by_vk`` maps each key to the first account in order holding it."""

    def __init__(self, accounts: Iterable[Account] = ()) -> None:
        rows = list(accounts)
        self.ids = [a.id for a in rows]
        self.pos = {acct_id: i for i, acct_id in enumerate(self.ids)}
        self.coins = np.array([a.coins for a in rows], dtype=np.int64)
        self.prestige = np.array([a.prestige for a in rows], dtype=np.float64)
        self.keys = [a.verification_key for a in rows]
        self._index_keys()

    def _index_keys(self) -> None:
        self.by_vk = dict(zip(reversed(self.keys), reversed(self.ids)))

    def __getitem__(self, acct_id: str) -> Account:
        i = self.pos[acct_id]
        return Account(acct_id, self.coins.item(i), self.prestige.item(i), self.keys[i])

    def __setitem__(self, acct_id: str, acct: Account) -> None:
        if acct.id != acct_id:
            raise ValueError(f"account {acct.id!r} set under id {acct_id!r}")
        i = self.pos.get(acct_id)
        if i is None:
            self.pos[acct_id] = len(self.ids)
            self.ids.append(acct_id)
            self.keys.append(acct.verification_key)
            self.coins = np.append(self.coins, np.int64(acct.coins))
            self.prestige = np.append(self.prestige, np.float64(acct.prestige))
            self.by_vk.setdefault(acct.verification_key, acct_id)
            return
        self.coins[i], self.prestige[i] = acct.coins, acct.prestige
        if self.keys[i] != acct.verification_key:
            self.keys[i] = acct.verification_key
            self._index_keys()

    def __delitem__(self, acct_id: str) -> None:
        i = self.pos[acct_id]
        del self.ids[i], self.keys[i]
        self.coins, self.prestige = np.delete(self.coins, i), np.delete(self.prestige, i)
        self.pos = {uid: k for k, uid in enumerate(self.ids)}
        self._index_keys()

    def __contains__(self, acct_id: object) -> bool:
        return acct_id in self.pos

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def copy(self) -> "Ledger":
        dup = Ledger()
        dup.ids, dup.pos, dup.keys = list(self.ids), dict(self.pos), list(self.keys)
        dup.coins, dup.prestige, dup.by_vk = self.coins.copy(), self.prestige.copy(), dict(self.by_vk)
        return dup


@dataclass
class ChainState:
    height: int
    accounts: Ledger
    dag: MiningDag
    params: SystemParams
    rng_seed: int
    subsidy: int = 0
    ack_fee: int = 0
    pending_acks: list[_Pending] = field(default_factory=list)
    motivator_rewards: list[RewardSchedule] = field(default_factory=list)
    seen_tasks: set[bytes] = field(default_factory=set)
    initial_coins: int = 0
    fees_pending: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.accounts, Ledger):
            self.accounts = Ledger(self.accounts.values())

    @classmethod
    def genesis(
        cls,
        accounts: Iterable[Account] | Iterable[tuple[str, int]],
        params: SystemParams,
        rng_seed: int,
        *,
        subsidy: int = 0,
        ack_fee: int = 0,
    ) -> "ChainState":
        """Build height-0 state; accounts given as Account or (id, coins).

        Accounts without a verification key get one derived from their id so
        the acknowledgment layer works out of the box. Raises ValueError for a
        duplicate id and for an account ``save_snapshot`` could not write so
        that it loads back: an empty id, an id containing ``,`` or whitespace
        or starting with ``#``, or non-finite prestige.
        """
        key_params = setup(128)
        table: dict[str, Account] = {}
        for entry in accounts:
            acct = entry if isinstance(entry, Account) else Account(id=entry[0], coins=entry[1])
            _check_snapshot_safe(acct)
            if not acct.verification_key:
                acct = replace(acct, verification_key=keygen(key_params, acct.id).vk)
            if acct.id in table:
                raise ValueError(f"duplicate account id {acct.id!r}")
            table[acct.id] = acct
        return cls(
            height=0,
            accounts=table,
            dag=MiningDag(),
            params=params,
            rng_seed=rng_seed,
            subsidy=subsidy,
            ack_fee=ack_fee,
            initial_coins=sum(a.coins for a in table.values()),
        )

    # -- bookkeeping -----------------------------------------------------------

    def account_by_vk(self, vk: bytes) -> Account | None:
        """The first account in ledger order holding ``vk``, or None, in O(1)."""
        acct_id = self.accounts.by_vk.get(vk)
        return None if acct_id is None else self.accounts[acct_id]

    def total_coins(self) -> int:
        return sum(self.accounts.coins.tolist())

    def total_prestige(self) -> float:
        return sum(self.accounts.prestige.tolist())

    def escrowed_coins(self) -> int:
        return sum(s.coins_per_block * s.remaining_blocks for s in self.motivator_rewards)

    def copy(self) -> "ChainState":
        return replace(
            self, accounts=self.accounts.copy(), dag=self.dag.copy(),
            pending_acks=list(self.pending_acks), seen_tasks=set(self.seen_tasks),
            motivator_rewards=[replace(s) for s in self.motivator_rewards],
        )


def elect_minter(accounts: Mapping[str, Account], rng: np.random.Generator) -> str:
    """Sample one account id with probability proportional to max(P, 0).

    Fallback when every weight is zero: uniform over accounts holding coins,
    or over all accounts if nobody holds any.
    """
    if not accounts:
        raise NoAccounts("cannot elect a minter with no accounts")
    led = accounts if isinstance(accounts, Ledger) else Ledger(accounts.values())
    ids = led.ids
    weights = np.maximum(led.prestige, 0.0)
    total = float(weights.sum())
    if total > 0.0:
        cutoff = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(weights), cutoff, side="right"))
        return ids[min(idx, len(ids) - 1)]
    pool = [i for i, coins in zip(ids, led.coins.tolist()) if coins > 0] or ids
    return pool[int(rng.integers(len(pool)))]


def _check_snapshot_safe(acct: Account) -> None:
    """Raise ValueError for an account whose snapshot line would not load back."""
    # split() != [id] exactly when the id is empty or holds whitespace (str.isspace)
    if acct.id.split() != [acct.id] or acct.id.startswith("#") or "," in acct.id:
        raise ValueError(
            f"account id {acct.id!r} must be non-empty, start with no '#' and "
            "contain no ',' or whitespace"
        )
    if not math.isfinite(acct.prestige):
        raise ValueError(f"prestige of {acct.id!r} must be finite, got {acct.prestige!r}")


def _debit(led: Ledger, acct_id: str, amount: int, needs: str) -> None:
    """Take *amount* coins from an account, in Python ints, or raise InsufficientFunds."""
    i = led.pos[acct_id]
    coins = led.coins.item(i)
    if coins < amount:
        raise InsufficientFunds(f"{acct_id} holds {coins} coins, {needs}")
    led.coins[i] = coins - amount


def _charge_fee(state: ChainState, claimer: str) -> None:
    if state.ack_fee <= 0:
        return
    _debit(state.accounts, claimer, state.ack_fee, f"fee is {state.ack_fee}")
    state.fees_pending += state.ack_fee


def submit_ack(
    state: ChainState,
    ack: SimpleAck | PathAck,
    beneficiary: str | None = None,
) -> ChainState:
    """Validate an acknowledgment, accept it and queue its transfers.

    Checks run in order: referenced accounts exist, signatures verify (for a
    path ack this includes naming no account twice, consistency with the DAG,
    and root anchoring), at least one task id is new, and the claiming
    account can cover the acknowledgment fee. A submit that raises changes
    nothing. Accepting charges the fee, attaches the path's new nodes to
    ``dag``, adds the unseen task ids to ``seen_tasks`` and queues the
    transfers the next block settles: one for a simple ack; for a path ack,
    one per hop after the genesis hop whose task id was unseen, so a task id
    repeated within a path settles at its first hop. Hop and contributor
    keys resolve to accounts through the state's key index, so the cost of a
    submit depends on neither the number of accounts nor the queue length.
    The one exception is a simple ack without the optional ``beneficiary``
    hint, which names the signer: then the signer is resolved by scanning
    account keys.
    """
    if isinstance(ack, SimpleAck):
        contributor = state.account_by_vk(ack.contributor_vk)
        if contributor is None:
            raise UnknownAccount("no account holds the contributor key")
        if beneficiary is not None:
            if beneficiary not in state.accounts:
                raise UnknownAccount(beneficiary)
            if not verify_simple_ack(ack, state.accounts[beneficiary].verification_key):
                raise InvalidSignature("simple ack does not verify against the named beneficiary")
            payer_id = beneficiary
        else:
            led = state.accounts
            payer_id = next((acct_id for acct_id, vk in zip(led.ids, led.keys)
                             if vk and verify_simple_ack(ack, vk)), None)
            if payer_id is None:
                raise InvalidSignature("simple ack does not verify against any account key")
        if ack.task_id in state.seen_tasks:
            raise DuplicateTask(ack.task_id.hex())
        _charge_fee(state, contributor.id)
        state.seen_tasks.add(ack.task_id)
        transfer = (payer_id, contributor.id, float(ack.amount), MiningMode.SIMPLE)
        state.pending_acks.append(_Pending(ack, (transfer,)))
        return state

    if isinstance(ack, PathAck):
        node_ids: list[str] = []
        for hop in ack.hops:
            acct = state.account_by_vk(hop.vk)
            if acct is None:
                raise UnknownAccount(f"no account holds the key of hop {len(node_ids)}")
            node_ids.append(acct.id)

        if len(set(node_ids)) != len(node_ids):
            raise InvalidSignature("path names an account more than once")

        # Path shape must agree with the DAG, which already holds the
        # placements of acks queued for the next block, so block boundaries
        # do not change what is accepted.
        for k, node in enumerate(node_ids):
            if node not in state.dag:
                continue
            parent = state.dag.parent(node)
            if k == 0 and parent is not None:
                raise InvalidSignature(f"path starts at {node!r}, which is not a branch root")
            if k > 0 and parent != node_ids[k - 1]:
                raise InvalidSignature(
                    f"path places {node!r} under {node_ids[k-1]!r} but it is attached elsewhere"
                )
        root_vk = state.accounts[node_ids[0]].verification_key
        if not verify_path_ack(ack, root_vk):
            raise InvalidSignature("path ack composite does not verify")

        if all(hop.task_id in state.seen_tasks for hop in ack.hops):
            raise DuplicateTask("every hop in the path was already processed")
        _charge_fee(state, node_ids[-1])
        transfers = []
        for k, (node, hop) in enumerate(zip(node_ids, ack.hops)):
            if node not in state.dag:
                if k == 0:
                    state.dag.add_root(node)
                else:
                    state.dag.attach(node_ids[k - 1], node)
            if hop.task_id in state.seen_tasks:
                continue
            state.seen_tasks.add(hop.task_id)
            if k > 0:  # the genesis hop registers the root; nothing to transfer
                transfers.append(
                    (node, node_ids[k - 1], float(hop.amount), MiningMode.PROGRESSIVE)
                )
        state.pending_acks.append(_Pending(ack, tuple(transfers)))
        return state

    raise TypeError(f"unsupported acknowledgment type {type(ack).__name__}")


def register_motivator_reward(
    state: ChainState,
    funder: str,
    coins_per_block: int,
    duration_blocks: int,
) -> ChainState:
    """Escrow funder coins to pay future minters coins_per_block for duration blocks."""
    if funder not in state.accounts:
        raise UnknownAccount(funder)
    if coins_per_block < 0 or duration_blocks < 0:
        raise ValueError("coins_per_block and duration_blocks must be >= 0")
    total = coins_per_block * duration_blocks
    if total == 0:
        return state
    _debit(state.accounts, funder, total, f"schedule needs {total}")
    state.motivator_rewards.append(
        RewardSchedule(funder=funder, coins_per_block=coins_per_block, remaining_blocks=duration_blocks)
    )
    return state


def advance_block(state: ChainState) -> tuple[ChainState, Block]:
    """Mint one block: regenerate, settle queued transfers, elect, pay rewards.

    The queued transfers apply in submission order. The DAG and the seen
    task ids are left as they are: ``submit_ack`` recorded them on
    acceptance.
    """
    if not state.accounts:
        raise NoAccounts("cannot advance an empty chain")
    new_height = state.height + 1

    led = state.accounts
    # step_account for every account at once; int64 -> float64 rounds as int + float does
    led.prestige = led.coins + (1.0 - state.params.decay) * led.prestige

    records: list[TransferRecord] = []
    hexes: list[str] = []
    for item in state.pending_acks:
        for beneficiary, contributor, amount, mode in item.transfers:
            rec = apply_transfer(
                state.accounts,
                state.dag,
                beneficiary=beneficiary,
                contributor=contributor,
                x=amount,
                mode=mode,
                b=state.params.branch_power,
                block=new_height,
            )
            records.append(rec)
        hexes.append(item.ack.to_hex())
    state.pending_acks = []

    rng = np.random.default_rng([state.rng_seed & 0xFFFFFFFFFFFFFFFF, new_height])
    minter = elect_minter(state.accounts, rng)

    fees = state.fees_pending
    state.fees_pending = 0
    payout = 0
    for schedule in state.motivator_rewards:
        if schedule.remaining_blocks > 0:
            payout += schedule.coins_per_block
            schedule.remaining_blocks -= 1
    state.motivator_rewards = [s for s in state.motivator_rewards if s.remaining_blocks > 0]

    reward = state.subsidy + fees + payout
    if reward:
        i = led.pos[minter]
        led.coins[i] = led.coins.item(i) + reward

    state.height = new_height
    block = Block(
        height=new_height,
        minter=minter,
        processed_acks=tuple(records),
        fees_collected=fees,
        subsidy=state.subsidy,
        motivator_payout=payout,
        ack_hexes=tuple(hexes),
    )
    return state, block


# --- snapshots ----------------------------------------------------------------

def save_snapshot(state: ChainState) -> str:
    """Render the state as line-oriented text; one account per line.

    Raises ValueError while acks are pending: the queue is not written, and
    the DAG and seen task ids already hold the accepted acks' effects, so
    their transfers would be lost on load. Snapshot between blocks.
    """
    if state.pending_acks:
        raise ValueError(
            f"{len(state.pending_acks)} pending ack(s); snapshot after advance_block"
        )
    lines = [f"# {SNAPSHOT_MAGIC} {SNAPSHOT_VERSION}"]
    lines.append(f"# height {state.height}")
    lines.append(f"# decay {state.params.decay!r}")
    lines.append(f"# branch-power {state.params.branch_power!r}")
    lines.append(f"# service-fee {state.params.service_fee!r}")
    lines.append(f"# seed {state.rng_seed}")
    lines.append(f"# subsidy {state.subsidy}")
    lines.append(f"# ack-fee {state.ack_fee}")
    lines.append(f"# initial-coins {state.initial_coins}")
    lines.append(f"# fees-pending {state.fees_pending}")
    for root in state.dag.roots:
        lines.append(f"# root {root}")
    for node in state.dag.nodes:
        parent = state.dag.parent(node)
        if parent is not None:
            lines.append(f"# edge {node} {parent}")
    for sched in state.motivator_rewards:
        lines.append(
            f"# reward {sched.funder} {sched.coins_per_block} {sched.remaining_blocks}"
        )
    for task in sorted(state.seen_tasks):
        lines.append(f"# seen {task.hex()}")
    led = state.accounts
    columns = zip(led.ids, led.coins.tolist(), led.prestige.tolist(), led.keys)
    lines += [f"{acct_id},{coins},{p!r},{vk.hex()}" for acct_id, coins, p, vk in columns]
    return "\n".join(lines) + "\n"


def load_snapshot(text: str) -> ChainState:
    """Parse ``save_snapshot`` output back into a ChainState."""
    header: dict[str, str] = {}
    roots: list[str] = []
    edges: list[tuple[str, str]] = []
    rewards: list[RewardSchedule] = []
    seen: set[bytes] = set()
    accounts: dict[str, Account] = {}

    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if not parts:
                    continue
                key = parts[0]
                if key == SNAPSHOT_MAGIC:
                    header["version"] = parts[1]
                elif key == "root":
                    roots.append(parts[1])
                elif key == "edge":
                    edges.append((parts[1], parts[2]))
                elif key == "reward":
                    rewards.append(
                        RewardSchedule(
                            funder=parts[1],
                            coins_per_block=int(parts[2]),
                            remaining_blocks=int(parts[3]),
                        )
                    )
                elif key == "seen":
                    seen.add(bytes.fromhex(parts[1]))
                else:
                    header[key] = parts[1]
                continue
            fields = line.split(",")
            if len(fields) not in (3, 4):
                raise SnapshotError(f"line {lineno}: expected id,coins,prestige[,vk]")
            vk = bytes.fromhex(fields[3]) if len(fields) == 4 and fields[3] else b""
            acct = Account(
                id=fields[0],
                coins=int(fields[1]),
                prestige=float(fields[2]),
                verification_key=vk,
            )
            try:
                _check_snapshot_safe(acct)
            except ValueError as exc:
                raise SnapshotError(f"line {lineno}: {exc}") from exc
            if acct.id in accounts:
                raise SnapshotError(f"line {lineno}: duplicate account {acct.id!r}")
            accounts[acct.id] = acct

        if header.get("version") != str(SNAPSHOT_VERSION):
            raise SnapshotError("missing or unsupported snapshot header")
        params = SystemParams(
            decay=float(header["decay"]),
            branch_power=float(header["branch-power"]),
            service_fee=float(header["service-fee"]),
        )
        dag = MiningDag()
        for root in roots:
            dag.add_root(root)
        pending_edges = list(edges)
        while pending_edges:
            progressed = False
            rest: list[tuple[str, str]] = []
            for child, parent in pending_edges:
                if parent in dag:
                    dag.attach(parent, child)
                    progressed = True
                else:
                    rest.append((child, parent))
            if not progressed:
                raise SnapshotError(f"dangling DAG edges: {rest[:3]}")
            pending_edges = rest
        for node in dag.nodes:
            if node not in accounts:
                raise SnapshotError(f"DAG node {node!r} has no account line")

        state = ChainState(
            height=int(header["height"]),
            accounts=accounts,
            dag=dag,
            params=params,
            rng_seed=int(header["seed"]),
            subsidy=int(header["subsidy"]),
            ack_fee=int(header["ack-fee"]),
            motivator_rewards=rewards,
            seen_tasks=seen,
            initial_coins=int(header["initial-coins"]),
            fees_pending=int(header.get("fees-pending", "0")),
        )
        return state
    except SnapshotError:
        raise
    except (KeyError, ValueError, IndexError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from exc
