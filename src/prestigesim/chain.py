"""Block-by-block state machine tying the pieces together.

Each minted block applies, in order: (1) one regeneration/decay step to every
account, (2) the queued acknowledgments in submission order, turning each into
a prestige transfer, (3) election of a minter with probability proportional to
max(prestige, 0), (4) coin rewards to the minter (block subsidy, escrowed
acknowledgment fees, and any active motivator schedules), then the height
advances. Given the same starting state and seed the whole evolution is
deterministic; the per-block RNG stream is derived from (seed, height).

Accounts live in columns, the ``Ledger`` (coins int64, prestige float64), so
regeneration is one array expression; a block settles on the accounts it touches,
by id, and an ``Account`` is built only when the ledger is read as a mapping.
Coins past 2**63 - 1 raise a ValueError naming coins, or for a block's reward
an OverflowError that leaves the state as it was.

Coins are integers and conserved exactly: at any time

    sum(account coins) + escrowed motivator coins + pending fees
        == initial coins + height * subsidy

Replay protection is the persisted set of accepted task ids. Accepting an
ack records its task ids there and its path's new placements in the DAG at
once, and queues the transfers it settles at the next block. A path ack that
was partially accepted earlier (e.g. an ancestor already uploaded its shorter
path) transfers only for its unseen hops.

State snapshots serialize to a line-oriented text format, one account per
line (id, coins, prestige, vk hex; the hex empty for a keyless account), with
'#'-prefixed header lines carrying the metadata needed to resume (params,
height, seed, DAG edges, reward schedules, seen task ids). The pending queue
is not persisted, so snapshots are taken between blocks: ``save_snapshot``
refuses a state with acks pending.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from operator import attrgetter, itemgetter, methodcaller
from typing import Iterable, Iterator, Mapping

import numpy as np

from .acks import (TASK_ID_BYTES, VK_BYTES, PathAck, SimpleAck, keygen, setup, verify_path_ack,
                   verify_simple_ack)
from .core import MAX_COINS, Account, SystemParams, check_account, finite_nonnegative, seed, whole
# step_account and apply_transfer go unused here: perfbench/tracing.py patches
# chain.step_account and chain.apply_transfer by name.
from .core import step_account  # noqa: F401
from .errors import (
    DuplicateTask,
    InsufficientFunds,
    InvalidSignature,
    NoAccounts,
    SnapshotError,
    UnknownAccount,
)
from .mining import MiningDag, MiningMode, TransferRecord, apply_transfer, settle_transfer  # noqa: F401

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
    acks: tuple[SimpleAck | PathAck, ...] = ()

    @property
    def ack_hexes(self) -> tuple[str, ...]:
        """The processed acks' wire encodings, rendered on read."""
        return tuple(ack.to_hex() for ack in self.acks)


@dataclass(frozen=True)
class _Pending:
    """An accepted ack and the (beneficiary, contributor, amount, mode)
    transfers it settles at the next block."""

    ack: SimpleAck | PathAck
    transfers: tuple[tuple[str, str, float, MiningMode], ...]


class Ledger(Mapping[str, Account]):
    """Accounts by id, column-wise: position i of ``ids``, ``coins``, ``prestige``
    and ``keys`` is one account, at ``pos[id]``. Only the mapping interface
    builds an ``Account`` (on read) or takes one apart (on set); ``by_vk`` maps
    each key to the first account in order holding it. Accounts are set, never
    removed."""

    def __init__(self, accounts: Iterable[Account] = ()) -> None:
        rows = list(accounts)
        self._fill([a.id for a in rows], [a.coins for a in rows],
                   [a.prestige for a in rows], [a.verification_key for a in rows])

    def _fill(self, ids: list[str], coins: list[int], prestige: list[float],
              keys: list[bytes]) -> "Ledger":
        """Hold these columns, already checked as ``Account`` checks them."""
        self.ids, self.keys = ids, keys
        self.pos = dict(zip(ids, range(len(ids))))
        self.coins = np.array(coins, dtype=np.int64)
        self.prestige = np.array(prestige, dtype=np.float64)
        self.by_vk = dict(zip(reversed(keys), reversed(ids)))
        return self

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
            self._fill(self.ids, self.coins, self.prestige, self.keys)

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
        ``subsidy``, ``ack_fee`` or balance that is not a whole number of coins
        (an integer >= 0), an ``rng_seed`` that is not an integer in [0, 2**64)
        (the range of ``--seed``; block h draws from ``[rng_seed, h]``), a
        duplicate id and an account ``save_snapshot`` could not write so that
        it loads back: an empty id, an id containing ``,`` or whitespace or
        starting with ``#``, or non-finite prestige.
        """
        subsidy, ack_fee = _count("subsidy", subsidy), _count("ack_fee", ack_fee)
        rng_seed = seed(whole("rng_seed", rng_seed))
        key_params = setup(128)
        table: dict[str, Account] = {}
        for entry in accounts:
            acct = entry if isinstance(entry, Account) else Account(id=entry[0], coins=entry[1])
            _check_snapshot_safe(acct.id, acct.prestige)
            if not acct.verification_key:
                acct = replace(acct, verification_key=keygen(key_params, acct.id).vk)
            if acct.id in table:
                raise ValueError(f"duplicate account id {acct.id!r}")
            table[acct.id] = acct
        return cls(
            height=0,
            accounts=Ledger(table.values()),
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

    The draw is over the running sums of the weights, so a cutoff below
    their last sum always lands on an account of positive weight. Fallback
    when every weight is zero (or they sum past the float range): uniform
    over accounts holding coins, or over all accounts if nobody holds any.
    """
    if not accounts:
        raise NoAccounts("cannot elect a minter with no accounts")
    led = accounts if isinstance(accounts, Ledger) else Ledger(accounts.values())
    cumulative = np.cumsum(np.maximum(led.prestige, 0.0))
    total = float(cumulative[-1])
    if 0.0 < total < math.inf:
        cutoff = rng.random() * total
        return led.ids[int(np.searchsorted(cumulative, cutoff, side="right"))]
    pool = [i for i, coins in zip(led.ids, led.coins.tolist()) if coins > 0] or led.ids
    return pool[int(rng.integers(len(pool)))]


def _count(name: str, value: int | str) -> int:
    """*value*, text or an integer, as an int; ValueError naming *name* if it is neither or < 0."""
    value = int(value) if isinstance(value, str) else whole(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


# Snapshot headers in write order: the state attribute save_snapshot writes by str (a Python
# float's repr: SystemParams holds floats), and the parse and check load_snapshot reads it by.
_HEADERS = {
    "height": ("height", lambda v: _count("height", v)),
    "decay": ("params.decay", lambda v: SystemParams(decay=float(v)).decay),
    "branch-power": ("params.branch_power", lambda v: finite_nonnegative("branch_power", float(v))),
    "service-fee": ("params.service_fee", lambda v: finite_nonnegative("service_fee", float(v))),
    "seed": ("rng_seed", lambda v: seed(int(v))),
    "subsidy": ("subsidy", lambda v: _count("subsidy", v)),
    "ack-fee": ("ack_fee", lambda v: _count("ack-fee", v)),
    "initial-coins": ("initial_coins", lambda v: _count("initial-coins", v)),
    "fees-pending": ("fees_pending", lambda v: _count("fees-pending", v)),
}
_HEADER_LINES = "\n".join(f"# {key} %s" for key in _HEADERS)
_HEADER_STATE = attrgetter(*(attribute for attribute, _ in _HEADERS.values()))
# The count of values after the key on each kind of '#' line save_snapshot writes
_FIELDS = dict.fromkeys([SNAPSHOT_MAGIC, "seen", "root", *_HEADERS], 1) | {"edge": 2, "reward": 3}


def _spelt(name: str, text: str, value: object) -> object:
    """*value*, parsed from *text*; ValueError unless ``str(value)``, the text save_snapshot
    writes for it, is *text*: a load of any other spelling would re-save as other bytes."""
    if str(value) != text:
        raise ValueError(f"{name} {text!r} must be written {str(value)!r}")
    return value


def _check_snapshot_safe(acct_id: str, prestige: float) -> None:
    """Raise ValueError for an account whose snapshot line would not load back."""
    # split() != [id] exactly when the id is empty or holds whitespace (str.isspace)
    if acct_id.split() != [acct_id] or acct_id.startswith("#") or "," in acct_id:
        raise ValueError(
            f"account id {acct_id!r} must be non-empty, start with no '#' and "
            "contain no ',' or whitespace"
        )
    if not math.isfinite(prestige):
        raise ValueError(f"prestige of {acct_id!r} must be finite, got {prestige!r}")


def _snapshot_safe(ids: list[str], prestige: np.ndarray) -> bool:
    """Whether every account passes ``_check_snapshot_safe``, checked a column at a time."""
    joined = " ".join(ids)  # whose split() gives back the ids when none is empty or holds whitespace
    return (joined.split() == ids and "," not in joined and not joined.startswith("#")
            and " #" not in joined and bool(np.isfinite(prestige).all()))


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
    keys resolve to account ids through the ledger's key index (``by_vk``)
    and keys are read from its key column, so the cost of a submit depends
    on neither the number of accounts nor the queue length, and no
    ``Account`` is built. The one exception is a simple ack without the
    optional ``beneficiary`` hint, which names the signer: then the signer
    is resolved by scanning account keys.
    """
    led = state.accounts
    if isinstance(ack, SimpleAck):
        contributor = led.by_vk.get(ack.contributor_vk)
        if contributor is None:
            raise UnknownAccount("no account holds the contributor key")
        if beneficiary is not None:
            if beneficiary not in led.pos:
                raise UnknownAccount(beneficiary)
            if not verify_simple_ack(ack, led.keys[led.pos[beneficiary]]):
                raise InvalidSignature("simple ack does not verify against the named beneficiary")
            payer_id = beneficiary
        else:
            payer_id = next((acct_id for acct_id, vk in zip(led.ids, led.keys)
                             if vk and verify_simple_ack(ack, vk)), None)
            if payer_id is None:
                raise InvalidSignature("simple ack does not verify against any account key")
        if ack.task_id in state.seen_tasks:
            raise DuplicateTask(ack.task_id.hex())
        _charge_fee(state, contributor)
        state.seen_tasks.add(ack.task_id)
        transfer = (payer_id, contributor, float(ack.amount), MiningMode.SIMPLE)
        state.pending_acks.append(_Pending(ack, (transfer,)))
        return state

    if isinstance(ack, PathAck):
        node_ids: list[str] = []
        for hop in ack.hops:
            acct_id = led.by_vk.get(hop.vk)
            if acct_id is None:
                raise UnknownAccount(f"no account holds the key of hop {len(node_ids)}")
            node_ids.append(acct_id)

        if len(set(node_ids)) != len(node_ids):
            raise InvalidSignature("path names an account more than once")

        # Path shape must agree with the DAG, which already holds the
        # placements of acks queued for the next block, so block boundaries
        # do not change what is accepted.
        parents = state.dag.parents
        for k, node in enumerate(node_ids):
            if node not in parents:
                continue
            parent = parents[node]
            if k == 0 and parent is not None:
                raise InvalidSignature(f"path starts at {node!r}, which is not a branch root")
            if k > 0 and parent != node_ids[k - 1]:
                raise InvalidSignature(
                    f"path places {node!r} under {node_ids[k-1]!r} but it is attached elsewhere"
                )
        if not verify_path_ack(ack, led.keys[led.pos[node_ids[0]]]):
            raise InvalidSignature("path ack composite does not verify")

        if all(hop.task_id in state.seen_tasks for hop in ack.hops):
            raise DuplicateTask("every hop in the path was already processed")
        _charge_fee(state, node_ids[-1])
        transfers = []
        for k, (node, hop) in enumerate(zip(node_ids, ack.hops)):
            if node not in parents:
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
    """Escrow funder coins to pay future minters coins_per_block (an int >= 0) for duration blocks."""
    if funder not in state.accounts:
        raise UnknownAccount(funder)
    coins_per_block = _count("coins_per_block", coins_per_block)
    duration_blocks = _count("duration_blocks", duration_blocks)
    total = coins_per_block * duration_blocks
    if total == 0:
        return state
    _debit(state.accounts, funder, total, f"schedule needs {total}")
    state.motivator_rewards.append(
        RewardSchedule(funder=funder, coins_per_block=coins_per_block, remaining_blocks=duration_blocks)
    )
    return state


class _Touched(dict):
    """Prestige by account id, read from a float64 column at ``pos[id]`` on first
    use as the Python float ``tolist`` would give; updates stay here, off the column."""

    def __init__(self, column: np.ndarray, pos: dict[str, int]) -> None:
        self.column, self.pos = column, pos

    def __missing__(self, acct_id: str) -> float:
        value = self[acct_id] = self.column.item(self.pos[acct_id])
        return value


def advance_block(state: ChainState) -> tuple[ChainState, Block]:
    """Mint one block: regenerate, settle queued transfers, elect, pay rewards.

    Regeneration is one array expression into a new prestige column. The
    queued transfers then settle in submission order, as ``apply_transfer``
    does, on a dict of the account ids they touch, read from that column on
    first use and written back into it in one indexed assignment, so an
    empty block costs no Python work per account. The DAG and the seen task
    ids are left as they are: ``submit_ack`` recorded them on acceptance.
    Every step works on locals and the state is written once at the end, so
    a call that raises changes nothing: OverflowError, naming coins, when
    the reward would take the minter past 2**63 - 1 coins.
    """
    if not state.accounts:
        raise NoAccounts("cannot advance an empty chain")
    new_height = state.height + 1
    led, b = state.accounts, state.params.branch_power

    # step_account for every account at once; int64 -> float64 rounds as int + float does
    regenerated = led.coins + (1.0 - state.params.decay) * led.prestige
    touched = _Touched(regenerated, led.pos)
    records: list[TransferRecord] = []
    for item in state.pending_acks:
        for beneficiary, contributor, amount, mode in item.transfers:
            path = ((contributor,) if mode is MiningMode.SIMPLE
                    else state.dag.path_to_root(contributor))
            shares = settle_transfer(touched, beneficiary, path, amount, b)
            records.append(TransferRecord(beneficiary, contributor, amount, new_height, mode, tuple(shares)))
    if touched:
        regenerated[list(map(led.pos.__getitem__, touched))] = list(touched.values())

    staged = copy.copy(led)  # shares every column but prestige, for the election
    staged.prestige = regenerated
    rng = np.random.default_rng([state.rng_seed, new_height])
    minter = elect_minter(staged, rng)

    paying = [s for s in state.motivator_rewards if s.remaining_blocks > 0]
    payout = sum(s.coins_per_block for s in paying)
    fees = state.fees_pending
    i = led.pos[minter]
    coins = led.coins.item(i) + state.subsidy + fees + payout
    if coins > MAX_COINS:
        raise OverflowError(f"the reward would give minter {minter!r} {coins} coins, past 2**63 - 1")

    led.prestige = staged.prestige
    led.coins[i] = coins
    for schedule in paying:
        schedule.remaining_blocks -= 1
    state.motivator_rewards = [s for s in paying if s.remaining_blocks > 0]
    state.fees_pending = 0
    processed = tuple(item.ack for item in state.pending_acks)
    state.pending_acks = []
    state.height = new_height
    return state, Block(height=new_height, minter=minter, processed_acks=tuple(records),
                        fees_collected=fees, subsidy=state.subsidy, motivator_payout=payout,
                        acks=processed)


# --- snapshots ----------------------------------------------------------------

def save_snapshot(state: ChainState) -> str:
    """Render the state as line-oriented text; one account per line.

    Raises ValueError while acks are pending: the queue is not written, and
    the DAG and seen task ids already hold the accepted acks' effects, so
    their transfers would be lost on load. Snapshot between blocks. Raises
    ValueError too, before rendering, for an account ``genesis`` would have
    refused (set through ``state.accounts[id]``), whose line would not load
    back; the message names the first such account.
    """
    if state.pending_acks:
        raise ValueError(
            f"{len(state.pending_acks)} pending ack(s); snapshot after advance_block"
        )
    led = state.accounts
    if not _snapshot_safe(led.ids, led.prestige):
        for acct_id, p in zip(led.ids, led.prestige.tolist()):
            _check_snapshot_safe(acct_id, p)
    lines = [f"# {SNAPSHOT_MAGIC} {SNAPSHOT_VERSION}", _HEADER_LINES % _HEADER_STATE(state)]
    parents = state.dag.parents
    lines += [f"# root {node}" for node, parent in parents.items() if parent is None]
    lines += [f"# edge {node} {parent}" for node, parent in parents.items() if parent is not None]
    lines += [f"# reward {s.funder} {s.coins_per_block} {s.remaining_blocks}"
              for s in state.motivator_rewards]
    lines += [f"# seen {task.hex()}" for task in sorted(state.seen_tasks)]
    columns = zip(led.ids, led.coins.tolist(), led.prestige.tolist(), led.keys)
    lines += [f"{acct_id},{coins},{p!r},{vk.hex()}" for acct_id, coins, p, vk in columns]
    lines.append("")  # the text ends with a newline
    return "\n".join(lines)


def load_snapshot(text: str) -> ChainState:
    """Parse ``save_snapshot`` output back into a ChainState.

    It reads save's shape, the ``#`` lines and then one block of account lines
    (``_ledger``): headers are checked, and DAG lines attached, as they are
    read, so an edge must follow the line making its parent a node. A line
    that does not parse, a header value out of range or a line save never
    writes (a repeated or unknown key, a count of values other than its key's,
    a seen task id not 32 bytes long or given twice, a value spelt otherwise
    than save writes it, such as ``+5``, ``5_0``, ``0e0``, ``5e-1`` or
    upper-case hex, or a ``#`` line after the first account line) raises
    SnapshotError naming the first bad line's number; a missing header raises
    one naming the header. Blank lines and surrounding whitespace are ignored.
    """
    header: dict[str, object] = {}
    dag = MiningDag()
    rewards: list[RewardSchedule] = []
    seen: set[bytes] = set()
    lines = text.splitlines()

    try:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if line and line[0] != "#":  # the first account line
                break
            try:
                parts = line[1:].split()
                if not parts:  # a blank line, or a bare '#'
                    continue
                key, count = parts[0], _FIELDS.get(parts[0])
                if count is None:
                    raise ValueError(f"unknown header {key!r}")
                if len(parts) != count + 1:
                    raise ValueError(f"{key!r} takes {count} value{'s' * (count > 1)}, got {len(parts) - 1}")
                value = parts[1]
                # most header lines are seen task ids and DAG edges: test those first
                if key == "seen":
                    task = bytes.fromhex(value)
                    if len(task) != TASK_ID_BYTES or task in seen:
                        raise ValueError(f"task id {value!r} must be {TASK_ID_BYTES} bytes, seen once")
                    # upper case is the one other spelling fromhex reads in a value split() gave
                    if value != value.lower():
                        raise ValueError(f"task id {value!r} must be written {value.lower()!r}")
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
                    counts = [_spelt(name, text, _count(name, text)) for name, text
                              in zip(("coins_per_block", "remaining_blocks"), parts[2:])]
                    rewards.append(RewardSchedule(value, *counts))
                elif key in header:
                    raise ValueError(f"repeated header {key!r}")
                else:
                    header[key] = (value if key == SNAPSHOT_MAGIC
                                   else _spelt(key, value, _HEADERS[key][1](value)))
            except ValueError as exc:
                raise SnapshotError(f"line {lineno}: {exc}") from exc
        else:
            lineno = len(lines) + 1  # no account line
        accounts = _ledger(lines[lineno - 1:], lineno)
        if header.get(SNAPSHOT_MAGIC) != str(SNAPSHOT_VERSION):
            raise SnapshotError("missing or unsupported snapshot header")
        fields: dict[str, dict[str, object]] = {"": {}, "params": {}}
        for key, (attribute, _) in _HEADERS.items():  # a missing key raises in table order
            owner, _, name = attribute.rpartition(".")
            fields[owner][name] = header[key]
        for node in dag.parents:
            if node not in accounts.pos:
                raise SnapshotError(f"DAG node {node!r} has no account line")
        return ChainState(accounts=accounts, dag=dag, params=SystemParams(**fields["params"]),
                          motivator_rewards=rewards, seen_tasks=seen, **fields[""])
    except KeyError as exc:
        raise SnapshotError(f"missing header {exc}") from exc


def _ledger(block: list[str], first: int) -> Ledger:
    """The ledger of account lines *block*, from line *first* on, each ``id,coins,prestige,vk``
    as ``save_snapshot`` writes it, blanks dropped, converted and checked a column at a time. A
    column check fails exactly when some line's own check does; only then are the lines walked,
    one at a time, to raise the first bad line's SnapshotError."""
    rows = list(filter(None, map(str.strip, block)))
    if not rows:
        return Ledger()
    try:
        if set(map(methodcaller("count", ","), rows)) != {3}:  # a short line would shift the rest
            raise ValueError("an account line without 4 fields")
        cells = ",".join(rows).split(",")  # one split: a list per line would set off full GCs
        ids, coins, prestige, hexes = cells[0::4], cells[1::4], cells[2::4], cells[3::4]
        keys, counts = list(map(bytes.fromhex, hexes)), list(map(int, coins))
        floats = list(map(float, prestige))
        if min(counts) < 0 or max(counts) > MAX_COINS or not set(map(len, keys)) <= {0, VK_BYTES}:
            raise ValueError("an account line out of range")
        accounts = Ledger()._fill(ids, counts, floats, keys)
        if not _snapshot_safe(ids, accounts.prestige) or len(accounts.pos) != len(ids):
            raise ValueError("an account line save_snapshot would refuse, or a repeated id")
        # each column as save_snapshot spells it, so that a load re-saves the same bytes
        if (",".join(map(str, counts)) != ",".join(coins) or list(map(repr, floats)) != prestige
                or ",".join(map(bytes.hex, keys)) != ",".join(hexes)):
            raise ValueError("an account line save_snapshot would spell otherwise")
        return accounts
    except ValueError:
        pos: set[str] = set()
        for lineno, line in filter(itemgetter(1), enumerate(map(str.strip, block), start=first)):
            try:
                if line[0] == "#":
                    raise ValueError("a '#' line after the first account line")
                fields = line.split(",")
                if len(fields) != 4:
                    raise ValueError("expected id,coins,prestige,vk")
                vk, acct_id, n, p = bytes.fromhex(fields[3]), fields[0], int(fields[1]), float(fields[2])
                check_account(acct_id, n, vk)
                _check_snapshot_safe(acct_id, p)
                for name, text, written in zip(("coins", "prestige", "key"), fields[1:],
                                               (str(n), repr(p), vk.hex())):
                    if text != written:  # a spelling save_snapshot never writes
                        raise ValueError(f"{name} {text!r} must be written {written!r}")
                if acct_id in pos:
                    raise ValueError(f"duplicate account {acct_id!r}")
            except ValueError as exc:
                raise SnapshotError(f"line {lineno}: {exc}") from exc
            pos.add(acct_id)
        raise
