"""A plain-dict model of the chain, written from the ``chain`` module docstring.

It shares nothing with ``prestigesim.chain`` but the signature checks of
``acks`` and the propagation rule of ``mining.propagate_upstream``: state is
dicts, lists and Python numbers, and every rule is restated here in the
order the docstrings give it. ``tests/test_chain_model.py`` drives it side
by side with the real chain and compares the two after every operation.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from prestigesim import (
    Block,
    DuplicateTask,
    InsufficientFunds,
    InvalidSignature,
    PathAck,
    SimpleAck,
    TransferRecord,
    UnknownAccount,
    verify_path_ack,
    verify_simple_ack,
)
from prestigesim.mining import MiningMode, propagate_upstream


class ChainModel:
    def __init__(self, accounts, decay, branch_power, seed, subsidy, ack_fee):
        # id -> [coins, prestige, vk], in genesis order
        self.accounts = {uid: [coins, 0.0, vk] for uid, coins, vk in accounts}
        self.decay, self.branch_power, self.seed = decay, branch_power, seed
        self.subsidy, self.ack_fee = subsidy, ack_fee
        self.height = 0
        self.parent: dict[str, str | None] = {}  # distribution forest, insertion order
        self.seen: set[bytes] = set()
        self.pending: list[tuple[object, list[tuple]]] = []  # (ack, transfers)
        self.rewards: list[list] = []  # [funder, coins_per_block, remaining]
        self.fees_pending = 0
        self.initial_coins = sum(c for c, _, _ in self.accounts.values())

    # -- submit ----------------------------------------------------------------

    def by_vk(self, vk: bytes) -> str:
        for uid, (_, _, key) in self.accounts.items():
            if key == vk:
                return uid
        raise UnknownAccount("no account holds the key")

    def charge_fee(self, claimer: str) -> None:
        if self.accounts[claimer][0] < self.ack_fee:
            raise InsufficientFunds(claimer)
        self.accounts[claimer][0] -= self.ack_fee
        self.fees_pending += self.ack_fee

    def submit(self, ack, hint: str | None = None) -> None:
        """Accept *ack* or raise what the chain raises; a raise changes nothing."""
        if isinstance(ack, SimpleAck):
            contributor = self.by_vk(ack.contributor_vk)
            if hint is not None:
                if hint not in self.accounts:
                    raise UnknownAccount(hint)
                signers = [hint]
            else:
                signers = list(self.accounts)
            payer = next((uid for uid in signers if self.accounts[uid][2]
                          and verify_simple_ack(ack, self.accounts[uid][2])), None)
            if payer is None:
                raise InvalidSignature("simple ack")
            if ack.task_id in self.seen:
                raise DuplicateTask(ack.task_id.hex())
            self.charge_fee(contributor)
            self.seen.add(ack.task_id)
            self.pending.append((ack, [(payer, contributor, float(ack.amount), MiningMode.SIMPLE)]))
            return

        assert isinstance(ack, PathAck)
        nodes = [self.by_vk(hop.vk) for hop in ack.hops]
        if len(set(nodes)) != len(nodes):
            raise InvalidSignature("repeated account")
        for k, node in enumerate(nodes):
            if node in self.parent and self.parent[node] != (nodes[k - 1] if k else None):
                raise InvalidSignature("misplaced")
        if not verify_path_ack(ack, self.accounts[nodes[0]][2]):
            raise InvalidSignature("composite")
        if all(hop.task_id in self.seen for hop in ack.hops):
            raise DuplicateTask("every hop")
        self.charge_fee(nodes[-1])
        transfers = []
        for k, (node, hop) in enumerate(zip(nodes, ack.hops)):
            self.parent.setdefault(node, nodes[k - 1] if k else None)
            if hop.task_id in self.seen:
                continue
            self.seen.add(hop.task_id)
            if k:
                transfers.append((node, nodes[k - 1], float(hop.amount), MiningMode.PROGRESSIVE))
        self.pending.append((ack, transfers))

    def register_motivator(self, funder: str, per_block: int, blocks: int) -> None:
        total = per_block * blocks
        if total == 0:
            return
        if self.accounts[funder][0] < total:
            raise InsufficientFunds(funder)
        self.accounts[funder][0] -= total
        self.rewards.append([funder, per_block, blocks])

    # -- blocks ----------------------------------------------------------------

    def root_path(self, node: str) -> list[str]:
        path = [node]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path

    def elect(self, rng: np.random.Generator) -> str:
        ids = list(self.accounts)
        weights = [max(a[1], 0.0) for a in self.accounts.values()]
        total = float(np.array(weights).sum())
        if total > 0.0:
            cutoff = rng.random() * total
            return ids[min(bisect_right(list(accumulate(weights)), cutoff), len(ids) - 1)]
        pool = [uid for uid in ids if self.accounts[uid][0] > 0] or ids
        return pool[int(rng.integers(len(pool)))]

    def advance(self) -> Block:
        height = self.height + 1
        for acct in self.accounts.values():  # (1) regenerate from coins held entering the block
            acct[1] = acct[0] + (1.0 - self.decay) * acct[1]
        records = []
        for _, transfers in self.pending:  # (2) transfers in submission order
            for beneficiary, contributor, x, mode in transfers:
                if mode is MiningMode.SIMPLE:
                    shares = [(contributor, x)]
                else:
                    path = self.root_path(contributor)
                    prestige = {n: self.accounts[n][1] for n in path}
                    shares = propagate_upstream(path, x, prestige, self.branch_power)
                self.accounts[beneficiary][1] -= x
                for node, amount in shares:
                    if amount != 0.0:
                        self.accounts[node][1] += amount
                records.append(TransferRecord(beneficiary, contributor, x, height, mode,
                                              tuple((n, float(a)) for n, a in shares)))
        hexes = tuple(ack.to_hex() for ack, _ in self.pending)
        self.pending = []
        minter = self.elect(np.random.default_rng([self.seed & (2**64 - 1), height]))  # (3)
        payout = 0
        for schedule in self.rewards:  # (4) subsidy, fees and motivators to the minter
            payout += schedule[1]
            schedule[2] -= 1
        self.rewards = [s for s in self.rewards if s[2] > 0]
        fees, self.fees_pending = self.fees_pending, 0
        self.accounts[minter][0] += self.subsidy + fees + payout
        self.height = height
        return Block(height, minter, tuple(records), fees, self.subsidy, payout, hexes)

    # -- snapshot --------------------------------------------------------------

    def snapshot(self) -> str:
        """The ``save_snapshot`` text (the service fee is always 0.0 here)."""
        lines = ["# prestigesim-state 1", f"# height {self.height}",
                 f"# decay {self.decay!r}", f"# branch-power {self.branch_power!r}",
                 "# service-fee 0.0", f"# seed {self.seed}", f"# subsidy {self.subsidy}",
                 f"# ack-fee {self.ack_fee}", f"# initial-coins {self.initial_coins}",
                 f"# fees-pending {self.fees_pending}"]
        lines += [f"# root {n}" for n, p in self.parent.items() if p is None]
        lines += [f"# edge {n} {p}" for n, p in self.parent.items() if p is not None]
        lines += [f"# reward {f} {c} {r}" for f, c, r in self.rewards]
        lines += [f"# seen {t.hex()}" for t in sorted(self.seen)]
        lines += [f"{uid},{c},{p!r},{vk.hex()}" for uid, (c, p, vk) in self.accounts.items()]
        return "\n".join(lines) + "\n"
