"""The benchmark's two workloads and the checks on their outputs.

Each workload is built once from ``(seed, size)`` (its set-up) and then
run repeatedly by ``run_once``; every repetition gets the same inputs, so
its outputs must be byte-identical to the first one.  ``run_once`` returns
the seconds spent in the timed part, the digests of what the program
produced and how many checks were made and failed.

Only public functions of ``prestigesim`` are called, and always through
their module (``chain.submit_ack``, never a local alias), so that a traced
run can patch them where they are looked up.  The one exception is
``snapshot_text``, the benchmark's own re-render for the snapshot
round-trip check, which is neither timed nor traced.

* ``study_all``: ``prestigesim run --all`` at the scenarios' defaults.
* ``chain_blocks``: the chain API driven block by block: path-ack joins,
  simple acks, exact replays, block production and snapshot round trips.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from prestigesim import acks, chain, cli, scenarios
from prestigesim.core import SystemParams
from prestigesim.errors import DuplicateTask, PrestigeError

clock = time.perf_counter
snapshot_text = chain.save_snapshot  # bound before any tracer patches chain

# Data rows each scenario writes at its defaults; none depends on the seed.
STUDY_ROWS = {
    "decay": 800,
    "gain_vs_decay": 30,
    "dag_study": 2000,
    "global": 100_000,
    "tradeoff": 32,
    "file_distribution": 17_000,
    "theorem_checks": 6,
}


@dataclass(frozen=True)
class ChainSize:
    accounts: int
    roots: int
    blocks: int
    joins: int  # path-ack joins per block, from block 2 on
    simple: int  # simple acks per block
    replays: int  # exact replays of earlier acks per block
    snapshot_every: int  # blocks between snapshot round trips


# chain_blocks sizes; study_all always runs the scenarios at their defaults.
SIZES = {
    "full": ChainSize(accounts=5000, roots=16, blocks=60, joins=40, simple=30,
                      replays=10, snapshot_every=20),
    "tiny": ChainSize(accounts=120, roots=3, blocks=8, joins=8, simple=5,
                      replays=3, snapshot_every=3),
}


@dataclass
class Outcome:
    wall: float  # seconds spent in the timed part
    attempted: int = 0
    failed: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    # per-call latencies in seconds, by call name (chain_blocks only)
    latencies: dict[str, list[float]] = field(default_factory=dict)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_summary(text: str) -> dict[str, object]:
    """Invert ``ScenarioResult.summary_text``: ``key: <json>`` per line."""
    out: dict[str, object] = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        out[key] = json.loads(value)
    return out


def scenario_verdict(name: str, summary: dict[str, object]) -> bool:
    """Checks that hold at every seed: the scenarios' own verdicts and identities."""
    if name == "decay":
        users = [k[: -len(".static_value")] for k in summary if k.endswith(".static_value")]
        return bool(users) and all(
            abs(summary[f"{u}.pre_drop_prestige"] - summary[f"{u}.pre_drop_predicted"])
            <= 1e-9 * abs(summary[f"{u}.pre_drop_predicted"])
            for u in users
        )
    if name == "gain_vs_decay":
        return (summary["zero_injection_zero_surplus"] is True
                and summary["surplus_decreasing_in_decay"] is True
                and summary["linearity_max_rel_dev"] <= 1e-9)
    if name == "dag_study":
        # a user with zero base prestige provably retains nothing
        return summary["progressive.max_retained_at_zero_base"] == 0.0
    if name == "global":
        return (summary["poor_lazy.static_value"] == 50 / 0.05
                and summary["rich_active.static_value"] == 100 / 0.05)
    if name == "tradeoff":
        return (summary["small_decay_rewards_work"] is True
                and summary["large_decay_rewards_wealth"] is True
                and summary["richer_never_behind_at_same_work"] is True)
    if name == "file_distribution":
        return (summary["budget_exact"] is True
                and summary["rewards_sum_cents"] == summary["budget_cents"])
    if name == "theorem_checks":
        return summary["all_passed"] is True
    raise ValueError(f"no verdict for scenario {name!r}")


class StudyAll:
    """``prestigesim run --all`` writing into *out*."""

    def __init__(self, seed: int, size: str, out: Path) -> None:
        self.seed = seed
        self.out = out

    def run_once(self) -> Outcome:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["run", "--all", "--seed", str(self.seed), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = clock()
            rc = cli.main(argv)
            wall = clock() - t0
        outcome = Outcome(wall=wall)
        outcome.check(rc == 0)
        if rc == 0:
            for name in scenarios.scenario_names():
                self._check_scenario(outcome, name, STUDY_ROWS[name])
        return outcome

    def _check_scenario(self, outcome: Outcome, name: str, rows: int) -> None:
        try:
            csv_bytes = (self.out / f"{name}.csv").read_bytes()
            summary_bytes = (self.out / f"{name}_summary.txt").read_bytes()
        except FileNotFoundError:
            outcome.check(False)
            return
        outcome.digests[f"{name}.csv"] = sha256(csv_bytes)
        outcome.digests[f"{name}_summary.txt"] = sha256(summary_bytes)
        summary = parse_summary(summary_bytes.decode("utf-8"))
        outcome.check(csv_bytes.count(b"\n") == rows + 1 and scenario_verdict(name, summary))


class ChainBlocks:
    """Honest joins, simple acks and replays settled block by block.

    The set-up derives every account's key pair, builds the genesis state
    and plans all traffic from the seed.  Joins attach only under nodes that
    were on chain before the block began, and every node joins once, so all
    honest acks must be accepted; each replay resubmits an earlier accepted
    ack unchanged and must be rejected as a duplicate.
    """

    def __init__(self, seed: int, size: str, out: Path) -> None:
        self.size = SIZES[size]
        rng = np.random.default_rng([seed, 0xC4A1])
        ids = [f"a{i:05d}" for i in range(self.size.accounts)]
        coins = rng.integers(50, 1000, size=self.size.accounts)
        scheme_params = acks.setup(128)  # what ChainState.genesis derives keys with
        self.keys = {uid: acks.keygen(scheme_params, uid) for uid in ids}
        genesis = chain.ChainState.genesis(
            [(uid, int(c)) for uid, c in zip(ids, coins)],
            SystemParams(decay=0.05, branch_power=0.5),
            rng_seed=seed,
            subsidy=50,
            ack_fee=1,
        )
        funder = ids[int(np.argmax(coins))]
        chain.register_motivator_reward(genesis, funder, 5, self.size.blocks // 2)
        if any(genesis.accounts[uid].verification_key != kp.vk for uid, kp in self.keys.items()):
            raise RuntimeError("genesis derived different keys than acks.keygen")
        self.genesis = genesis
        self.plan, self.nodes_after = self._plan(rng, ids)

    def _plan(self, rng: np.random.Generator, ids: list[str]):
        """Per block, the submissions in order; replays point at earlier ones."""
        size = self.size
        roots = ids[: size.roots]
        newcomers = [ids[int(i)] for i in rng.permutation(np.arange(size.roots, len(ids)))]
        on_chain: list[str] = []
        plan: list[list[tuple]] = []
        nodes_after: list[int] = []
        honest_so_far = 0
        for b in range(size.blocks):
            honest: list[tuple] = []
            if b == 0:
                honest += [("root", r, rng.bytes(32)) for r in roots]
            else:
                for _ in range(min(size.joins, len(newcomers))):
                    parent = on_chain[int(rng.integers(len(on_chain)))]
                    honest.append(("join", newcomers.pop(), parent, rng.bytes(32),
                                   int(rng.integers(1, 500))))
            for _ in range(size.simple):
                payer, payee = rng.choice(len(ids), size=2, replace=False)
                honest.append(("simple", ids[int(payer)], ids[int(payee)], rng.bytes(32),
                               int(rng.integers(1, 500))))
            order = rng.permutation(len(honest) + size.replays)
            block: list[tuple] = []
            for k in order:
                if k < len(honest):
                    block.append(honest[k])
                    honest_so_far += 1
                elif honest_so_far:
                    block.append(("replay", int(rng.integers(honest_so_far))))
            plan.append(block)
            on_chain += [a[1] for a in honest if a[0] in ("root", "join")]
            nodes_after.append(len(on_chain))
        return plan, nodes_after

    def run_once(self) -> Outcome:
        state = self.genesis.copy()
        keys = self.keys
        decay = state.params.decay
        paths: dict[str, acks.PathAck] = {}
        accepted: list[tuple[object, str | None]] = []
        submit_s: list[float] = []
        block_s: list[float] = []
        outcome = Outcome(wall=0.0, latencies={"submit": submit_s, "block": block_s})
        for b, actions in enumerate(self.plan):
            t0 = clock()
            for action in actions:
                kind = action[0]
                hint = None
                if kind == "root":
                    _, node, task = action
                    ack = paths[node] = acks.make_root_ack(keys[node], task)
                elif kind == "join":
                    _, node, parent, task, amount = action
                    kp = keys[node]
                    ack = paths[node] = acks.extend_path_ack(paths[parent], kp, task, kp.vk, amount)
                elif kind == "simple":
                    _, hint, payee, task, amount = action
                    ack = acks.make_simple_ack(keys[hint], task, keys[payee].vk, amount)
                else:
                    ack, hint = accepted[action[1]]
                s0 = clock()
                try:
                    chain.submit_ack(state, ack, hint)
                    result = "accepted"
                except DuplicateTask:
                    result = "duplicate"
                except PrestigeError:
                    result = "rejected"
                submit_s.append(clock() - s0)
                if kind == "replay":
                    outcome.check(result == "duplicate")
                else:
                    outcome.check(result == "accepted")
                    accepted.append((ack, hint))
            outcome.wall += clock() - t0

            coins_in = state.total_coins()
            prestige_in = state.total_prestige()
            t0 = clock()
            state, _block = chain.advance_block(state)
            block_s.append(clock() - t0)
            outcome.wall += block_s[-1]
            expected_p = coins_in + (1.0 - decay) * prestige_in
            outcome.check(
                state.total_coins() + state.escrowed_coins() + state.fees_pending
                == state.initial_coins + state.height * state.subsidy
                and abs(state.total_prestige() - expected_p) <= 1e-9 * max(1.0, abs(expected_p))
                and len(state.dag) == self.nodes_after[b]
            )

            if (b + 1) % self.size.snapshot_every == 0:
                t0 = clock()
                text = chain.save_snapshot(state)
                state = chain.load_snapshot(text)
                outcome.wall += clock() - t0
                outcome.check(snapshot_text(state) == text)

        t0 = clock()
        final = chain.save_snapshot(state)
        outcome.wall += clock() - t0
        outcome.digests["final_snapshot"] = sha256(final.encode("utf-8"))
        return outcome


def make(name: str, seed: int, size: str, out: Path):
    """Build (set up) workload *name*; CLI workloads write under *out*."""
    cls = {"study_all": StudyAll, "chain_blocks": ChainBlocks}[name]
    return cls(seed, size, out)
