"""Spans around prestigesim's public functions, recorded from outside.

``Tracer.installed()`` replaces each traced function with a wrapper at
every place a caller looks it up (``chain.step_account`` and
``scenarios.step_account`` beside ``core.step_account``, the class
attribute for a method, the entry of ``scenarios.SCENARIOS``), and puts
the originals back on exit.  A wrapper appends one span per call to flat
arrays kept in memory: name, start, end, nesting depth, two unit counts
(hops, bytes, rows, accounts ... as the layer defines them) and whether
the call raised.  Parents are recovered from the nesting when the spans
are written out, and a span's self time is its duration minus the
durations of its direct children.

Per-unit costs (``ns_per_hop``, ``us_per_account`` ...) divide a call's
inclusive time, children included, by its units; ``self_s`` is exclusive.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array
from pathlib import Path

import numpy as np

from prestigesim import acks, chain, cli, core, mining, scenarios

clock = time.perf_counter

SCENARIO_RUNNERS = {
    "decay": "run_decay_study",
    "gain_vs_decay": "run_gain_vs_decay",
    "dag_study": "run_dag_study",
    "global": "run_global",
    "tradeoff": "run_tradeoff",
    "file_distribution": "run_file_distribution",
    "theorem_checks": "run_theorem_checks",
}


def _targets():
    """(span name, places the function is looked up, units of one call)."""
    Dag, State, Result = mining.MiningDag, chain.ChainState, scenarios.ScenarioResult
    targets = [
        ("core.step_account", [(core, "step_account"), (chain, "step_account"),
                               (scenarios, "step_account")], None),
        ("mining.propagate_upstream", [(mining, "propagate_upstream")],
         lambda args, r: (len(r), 0)),
        ("mining.MiningDag.attach", [(Dag, "attach")], None),
        ("mining.MiningDag.path_to_root", [(Dag, "path_to_root")], None),
        ("mining.apply_transfer", [(mining, "apply_transfer"), (chain, "apply_transfer"),
                                   (scenarios, "apply_transfer")], None),
        ("acks.extend_path_ack", [(acks, "extend_path_ack")],
         lambda args, r: (len(r.hops), 0)),
        ("acks.make_simple_ack", [(acks, "make_simple_ack")], None),
        ("acks.verify_path_ack", [(acks, "verify_path_ack"), (chain, "verify_path_ack")],
         lambda args, r: (len(args[0].hops), 0)),
        ("acks.verify_simple_ack", [(acks, "verify_simple_ack"),
                                    (chain, "verify_simple_ack")], None),
        ("chain.submit_ack", [(chain, "submit_ack")], None),
        ("chain.ChainState.account_by_vk", [(State, "account_by_vk")], None),
        ("chain.advance_block", [(chain, "advance_block"), (cli, "advance_block")],
         lambda args, r: (len(r[1].ack_hexes), len(r[0].accounts))),
        ("chain.elect_minter", [(chain, "elect_minter")], None),
        ("chain.save_snapshot", [(chain, "save_snapshot"), (cli, "save_snapshot")],
         lambda args, r: (len(r.encode("utf-8")), len(args[0].accounts))),
        ("chain.load_snapshot", [(chain, "load_snapshot"), (cli, "load_snapshot")],
         lambda args, r: (len(r.accounts), 0)),
        ("scenarios.ScenarioResult.csv_text", [(Result, "csv_text")],
         lambda args, r: (len(args[0].rows), len(r.encode("utf-8")))),
        ("scenarios.ScenarioResult.summary_text", [(Result, "summary_text")], None),
        ("scenarios.ScenarioResult.write", [(Result, "write")],
         lambda args, r: (sum(os.path.getsize(p) for p in r), 0)),
        ("cli.main", [(cli, "main")], None),
    ]
    for key, runner in SCENARIO_RUNNERS.items():
        targets.append((f"scenarios.{runner}",
                        [(scenarios, runner), (scenarios.SCENARIOS, key)], None))
    return targets


# Which end-to-end metric each layer metric should move, and on which
# workload; "none" names the workloads where it should stay (near) zero.
LAYER_MAP = [
    {"metrics": "core.step_account.*", "moves": ["wall_per_ref"], "on": "chain_blocks",
     "little_or_none_on": ["study_all"]},
    {"metrics": "mining.propagate_upstream.*, mining.MiningDag.attach.*, "
                "mining.MiningDag.path_to_root.*",
     "moves": ["wall_per_ref"], "on": "study_all",
     "little_or_none_on": ["chain_blocks"]},
    {"metrics": "mining.apply_transfer.*", "moves": ["wall_per_ref"], "on": "chain_blocks",
     "little_or_none_on": ["study_all"]},
    {"metrics": "acks.extend_path_ack.*, acks.make_simple_ack.*", "moves": ["wall_per_ref"],
     "on": "chain_blocks", "little_or_none_on": ["study_all"]},
    {"metrics": "acks.verify_path_ack.*, acks.verify_simple_ack.*", "moves": ["wall_per_ref"],
     "on": "chain_blocks", "little_or_none_on": ["study_all"]},
    {"metrics": "chain.submit_ack.*, chain.ChainState.account_by_vk.*", "moves": ["wall_per_ref"],
     "on": "chain_blocks", "little_or_none_on": ["study_all"]},
    {"metrics": "chain.advance_block.*, chain.elect_minter.*", "moves": ["wall_per_ref"],
     "on": "chain_blocks", "little_or_none_on": ["study_all"]},
    {"metrics": "chain.save_snapshot.*, chain.load_snapshot.*", "moves": ["wall_per_ref"],
     "on": "chain_blocks", "little_or_none_on": ["study_all"]},
    {"metrics": "scenarios.run_*", "moves": ["wall_per_ref"],
     "on": "study_all",
     "little_or_none_on": ["chain_blocks"]},
    {"metrics": "scenarios.ScenarioResult.*", "moves": ["wall_per_ref"], "on": "study_all",
     "little_or_none_on": ["chain_blocks"]},
    {"metrics": "cli.main.self_s", "moves": ["wall_per_ref"], "on": "study_all",
     "little_or_none_on": ["chain_blocks"]},
    {"metrics": "trace_overhead_ratio, unattributed_s, traced_wall_s", "moves": [],
     "on": "every workload", "little_or_none_on": []},
]


class Tracer:
    """Span recorder; one instance per traced run, single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.depth = array("i")
        self.units = array("q")
        self.units2 = array("q")
        self.raised = array("b")
        self.iterations: list[tuple[int, int, float]] = []  # (first span, end, wall s)
        self._level = 0
        self._mark = 0
        self._parents: np.ndarray | None = None
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)

    def _wrap(self, name: str, fn, units):
        nid = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, depths = self.name_id, self.start, self.end, self.depth
        units1, units2, raised = self.units, self.units2, self.raised
        tracer = self

        def record(t0, t1, level, u, failed):
            name_ids.append(nid)
            starts.append(t0)
            ends.append(t1)
            depths.append(level)
            units1.append(u[0])
            units2.append(u[1])
            raised.append(failed)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            level = tracer._level
            tracer._level = level + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                tracer._level = level
                record(t0, t1, level, (0, 0), 1)
                raise
            t1 = clock()
            tracer._level = level
            record(t0, t1, level, units(args, result) if units else (0, 0), 0)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function in place for the duration of the block."""
        if not self._patches:
            for name, places, units in _targets():
                wrapped = self._wrap(name, _lookup(*places[0]), units)
                self._patches += [(owner, attr, _lookup(owner, attr), wrapped)
                                  for owner, attr in places]
        try:
            for owner, attr, _, wrapped in self._patches:
                _assign(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                _assign(owner, attr, original)

    def end_iteration(self, wall: float) -> None:
        """Close one traced repetition whose timed part took *wall* seconds."""
        self.iterations.append((self._mark, len(self.start), wall))
        self._mark = len(self.start)

    # -- analysis ------------------------------------------------------------

    def _columns(self):
        names = np.array(self.names, dtype=object)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        depth = np.frombuffer(self.depth, dtype=np.int32)
        return names, nid, start, end, depth

    def parents(self) -> np.ndarray:
        """Index of each span's parent, -1 for top-level spans.

        Spans are stored in the order calls return (children before their
        parent), so walking backwards visits a parent before its children.
        """
        if self._parents is not None and len(self._parents) == len(self.depth):
            return self._parents
        depth = self.depth
        parent = np.full(len(depth), -1, dtype=np.int64)
        stack: list[int] = []
        for i in range(len(depth) - 1, -1, -1):
            d = depth[i]
            while stack and depth[stack[-1]] >= d:
                stack.pop()
            if stack:
                parent[i] = stack[-1]
            stack.append(i)
        self._parents = parent
        return parent

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, per repetition: counts from the first, times averaged."""
        names, nid, start, end, _ = self._columns()
        units1 = np.frombuffer(self.units, dtype=np.int64)
        units2 = np.frombuffer(self.units2, dtype=np.int64)
        raised = np.frombuffer(self.raised, dtype=np.int8)
        dur = end - start
        parent = self.parents()
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        self_time = dur - child
        per_iteration = []
        for lo, hi, wall in self.iterations:
            sl = slice(lo, hi)
            per_iteration.append(_layer_metrics(
                names, nid[sl], dur[sl], self_time[sl], units1[sl], units2[sl],
                raised[sl], top_level=~inner[sl], wall=wall,
            ))
        merged: dict[str, float] = {}
        for key in per_iteration[0]:
            values = [m[key] for m in per_iteration]
            merged[key] = values[0] if _is_count(key) else float(np.mean(values))
        return merged

    def counts_repeat(self) -> bool:
        """Whether every repetition made exactly the same counted calls."""
        names, nid, *_ = self._columns()
        seen = None
        for lo, hi, _ in self.iterations:
            counts = np.bincount(nid[lo:hi], minlength=len(names)).tolist()
            if seen is not None and counts != seen:
                return False
            seen = counts
        return True

    def dump(self, path: Path) -> None:
        """Write every span (name, start, end, parent, units, raised) to *path*."""
        names, nid, start, end, _ = self._columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=names.astype(str), name_id=nid, start=start, end=end,
            parent=self.parents(), units=np.frombuffer(self.units, dtype=np.int64),
            units2=np.frombuffer(self.units2, dtype=np.int64),
            raised=np.frombuffer(self.raised, dtype=np.int8),
            iterations=np.array(self.iterations, dtype=np.float64).reshape(-1, 3),
        )


def _lookup(owner, attr: str):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


COUNT_SUFFIXES = (".calls", ".hops", ".rejected", ".acks_settled", ".bytes", ".rows")


def _is_count(key: str) -> bool:
    return key.endswith(COUNT_SUFFIXES)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if _is_count(name):
        return "bytes" if name.endswith(".bytes") else "count"
    if name.endswith(("_s", ".s")):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if ".us_" in name:
        return "us"
    if name == "trace_overhead_ratio":
        return "ratio"
    raise ValueError(f"no unit for metric {name!r}")


def _per(total: float, units: float, scale: float) -> float:
    return total / units * scale if units else 0.0


def _layer_metrics(names, nid, dur, self_time, units1, units2, raised, top_level, wall):
    by_name = {}
    for i, name in enumerate(names):
        mask = nid == i
        by_name[name] = {
            "calls": int(mask.sum()),
            "self_s": float(self_time[mask].sum()),
            "s": float(dur[mask].sum()),
            "u1": int(units1[mask].sum()),
            "u2": int(units2[mask].sum()),
            "raised": int(raised[mask].sum()),
        }
    m: dict[str, float] = {}

    def span(name, *fields):
        row = by_name[name]
        for f in fields:
            m[f"{name}.{f}"] = row[f]
        return row

    r = span("core.step_account", "calls", "self_s")
    m["core.step_account.ns_per_call"] = _per(r["s"], r["calls"], 1e9)
    r = span("mining.propagate_upstream", "calls", "self_s")
    m["mining.propagate_upstream.hops"] = r["u1"]
    m["mining.propagate_upstream.ns_per_hop"] = _per(r["s"], r["u1"], 1e9)
    span("mining.MiningDag.attach", "calls", "self_s")
    span("mining.MiningDag.path_to_root", "calls", "self_s")
    r = span("mining.apply_transfer", "calls", "self_s")
    m["mining.apply_transfer.us_per_call"] = _per(r["s"], r["calls"], 1e6)
    r = span("acks.extend_path_ack", "calls", "self_s")
    m["acks.extend_path_ack.hops"] = r["u1"]
    m["acks.extend_path_ack.us_per_hop"] = _per(r["s"], r["u1"], 1e6)
    span("acks.make_simple_ack", "calls", "self_s")
    r = span("acks.verify_path_ack", "calls", "self_s")
    m["acks.verify_path_ack.hops"] = r["u1"]
    m["acks.verify_path_ack.ns_per_hop"] = _per(r["s"], r["u1"], 1e9)
    span("acks.verify_simple_ack", "calls", "self_s")
    r = span("chain.submit_ack", "calls", "self_s")
    m["chain.submit_ack.rejected"] = r["raised"]
    low, high = _queue_quarters(names, nid, dur)
    m["chain.submit_ack.us_at_q_low"] = low * 1e6
    m["chain.submit_ack.us_at_q_high"] = high * 1e6
    span("chain.ChainState.account_by_vk", "calls", "self_s")
    r = span("chain.advance_block", "calls", "self_s")
    m["chain.advance_block.acks_settled"] = r["u1"]
    m["chain.advance_block.us_per_account"] = _per(r["s"], r["u2"], 1e6)
    span("chain.elect_minter", "self_s")
    r = span("chain.save_snapshot", "self_s")
    m["chain.save_snapshot.bytes"] = r["u1"]
    m["chain.save_snapshot.ns_per_account"] = _per(r["s"], r["u2"], 1e9)
    r = span("chain.load_snapshot", "self_s")
    m["chain.load_snapshot.ns_per_account"] = _per(r["s"], r["u1"], 1e9)
    for runner in SCENARIO_RUNNERS.values():
        span(f"scenarios.{runner}", "s", "self_s")
    r = span("scenarios.ScenarioResult.csv_text", "self_s")
    m["scenarios.ScenarioResult.csv_text.rows"] = r["u1"]
    m["scenarios.ScenarioResult.csv_text.bytes"] = r["u2"]
    m["scenarios.ScenarioResult.csv_text.ns_per_row"] = _per(r["s"], r["u1"], 1e9)
    span("scenarios.ScenarioResult.summary_text", "self_s")
    r = span("scenarios.ScenarioResult.write", "self_s")
    m["scenarios.ScenarioResult.write.bytes"] = r["u1"]
    span("cli.main", "self_s")
    m["traced_wall_s"] = wall
    m["unattributed_s"] = wall - float(dur[top_level].sum())
    return m


def _queue_quarters(names, nid, dur) -> tuple[float, float]:
    """Mean submit_ack time in the first and last quarter of each block's queue.

    A block's queue is the run of submit_ack spans before its advance_block.
    """
    submit = names.tolist().index("chain.submit_ack")
    advance = names.tolist().index("chain.advance_block")
    low: list[float] = []
    high: list[float] = []
    batch: list[float] = []
    for k, d in zip(nid.tolist(), dur.tolist()):
        if k == submit:
            batch.append(d)
        elif k == advance:
            q = len(batch) // 4
            if q:
                low += batch[:q]
                high += batch[-q:]
            batch = []
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
    return mean(low), mean(high)
