"""Reproducible experiment runners built on the core engine.

Each runner here wires the primitives from :mod:`prestigesim.core`,
:mod:`prestigesim.mining` and friends into a self-contained, seeded
experiment and returns a :class:`ScenarioResult` holding tabular rows
plus a flat summary of computed statistics and verdict booleans.

Determinism contract: the same keyword arguments and seed produce
byte-identical CSV text and summary text on every run.  All randomness
flows through ``numpy.random.default_rng`` seeded from the ``seed``
argument (sub-streams are derived as ``default_rng([seed, k])`` so that
adding a grid point never perturbs earlier ones).

CSV conventions: one header row, comma separators, ``.`` decimal
points, floats via ``repr`` (shortest round-trip form), LF endings.
Summaries are ``key: value`` lines with JSON-encoded scalars.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import starmap
from pathlib import Path
from typing import Callable, Hashable, Sequence

import numpy as np
from scipy import stats as sstats

from . import mining
from .acks import PATH_ACK_BASE_BYTES, PATH_HOP_BYTES, SIMPLE_ACK_BYTES
# step_account and apply_transfer go unused here: perfbench/tracing.py patches them by name.
from .core import SystemParams, static_value, step_account  # noqa: F401
from .mining import MiningMode, apply_transfer  # noqa: F401

__all__ = [
    "ScenarioResult",
    "SCENARIOS",
    "scenario_names",
    "run_scenario",
    "run_decay_study",
    "run_gain_vs_decay",
    "run_dag_study",
    "run_global",
    "run_tradeoff",
    "run_file_distribution",
    "run_theorem_checks",
]


# --------------------------------------------------------------------------
# result container


def _cell(value: object) -> str:
    """Format one CSV cell deterministically."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _plain_columns(rows: Sequence[tuple], ncols: int) -> bool:
    """Whether each of the *ncols* columns holds exactly one type of float, int or str."""
    kinds = {tuple(map(type, row)) for row in rows}
    return len(kinds) <= 1 and all(
        len(kind) == ncols and set(kind) <= {float, int, str} for kind in kinds
    )


def _scalar(value: object) -> object:
    """Coerce numpy scalars so json.dumps renders them plainly."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


@dataclass
class ScenarioResult:
    """Tabular output of one experiment run plus its summary statistics."""

    name: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    summary: dict[str, object] = field(default_factory=dict)

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        if _plain_columns(self.rows, len(self.columns)):
            # str.format of a float is its repr, of an int or str its str: _cell's text.
            lines.extend(starmap(",".join(["{}"] * len(self.columns)).format, self.rows))
        else:
            for row in self.rows:
                lines.append(",".join(_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def summary_text(self) -> str:
        lines = [
            f"{key}: {json.dumps(_scalar(value), allow_nan=False)}"
            for key, value in self.summary.items()
        ]
        return "\n".join(lines) + "\n"

    def write(self, outdir: str | Path) -> tuple[Path, Path]:
        """Write ``<name>.csv`` and ``<name>_summary.txt`` into *outdir*.

        Both texts are rendered before either file is written, so a summary
        that cannot render (a NaN statistic) leaves no CSV behind.
        """
        csv_text, summary_text = self.csv_text(), self.summary_text()
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{self.name}.csv"
        summary_path = out / f"{self.name}_summary.txt"
        csv_path.write_text(csv_text, encoding="utf-8", newline="")
        summary_path.write_text(summary_text, encoding="utf-8", newline="")
        return csv_path, summary_path


# --------------------------------------------------------------------------
# shared helpers


def _grow_forest(
    rng: np.random.Generator,
    node_ids: Sequence[Hashable],
    n_roots: int,
    fanout: int,
) -> tuple[list[tuple[Hashable, ...]], int]:
    """Attach nodes one by one to uniformly chosen open parents.

    Ids may be any distinct hashables; the tree scenarios pass positions
    (``range(n)``) so that each path indexes per-user lists.
    The first *n_roots* ids become tree roots; every later node picks a
    tree uniformly at random, then a parent uniformly among that tree's
    nodes that still have an open child slot (strictly fewer than
    *fanout* children).  Returns ``(paths, path_bytes)``.  ``paths[k]``
    is the root path of ``node_ids[k]``, node first and root last, built
    once when the node attaches as its own id followed by its parent's
    path; so a path's length less one is the node's depth, its last id
    names its tree, and ``paths[n_roots:]`` lists the attachments in
    order.  Path receipts are composed along root-to-leaf chains, so
    only each leaf's final upload counts: *path_bytes* sums 33 bytes of
    composite signature plus 69 per node on each leaf's path (root
    included).
    """
    if not 1 <= n_roots <= len(node_ids):
        raise ValueError("n_roots must be between 1 and the number of nodes")
    if fanout < 1:
        raise ValueError("fanout must be at least 1")
    paths = [(root,) for root in node_ids[:n_roots]]
    n_children = [0] * len(node_ids)
    # open slots hold positions in node_ids
    open_slots = [[k] for k in range(n_roots)]
    for pos in range(n_roots, len(node_ids)):
        tree = int(rng.integers(n_roots)) if n_roots > 1 else 0
        slots = open_slots[tree]
        idx = int(rng.integers(len(slots)))
        parent = slots[idx]
        paths.append((node_ids[pos],) + paths[parent])
        n_children[parent] += 1
        if n_children[parent] >= fanout:
            slots[idx] = slots[-1]
            slots.pop()
        slots.append(pos)
    path_bytes = sum(
        PATH_ACK_BASE_BYTES + PATH_HOP_BYTES * len(path)
        for path, c in zip(paths, n_children) if c == 0
    )
    return paths, path_bytes


def _user_ids(n: int) -> list[str]:
    """CSV ids ``u0``..``u{n-1}``, zero-padded to one width."""
    width = len(str(n - 1))
    return [f"u{str(i).zfill(width)}" for i in range(n)]


def _check_finite(**values: float | Sequence[float]) -> None:
    """Raise ValueError naming the first argument, or grid, holding a NaN or infinity."""
    for name, value in values.items():
        for v in value if isinstance(value, (tuple, list)) else (value,):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")


def _check_cohorts(cohorts: Sequence[tuple[str, int, float, int]]) -> None:
    """Reject an empty cohort list, a repeated label or a cohort without members."""
    if not cohorts:
        raise ValueError("cohorts must not be empty")
    labels: set[str] = set()
    for label, _, _, count in cohorts:
        if label in labels:
            raise ValueError(f"cohort label {label!r} is repeated; each cohort needs its own")
        labels.add(label)
        if count < 1:
            raise ValueError(f"cohort {label!r} needs at least one member, got {count}")


def _weighted_r2(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """Weighted R-squared of the best-fit line through (x, y)."""
    coeffs = np.polyfit(x, y, 1, w=np.sqrt(w))
    fit = np.polyval(coeffs, x)
    mean = float(np.average(y, weights=w))
    ss_res = float(np.sum(w * (y - fit) ** 2))
    ss_tot = float(np.sum(w * (y - mean) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - ss_res / ss_tot


# --------------------------------------------------------------------------
# regeneration and decay


def run_decay_study(
    seed: int = 0,
    blocks: int = 200,
    users: Sequence[tuple[int, float]] = ((100, 0.05), (50, 0.05), (100, 0.1), (100, 0.3)),
    spike: float = 200.0,
    spike_up_at: int = 100,
    spike_down_at: int = 150,
) -> ScenarioResult:
    """Track per-block prestige as holdings regenerate it and decay erodes it.

    Each user holds a fixed coin balance and a personal decay rate,
    starts at zero prestige and converges toward coins/decay.  At block
    *spike_up_at* every user receives a one-off prestige injection of
    *spike* (applied after that block's regeneration step), and at
    *spike_down_at* the same amount is removed, exposing how quickly
    each decay rate forgets transient gains.
    """
    _check_finite(spike=spike)
    if len(set(users)) != len(users):
        raise ValueError("user configurations must be distinct (coins, decay) pairs")
    if not 0 < spike_up_at < spike_down_at <= blocks:
        raise ValueError("spike blocks must satisfy 0 < up < down <= blocks")
    labels = [f"C{coins}_d{decay}" for coins, decay in users]
    params = [SystemParams(decay=decay) for _, decay in users]
    coins = [c for c, _ in users]
    for label, c in zip(labels, coins):
        if c < 0:
            raise ValueError(f"coins must be >= 0, got {c} for {label!r}")
    keeps = [1.0 - p.decay for p in params]
    prestige = [0.0] * len(users)
    pre_drop = [0.0] * len(users)

    result = ScenarioResult(
        name="decay",
        columns=("block", "user_id", "prestige", "coins"),
    )
    for t in range(1, blocks + 1):
        for i, label in enumerate(labels):
            p = coins[i] + keeps[i] * prestige[i]
            if t == spike_up_at:
                p += spike
            elif t == spike_down_at:
                p -= spike
            prestige[i] = p
            if t == spike_down_at - 1:
                pre_drop[i] = p
            result.rows.append((t, label, p, coins[i]))

    for i, label in enumerate(labels):
        s = static_value(coins[i], params[i])
        # Superposed closed form: initial gap from zero plus the spike's echo.
        predicted_pre_drop = (
            s + (0.0 - s) * keeps[i] ** (spike_down_at - 1)
            + spike * keeps[i] ** (spike_down_at - 1 - spike_up_at)
        )
        result.summary[f"{label}.static_value"] = s
        result.summary[f"{label}.final_prestige"] = prestige[i]
        result.summary[f"{label}.final_gap"] = prestige[i] - s
        result.summary[f"{label}.pre_drop_prestige"] = pre_drop[i]
        result.summary[f"{label}.pre_drop_predicted"] = predicted_pre_drop
        result.summary[f"{label}.pre_drop_surplus"] = pre_drop[i] - s
    result.summary["blocks"] = blocks
    result.summary["n_users"] = len(users)
    result.summary["spike"] = spike
    return result


def run_gain_vs_decay(
    seed: int = 0,
    blocks: int = 10_000,
    coins: int = 100,
    decay_grid: Sequence[float] = (0.01, 0.05, 0.1, 0.2, 0.5, 0.99),
    injections: Sequence[float] = (0.0, 1.0, 2.0, 5.0, 10.0),
) -> ScenarioResult:
    """Measure how much surplus a steady prestige drip sustains per decay rate.

    Every (decay, injection) pair simulates one user starting exactly at
    its static value who then receives *injection* extra prestige after
    each block's regeneration step.  The surplus above static is summed
    over the whole run: large decay rates bleed the drip away almost
    immediately, small ones let it pile up.
    """
    _check_finite(decay_grid=decay_grid, injections=injections)
    if blocks < 1:
        raise ValueError(f"blocks must be at least 1, got {blocks}")
    result = ScenarioResult(
        name="gain_vs_decay",
        columns=("decay", "injection", "surplus_total", "surplus_final", "surplus_mean"),
    )
    inj = np.asarray(injections, dtype=np.float64)
    for d in decay_grid:
        keep = 1.0 - float(d)
        surplus = np.zeros_like(inj)
        total = np.zeros_like(inj)
        for _ in range(blocks):
            surplus = surplus * keep + inj
            total += surplus
        for j, a in enumerate(injections):
            result.rows.append((float(d), float(a), float(total[j]),
                                float(surplus[j]), float(total[j]) / blocks))

    # Verdicts: zero drip leaves zero surplus; surplus scales linearly in
    # the drip; and for any fixed positive drip, surplus falls as decay rises.
    by_pair = {(r[0], r[1]): r[2] for r in result.rows}
    zero_ok = all(by_pair[(float(d), 0.0)] == 0.0 for d in decay_grid) if 0.0 in inj else True
    linear_dev = 0.0
    if 1.0 in inj and 2.0 in inj:
        for d in decay_grid:
            one = by_pair[(float(d), 1.0)]
            two = by_pair[(float(d), 2.0)]
            linear_dev = max(linear_dev, abs(two - 2.0 * one) / abs(two))
    monotone = True
    for a in injections:
        if a <= 0.0:
            continue
        column = [by_pair[(float(d), float(a))] for d in decay_grid]
        monotone = monotone and all(x > y for x, y in zip(column, column[1:]))
    result.summary["blocks"] = blocks
    result.summary["coins"] = coins
    result.summary["zero_injection_zero_surplus"] = zero_ok
    result.summary["linearity_max_rel_dev"] = linear_dev
    result.summary["surplus_decreasing_in_decay"] = monotone
    return result


# --------------------------------------------------------------------------
# distribution-tree studies


def run_dag_study(
    seed: int = 0,
    n_users: int = 1000,
    n_trees: int = 100,
    fanout: int = 8,
    branch_power: float = 0.5,
    fee: float = 200.0,
    base_range: tuple[int, int] = (0, 100),
    tasks_range: tuple[int, int] = (0, 8),
    modes: Sequence[str] = ("simple", "progressive"),
) -> ScenarioResult:
    """Measure how tree position shapes earnings under each retention rule.

    Users are scattered over *n_trees* random trees (uniform attachment,
    capped fanout) and given integer base prestige drawn uniformly from
    *base_range*.  Each user then serves a task count drawn uniformly
    from *tasks_range* — independent of its tree position, so position
    effects are not confounded with workload — and every task is paid
    for at *fee* by a uniformly chosen other user.

    Retention is evaluated against the frozen base-prestige snapshot:
    the study isolates the structural mechanism, so one task's gains do
    not feed the retention weights of the next (and a zero-base user
    therefore provably retains nothing in progressive mode).  Earnings
    accrue to separate tallies: ``retained`` via the retention rule,
    ``absorbed`` as a root's unconditional residual, ``gain`` their sum.
    """
    _check_finite(branch_power=branch_power, fee=fee)
    if n_users < 2:
        raise ValueError(f"n_users must be at least 2 (payers are other users), got {n_users}")
    # Each statistic below is undefined when what it ranks is constant.
    if not 1 <= n_trees < n_users:
        raise ValueError(f"n_trees must be between 1 and n_users - 1 ({n_users - 1}) "
                         f"so some user sits below a root, got {n_trees}")
    if fee <= 0.0:
        raise ValueError(f"fee must be positive, got {fee}")
    if base_range[0] >= base_range[1]:
        raise ValueError(f"base_range must span at least two values, got {base_range}")
    modes = [MiningMode.parse(m) for m in modes]
    ids = _user_ids(n_users)
    rng = np.random.default_rng(seed)
    paths, path_bytes = _grow_forest(rng, range(n_users), n_trees, fanout)
    depth = [len(path) - 1 for path in paths]
    if len(set(depth)) < 3:
        raise ValueError(f"n_trees={n_trees} left no two users below a root at different "
                         "distances, so the gain-vs-distance slope is undefined")
    base = [float(rng.integers(base_range[0], base_range[1] + 1)) for _ in ids]
    task_count = [int(rng.integers(tasks_range[0], tasks_range[1] + 1)) for _ in ids]
    servers = [i for i in range(n_users) for _ in range(task_count[i])]
    if not servers:
        raise ValueError(f"no user was drawn a task from tasks_range {tasks_range}")
    if len(set(task_count)) < 2:
        raise ValueError(f"every user was drawn {task_count[0]} tasks from tasks_range "
                         f"{tasks_range}, so there is no line to fit gain against tasks")
    servers = [servers[int(k)] for k in rng.permutation(len(servers))]
    payer_picks = rng.integers(0, n_users - 1, size=len(servers))
    distance = np.array(depth, dtype=np.float64)
    tasks = np.array(task_count, dtype=np.float64)
    bases = np.array(base, dtype=np.float64)

    result = ScenarioResult(
        name="dag_study",
        columns=("mode", "user_id", "tree", "distance", "base_prestige",
                 "tasks", "paid", "retained", "absorbed", "gain"),
    )
    for mode in modes:
        paid = [0.0] * n_users
        retained = [0.0] * n_users
        absorbed = [0.0] * n_users
        for k, server in enumerate(servers):
            j = int(payer_picks[k])
            if j >= server:
                j += 1
            paid[j] += fee
            if mode is MiningMode.SIMPLE:
                retained[server] += fee
            else:
                mining.settle_upstream(paths[server], fee, base, branch_power, retained)
        if mode is MiningMode.PROGRESSIVE:
            # A root is only ever credited its paths' final residual.
            for i in range(n_users):
                if depth[i] == 0:
                    absorbed[i], retained[i] = retained[i], 0.0
        for i, u in enumerate(ids):
            result.rows.append((
                mode.value, u, paths[i][-1], depth[i], base[i],
                task_count[i], paid[i], retained[i], absorbed[i],
                retained[i] + absorbed[i],
            ))
        key = mode.value
        gain = np.add(retained, absorbed)
        inner = distance >= 1.0
        fit = sstats.linregress(distance[inner], gain[inner])
        result.summary[f"{key}.gain_vs_distance_slope"] = float(fit.slope)
        result.summary[f"{key}.gain_vs_distance_slope_stderr"] = float(fit.stderr)
        rho = sstats.spearmanr(distance, gain)
        result.summary[f"{key}.gain_vs_distance_spearman"] = float(rho.statistic)
        # Bin users by tasks served; a straight line through the bin
        # means shows whether earnings track service volume.
        counts = sorted(set(int(t) for t in tasks))
        bin_x = np.array(counts, dtype=np.float64)
        bin_y = np.array([float(np.mean(gain[tasks == c])) for c in counts])
        bin_w = np.array([float(np.sum(tasks == c)) for c in counts])
        result.summary[f"{key}.gain_vs_tasks_r2"] = _weighted_r2(bin_x, bin_y, bin_w)
        base_rho = sstats.spearmanr(bases, gain)
        result.summary[f"{key}.gain_vs_base_spearman"] = float(base_rho.statistic)
        zero_retained = max((r for r, p in zip(retained, base) if p == 0.0), default=0.0)
        result.summary[f"{key}.max_retained_at_zero_base"] = zero_retained

    result.summary["n_users"] = n_users
    result.summary["n_trees"] = n_trees
    result.summary["n_tasks"] = len(servers)
    result.summary["ack_bytes_per_task"] = SIMPLE_ACK_BYTES * len(servers)
    result.summary["ack_bytes_per_path"] = path_bytes
    return result


def run_global(
    seed: int = 0,
    blocks: int = 1000,
    fee: float = 200.0,
    decay: float = 0.05,
    branch_power: float = 0.2,
    fanout: int = 8,
    mode: str = "simple",
    cohorts: Sequence[tuple[str, int, float, int]] = (
        ("poor_lazy", 50, 0.05, 25),
        ("poor_active", 50, 0.20, 25),
        ("rich_lazy", 100, 0.05, 25),
        ("rich_active", 100, 0.20, 25),
    ),
    window: int | None = None,
) -> ScenarioResult:
    """Run a full economy of working cohorts on one shared distribution tree.

    Cohorts are (label, coins, work_probability, count).  Members are
    interleaved round-robin over the tree's attachment order, so every
    cohort sees the same profile of positions and depth effects cancel
    out of cohort comparisons.  Each block every user first regenerates,
    then with its cohort's probability serves one task paid at *fee* by
    the platform (the served party is an outside consumer, so no
    participant is debited); the earnings land according to the selected
    retention mode, rippling up the tree in progressive mode.

    Cohort comparisons in the summary use each member's prestige surplus
    over its static value, averaged over the trailing *window* blocks —
    raw prestige mostly restates coin holdings, while the surplus
    isolates what working actually earned.  Idle users sit at their
    static value.  Verdicts use a 10%-trimmed cohort mean: in
    progressive mode the handful of members adjacent to the root collect
    outsized ripple windfalls that say nothing about the retention rule.
    The default branch power is kept moderate (0.2) so that retention
    differences, not ripple noise, dominate the cohort signal.
    """
    mining_mode = MiningMode.parse(mode)
    _check_finite(fee=fee, decay=decay, branch_power=branch_power)
    _check_cohorts(cohorts)
    if window is None:
        window = max(1, blocks // 5)
    if not 1 <= window <= blocks:
        raise ValueError(f"window must be between 1 and blocks ({blocks}), got {window}")
    rng = np.random.default_rng(seed)
    pools: list[list[tuple[str, int, float]]] = [
        [(label, coins, work_p)] * count for label, coins, work_p, count in cohorts
    ]
    roster: list[tuple[str, int, float]] = []
    while any(pools):
        for pool in pools:
            if pool:
                roster.append(pool.pop())
    n = len(roster)
    ids = _user_ids(n)
    paths, _ = _grow_forest(rng, range(n), 1, fanout)

    params = SystemParams(decay=decay, branch_power=branch_power)
    coins = [c for _, c, _ in roster]
    work_p = np.array([w for _, _, w in roster], dtype=np.float64)
    statics = [static_value(c, params) for c in coins]
    prestige = [0.0] * n

    result = ScenarioResult(
        name="global",
        columns=("block", "user_id", "prestige", "coins"),
    )
    keep = 1.0 - decay
    tail = [0.0] * n
    for t in range(1, blocks + 1):
        prestige = [c + keep * p for c, p in zip(coins, prestige)]
        draws = rng.random(n)
        for i in range(n):
            if draws[i] >= work_p[i]:
                continue
            if mining_mode is MiningMode.SIMPLE:
                prestige[i] += fee
            else:
                mining.settle_upstream(paths[i], fee, prestige, branch_power, prestige)
        for i, uid in enumerate(ids):
            result.rows.append((t, uid, prestige[i], coins[i]))
            if t > blocks - window:
                tail[i] += (prestige[i] - statics[i]) / window

    labels = [c[0] for c in cohorts]
    surplus: dict[str, float] = {}
    for label in labels:
        members = [i for i in range(n) if roster[i][0] == label]
        values = np.array([tail[i] for i in members])
        surplus[label] = float(sstats.trim_mean(values, 0.1))
        result.summary[f"{label}.surplus_trimmed"] = surplus[label]
        result.summary[f"{label}.surplus_mean"] = float(np.mean(values))
        result.summary[f"{label}.static_value"] = float(np.mean([statics[i] for i in members]))
    result.summary["mode"] = mining_mode.value
    result.summary["blocks"] = blocks
    result.summary["window"] = window
    if {"poor_lazy", "poor_active", "rich_lazy", "rich_active"} <= set(labels):
        pair_rel = lambda a, b: abs(a - b) / max(abs(a), abs(b))  # noqa: E731
        result.summary["same_work_rel_gap.active"] = pair_rel(
            surplus["poor_active"], surplus["rich_active"]
        )
        result.summary["same_work_rel_gap.lazy"] = pair_rel(
            surplus["poor_lazy"], surplus["rich_lazy"]
        )
        result.summary["ordering_rich_active_top"] = (
            surplus["rich_active"] > surplus["poor_active"]
        )
        result.summary["ordering_active_beats_rich_lazy"] = (
            surplus["poor_active"] > surplus["rich_lazy"]
        )
    return result


def run_tradeoff(
    seed: int = 0,
    blocks: int = 1000,
    work_value: float = 400.0,
    decay_grid: Sequence[float] = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9),
    cohorts: Sequence[tuple[str, int, float, int]] = (
        ("rich_lazy", 50, 0.05, 25),
        ("rich_active", 50, 0.25, 25),
        ("poor_lazy", 10, 0.05, 25),
        ("poor_active", 10, 0.25, 25),
    ),
) -> ScenarioResult:
    """Sweep the decay rate to locate the wealth-versus-work crossover.

    For each decay value the same cohort population runs *blocks* rounds:
    a user first banks *work_value* prestige with its cohort's work
    probability, then the regeneration step applies.  Because injected
    prestige is worth (1-d)/d in discounted terms while a coin is worth
    1/d, small decay rates favour steady coin holdings and large ones
    favour fresh work; the summary reports, per decay, which of the
    poor-but-active and rich-but-lazy cohorts accumulated more prestige,
    and the grid's crossover point.
    """
    _check_finite(work_value=work_value, decay_grid=decay_grid)
    _check_cohorts(cohorts)
    if not decay_grid:
        raise ValueError("decay_grid must not be empty")
    if blocks < 1:
        raise ValueError(f"blocks must be at least 1, got {blocks}")
    labels = [c[0] for c in cohorts]
    if not {"poor_active", "rich_lazy"} <= set(labels):
        raise ValueError("tradeoff cohorts must include 'poor_active' and 'rich_lazy'")
    coins = np.concatenate([np.full(c[3], c[1], dtype=np.float64) for c in cohorts])
    work_p = np.concatenate([np.full(c[3], c[2], dtype=np.float64) for c in cohorts])
    members = np.concatenate([np.full(c[3], i, dtype=np.int64) for i, c in enumerate(cohorts)])

    result = ScenarioResult(
        name="tradeoff",
        columns=("decay", "cohort", "coins", "work_probability",
                 "members", "prestige_sum", "prestige_mean_per_block"),
    )
    for k, d in enumerate(decay_grid):
        sub = np.random.default_rng([seed, k])
        keep = 1.0 - float(d)
        prestige = np.zeros(len(coins))
        totals = np.zeros(len(coins))
        for _ in range(blocks):
            worked = sub.random(len(coins)) < work_p
            prestige = coins + keep * (prestige + worked * work_value)
            totals += prestige
        for i, cohort in enumerate(cohorts):
            mask = members == i
            tot = float(np.sum(totals[mask]))
            result.rows.append((
                float(d), cohort[0], cohort[1], cohort[2], cohort[3],
                tot, tot / (blocks * cohort[3]),
            ))

    grid = [float(d) for d in decay_grid]
    by_key = {(r[0], r[1]): r[5] for r in result.rows}
    winners = {
        d: "poor_active" if by_key[(d, "poor_active")] > by_key[(d, "rich_lazy")] else "rich_lazy"
        for d in grid
    }
    for d in grid:
        result.summary[f"winner.d{d}"] = winners[d]
    crossover = next((d for d in grid if winners[d] == "rich_lazy"), None)
    result.summary["crossover_decay"] = crossover
    result.summary["small_decay_rewards_work"] = winners[grid[0]] == "poor_active"
    result.summary["large_decay_rewards_wealth"] = winners[grid[-1]] == "rich_lazy"

    same_work_ok = True
    if {"rich_lazy", "poor_lazy", "rich_active", "poor_active"} <= set(labels):
        for d in grid:
            same_work_ok = same_work_ok and (
                by_key[(d, "rich_lazy")] >= by_key[(d, "poor_lazy")]
                and by_key[(d, "rich_active")] >= by_key[(d, "poor_active")]
            )
    result.summary["richer_never_behind_at_same_work"] = same_work_ok
    result.summary["blocks"] = blocks
    result.summary["work_value"] = work_value
    return result


# --------------------------------------------------------------------------
# file-distribution case study


def _interquartile_mean(values: np.ndarray) -> float:
    """Mean of the middle half — how the typical participant fares."""
    if len(values) == 0:
        return 0.0
    q1, q3 = np.percentile(values, [25, 75])
    middle = values[(values >= q1) & (values <= q3)]
    return float(np.mean(middle))


def _largest_remainder(weights: np.ndarray, budget: int) -> np.ndarray:
    """Split integer *budget* proportionally to *weights*, exactly.

    Floors the proportional shares, then hands the leftover units to the
    largest fractional remainders (ties broken by index).  The result
    always sums to *budget*.
    """
    total = float(np.sum(weights))
    if total <= 0.0:
        return np.zeros(len(weights), dtype=np.int64)
    raw = weights * (budget / total)
    out = np.floor(raw).astype(np.int64)
    short = budget - int(np.sum(out))
    if short > 0:
        frac = raw - np.floor(raw)
        order = np.lexsort((np.arange(len(weights)), -frac))
        out[order[:short]] += 1
    return out


def run_file_distribution(
    seed: int = 0,
    scale: int = 1000,
    episodes: int = 6,
    viewers_range: tuple[int, int] = (14_000_000, 17_000_000),
    budget_cents: int = 470_000_000,
    fee: float = 300.0,
    branch_power: float = 0.5,
    fanout: int = 8,
    base_range: tuple[int, int] = (1, 10_000),
    fee_grid: Sequence[float] = (),
    branch_grid: Sequence[float] = (),
) -> ScenarioResult:
    """Case study: paying a season's file-sharers out of a fixed budget.

    Models a broadcaster seeding *episodes* releases to an audience pool
    (sized for the largest episode), with per-episode viewer counts and
    the cash budget divided by *scale* so the study stays tractable.
    Each episode grows a fresh distribution tree under the creator;
    every join settles one progressive-mode task against live prestige.
    The budget is then split in proportion to final non-negative
    prestige across pool users — the creator's own absorbed residuals
    are excluded — using largest-remainder rounding so the cents sum
    exactly.

    Optional *fee_grid* x *branch_grid* reruns the study per combination
    — over the identical random structure — and reports each combo's
    typical (interquartile-mean) and top rewards: the knobs reshuffle
    the top of the payout table while the typical participant's reward
    barely moves.
    """
    _check_finite(branch_power=branch_power, branch_grid=branch_grid)
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    if budget_cents < 0:
        raise ValueError(f"budget_cents must be >= 0, got {budget_cents}")
    for name, (low, high) in (("viewers_range", viewers_range), ("base_range", base_range)):
        if low > high:
            raise ValueError(f"{name} must have low <= high, got {(low, high)}")
    for name, value in [("fee", fee), *(("fee_grid", f) for f in fee_grid)]:
        if not 0.0 <= value < float("inf"):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    if bool(fee_grid) != bool(branch_grid):
        raise ValueError("fee_grid and branch_grid must be given together, got "
                         f"fee_grid={tuple(fee_grid)} and branch_grid={tuple(branch_grid)}")
    viewers_low = viewers_range[0] // scale
    viewers_high = viewers_range[1] // scale
    if viewers_low < 1:
        raise ValueError("scale too aggressive: zero viewers per episode")
    budget = budget_cents // scale
    pool_size = viewers_high
    creator = pool_size  # position after the pool in prestige and tasks_served

    def one_run(fee_value: float, branch_value: float, stream: int):
        rng = np.random.default_rng([seed, stream])
        base = [float(rng.integers(base_range[0], base_range[1] + 1)) for _ in range(pool_size)]
        prestige = [*base, float(rng.integers(base_range[0], base_range[1] + 1))]
        tasks_served = [0] * (pool_size + 1)
        episodes_joined = [0] * pool_size
        n_tasks = simple_bytes = path_bytes = 0
        for _ in range(episodes):
            audience = int(rng.integers(viewers_low, viewers_high + 1))
            joiners = rng.permutation(pool_size)[:audience].tolist()
            paths, episode_path = _grow_forest(rng, [creator, *joiners], 1, fanout)
            # Settle joins in attachment order: a later join never changes an earlier path.
            # Each joiner pays its parent, whose path is the joiner's less its first id.
            for path in paths[1:]:
                child, parent = path[0], path[1]
                episodes_joined[child] += 1
                tasks_served[parent] += 1
                prestige[child] -= fee_value
                mining.settle_upstream(path[1:], fee_value, prestige, branch_value, prestige)
            n_tasks += len(paths) - 1
            simple_bytes += SIMPLE_ACK_BYTES * audience
            path_bytes += episode_path
        weights = np.array([max(p, 0.0) for p in prestige[:pool_size]])
        rewards = _largest_remainder(weights, budget)
        return base, prestige, tasks_served, episodes_joined, rewards, n_tasks, simple_bytes, path_bytes

    base, prestige, tasks_served, episodes_joined, rewards, n_tasks, simple_bytes, path_bytes = one_run(
        fee, branch_power, 0
    )

    result = ScenarioResult(
        name="file_distribution",
        columns=("user_id", "base_prestige", "episodes_joined", "tasks_served",
                 "final_prestige", "reward_cents"),
    )
    for i, u in enumerate(_user_ids(pool_size)):
        result.rows.append((
            u, base[i], episodes_joined[i], tasks_served[i],
            prestige[i], int(rewards[i]),
        ))

    paid = rewards[rewards > 0]
    result.summary["scale"] = scale
    result.summary["budget_cents"] = budget
    result.summary["rewards_sum_cents"] = int(np.sum(rewards))
    result.summary["budget_exact"] = int(np.sum(rewards)) == budget
    result.summary["n_tasks"] = n_tasks
    result.summary["pool_size"] = pool_size
    result.summary["top_reward_cents"] = int(np.max(rewards))
    result.summary["median_paid_reward_cents"] = float(np.median(paid)) if len(paid) else 0.0
    result.summary["typical_reward_cents"] = _interquartile_mean(paid)
    result.summary["fraction_paid"] = float(np.mean(rewards > 0))
    result.summary["creator_final_prestige"] = prestige[creator]
    result.summary["ack_bytes_per_task"] = simple_bytes
    result.summary["ack_bytes_per_path"] = path_bytes
    result.summary["fee"] = fee
    result.summary["branch_power"] = branch_power

    if fee_grid and branch_grid:
        # Same stream as the headline run: the forests, base draws and
        # join orders are held fixed so only the knobs themselves move.
        typicals = []
        for f_alt in fee_grid:
            for b_alt in branch_grid:
                *_, alt_rewards, _, _, _ = one_run(float(f_alt), float(b_alt), 0)
                alt_paid = alt_rewards[alt_rewards > 0]
                typ = _interquartile_mean(alt_paid)
                typicals.append(typ)
                result.summary[f"combo_f{f_alt}_b{b_alt}.typical_cents"] = typ
                result.summary[f"combo_f{f_alt}_b{b_alt}.top_cents"] = int(np.max(alt_rewards))
        ref = result.summary["typical_reward_cents"]
        spread = max(abs(t - ref) / ref for t in typicals) if ref else 0.0
        result.summary["typical_reward_max_rel_shift"] = spread
    return result


# --------------------------------------------------------------------------
# machine-checked fairness properties


def _transfer(prestige: list[float], beneficiary: int, path: tuple[int, ...], x: float,
              mode: MiningMode) -> None:
    """Move x from *beneficiary* to the side of contributor ``path[0]`` (b = 0.5), in place.

    Shares are read before the debit: the beneficiary may sit on the path.
    """
    if mode is MiningMode.SIMPLE:
        shares = [(path[0], x)]
    else:
        shares = mining.propagate_upstream(path, x, prestige, 0.5)
    prestige[beneficiary] -= x
    for node, amount in shares:
        if amount != 0.0:
            prestige[node] += amount


def run_theorem_checks(seed: int = 0, trials: int = 500) -> ScenarioResult:
    """Stress the fairness guarantees with randomized instances.

    Five properties, each hammered with *trials* random cases:

    * splitting one account's coins across sock puppets changes neither
      the combined trajectory nor the combined static value;
    * transfers never create or destroy prestige in either mode;
    * splitting an identity to relay a task through an inside deal never
      beats serving it whole;
    * a cross-acknowledging pair that prices its own work fairly cannot
      outrun an identical pair that stays idle;
    * upstream propagation conserves the transferred amount and never
      produces a negative share.

    Reports one row per property with the worst observed violation.
    """
    if trials < 1:
        # zero trials would check nothing and still report all_passed
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    result = ScenarioResult(
        name="theorem_checks",
        columns=("property", "trials", "max_violation", "tolerance", "passed"),
    )

    def record(name: str, violation: float, tol: float) -> None:
        passed = violation <= tol
        result.rows.append((name, trials, violation, tol, passed))
        result.summary[f"{name}.max_violation"] = violation
        result.summary[f"{name}.passed"] = passed

    # Identity splitting: trajectories and static values are additive.
    worst_traj = 0.0
    worst_static = 0.0
    for _ in range(trials):
        coins = int(rng.integers(1, 1_000_000))
        d = float(rng.uniform(0.001, 0.999))
        parts = int(rng.integers(2, 9))
        cuts = np.sort(rng.integers(0, coins + 1, size=parts - 1))
        shares = np.diff(np.concatenate(([0], cuts, [coins]))).astype(np.int64)
        params = SystemParams(decay=d)
        whole = 0.0
        split = np.zeros(parts)
        for _t in range(40):
            whole = coins + (1.0 - d) * whole
            split = shares + (1.0 - d) * split
            denom = max(abs(whole), 1e-12)
            worst_traj = max(worst_traj, abs(float(np.sum(split)) - whole) / denom)
        s_whole = static_value(coins, params)
        s_split = sum(static_value(int(c), params) for c in shares)
        worst_static = max(worst_static, abs(s_split - s_whole) / max(abs(s_whole), 1e-12))
    record("split_trajectory_additive", worst_traj, 1e-9)
    record("split_static_additive", worst_static, 1e-9)

    # Transfer conservation, both modes, on a random tree (fanout n: no slot closes).
    worst_cons = 0.0
    for _ in range(max(1, trials // 10)):
        n = int(rng.integers(3, 10))
        paths, _ = _grow_forest(rng, range(n), 1, n)
        for mode in (MiningMode.SIMPLE, MiningMode.PROGRESSIVE):
            draws = [(int(rng.integers(1, 200)), float(rng.uniform(0, 500))) for _u in range(n)]
            coins, prestige = [c for c, _ in draws], [p for _, p in draws]
            for _t in range(20):
                expected = sum(coins) + 0.95 * sum(prestige)
                prestige = [c + (1.0 - 0.05) * p for c, p in zip(coins, prestige)]
                k = int(rng.integers(1, n))
                beneficiary = int(rng.integers(n))
                if beneficiary != k:
                    _transfer(prestige, beneficiary, paths[k], float(rng.uniform(1, 300)), mode)
                got = sum(prestige)
                worst_cons = max(worst_cons, abs(got - expected) / max(abs(expected), 1e-12))
    record("transfer_conservation", worst_cons, 1e-9)

    # Splitting an identity to relay work through an inside deal: the relay
    # must first buy its standing from the stump (the stump's share of the
    # branch power), and the pipeline never retains more than the whole.
    worst_split_gain = 0.0
    for _ in range(trials):
        x = float(rng.uniform(0.1, 500.0))
        p1 = float(rng.uniform(0.01, 400.0))
        p2 = float(rng.uniform(0.01, 400.0))
        b = float(rng.uniform(0.05, 2.0))
        outside = float(rng.uniform(0.0, 300.0))
        whole = mining.retain_progressive(x, p1 + p2, outside)
        r1 = mining.retain_progressive(x, p1, b * p2 + outside)
        r2 = mining.retain_progressive(2.0 * x - r1, p2, outside)
        split = r1 - x + r2
        worst_split_gain = max(worst_split_gain, split - whole)
    record("split_never_retains_more", worst_split_gain, 1e-12)

    # Cross-acknowledging pair vs an idle twin pair: fair self-pricing
    # (each invoice at least covers what the partner just retained)
    # keeps the colluders at or below the idle baseline.
    # Positions 0, 1 and 2 are the root, i and j, on the chain root <- i <- j.
    worst_pair = 0.0
    for _ in range(max(1, trials // 10)):
        d = float(rng.uniform(0.02, 0.3))
        coins = [int(rng.integers(10, 100)) for _u in range(3)]
        active, idle = [0.0] * 3, [0.0] * 3
        for _t in range(25):
            active = [c + (1.0 - d) * p for c, p in zip(coins, active)]
            idle = [c + (1.0 - d) * p for c, p in zip(coins, idle)]
            x_ji = float(rng.uniform(1, 50))
            before = active[1]
            _transfer(active, 2, (1, 0), x_ji, MiningMode.PROGRESSIVE)
            retained_i = active[1] - before
            x_ij = max(retained_i, 0.0) + float(rng.uniform(0, 10))
            _transfer(active, 1, (2, 1, 0), x_ij, MiningMode.PROGRESSIVE)
            pair = active[1] + active[2]
            base = idle[1] + idle[2]
            worst_pair = max(worst_pair, (pair - base) / max(abs(base), 1e-12))
    record("collusion_never_beats_idle", worst_pair, 1e-9)

    # Propagation is exact and non-negative.
    worst_prop = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 12))
        prestige = [float(rng.uniform(-50, 300)) for _ in range(n)]
        x = float(rng.uniform(0.01, 1000.0))
        b = float(rng.uniform(0.0, 2.0))
        # the path of the chain 0 <- 1 <- ... from its deepest node
        shares = mining.propagate_upstream(range(n - 1, -1, -1), x, prestige, b)
        total = sum(a for _, a in shares)
        worst_prop = max(worst_prop, abs(total - x) / x)
        if any(a < 0.0 for _, a in shares):
            worst_prop = max(worst_prop, 1.0)
    record("propagation_exact_and_nonnegative", worst_prop, 1e-9)

    result.summary["all_passed"] = all(row[4] for row in result.rows)
    result.summary["trials"] = trials
    return result


# --------------------------------------------------------------------------
# registry


SCENARIOS: dict[str, Callable[..., ScenarioResult]] = {
    "decay": run_decay_study,
    "gain_vs_decay": run_gain_vs_decay,
    "dag_study": run_dag_study,
    "global": run_global,
    "tradeoff": run_tradeoff,
    "file_distribution": run_file_distribution,
    "theorem_checks": run_theorem_checks,
}


def scenario_names() -> tuple[str, ...]:
    return tuple(SCENARIOS)


def run_scenario(name: str, **kwargs) -> ScenarioResult:
    """Run a registered scenario by name; unknown names raise KeyError."""
    try:
        runner = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIOS)}"
        ) from None
    return runner(**kwargs)
