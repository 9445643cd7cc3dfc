"""Reproducible experiment runners built on the core engine.

Each runner here wires the primitives from :mod:`prestigesim.core`,
:mod:`prestigesim.mining` and friends into a self-contained, seeded
experiment and returns a :class:`ScenarioResult` holding its table a
column at a time, plus a flat summary of computed statistics and verdict
booleans.

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

import itertools
import json
import math
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable, Hashable, Sequence

import numpy as np

from . import mining
from .acks import PATH_ACK_BASE_BYTES, PATH_HOP_BYTES, SIMPLE_ACK_BYTES
# step_account and apply_transfer go unused here: perfbench/tracing.py patches them by name.
from .core import SystemParams, convergence_gap, finite_nonnegative, static_value, step_account  # noqa: F401
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


_ROWS_PER_BLOCK = 4096  # rows csv_text renders into one string at a time
_WRITE_CHARS = 1 << 16  # characters _write_text encodes and writes at a time


def _values(col: Sequence) -> Sequence:
    """A column or a slice of one, a numpy array converted with ``tolist``."""
    return col.tolist() if isinstance(col, np.ndarray) else col


def _write_text(path: Path, text: str) -> None:
    """Write *text* to *path* as UTF-8 with no newline translation.

    The text goes out ``_WRITE_CHARS`` characters at a time, so no encoded
    copy of the whole text is made; a slice is cut by character, so no
    UTF-8 sequence is split.
    """
    with open(path, "w", encoding="utf-8", newline="") as out:
        for start in range(0, len(text), _WRITE_CHARS):
            out.write(text[start:start + _WRITE_CHARS])


@dataclass
class ScenarioResult:
    """One experiment run's table, one sequence per CSV column, plus its summary statistics.

    Each column of *data* holds one kind of value: floats (written as
    ``repr``, the shortest round-trip form), ints, strs or bools
    (``true``/``false``). A numpy array is converted with ``tolist``.
    No data means no rows.

    ``csv_text`` renders ``_ROWS_PER_BLOCK`` rows at a time, converting a
    numpy column one block slice at a time, and appends each block to one
    growing text, so the text is the only full-size copy it holds.
    ``write`` encodes and writes that text a slice at a time, making no
    encoded copy of it.
    """

    name: str
    columns: tuple[str, ...]
    data: Sequence[Sequence] = ()
    summary: dict[str, object] = field(default_factory=dict)

    def _checked(self) -> list[Sequence]:
        """The columns, checked to be one per header and of one length."""
        data = list(self.data)
        if data and (len(data) != len(self.columns) or len(set(map(len, data))) > 1):
            raise ValueError(f"{self.name}: {len(self.columns)} columns need as many sequences "
                             f"of one length, got lengths {[len(col) for col in data]}")
        return data

    @property
    def rows(self) -> list[tuple]:
        """The rows as tuples, a read-only view of the columns."""
        return list(zip(*map(_values, self._checked())))

    def csv_text(self) -> str:
        data = self._checked()
        n_rows = len(data[0]) if data else 0
        # a column renders as true/false if its first value is a bool, else by str (repr for a float)
        bools = [n_rows > 0 and type(_values(col[:1])[0]) is bool for col in data]
        # += on text, its one reference, resizes it in place: the text is the one full-size copy
        text = ",".join(self.columns)
        for start in range(0, n_rows, _ROWS_PER_BLOCK):
            parts = [_values(col[start:start + _ROWS_PER_BLOCK]) for col in data]
            cells = [("true" if v else "false" for v in part) if is_bool else map(str, part)
                     for is_bool, part in zip(bools, parts)]
            text += "\n"
            text += "\n".join(map(",".join, zip(*cells)))
        text += "\n"
        return text

    def summary_text(self) -> str:
        # json renders np.float64, a float subclass, as a float; other numpy scalars reach its hook
        lines = [
            f"{key}: {json.dumps(value, allow_nan=False, default=np.generic.item)}"
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
        _write_text(csv_path, csv_text)
        _write_text(summary_path, summary_text)
        return csv_path, summary_path


# --------------------------------------------------------------------------
# shared helpers


class _BoundedDraws:
    """``int(rng.integers(high))`` for 1 <= high <= 2**32, replayed on batched 32-bit words.

    numpy draws such a bounded integer with Lemire's method, one 32-bit
    word w at a time: m = w * high is rejected while m mod 2**32 is below
    2**32 mod high, and the result is m >> 32; a bound of 1 draws nothing.
    ``rng.integers(0, 2**32, size=k, dtype=np.uint32)`` yields the words
    k scalar draws would take, so calls here draw *batch* words at once
    (again when rejections use them up) and replay the rule in Python.
    ``close()`` follows the last call: it restores the generator to where
    the open batch began and redraws only the words used, so
    ``rng.bit_generator.state`` ends exactly where the scalar calls would
    leave it, PCG64's buffered half word included. Larger bounds take
    64-bit words in numpy and are refused here.
    """

    __slots__ = ("_rng", "_batch", "_state", "_words", "_next")

    def __init__(self, rng: np.random.Generator, batch: int) -> None:
        self._rng, self._batch = rng, max(batch, 1)
        self._state = None  # the generator's state where the open batch began
        self._words: list[int] = []
        self._next = 0

    def __call__(self, high: int) -> int:
        if high == 1:
            return 0
        if not 1 < high <= 1 << 32:
            raise ValueError(f"high must be between 1 and 2**32, got {high}")
        threshold = (1 << 32) % high
        while True:
            if self._next == len(self._words):
                self._state = self._rng.bit_generator.state
                words = self._rng.integers(0, 1 << 32, size=self._batch, dtype=np.uint32)
                self._words = words.tolist()
                self._next = 0
            m = self._words[self._next] * high
            self._next += 1
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def close(self) -> None:
        """Leave the generator as if each draw had been a scalar ``rng.integers`` call."""
        if self._state is not None:
            self._rng.bit_generator.state = self._state
            self._rng.integers(0, 1 << 32, size=self._next, dtype=np.uint32)
            self._state, self._words, self._next = None, [], 0


def _grow_forest(
    rng: np.random.Generator,
    node_ids: Sequence[Hashable],
    n_roots: int,
    fanout: int,
) -> tuple[list[Hashable | None], list[int], int]:
    """Attach nodes one by one to uniformly chosen open parents.

    Ids may be any distinct hashables; the tree scenarios pass positions
    (``range(n)``), so that the parents index per-user lists.
    The first *n_roots* ids become tree roots; every later node picks a
    tree uniformly at random, then a parent uniformly among that tree's
    nodes that still have an open child slot (strictly fewer than
    *fanout* children).  Returns ``(parents, depths, path_bytes)``:
    ``parents[k]`` is the id of ``node_ids[k]``'s parent, None for a root
    (the parent map ``mining.root_path`` walks, when ids are positions),
    and ``depths[k]`` its distance from its root.  Path receipts are
    composed along root-to-leaf chains, so only each leaf's final upload
    counts: *path_bytes* sums 33 bytes of composite signature plus 69 per
    node on each leaf's path (root included).

    Draws: each attachment takes ``int(rng.integers(n_roots))`` for the
    tree, then ``int(rng.integers(len(open slots)))`` for the parent, a
    bound of 1 drawing nothing. ``_BoundedDraws`` replays these on batched
    words, and *rng* is left exactly where those scalar calls leave it.
    """
    if not 1 <= n_roots <= len(node_ids):
        raise ValueError("n_roots must be between 1 and the number of nodes")
    if fanout < 1:
        raise ValueError("fanout must be at least 1")
    parents: list[Hashable | None] = [None] * n_roots
    depths = [0] * len(node_ids)
    n_children = [0] * len(node_ids)
    # open slots hold positions in node_ids
    open_slots = [[k] for k in range(n_roots)]
    below = _BoundedDraws(rng, (len(node_ids) - n_roots) * (2 if n_roots > 1 else 1))
    for pos in range(n_roots, len(node_ids)):
        slots = open_slots[below(n_roots)]
        idx = below(len(slots))
        parent = slots[idx]
        parents.append(node_ids[parent])
        depths[pos] = depths[parent] + 1
        n_children[parent] += 1
        if n_children[parent] >= fanout:
            slots[idx] = slots[-1]
            slots.pop()
        slots.append(pos)
    below.close()
    path_bytes = sum(
        PATH_ACK_BASE_BYTES + PATH_HOP_BYTES * (depth + 1)
        for depth, c in zip(depths, n_children) if c == 0
    )
    return parents, depths, path_bytes


def _user_ids(n: int) -> list[str]:
    """CSV ids ``u0``..``u{n-1}``, zero-padded to one width."""
    width = len(str(n - 1))
    return [f"u{str(i).zfill(width)}" for i in range(n)]


class _Tiled(Sequence):
    """*values* repeated *times* over, holding one copy of them; a step-1 slice is built in C."""

    def __init__(self, values: Sequence, times: int) -> None:
        self.values, self.times = list(values), times

    def __len__(self) -> int:
        return len(self.values) * self.times

    def __iter__(self):
        return itertools.chain.from_iterable(itertools.repeat(self.values, self.times))

    def __getitem__(self, key):
        at, m = range(len(self))[key], len(self.values)  # an index, or a range of them
        if isinstance(at, int):
            return self.values[at % m]
        if at.step != 1 or not at:
            return [self.values[i % m] for i in at]
        (q0, r0), (q1, r1) = divmod(at.start, m), divmod(at.stop, m)
        if q0 == q1:
            return self.values[r0:r1]
        return self.values[r0:] + self.values * (q1 - q0 - 1) + self.values[:r1]


def _block_table(name: str, labels: Sequence[str], coins: Sequence[int],
                 history: np.ndarray) -> ScenarioResult:
    """A per-block table: row t - 1 of *history* is block t's prestige, one user after another.

    Its columns are block, user_id (from *labels*), prestige and coins; the
    labels and coins are tiled, not copied, once a block, and the block
    number takes the smallest integer dtype that holds it.
    """
    blocks = len(history)
    return ScenarioResult(name, ("block", "user_id", "prestige", "coins"), (
        np.arange(1, blocks + 1, dtype=np.min_scalar_type(blocks)).repeat(len(labels)),
        _Tiled(labels, blocks), history.ravel(), _Tiled(coins, blocks)))


def _check_finite(*, nonnegative: bool = False, **values: float | Sequence[float]) -> None:
    """Raise ValueError naming the first argument, or grid, holding a NaN or infinity or,
    if *nonnegative*, a value below 0: the rule ``SystemParams`` holds its knobs to."""
    for name, value in values.items():
        for v in value if isinstance(value, (tuple, list)) else (value,):
            if nonnegative:
                finite_nonnegative(name, v)
            elif not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")


def _check_grid(**grids: Sequence) -> None:
    """Raise ValueError naming the first grid that is empty or repeats a value."""
    for name, grid in grids.items():
        if not grid:
            raise ValueError(f"{name} must not be empty")
        if len(set(grid)) != len(grid):
            raise ValueError(f"{name} must not repeat a value, got {tuple(grid)}")


def _check_cohorts(cohorts: Sequence[tuple[str, int, float, int]]) -> None:
    """Reject an empty cohort list, a label that would break a CSV row or a summary
    line (empty, or holding whitespace, ',' or '"'), a repeated label, a cohort
    without members, negative coins, or a work probability that is NaN or outside [0, 1]."""
    if not cohorts:
        raise ValueError("cohorts must not be empty")
    labels: set[str] = set()
    for label, coins, work_p, count in cohorts:
        if label.split() != [label] or "," in label or '"' in label:
            raise ValueError(f"cohort label {label!r} must be non-empty, without whitespace, ',' or '\"'")
        if label in labels:
            raise ValueError(f"cohort label {label!r} is repeated; each cohort needs its own")
        labels.add(label)
        if count < 1:
            raise ValueError(f"cohort {label!r} needs at least one member, got {count}")
        if coins < 0:
            raise ValueError(f"cohort {label!r} needs coins >= 0, got {coins}")
        if not 0.0 <= work_p <= 1.0:
            raise ValueError(f"cohort {label!r} needs a work probability in [0, 1], got {work_p}")


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of *a*, each run of ties sharing its mean rank (an exact half-integer)."""
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(a)]
    ranks = np.empty(len(a))
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho of x and y, bit for bit as ``scipy.stats.spearmanr`` computes it.

    A constant input has no ranking to correlate: NaN, with no warning.
    """
    if (x == x[0]).all() or (y == y[0]).all():
        return math.nan
    ranked = np.empty((len(x), 2))  # one column per input, as scipy ranks them
    ranked[:, 0] = _average_ranks(x)
    ranked[:, 1] = _average_ranks(y)
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])


def _linregress(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y on x and its standard error, bit for bit as
    ``scipy.stats.linregress`` computes them (the same numpy calls, in order)."""
    if np.amax(x) == np.amin(x):
        raise ValueError("cannot fit a line when every x value is the same")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    df = len(x) - 2
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / df) if df else 0.0
    return float(ssxym / ssxm), float(stderr)


def _trim_mean(a: np.ndarray, cut: float) -> float:
    """Mean of *a* without its lowest and highest *cut* share, as ``scipy.stats.trim_mean``."""
    lo = int(cut * len(a))
    hi = len(a) - lo
    return float(np.mean(np.partition(a, (lo, hi - 1))[lo:hi]))


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

    The table has one row per block and user: the block, the user's
    ``C<coins>_d<decay>`` label, its prestige after that block and its
    coins, built by ``_block_table``.
    """
    _check_finite(spike=spike)
    if not users or len(set(users)) != len(users):
        raise ValueError(f"users must be one or more distinct (coins, decay) pairs, got {tuple(users)}")
    if not 0 < spike_up_at < spike_down_at <= blocks:
        raise ValueError("spike blocks must satisfy 0 < up < down <= blocks")
    labels = [f"C{coins}_d{decay}" for coins, decay in users]
    params = [SystemParams(decay=decay) for _, decay in users]
    coins = [c for c, _ in users]
    _check_finite(nonnegative=True, coins=coins)
    keeps = [1.0 - p.decay for p in params]
    prestige = pre_drop = [0.0] * len(users)
    history = np.empty((blocks, len(users)))  # row t - 1: block t's prestige, one user after another
    for t in range(1, blocks + 1):
        prestige = [c + k * p for c, k, p in zip(coins, keeps, prestige)]
        if t == spike_up_at:
            prestige = [p + spike for p in prestige]
        elif t == spike_down_at:
            prestige = [p - spike for p in prestige]
        if t == spike_down_at - 1:
            pre_drop = prestige
        history[t - 1] = prestige
    result = _block_table("decay", labels, coins, history)

    for i, label in enumerate(labels):
        s = static_value(coins[i], params[i])
        # Superposed closed form: the gap from zero, plus the spike decaying as if coinless.
        predicted_pre_drop = (
            s + convergence_gap(0.0, coins[i], params[i], spike_down_at - 1)
            + convergence_gap(spike, 0, params[i], spike_down_at - 1 - spike_up_at)
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

    It draws nothing; the grid steps as one (decays x injections) array per block.
    """
    _check_finite(decay_grid=decay_grid, injections=injections)
    _check_grid(decay_grid=decay_grid, injections=injections)
    if blocks < 1:
        raise ValueError(f"blocks must be at least 1, got {blocks}")
    inj = np.asarray(injections, dtype=np.float64)
    # SystemParams holds each decay to the one rule, 0 < d < 1
    keep = 1.0 - np.array([[SystemParams(decay=d).decay] for d in decay_grid], dtype=np.float64)
    surplus = np.zeros((len(decay_grid), len(inj)))
    total = np.zeros_like(surplus)
    for _ in range(blocks):
        surplus = surplus * keep + inj
        total += surplus
    result = ScenarioResult(
        "gain_vs_decay",
        ("decay", "injection", "surplus_total", "surplus_final", "surplus_mean"),
        (np.repeat(np.asarray(decay_grid, dtype=np.float64), len(inj)), np.tile(inj, len(keep)),
         total.ravel(), surplus.ravel(), (total / blocks).ravel()),
    )

    # Verdicts from total's column per injection: zero drip leaves zero surplus; surplus
    # scales linearly in the drip; and for any fixed positive drip, it falls as decay rises
    # (judged over the rows in ascending decay, whatever order the grid gives).
    zero_ok = bool((total[:, inj == 0.0] == 0.0).all())
    linear_dev = 0.0
    if 1.0 in inj and 2.0 in inj:
        one, two = total[:, inj == 1.0][:, 0], total[:, inj == 2.0][:, 0]
        linear_dev = float(np.max(np.abs(two - 2.0 * one) / np.abs(two)))
    positive = total[np.argsort(decay_grid)][:, inj > 0.0]
    monotone = bool((positive[:-1] > positive[1:]).all())
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
    _check_finite(nonnegative=True, branch_power=branch_power, fee=fee)
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
    if not 0 <= tasks_range[0] <= tasks_range[1]:
        raise ValueError(f"tasks_range must have 0 <= low <= high, got {tasks_range}")
    modes = [MiningMode.parse(m, "modes") for m in modes]
    _check_grid(modes=[m.value for m in modes])
    ids = _user_ids(n_users)
    rng = np.random.default_rng(seed)
    parents, depth, path_bytes = _grow_forest(rng, range(n_users), n_trees, fanout)
    if len(set(depth)) < 3:
        raise ValueError(f"n_trees={n_trees} left no two users below a root at different "
                         "distances, so the gain-vs-distance slope is undefined")
    # one call per list: the same words, in the same order, as one scalar call per user
    base = [float(v) for v in rng.integers(base_range[0], base_range[1] + 1, size=n_users).tolist()]
    task_count = rng.integers(tasks_range[0], tasks_range[1] + 1, size=n_users).tolist()
    servers = [i for i in range(n_users) for _ in range(task_count[i])]
    if not servers:
        raise ValueError(f"no user was drawn a task from tasks_range {tasks_range}")
    if len(set(task_count)) < 2:
        raise ValueError(f"every user was drawn {task_count[0]} tasks from tasks_range "
                         f"{tasks_range}, so there is no line to fit gain against tasks")
    servers = [servers[int(k)] for k in rng.permutation(len(servers))]
    payer_picks = rng.integers(0, n_users - 1, size=len(servers)).tolist()
    distance = np.array(depth, dtype=np.float64)
    tasks = np.array(task_count, dtype=np.float64)
    bases = np.array(base, dtype=np.float64)

    trees = [mining.root_path(parents, i)[-1] for i in range(n_users)]
    columns = ("mode", "user_id", "tree", "distance", "base_prestige",
               "tasks", "paid", "retained", "absorbed", "gain")
    result = ScenarioResult("dag_study", columns, tuple([] for _ in columns))
    for mode in modes:
        paid = [0.0] * n_users
        retained = [0.0] * n_users
        absorbed = [0.0] * n_users
        up = parents if mode is MiningMode.PROGRESSIVE else [None] * n_users
        for server, j in zip(servers, payer_picks):
            if j >= server:
                j += 1
            paid[j] += fee
            mining.settle_upstream(mining.root_path(up, server), fee, base, branch_power, retained)
        if mode is MiningMode.PROGRESSIVE:
            # A root (the first n_trees positions) is only ever credited its paths' final residual.
            for i in range(n_trees):
                absorbed[i], retained[i] = retained[i], 0.0
        key = mode.value
        gain = np.add(retained, absorbed)
        for col, values in zip(result.data, ([key] * n_users, ids, trees, depth, base,
                                             task_count, paid, retained, absorbed, gain.tolist())):
            col.extend(values)
        inner = distance >= 1.0
        slope, stderr = _linregress(distance[inner], gain[inner])
        result.summary[f"{key}.gain_vs_distance_slope"] = slope
        result.summary[f"{key}.gain_vs_distance_slope_stderr"] = stderr
        result.summary[f"{key}.gain_vs_distance_spearman"] = _spearman(distance, gain)
        # Bin users by tasks served; a straight line through the bin
        # means shows whether earnings track service volume.
        counts = sorted(set(int(t) for t in tasks))
        bin_x = np.array(counts, dtype=np.float64)
        bin_y = np.array([float(np.mean(gain[tasks == c])) for c in counts])
        bin_w = np.array([float(np.sum(tasks == c)) for c in counts])
        result.summary[f"{key}.gain_vs_tasks_r2"] = _weighted_r2(bin_x, bin_y, bin_w)
        result.summary[f"{key}.gain_vs_base_spearman"] = _spearman(bases, gain)
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

    The table has one row per block and user, in roster order: the block,
    the user's id, its prestige after that block and its coins, built by
    ``_block_table``.
    """
    mining_mode = MiningMode.parse(mode)
    params = SystemParams(decay=decay, branch_power=branch_power)
    _check_finite(nonnegative=True, fee=fee)
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
    parents, _, _ = _grow_forest(rng, range(n), 1, fanout)  # drawn in either mode: one stream
    up = parents if mining_mode is MiningMode.PROGRESSIVE else [None] * n

    coins = [c for _, c, _ in roster]
    work_p = np.array([w for _, _, w in roster], dtype=np.float64)
    statics = [static_value(c, params) for c in coins]
    prestige = [0.0] * n

    keep = 1.0 - decay
    tail = [0.0] * n
    history = np.empty((blocks, n))  # row t - 1: block t's prestige, one user after another
    for t in range(1, blocks + 1):
        prestige = [c + keep * p for c, p in zip(coins, prestige)]
        for i in np.flatnonzero(rng.random(n) < work_p).tolist():
            mining.settle_upstream(mining.root_path(up, i), fee, prestige, branch_power, prestige)
        history[t - 1] = prestige
        if t > blocks - window:
            tail = [a + (p - s) / window for a, p, s in zip(tail, prestige, statics)]
    result = _block_table("global", ids, coins, history)

    labels = [c[0] for c in cohorts]
    surplus: dict[str, float] = {}
    for label in labels:
        members = [i for i in range(n) if roster[i][0] == label]
        values = np.array([tail[i] for i in members])
        surplus[label] = _trim_mean(values, 0.1)
        result.summary[f"{label}.surplus_trimmed"] = surplus[label]
        result.summary[f"{label}.surplus_mean"] = float(np.mean(values))
        result.summary[f"{label}.static_value"] = float(np.mean([statics[i] for i in members]))
    result.summary["mode"] = mining_mode.value
    result.summary["blocks"] = blocks
    result.summary["window"] = window
    if {"poor_lazy", "poor_active", "rich_lazy", "rich_active"} <= set(labels):
        # two equal surpluses, zero ones included, are no gap
        pair_rel = lambda a, b: abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0  # noqa: E731
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
    1/d, small decay rates favour fresh work and large ones favour
    steady coin holdings; the summary reports, per decay, which of the
    poor-but-active and rich-but-lazy cohorts accumulated more prestige,
    and the crossover point, its verdicts read in ascending decay.

    Decay k draws its (blocks, users) uniforms from ``default_rng([seed, k])``,
    one block's after another, a chunk of about 1 MB per call, which keeps
    memory flat in *blocks*; all decays step as one (decays x users) array.
    """
    _check_finite(work_value=work_value, decay_grid=decay_grid)
    _check_cohorts(cohorts)
    _check_grid(decay_grid=decay_grid)
    if blocks < 1:
        raise ValueError(f"blocks must be at least 1, got {blocks}")
    labels = [c[0] for c in cohorts]
    if not {"poor_active", "rich_lazy"} <= set(labels):
        raise ValueError("tradeoff cohorts must include 'poor_active' and 'rich_lazy'")
    coins = np.concatenate([np.full(c[3], c[1], dtype=np.float64) for c in cohorts])
    work_p = np.concatenate([np.full(c[3], c[2], dtype=np.float64) for c in cohorts])
    members = np.concatenate([np.full(c[3], i, dtype=np.int64) for i, c in enumerate(cohorts)])

    # SystemParams holds each decay to the one rule, 0 < d < 1
    keep = 1.0 - np.array([[SystemParams(decay=d).decay] for d in decay_grid], dtype=np.float64)
    prestige = np.zeros((len(decay_grid), len(coins)))
    totals = np.zeros_like(prestige)
    streams = [np.random.default_rng([seed, k]) for k in range(len(decay_grid))]
    step = max(1, 2**17 // prestige.size)  # blocks drawn at once: about 1 MB of uniforms
    for start in range(0, blocks, step):
        draws = np.stack([s.random((min(step, blocks - start), len(coins))) for s in streams])
        work = (draws < work_p) * work_value  # work[k, t]: each user's work in block t under decay k
        for t in range(work.shape[1]):
            prestige = coins + keep * (prestige + work[:, t])
            totals += prestige
    rows = []
    for d, row in zip(decay_grid, totals):
        for i, cohort in enumerate(cohorts):
            tot = float(np.sum(row[members == i]))
            rows.append((float(d), *cohort, tot, tot / (blocks * cohort[3])))
    result = ScenarioResult(
        "tradeoff",
        ("decay", "cohort", "coins", "work_probability",
         "members", "prestige_sum", "prestige_mean_per_block"),
        list(zip(*rows)),
    )

    grid = [float(d) for d in decay_grid]
    by_key = {(r[0], r[1]): r[5] for r in rows}
    winners = {
        d: "poor_active" if by_key[(d, "poor_active")] > by_key[(d, "rich_lazy")] else "rich_lazy"
        for d in grid
    }
    for d in grid:
        result.summary[f"winner.d{d}"] = winners[d]
    crossover = next((d for d in sorted(grid) if winners[d] == "rich_lazy"), None)
    result.summary["crossover_decay"] = crossover
    result.summary["small_decay_rewards_work"] = winners[min(grid)] == "poor_active"
    result.summary["large_decay_rewards_wealth"] = winners[max(grid)] == "rich_lazy"

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

    Optional *fee_grid* x *branch_grid* settles every combination over
    the season drawn once for the headline run: the same base prestige,
    audiences, join orders and forests, each combination on a prestige
    list of its own.  Each combo's typical (interquartile-mean) and top
    rewards are reported: the knobs reshuffle the top of the payout table
    while the typical participant's reward barely moves.
    """
    _check_finite(nonnegative=True, fee=fee, fee_grid=fee_grid, branch_power=branch_power,
                  branch_grid=branch_grid)
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    if budget_cents < 0:
        raise ValueError(f"budget_cents must be >= 0, got {budget_cents}")
    for name, (low, high) in (("viewers_range", viewers_range), ("base_range", base_range)):
        if low > high:
            raise ValueError(f"{name} must have low <= high, got {(low, high)}")
    if bool(fee_grid) != bool(branch_grid):
        raise ValueError("fee_grid and branch_grid must be given together, got "
                         f"fee_grid={tuple(fee_grid)} and branch_grid={tuple(branch_grid)}")
    if fee_grid:
        _check_grid(fee_grid=fee_grid, branch_grid=branch_grid)
    viewers_low = viewers_range[0] // scale
    viewers_high = viewers_range[1] // scale
    if viewers_low < 1:
        raise ValueError("scale too aggressive: zero viewers per episode")
    budget = budget_cents // scale
    pool_size = viewers_high
    creator = pool_size  # position after the pool in prestige and tasks_served
    rng = np.random.default_rng([seed, 0])
    # the pool's base prestige, then the creator's, in one call: the words of a scalar call each
    draws = rng.integers(base_range[0], base_range[1] + 1, size=pool_size + 1)
    prestige = [float(v) for v in draws.tolist()]
    base = prestige[:pool_size]
    # the headline setting, then each grid combination, each settling a prestige list of its own
    combos = list(product(fee_grid, branch_grid))
    settings = [(fee, branch_power, prestige),
                *((float(f), float(b), prestige.copy()) for f, b in combos)]
    tasks_served = [0] * (pool_size + 1)
    episodes_joined = [0] * pool_size
    up = [None] * (pool_size + 1)  # each id's parent in the episode it last joined
    n_tasks = path_bytes = 0
    for _ in range(episodes):
        audience = int(rng.integers(viewers_low, viewers_high + 1))
        joiners = rng.permutation(pool_size)[:audience].tolist()
        parents, _, episode_path = _grow_forest(rng, [creator, *joiners], 1, fanout)
        del parents[0]  # the creator's: it roots the tree
        for child, parent in zip(joiners, parents):
            up[child] = parent
            episodes_joined[child] += 1
            tasks_served[parent] += 1
        n_tasks += audience
        path_bytes += episode_path
        # Settle joins in attachment order. Each joiner pays its parent, whose root path holds
        # only ids that joined earlier in this episode: setting all of `up` first moves no path.
        for fee_value, branch_value, live in settings:
            for child, parent in zip(joiners, parents):
                live[child] -= fee_value
                mining.settle_upstream(mining.root_path(up, parent), fee_value, live,
                                       branch_value, live)
    rewards, *alt_payouts = [
        _largest_remainder(np.array([max(p, 0.0) for p in live[:pool_size]]), budget)
        for *_, live in settings]

    result = ScenarioResult(
        "file_distribution",
        ("user_id", "base_prestige", "episodes_joined", "tasks_served",
         "final_prestige", "reward_cents"),
        (_user_ids(pool_size), base, episodes_joined, tasks_served[:pool_size],
         prestige[:pool_size], rewards),
    )

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
    result.summary["ack_bytes_per_task"] = SIMPLE_ACK_BYTES * n_tasks
    result.summary["ack_bytes_per_path"] = path_bytes
    result.summary["fee"] = fee
    result.summary["branch_power"] = branch_power

    if combos:
        typicals = []
        for (f_alt, b_alt), alt_rewards in zip(combos, alt_payouts):
            typ = _interquartile_mean(alt_rewards[alt_rewards > 0])
            typicals.append(typ)
            result.summary[f"combo_f{f_alt}_b{b_alt}.typical_cents"] = typ
            result.summary[f"combo_f{f_alt}_b{b_alt}.top_cents"] = int(np.max(alt_rewards))
        ref = result.summary["typical_reward_cents"]
        spread = max(abs(t - ref) / ref for t in typicals) if ref else 0.0
        result.summary["typical_reward_max_rel_shift"] = spread
    return result


# --------------------------------------------------------------------------
# machine-checked fairness properties


def _column_sums(rows: np.ndarray, full: np.ndarray) -> np.ndarray:
    """``np.sum`` of each column of an (8 x k) array of non-negative floats, bit for bit.

    Left to right, which trailing zeros leave unchanged, except in the
    columns *full* marks: np.sum adds exactly 8 in its unrolled pairwise order.
    """
    pairwise = ((rows[0] + rows[1]) + (rows[2] + rows[3])) + ((rows[4] + rows[5]) + (rows[6] + rows[7]))
    return np.where(full, pairwise, np.add.accumulate(rows)[-1])


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
    The properties draw in turn from ``default_rng(seed)``, each trial in a
    fixed order. A uniform double takes a whole 64-bit word and leaves
    PCG64's buffered half word alone, so the retention check draws its
    (trials x 5) uniforms, and each collusion trial its (25 x 2), in one
    call with the scalar calls' doubles and end state; the other checks mix
    in bounded integers and keep their calls. The split static values and
    trajectories are computed for all trials at once.
    """
    if trials < 1:
        # zero trials would check nothing and still report all_passed
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    rows: list[tuple] = []
    summary: dict[str, object] = {}

    def record(name: str, violation: float, tol: float) -> None:
        passed = violation <= tol
        rows.append((name, trials, violation, tol, passed))
        summary[f"{name}.max_violation"] = violation
        summary[f"{name}.passed"] = passed

    # Identity splitting: trajectories and static values are additive.
    # Trial i's shares sit zero-padded in column i; after the draws all trials step at once.
    coins, decays = np.empty(trials), np.empty(trials)
    full = np.zeros(trials, dtype=bool)
    shares = np.zeros((8, trials))
    for i in range(trials):
        n = int(rng.integers(1, 1_000_000))
        d = float(rng.uniform(0.001, 0.999))
        parts = int(rng.integers(2, 9))
        cuts = np.sort(rng.integers(0, n + 1, size=parts - 1))
        shares[:parts, i] = np.diff(np.concatenate(([0], cuts, [n])))
        coins[i], decays[i], full[i] = n, d, parts == 8
    # Static values C / d, the parts added left to right as sum() did (the padding adds +0.0).
    s_whole, s_split = coins / decays, np.add.accumulate(shares / decays)[-1]
    worst_static = float((np.abs(s_split - s_whole) / np.maximum(np.abs(s_whole), 1e-12)).max())
    whole, split = np.zeros(trials), np.zeros_like(shares)
    worst_traj = 0.0
    for _t in range(40):
        whole = coins + (1.0 - decays) * whole
        split = shares + (1.0 - decays) * split
        gap = np.abs(_column_sums(split, full) - whole) / np.maximum(np.abs(whole), 1e-12)
        worst_traj = max(worst_traj, float(gap.max()))
    record("split_trajectory_additive", worst_traj, 1e-9)
    record("split_static_additive", worst_static, 1e-9)

    # Transfer conservation, both modes, on a random tree (fanout n: no slot closes).
    worst_cons = 0.0
    for _ in range(max(1, trials // 10)):
        n = int(rng.integers(3, 10))
        parents, _, _ = _grow_forest(rng, range(n), 1, n)
        for up in ([None] * n, parents):  # simple mining (no parents), then progressive
            draws = [(int(rng.integers(1, 200)), float(rng.uniform(0, 500))) for _u in range(n)]
            coins, prestige = [c for c, _ in draws], [p for _, p in draws]
            for _t in range(20):
                expected = sum(coins) + 0.95 * sum(prestige)
                prestige = [c + (1.0 - 0.05) * p for c, p in zip(coins, prestige)]
                k = int(rng.integers(1, n))
                beneficiary = int(rng.integers(n))
                if beneficiary != k:
                    x = float(rng.uniform(1, 300))
                    mining.settle_transfer(prestige, beneficiary, mining.root_path(up, k), x, 0.5)
                got = sum(prestige)
                worst_cons = max(worst_cons, abs(got - expected) / max(abs(expected), 1e-12))
    record("transfer_conservation", worst_cons, 1e-9)

    # Splitting an identity to relay work through an inside deal: the relay
    # must first buy its standing from the stump (the stump's share of the
    # branch power), and the pipeline never retains more than the whole.
    worst_split_gain = 0.0
    # each trial's (x, p1, p2, b, outside), the doubles of five scalar uniform calls
    draws = rng.uniform((0.1, 0.01, 0.01, 0.05, 0.0), (500.0, 400.0, 400.0, 2.0, 300.0),
                        (trials, 5))
    for x, p1, p2, b, outside in draws.tolist():
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
        # each block's (invoice, jitter), the doubles of two scalar uniform calls
        for x_ji, jitter in rng.uniform((1.0, 0.0), (50.0, 10.0), (25, 2)).tolist():
            active = [c + (1.0 - d) * p for c, p in zip(coins, active)]
            idle = [c + (1.0 - d) * p for c, p in zip(coins, idle)]
            before = active[1]
            mining.settle_transfer(active, 2, (1, 0), x_ji, 0.5)
            retained_i = active[1] - before
            x_ij = max(retained_i, 0.0) + jitter
            mining.settle_transfer(active, 1, (2, 1, 0), x_ij, 0.5)
            pair = active[1] + active[2]
            base = idle[1] + idle[2]
            worst_pair = max(worst_pair, (pair - base) / max(abs(base), 1e-12))
    record("collusion_never_beats_idle", worst_pair, 1e-9)

    # Propagation is exact and non-negative.
    worst_prop = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 12))
        prestige = rng.uniform(-50, 300, size=n).tolist()  # the bits and words of n scalar draws
        x = float(rng.uniform(0.01, 1000.0))
        b = float(rng.uniform(0.0, 2.0))
        # the path of the chain 0 <- 1 <- ... from its deepest node
        shares = mining.propagate_upstream(range(n - 1, -1, -1), x, prestige, b)
        total = sum(a for _, a in shares)
        worst_prop = max(worst_prop, abs(total - x) / x)
        if any(a < 0.0 for _, a in shares):
            worst_prop = max(worst_prop, 1.0)
    record("propagation_exact_and_nonnegative", worst_prop, 1e-9)

    summary["all_passed"] = all(row[4] for row in rows)
    summary["trials"] = trials
    return ScenarioResult(
        "theorem_checks",
        ("property", "trials", "max_violation", "tolerance", "passed"),
        list(zip(*rows)),
        summary,
    )


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
