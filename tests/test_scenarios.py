"""Scenario runners: frozen verdicts, independent oracles, determinism."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prestigesim.mining
from prestigesim import (
    SCENARIOS,
    MiningMode,
    ScenarioResult,
    run_dag_study,
    run_decay_study,
    run_file_distribution,
    run_gain_vs_decay,
    run_global,
    run_scenario,
    run_theorem_checks,
    run_tradeoff,
    scenario_names,
)
from prestigesim.acks import PATH_ACK_BASE_BYTES, PATH_HOP_BYTES, SIMPLE_ACK_BYTES
from prestigesim.scenarios import (
    _BoundedDraws,
    _column_sums,
    _grow_forest,
    _linregress,
    _spearman,
    _trim_mean,
)

import csv_reference


# --- registry -----------------------------------------------------------------

def test_registry_lists_every_runner():
    assert scenario_names() == tuple(SCENARIOS)
    assert set(scenario_names()) == {
        "decay", "gain_vs_decay", "dag_study", "global",
        "tradeoff", "file_distribution", "theorem_checks",
    }


def test_run_scenario_dispatch_and_unknown():
    result = run_scenario("decay", blocks=10, spike_up_at=3, spike_down_at=6)
    assert result.name == "decay"
    with pytest.raises(KeyError, match="gain_vs_decay"):
        run_scenario("does_not_exist")


# --- decay study -----------------------------------------------------------------

def decay_oracle(coins, d, blocks, spike, up, down):
    """Replay the stated recurrence directly: step, then inject at the spikes."""
    p = 0.0
    pre_drop = None
    for t in range(1, blocks + 1):
        p = coins + (1.0 - d) * p
        if t == up:
            p += spike
        elif t == down:
            p -= spike
        if t == down - 1:
            pre_drop = p
    return p, pre_drop


def test_decay_study_matches_recurrence_oracle():
    result = run_decay_study(seed=0)
    for coins, d in ((100, 0.05), (50, 0.05), (100, 0.1), (100, 0.3)):
        label = f"C{coins}_d{d}"
        final, pre_drop = decay_oracle(coins, d, 200, 200.0, 100, 150)
        assert result.summary[f"{label}.final_prestige"] == pytest.approx(final, abs=1e-9)
        assert result.summary[f"{label}.pre_drop_prestige"] == pytest.approx(pre_drop, abs=1e-9)
        assert result.summary[f"{label}.static_value"] == coins / d
        # the runner's own closed-form prediction agrees with the simulation
        assert result.summary[f"{label}.pre_drop_predicted"] == pytest.approx(
            pre_drop, abs=1e-6
        )


def test_decay_study_fast_decay_forgets_spike():
    result = run_decay_study(seed=0)
    # d=0.3 has shed nearly the whole spike by block 200; d=0.05 still carries some
    assert abs(result.summary["C100_d0.3.final_gap"]) < 1e-4
    assert result.summary["C100_d0.05.pre_drop_surplus"] > result.summary[
        "C100_d0.3.pre_drop_surplus"
    ]
    # near-plateau before the drop for the fastest decay: spike echo ~ keep^49
    assert result.summary["C100_d0.3.pre_drop_surplus"] == pytest.approx(
        200.0 * 0.7**49 - (100 / 0.3) * 0.7**149, abs=1e-6
    )


def test_decay_study_rows_shape():
    result = run_decay_study(seed=0, blocks=20, spike_up_at=5, spike_down_at=10)
    assert result.columns == ("block", "user_id", "prestige", "coins")
    assert len(result.rows) == 20 * 4
    assert {r[1] for r in result.rows} == {
        "C100_d0.05", "C50_d0.05", "C100_d0.1", "C100_d0.3"
    }


def test_decay_study_validation():
    with pytest.raises(ValueError, match="distinct"):
        run_decay_study(users=((100, 0.05), (100, 0.05)))
    with pytest.raises(ValueError, match="spike blocks"):
        run_decay_study(blocks=50, spike_up_at=40, spike_down_at=30)
    with pytest.raises(ValueError, match="spike blocks"):
        run_decay_study(blocks=50, spike_up_at=0, spike_down_at=30)
    with pytest.raises(ValueError, match="coins"):
        run_decay_study(users=((-1, 0.05),))
    for decay in (1.5, float("nan")):
        with pytest.raises(ValueError, match="decay"):
            run_decay_study(users=((100, decay),))


# --- gain vs decay ---------------------------------------------------------------

def test_gain_vs_decay_matches_closed_form():
    blocks = 2000
    result = run_gain_vs_decay(blocks=blocks, decay_grid=(0.01, 0.2, 0.99), injections=(0.0, 1.0, 2.0))
    by_pair = {(r[0], r[1]): r for r in result.rows}
    for d in (0.01, 0.2, 0.99):
        keep = 1.0 - d
        for a in (0.0, 1.0, 2.0):
            # surplus_t = a (1 - keep^t) / d, summed over t = 1..T
            total = (a / d) * (blocks - keep * (1.0 - keep**blocks) / d)
            final = a * (1.0 - keep**blocks) / d
            row = by_pair[(d, a)]
            assert row[2] == pytest.approx(total, rel=1e-9, abs=1e-9)
            assert row[3] == pytest.approx(final, rel=1e-9, abs=1e-12)
            assert row[4] == pytest.approx(total / blocks, rel=1e-9, abs=1e-12)


def test_gain_vs_decay_rejects_empty_run():
    # the mean surplus divides by the block count
    with pytest.raises(ValueError, match="blocks"):
        run_gain_vs_decay(blocks=0)


@pytest.mark.parametrize("grids", [dict(decay_grid=()), dict(injections=()),
                                   dict(decay_grid=(), injections=())])
def test_gain_vs_decay_rejects_empty_grids(grids):
    # no rows would leave both verdicts vacuously true
    with pytest.raises(ValueError, match="must not be empty"):
        run_gain_vs_decay(blocks=5, **grids)


@pytest.mark.parametrize("decay_grid", [(1.5, -0.2), (0.5, 1.0), (0.0,)])
def test_gain_vs_decay_rejects_decays_outside_the_unit_interval(decay_grid):
    with pytest.raises(ValueError, match=r"decay must be in \(0, 1\)"):
        run_gain_vs_decay(blocks=5, decay_grid=decay_grid)


def test_gain_vs_decay_verdicts():
    result = run_gain_vs_decay()
    assert result.summary["zero_injection_zero_surplus"] is True
    assert result.summary["linearity_max_rel_dev"] == 0.0
    assert result.summary["surplus_decreasing_in_decay"] is True


def test_gain_vs_decay_rejects_a_repeated_decay():
    # two rows of one decay hold equal surplus, which no strict trend can pass
    with pytest.raises(ValueError, match=r"decay_grid must not repeat a value, got \(0.1, 0.1\)"):
        run_gain_vs_decay(blocks=20, decay_grid=(0.1, 0.1))
    with pytest.raises(ValueError, match="decay_grid must not repeat"):
        run_gain_vs_decay(blocks=20, decay_grid=(0.5, 0.1, 0.5))


@pytest.mark.parametrize("decay_grid", [(0.5, 0.1), (0.2, 0.99, 0.01), (0.99, 0.5, 0.2, 0.05)])
def test_gain_vs_decay_judges_the_trend_in_ascending_decay(decay_grid):
    # the grid's order is the rows' order, not the order the verdict reads them in
    result = run_gain_vs_decay(blocks=20, decay_grid=decay_grid)
    assert result.summary["surplus_decreasing_in_decay"] is True
    assert [row[0] for row in result.rows[::5]] == list(decay_grid)


# --- forest growth ---------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize(("n_nodes", "n_roots", "fanout"),
                         [(1, 1, 1), (40, 1, 1), (200, 1, 3), (200, 5, 2), (500, 3, 8)])
def test_grow_forest_attaches_every_id_once_within_fanout(seed, n_nodes, n_roots, fanout):
    ids = [f"n{i}" for i in range(n_nodes)]
    paths, path_bytes = _grow_forest(np.random.default_rng(seed), ids, n_roots, fanout)
    assert len(paths) == n_nodes
    assert [path[0] for path in paths] == ids
    assert paths[:n_roots] == [(root,) for root in ids[:n_roots]]
    placed = {paths[k]: k for k in range(n_roots)}
    n_children = [0] * n_nodes
    for k in range(n_roots, n_nodes):
        # the tail is the whole path of a node placed earlier: its parent
        parent = placed[paths[k][1:]]
        n_children[parent] += 1
        placed[paths[k]] = k
    assert max(n_children) <= fanout
    leaf_sum = sum(
        PATH_ACK_BASE_BYTES + PATH_HOP_BYTES * len(path)
        for path, c in zip(paths, n_children) if c == 0
    )
    assert path_bytes == leaf_sum


def _scalar_forest(rng, n_nodes, n_roots, fanout):
    """The forest _grow_forest grows, with one scalar rng.integers call per draw."""
    parents = [None] * n_roots
    n_children = [0] * n_nodes
    open_slots = [[k] for k in range(n_roots)]
    for pos in range(n_roots, n_nodes):
        slots = open_slots[int(rng.integers(n_roots)) if n_roots > 1 else 0]
        idx = int(rng.integers(len(slots)))
        parents.append(slots[idx])
        n_children[slots[idx]] += 1
        if n_children[slots[idx]] >= fanout:
            slots[idx] = slots[-1]
            slots.pop()
        slots.append(pos)
    return parents


@pytest.mark.parametrize(("n_nodes", "n_roots", "fanout"),
                         [(1, 1, 1), (300, 1, 2), (300, 7, 3), (2000, 40, 8)])
def test_grow_forest_draws_as_scalar_calls_would(n_nodes, n_roots, fanout):
    batched, scalar = np.random.default_rng(5), np.random.default_rng(5)
    batched.integers(10), scalar.integers(10)  # start from a buffered half word
    paths, _ = _grow_forest(batched, range(n_nodes), n_roots, fanout)
    assert [p[1] if len(p) > 1 else None for p in paths] == _scalar_forest(
        scalar, n_nodes, n_roots, fanout)
    assert batched.bit_generator.state == scalar.bit_generator.state


_BOUNDS = st.sampled_from([1, 2, 8, 2**31 + 1, 2**32 - 1, 2**32]) | st.integers(1, 2**32)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), half_word=st.booleans(), batch=st.integers(1, 8),
       highs=st.lists(_BOUNDS, max_size=60))
@example(seed=0, half_word=True, batch=4, highs=[2**31 + 1] * 40)  # about half the words rejected
@example(seed=0, half_word=False, batch=1, highs=[1] * 5)  # a bound of 1 draws nothing
def test_bounded_draws_replay_scalar_integers(seed, half_word, batch, highs):
    scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
    if half_word:  # PCG64 then holds the upper half of its last 64-bit output
        scalar.integers(10), batched.integers(10)
        assert batched.bit_generator.state["has_uint32"] == 1
    want = [int(scalar.integers(high)) for high in highs]
    below = _BoundedDraws(batched, batch)
    assert [below(high) for high in highs] == want
    below.close()
    assert batched.bit_generator.state == scalar.bit_generator.state
    assert batched.random() == scalar.random()


@pytest.mark.parametrize("high", [0, -3, 2**32 + 1])
def test_bounded_draws_refuse_bounds_outside_32_bits(high):
    with pytest.raises(ValueError, match="high must be between 1 and 2\\*\\*32"):
        _BoundedDraws(np.random.default_rng(0), 4)(high)


@pytest.mark.parametrize("draw", [
    lambda rng, size=None: rng.uniform(-50, 300, size),  # the propagation check's prestige
    lambda rng, size=None: rng.integers(1, 10_001, size),  # file_distribution's base prestige
])
def test_one_batched_draw_matches_scalar_draws(draw):
    # Scenarios draw n values in one call where they once made n scalar calls;
    # pin that the values keep their bits and the generator ends where it did.
    for seed in range(200):
        scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            n = int(scalar.integers(1, 12))
            assert int(batched.integers(1, 12)) == n
            got = draw(batched, n)
            want = np.array([draw(scalar) for _ in range(n)], dtype=got.dtype)
            assert got.tobytes() == want.tobytes()
        assert batched.bit_generator.state == scalar.bit_generator.state


_UNIFORM_BATCHES = [  # run_theorem_checks' batched uniforms: the scalar (low, high) per column
    ((0.1, 500.0), (0.01, 400.0), (0.01, 400.0), (0.05, 2.0), (0.0, 300.0)),  # split, per trial
    ((1, 50), (0, 10)),  # collusion (invoice, jitter), per block
]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), half_word=st.booleans(), n_rows=st.integers(1, 40),
       bounds=st.sampled_from(_UNIFORM_BATCHES))
@example(seed=0, half_word=True, n_rows=25, bounds=_UNIFORM_BATCHES[1])
def test_one_uniform_call_per_batch_replays_scalar_uniforms(seed, half_word, n_rows, bounds):
    # A (rows x columns) uniform call yields, row after row, the doubles of one
    # scalar call per cell and leaves the generator where those calls do; a double
    # takes a whole 64-bit word, so a half word a bounded integer buffered stays put.
    scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
    if half_word:
        scalar.integers(10), batched.integers(10)
        assert batched.bit_generator.state["has_uint32"] == 1
    want = [float(scalar.uniform(low, high)) for _ in range(n_rows) for low, high in bounds]
    lows, highs = zip(*bounds)
    got = batched.uniform(lows, highs, (n_rows, len(bounds)))
    assert got.tobytes() == np.array(want).tobytes()
    assert batched.bit_generator.state == scalar.bit_generator.state
    assert int(batched.integers(10)) == int(scalar.integers(10))


# --- dag study -------------------------------------------------------------------
# seed 42 is the pinned evaluation seed; the statistics below were measured
# once and frozen, with comfortable margins to the claims they support.

@pytest.fixture(scope="module")
def dag_result():
    return run_dag_study(seed=42)


def test_dag_study_simple_gain_tracks_tasks_not_position(dag_result):
    s = dag_result.summary
    assert s["simple.gain_vs_tasks_r2"] == 1.0  # gain == fee * tasks exactly
    # distance tells you nothing: slope is flat relative to its own noise
    assert abs(s["simple.gain_vs_distance_slope"]) <= 2.0 * s["simple.gain_vs_distance_slope_stderr"]
    assert abs(s["simple.gain_vs_distance_spearman"]) < 0.1
    assert abs(s["simple.gain_vs_base_spearman"]) < 0.1


def test_dag_study_progressive_rewards_proximity_and_standing(dag_result):
    s = dag_result.summary
    assert s["progressive.gain_vs_tasks_r2"] > 0.95
    assert s["progressive.gain_vs_distance_spearman"] < -0.2  # closer to root, larger gain
    assert s["progressive.gain_vs_distance_slope"] < 0.0
    assert s["progressive.gain_vs_base_spearman"] > 0.2  # standing helps retention
    assert s["progressive.max_retained_at_zero_base"] == 0.0


def test_dag_study_ack_volume_accounting(dag_result):
    s = dag_result.summary
    assert s["ack_bytes_per_task"] == SIMPLE_ACK_BYTES * s["n_tasks"]
    assert s["ack_bytes_per_path"] > 0
    # path receipts only upload once per leaf; for these trees that is far
    # cheaper than one receipt per task
    assert s["ack_bytes_per_path"] < s["ack_bytes_per_task"]


def test_dag_study_rows_cover_both_modes(dag_result):
    modes = {r[0] for r in dag_result.rows}
    assert modes == {"simple", "progressive"}
    assert len(dag_result.rows) == 2 * s_users(dag_result)


def s_users(result):
    return result.summary["n_users"]


def test_dag_study_rejects_degenerate_draws():
    # every task's payer is another user, so one user cannot pay anyone
    with pytest.raises(ValueError, match="n_users"):
        run_dag_study(n_users=1, n_trees=1)
    # with no task served there is nothing to fit gain against
    with pytest.raises(ValueError, match="no user was drawn a task"):
        run_dag_study(n_users=50, n_trees=5, modes=("progressive",), tasks_range=(0, 0))
    # every user a root: no distance to fit gain against
    with pytest.raises(ValueError, match="n_trees"):
        run_dag_study(n_users=50, n_trees=50)
    # one user below the roots, or all of them at one distance: no slope
    with pytest.raises(ValueError, match="n_trees"):
        run_dag_study(n_users=51, n_trees=50)
    with pytest.raises(ValueError, match="n_trees"):
        run_dag_study(n_users=60, n_trees=50)
    # one base value: nothing to rank gain against
    with pytest.raises(ValueError, match="base_range"):
        run_dag_study(base_range=(5, 5))
    # one task count: no line through gain against tasks, in either mode
    with pytest.raises(ValueError, match="tasks_range"):
        run_dag_study(n_users=60, n_trees=6, tasks_range=(3, 3))
    with pytest.raises(ValueError, match="tasks_range"):
        run_dag_study(n_users=60, n_trees=6, tasks_range=(3, 3), modes=("SIMPLE",))
    with pytest.raises(ValueError, match="tasks_range"):
        run_dag_study(n_users=60, n_trees=6, tasks_range=(3, 3), modes=("progressive",))
    # zero fee: every gain is zero
    with pytest.raises(ValueError, match="fee"):
        run_dag_study(n_users=60, n_trees=6, fee=0.0)
    # a task count is drawn from [low, high]: that must be a range of counts
    for tasks_range in ((-3, 2), (5, 2), (-1, -1)):
        with pytest.raises(ValueError, match=r"^tasks_range must have 0 <= low <= high, got "):
            run_dag_study(n_users=60, n_trees=6, tasks_range=tasks_range)


def test_dag_study_gain_decomposition(dag_result):
    cols = dag_result.columns
    i_ret, i_abs, i_gain = cols.index("retained"), cols.index("absorbed"), cols.index("gain")
    for row in dag_result.rows[:500]:
        assert row[i_gain] == pytest.approx(row[i_ret] + row[i_abs], abs=1e-9)
        assert row[i_ret] >= 0.0 and row[i_abs] >= 0.0


def test_dag_study_progressive_split_by_distance(dag_result):
    # Progressive roots only absorb residuals; every other user only retains.
    cols = dag_result.columns
    i_dist, i_ret, i_abs, i_gain = (cols.index(c) for c in ("distance", "retained", "absorbed", "gain"))
    progressive = [row for row in dag_result.rows if row[0] == "progressive"]
    assert progressive
    for row in progressive:
        if row[i_dist] >= 1:
            assert row[i_abs] == 0.0
        else:
            assert row[i_ret] == 0.0
    for row in dag_result.rows:
        assert row[i_gain] == row[i_ret] + row[i_abs]


# --- summary statistics, held to scipy.stats bit for bit ---------------------------

def _bits(value):
    return np.float64(value).tobytes()


def _scipy(call, *args):
    """Run a scipy.stats reference with its own warnings silenced: its p-values warn
    at n = 2, and the helpers under test are held to no warning by the warning filter."""
    stats = pytest.importorskip("scipy.stats")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return getattr(stats, call)(*args)


# dag_study's inputs: integer distances and tasks, gains in whole fees (simple mode),
# so most samples are heavy with ties; plain floats cover the progressive gains.
tied = st.integers(0, 6).map(float)
fees = st.integers(0, 8).map(lambda k: 200.0 * k)
plain = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
samples = st.one_of(tied, fees, plain)


@st.composite
def pairs(draw):
    n = draw(st.integers(2, 40))
    x_values, y_values = draw(st.sampled_from([(samples, samples), (tied, fees), (tied, tied)]))
    x = draw(st.lists(x_values, min_size=n, max_size=n))
    y = draw(st.lists(y_values, min_size=n, max_size=n))
    return np.array(x), np.array(y)


@settings(max_examples=200, deadline=None)
@given(pairs())
@example((np.array([1.0, 2.0]), np.array([200.0, 200.0])))  # n = 2
@example((np.array([1.0, 2.0]), np.array([0.0, 400.0])))
@example((np.array([1.0, 1.0, 3.0]), np.array([200.0, 0.0, 600.0])))  # n = 3
@example((np.array([0.0, 1.0, 2.0]), np.array([5.0, 5.0, 5.0])))  # constant y
def test_linregress_matches_scipy_bit_for_bit(xy):
    x, y = xy
    if x.max() == x.min():
        with pytest.raises(ValueError, match="every x value is the same"):
            _linregress(x, y)
        return
    fit = _scipy("linregress", x, y)
    slope, stderr = _linregress(x, y)
    assert (_bits(slope), _bits(stderr)) == (_bits(fit.slope), _bits(fit.stderr))


@settings(max_examples=200, deadline=None)
@given(pairs())
@example((np.array([0.0, 1.0, 1.0]), np.array([3.0, 3.0, 3.0])))  # constant input
@example((np.array([2.0, 2.0]), np.array([0.0, 1.0])))
def test_spearman_matches_scipy_bit_for_bit(xy):
    # a constant input is NaN, with no warning: RuntimeWarnings are errors in this suite
    x, y = xy
    rho = _spearman(x, y)
    assert _bits(rho) == _bits(_scipy("spearmanr", x, y).statistic)
    assert np.isnan(rho) == ((x == x[0]).all() or (y == y[0]).all())


@settings(max_examples=200, deadline=None)
@given(st.lists(samples, min_size=1, max_size=60))
@example([float(v) for v in range(10, 0, -1)])  # even, one value cut from each end
@example([float(v) for v in range(11)])  # odd, one cut from each end
@example([400.0, 0.0, 200.0, 200.0, 0.0, 600.0, 200.0, 0.0, 0.0, 200.0, 800.0, 0.0])
@example([1.0, 2.0, 3.0])  # too short to cut
def test_trim_mean_matches_scipy_bit_for_bit(values):
    a = np.array(values)
    assert _bits(_trim_mean(a, 0.1)) == _bits(_scipy("trim_mean", a, 0.1))


# --- global economy ------------------------------------------------------------------

def test_global_simple_work_beats_wealth():
    result = run_global(seed=0, mode="simple")
    s = result.summary
    # equal work probability leaves rich and poor within a few percent
    assert s["same_work_rel_gap.active"] < 0.1
    assert s["same_work_rel_gap.lazy"] < 0.1
    # working more lifts you further above your static value
    assert s["poor_active.surplus_trimmed"] > s["poor_lazy.surplus_trimmed"]
    assert s["rich_active.surplus_trimmed"] > s["rich_lazy.surplus_trimmed"]
    assert s["ordering_active_beats_rich_lazy"] is True


def test_global_progressive_orderings():
    s = run_global(seed=0, mode="progressive").summary
    assert s["ordering_rich_active_top"] is True
    assert s["ordering_active_beats_rich_lazy"] is True
    assert s["rich_active.surplus_trimmed"] > s["poor_active.surplus_trimmed"]


def test_global_idle_cohort_sits_at_static():
    result = run_global(
        seed=1, blocks=400, mode="simple", cohorts=(("idle", 50, 0.0, 10),)
    )
    assert abs(result.summary["idle.surplus_trimmed"]) < 1e-2
    assert result.summary["idle.static_value"] == 1000.0


def test_global_validation():
    with pytest.raises(ValueError):
        run_global(mode="warp")
    with pytest.raises(ValueError):
        run_global(cohorts=())
    # the surplus is averaged over the trailing window, which must fit in the run
    with pytest.raises(ValueError):
        run_global(blocks=50, window=100)
    with pytest.raises(ValueError):
        run_global(blocks=50, window=0)
    # an empty cohort has no surplus to average
    with pytest.raises(ValueError, match="'poor_lazy' needs at least one member"):
        run_global(blocks=20, cohorts=(("poor_lazy", 50, 0.05, 0), ("x", 10, 0.1, 3)))
    with pytest.raises(ValueError, match="cohorts must not be empty"):
        run_global(blocks=20, cohorts=())
    # one label for two cohorts would merge their members into one row
    with pytest.raises(ValueError, match="'a' is repeated"):
        run_global(blocks=20, cohorts=(("a", 50, 0.1, 3), ("a", 100, 0.2, 3)))


def test_global_rejects_negative_cohort_coins():
    # a negative balance sustains negative prestige: the cohort would report a static
    # value of -1000.0 and drag the surplus verdicts
    with pytest.raises(ValueError, match="cohort 'a' needs coins >= 0, got -50"):
        run_global(blocks=20, cohorts=(("a", -50, 0.1, 3), ("b", 10, 0.2, 3)))


@pytest.mark.parametrize("work_p", [float("nan"), 1.5, -0.5])
def test_global_rejects_work_probability_outside_unit_interval(work_p):
    # NaN used to mean "works every block" here: draws[i] >= nan is False
    with pytest.raises(ValueError, match=r"cohort 'b' needs a work probability in \[0, 1\]"):
        run_global(blocks=20, cohorts=(("a", 50, 0.1, 3), ("b", 100, work_p, 3)))


# --- decay tradeoff ------------------------------------------------------------------

@pytest.fixture(scope="module")
def tradeoff_result():
    return run_tradeoff(seed=0)


def test_tradeoff_endpoints(tradeoff_result):
    s = tradeoff_result.summary
    assert s["small_decay_rewards_work"] is True
    assert s["large_decay_rewards_wealth"] is True
    assert s["winner.d0.01"] == "poor_active"
    assert s["winner.d0.9"] == "rich_lazy"


def test_tradeoff_crossover_inside_grid(tradeoff_result):
    s = tradeoff_result.summary
    assert s["crossover_decay"] in (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
    assert 0.01 < s["crossover_decay"] <= 0.9
    assert s["richer_never_behind_at_same_work"] is True


def test_tradeoff_rejects_cohorts_without_verdict_labels():
    # the winner verdicts compare poor_active against rich_lazy
    with pytest.raises(ValueError, match="poor_active.*rich_lazy"):
        run_tradeoff(blocks=5, cohorts=(("rich_lazy", 50, 0.05, 3), ("idle", 10, 0.0, 3)))
    with pytest.raises(ValueError, match="poor_active.*rich_lazy"):
        run_tradeoff(blocks=5, cohorts=(("poor_active", 10, 0.25, 3),))


def test_tradeoff_validation():
    cohorts = (("rich_lazy", 50, 0.05, 0), ("poor_active", 10, 0.25, 3))
    with pytest.raises(ValueError, match="'rich_lazy' needs at least one member"):
        run_tradeoff(blocks=5, cohorts=cohorts)
    with pytest.raises(ValueError, match="cohorts must not be empty"):
        run_tradeoff(blocks=5, cohorts=())
    with pytest.raises(ValueError, match="'rich_lazy' is repeated"):
        run_tradeoff(blocks=5, cohorts=(*cohorts[1:], ("rich_lazy", 50, 0.05, 3),
                                        ("rich_lazy", 80, 0.05, 3)))
    with pytest.raises(ValueError, match="decay_grid"):
        run_tradeoff(blocks=5, decay_grid=())
    for decay_grid in ((1.5, 0.0), (0.5, -0.2)):
        with pytest.raises(ValueError, match=r"decay must be in \(0, 1\), got"):
            run_tradeoff(blocks=5, decay_grid=decay_grid)
    # each index draws its own stream: a repeated decay would get two winners under one key
    with pytest.raises(ValueError, match=r"decay_grid must not repeat a value, got \(0.3, 0.3\)"):
        run_tradeoff(blocks=5, decay_grid=(0.3, 0.3))
    with pytest.raises(ValueError, match="decay_grid must not repeat"):
        run_tradeoff(blocks=5, decay_grid=(0.1, 0.5, 0.1))
    with pytest.raises(ValueError, match="blocks"):
        run_tradeoff(blocks=0)


def test_tradeoff_rejects_negative_cohort_coins():
    # a negative rich_lazy balance flips large_decay_rewards_wealth to false
    cohorts = (("rich_lazy", -50, 0.05, 3), ("poor_active", 10, 0.25, 3))
    with pytest.raises(ValueError, match="cohort 'rich_lazy' needs coins >= 0, got -50"):
        run_tradeoff(blocks=20, cohorts=cohorts)


@pytest.mark.parametrize("work_p", [float("nan"), 1.5, -0.5])
def test_tradeoff_rejects_work_probability_outside_unit_interval(work_p):
    # NaN used to mean "never works" here: draws < nan is False
    cohorts = (("rich_lazy", 50, 0.05, 3), ("poor_active", 10, work_p, 3))
    with pytest.raises(ValueError, match=r"cohort 'poor_active' needs a work probability in \[0, 1\]"):
        run_tradeoff(blocks=20, cohorts=cohorts)


def test_tradeoff_rows_consistent(tradeoff_result):
    cols = tradeoff_result.columns
    i_sum = cols.index("prestige_sum")
    i_mean = cols.index("prestige_mean_per_block")
    i_members = cols.index("members")
    blocks = tradeoff_result.summary["blocks"]
    for row in tradeoff_result.rows:
        # the mean is per member per block
        assert row[i_mean] == pytest.approx(row[i_sum] / (blocks * row[i_members]), rel=1e-12)


# --- file distribution ----------------------------------------------------------------

@pytest.fixture(scope="module")
def distribution_result():
    return run_file_distribution()  # scale=1000 defaults


def test_distribution_budget_is_exact(distribution_result):
    s = distribution_result.summary
    assert s["budget_exact"] is True
    assert s["rewards_sum_cents"] == s["budget_cents"] == 470_000_000 // 1000
    # integer rewards, recomputed from the rows
    rewards = [row[-1] for row in distribution_result.rows]
    assert all(isinstance(r, int) and r >= 0 for r in rewards)
    assert sum(rewards) == s["budget_cents"]


def test_distribution_reward_shape(distribution_result):
    s = distribution_result.summary
    assert 1000 <= s["top_reward_cents"] <= 10_000  # tens of dollars at the top
    assert 0.5 < s["fraction_paid"] <= 1.0
    assert 0 < s["typical_reward_cents"] < s["median_paid_reward_cents"] * 10
    assert s["creator_final_prestige"] > 0.0
    assert len(distribution_result.rows) == s["pool_size"]
    # one fixed-size receipt per join; with fanout-8 trees most members are
    # leaves whose path receipts re-upload the whole ancestor chain, so the
    # path total is the larger of the two here (unlike multi-task DAG studies)
    assert s["ack_bytes_per_task"] == SIMPLE_ACK_BYTES * s["n_tasks"]
    assert s["ack_bytes_per_path"] > 0


def test_distribution_gentle_parameter_shifts_stay_small():
    result = run_file_distribution(
        fee_grid=(270.0, 330.0), branch_grid=(0.4, 0.6)
    )
    assert result.summary["typical_reward_max_rel_shift"] < 0.05
    for f in (270.0, 330.0):
        for b in (0.4, 0.6):
            assert f"combo_f{f}_b{b}.typical_cents" in result.summary


@pytest.mark.parametrize("grids", [dict(fee_grid=(100.0, 300.0)), dict(branch_grid=(0.4,))])
def test_distribution_rejects_half_a_grid(grids):
    with pytest.raises(ValueError, match="fee_grid and branch_grid"):
        run_file_distribution(scale=20000, **grids)


@pytest.mark.parametrize("kwargs,name", [
    (dict(budget_cents=-5), "budget_cents"),
    (dict(episodes=0), "episodes"),
    (dict(viewers_range=(20_000_000, 10_000_000)), "viewers_range"),
    (dict(base_range=(10, 1)), "base_range"),
    (dict(fee=float("nan")), "^fee "),
    (dict(fee=float("inf")), "^fee "),
    (dict(fee=-1.0), "^fee "),
    (dict(fee_grid=(150.0, float("nan")), branch_grid=(0.5,)), "^fee_grid "),
    (dict(fee_grid=(-2.0,), branch_grid=(0.5,)), "^fee_grid "),
])
def test_distribution_rejects_bad_inputs(kwargs, name):
    with pytest.raises(ValueError, match=name):
        run_file_distribution(scale=20000, **kwargs)


# --- theorem checks ---------------------------------------------------------------------

def test_theorem_checks_all_pass():
    result = run_theorem_checks(seed=0, trials=200)
    assert result.summary["all_passed"] is True
    names = {row[0] for row in result.rows}
    assert names == {
        "split_trajectory_additive",
        "split_static_additive",
        "transfer_conservation",
        "split_never_retains_more",
        "collusion_never_beats_idle",
        "propagation_exact_and_nonnegative",
    }
    for row in result.rows:
        assert row[4] is True  # passed
        assert row[2] <= row[3]  # max_violation within tolerance


@pytest.mark.parametrize("trials", [0, -5])
def test_theorem_checks_reject_empty_run(trials):
    # checking nothing must not report all_passed
    with pytest.raises(ValueError, match="trials"):
        run_theorem_checks(trials=trials)


@given(st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=2, max_size=8))
@example([1.0, 0.0, 2**-53, 2**-53, 0.0, 0.0, 0.0, 0.0])  # pairwise keeps the two halves
@example([1.0, 0.0, 2**-53, 2**-53, 0.0, 0.0, 0.0])  # left to right drops both
def test_column_sums_match_np_sum_bit_for_bit(values):
    # the split-trajectory check sums 2 to 8 shares per trial, zero-padded to 8
    rows = np.zeros((8, 1))
    rows[:len(values), 0] = values
    total = _column_sums(rows, np.array([len(values) == 8]))[0]
    assert total.tobytes() == np.sum(np.array(values)).tobytes()


def test_theorem_checks_catch_a_corrupted_retention(monkeypatch):
    # Negative control: an over-crediting kernel must trip at least one check.
    # settle_upstream applies the retention rule inline, so it is the one to corrupt.
    real = prestigesim.mining.settle_upstream
    monkeypatch.setattr(
        prestigesim.mining,
        "settle_upstream",
        lambda path, x, prestige_of, b, credit: real(path, 1.01 * x, prestige_of, b, credit),
    )
    result = run_theorem_checks(seed=0, trials=200)
    assert result.summary["all_passed"] is False


@pytest.mark.parametrize("factor, check", [
    (0.99, "transfer_conservation"),  # shares that lose 1% of the fee
    (1.2, "collusion_never_beats_idle"),  # shares that mint 20% on top of it
])
def test_theorem_checks_catch_a_corrupted_propagation(monkeypatch, factor, check):
    # Negative control: scaled shares must trip the check that would see them.
    real = prestigesim.mining.propagate_upstream
    monkeypatch.setattr(
        prestigesim.mining,
        "propagate_upstream",
        lambda *args: [(node, factor * amount) for node, amount in real(*args)],
    )
    result = run_theorem_checks(seed=0, trials=200)
    assert result.summary[f"{check}.passed"] is False


# --- output contract ----------------------------------------------------------------------

def test_result_write_and_formats(tmp_path):
    result = run_decay_study(seed=5, blocks=12, spike_up_at=4, spike_down_at=8)
    csv_path, summary_path = result.write(tmp_path)
    assert csv_path.name == "decay.csv"
    assert summary_path.name == "decay_summary.txt"

    raw = csv_path.read_bytes()
    assert b"\r" not in raw  # LF endings on every platform
    lines = raw.decode().splitlines()
    assert lines[0] == "block,user_id,prestige,coins"
    assert len(lines) == 1 + len(result.rows)

    for line in summary_path.read_text().splitlines():
        key, _, value = line.partition(": ")
        assert key and value
        json.loads(value)  # every value is a JSON scalar


def test_csv_cells_render_alike_from_lists_tuples_and_arrays():
    # repr for floats, str for ints and strs, true/false for bools, whatever holds the column
    header = ("n", "v", "s", "flag")
    n, v, s, flag = [1, -2, 3], [0.1, 1e-07, float("inf")], ["a", "b", "c"], [True, False, True]
    lists = ScenarioResult("x", header, [n, v, s, flag])
    tuples = ScenarioResult("x", header, [tuple(n), tuple(v), tuple(s), tuple(flag)])
    arrays = ScenarioResult("x", header, [np.array(n), np.array(v), s, np.array(flag)])
    for result in (lists, tuples, arrays):
        assert result.csv_text() == "n,v,s,flag\n1,0.1,a,true\n-2,1e-07,b,false\n3,inf,c,true\n"
        assert result.rows == list(zip(n, v, s, flag))
        assert list(map(type, result.rows[0])) == [int, float, str, bool]
    enum_column = ScenarioResult("x", ("m",), [[MiningMode.SIMPLE]])
    assert enum_column.csv_text() == f"m\n{MiningMode.SIMPLE!s}\n"
    assert ScenarioResult("x", ("a", "b")).csv_text() == "a,b\n"


def test_columns_must_match_the_header_and_each_other():
    with pytest.raises(ValueError, match="lengths \\[2, 1\\]"):
        ScenarioResult("x", ("a", "b"), [[1, 2], [3]]).csv_text()
    with pytest.raises(ValueError, match="2 columns"):
        ScenarioResult("x", ("a", "b"), [[1, 2]]).rows


_INTS = st.integers() | st.sampled_from([2**63, -(2**63) - 1, 2**64 + 7, 10**30])
_FLOATS = st.floats() | st.sampled_from(
    [float("inf"), float("-inf"), float("nan"), -0.0, 1e-07, 5e-324])
# (strategy for one cell, numpy dtype the column may also arrive as, or None)
_KINDS = [
    (_INTS, None),
    (st.integers(-(2**63), 2**63 - 1), np.int64),
    (_FLOATS, np.float64),
    (st.text(max_size=6), None),
    (st.booleans(), np.bool_),
]


@st.composite
def _typed_columns(draw):
    """(values, column) pairs: Python values and the sequence handed to ScenarioResult."""
    n_rows = draw(st.integers(0, 5))
    out = []
    for _ in range(draw(st.integers(1, 5))):
        cells, dtype = draw(st.sampled_from(_KINDS))
        values = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
        holder = draw(st.sampled_from([list, tuple] + ([np.array] if dtype else [])))
        column = np.array(values, dtype=dtype) if holder is np.array else holder(values)
        out.append((values, column))
    return out


@given(_typed_columns())
@example([([True, False], np.array([True, False])), ([2**63, -1], [2**63, -1])])
@example([([], np.array([], dtype=np.float64)), ([], [])])
def test_csv_text_matches_the_per_cell_reference(typed):
    names = tuple(f"c{k}" for k in range(len(typed)))
    result = ScenarioResult("x", names, [column for _, column in typed])
    rows = list(zip(*(values for values, _ in typed)))
    assert result.csv_text() == csv_reference.csv_text(names, rows)


def test_summary_rejects_non_json_floats(tmp_path):
    # NaN is not JSON; a NaN statistic fails loudly instead of writing it,
    # and leaves no CSV without its summary
    result = ScenarioResult(name="x", columns=("a",), summary={"stat": float("nan")})
    with pytest.raises(ValueError):
        result.summary_text()
    with pytest.raises(ValueError):
        result.write(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_summary_scalar_formatting():
    result = run_gain_vs_decay(blocks=10, decay_grid=(0.5,), injections=(0.0, 1.0, 2.0))
    text = result.summary_text()
    assert "zero_injection_zero_surplus: true" in text
    assert "blocks: 10" in text


@pytest.mark.parametrize(
    "runner,kwargs",
    [
        (run_decay_study, dict(seed=3, blocks=40, spike_up_at=10, spike_down_at=20)),
        (run_gain_vs_decay, dict(blocks=500, decay_grid=(0.05, 0.5), injections=(0.0, 1.0, 2.0))),
        (run_dag_study, dict(seed=1, n_users=200, n_trees=20)),
        (run_global, dict(seed=2, blocks=60, cohorts=(("a", 20, 0.1, 5), ("b", 40, 0.2, 5)))),
        (run_tradeoff, dict(seed=2, blocks=80, decay_grid=(0.05, 0.5))),
        (run_file_distribution, dict(seed=2, scale=200, episodes=2)),
        (run_theorem_checks, dict(seed=1, trials=50)),
    ],
)
def test_runs_are_deterministic(runner, kwargs):
    first = runner(**kwargs)
    second = runner(**kwargs)
    assert first.csv_text() == second.csv_text()
    assert first.summary_text() == second.summary_text()
