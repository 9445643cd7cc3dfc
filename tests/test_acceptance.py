"""End-to-end acceptance checks for the reward mechanism package.

Each numbered test verifies one headline guarantee at its stated tolerance
and prints a single pass line (run pytest with -s to stream them); a failed
guarantee fails the corresponding test outright.
"""

import time

import numpy as np
import pytest
from scipy import stats

from prestigesim import (
    Account,
    MiningDag,
    SystemParams,
    apply_transfer,
    compose,
    elect_minter,
    extend_path_ack,
    keygen,
    make_root_ack,
    make_simple_ack,
    retain_progressive,
    run_dag_study,
    run_file_distribution,
    run_scenario,
    run_tradeoff,
    scenario_names,
    setup,
    sign,
    static_value,
    step_account,
    verify,
)
from prestigesim.acks import PATH_ACK_BASE_BYTES, PATH_HOP_BYTES, SIMPLE_ACK_BYTES


def report(number: int, slug: str, detail: str) -> None:
    print(f"criterion {number:02d} ({slug}): PASS — {detail}")


def best_time(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -----------------------------------------------------------------------------

def test_criterion_01_static_value_convergence():
    params = SystemParams(decay=0.05)
    s = static_value(100, params)
    assert s == 2000.0

    acct = Account(id="u", coins=100)
    keep = 0.95
    for t in range(1, 201):
        acct = step_account(acct, params)
        predicted = s + (0.0 - s) * keep**t
        assert abs(acct.prestige - predicted) <= 1e-9 * abs(predicted)
    final_gap = abs(acct.prestige - s)
    assert final_gap < 0.1

    def run():
        a = Account(id="u", coins=100)
        for _ in range(200):
            a = step_account(a, params)
        return a

    elapsed = best_time(run)
    assert elapsed < 1e-3
    report(1, "static-value convergence", f"final |P-S| {final_gap:.3e}, {elapsed*1e3:.2f} ms")


def test_criterion_02_identity_split_additivity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    n_partitions, max_parts, coins, blocks = 10_000, 8, 100, 50
    sizes = rng.integers(1, max_parts + 1, size=n_partitions)
    parts = np.zeros((n_partitions, max_parts), dtype=np.int64)
    for k in range(1, max_parts + 1):
        rows = np.flatnonzero(sizes == k)
        if len(rows):
            parts[rows, :k] = rng.multinomial(coins, [1.0 / k] * k, size=len(rows))
    assert (parts.sum(axis=1) == coins).all()

    keep = 0.95
    split = np.zeros_like(parts, dtype=np.float64)
    whole = 0.0
    worst = 0.0
    for _ in range(blocks):
        split = parts + keep * split
        whole = coins + keep * whole
        sums = split.sum(axis=1)
        worst = max(worst, float(np.max(np.abs(sums - whole))) / abs(whole))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 5.0
    report(2, "identity-split additivity", f"{n_partitions} partitions, worst rel dev {worst:.3e}, {elapsed:.2f} s")


def test_criterion_03_transfer_conservation():
    t0 = time.perf_counter()
    worst = 0.0
    for mode in ("simple", "progressive"):
        rng = np.random.default_rng(3)
        ids = [f"n{i}" for i in range(6)]
        dag = MiningDag()
        dag.add_root(ids[0])
        for i in range(1, 6):
            dag.attach(ids[int(rng.integers(i))], ids[i])
        coins = [int(c) for c in rng.integers(10, 200, size=6)]
        params = SystemParams(decay=0.1, branch_power=0.5)
        with_t = {u: Account(id=u, coins=c) for u, c in zip(ids, coins)}
        without = {u: Account(id=u, coins=c) for u, c in zip(ids, coins)}

        for _block in range(100):
            for u in ids:
                with_t[u] = step_account(with_t[u], params)
                without[u] = step_account(without[u], params)
            for _ in range(10):  # 1000 transfers per mode across the run
                b_idx, c_idx = rng.integers(6), rng.integers(6)
                if b_idx == c_idx:
                    continue
                apply_transfer(
                    with_t, dag, beneficiary=ids[b_idx], contributor=ids[c_idx],
                    x=float(rng.uniform(0.5, 80.0)), mode=mode, b=0.5,
                )
            total_a = sum(a.prestige for a in with_t.values())
            total_b = sum(a.prestige for a in without.values())
            worst = max(worst, abs(total_a - total_b) / abs(total_b))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0
    report(3, "transfer conservation", f"paired totals, worst rel dev {worst:.3e}, {elapsed:.2f} s")


def test_criterion_04_split_never_retains_more():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = -np.inf
    for _ in range(10_000):
        x = float(rng.uniform(0.1, 500.0))
        p1 = float(rng.uniform(0.01, 400.0))
        p2 = float(rng.uniform(0.01, 400.0))
        b = float(rng.uniform(0.05, 2.0))
        outside = float(rng.uniform(0.0, 300.0))
        whole = retain_progressive(x, p1 + p2, outside)
        r1 = retain_progressive(x, p1, b * p2 + outside)
        r2 = retain_progressive(2.0 * x - r1, p2, outside)
        gain = (r1 - x + r2) - whole
        worst = max(worst, gain)
        assert gain <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(4, "split never retains more", f"10^4 comparisons, worst gain {worst:.3e}, {elapsed:.2f} s")


def test_criterion_05_ack_wire_sizes():
    params = setup(128)
    benef, contrib = keygen(params, "benef"), keygen(params, "contrib")
    simple = make_simple_ack(benef, bytes(32), contrib.vk, 1234)
    assert len(simple.to_bytes()) == SIMPLE_ACK_BYTES == 102

    hops = [keygen(params, f"hop{i}") for i in range(10)]
    ack = make_root_ack(hops[0], (5000).to_bytes(32, "big"))
    sizes = [len(ack.to_bytes())]
    for i in range(1, 10):
        ack = extend_path_ack(ack, hops[i], (5000 + i).to_bytes(32, "big"), hops[i].vk, 9)
        sizes.append(len(ack.to_bytes()))
    assert sizes == [33 + 69 * n for n in range(1, 11)]
    assert PATH_ACK_BASE_BYTES == 33 and PATH_HOP_BYTES == 69
    report(5, "ack wire sizes", f"simple 102 B; paths {sizes[0]}..{sizes[-1]} B for 1..10 hops")


def test_criterion_06_composite_signature_contract():
    t0 = time.perf_counter()
    params = setup(128)
    rng = np.random.default_rng(6)
    pairs = [keygen(params, f"signer{i}") for i in range(8)]

    for trial in range(1000):
        k = int(rng.integers(2, 6))
        chosen = rng.choice(len(pairs), size=k, replace=False)
        entries = [(f"t{trial}/m{i}".encode(), pairs[i].vk) for i in chosen]
        parts = [
            ([e], sign(pairs[i].sk, e[0]))
            for e, i in zip(entries, chosen)
        ]
        while len(parts) > 1:  # merge in random order
            i, j = sorted(rng.choice(len(parts), size=2, replace=False))
            d2, s2 = parts.pop(j)
            d1, s1 = parts.pop(i)
            merged = compose(d1, s1, d2, s2)
            assert merged is not None
            parts.append((d1 + d2, merged))
        union, composite = parts[0]
        assert verify(union, composite)

        # tamper: flip one random byte
        pos = int(rng.integers(33))
        bad = bytearray(composite)
        bad[pos] ^= 0x01
        assert not verify(union, bytes(bad))
        # subset: drop one entry
        drop = int(rng.integers(k))
        subset = entries[:drop] + entries[drop + 1:]
        assert not verify(subset, composite)
        # duplicate: same message under a second key is ill-formed
        msg, vk0 = entries[0]
        other_vk = pairs[(int(chosen[0]) + 1) % len(pairs)].vk
        assert other_vk != vk0
        dup = union + [(msg, other_vk)]
        assert not verify(dup, composite)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    report(6, "composite signature contract", f"1000 random compose orders, {elapsed:.2f} s")


def test_criterion_07_election_chi_square():
    weight_rng = np.random.default_rng(7)
    weights = weight_rng.uniform(1.0, 100.0, size=18)
    accounts = {f"u{i}": Account(id=f"u{i}", prestige=float(w)) for i, w in enumerate(weights)}
    accounts["zero"] = Account(id="zero", prestige=0.0)
    accounts["neg"] = Account(id="neg", prestige=-40.0)

    rng = np.random.default_rng(2026)
    n = 100_000
    wins = {u: 0 for u in accounts}
    for _ in range(n):
        wins[elect_minter(accounts, rng)] += 1

    assert wins["zero"] == 0
    assert wins["neg"] == 0
    observed = np.array([wins[f"u{i}"] for i in range(18)])
    expected = weights / weights.sum() * n
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.01
    report(7, "election chi-square", f"10^5 draws, p = {result.pvalue:.3f}")


# -----------------------------------------------------------------------------

def binned_weighted_r2(x: np.ndarray, y: np.ndarray) -> float:
    """R-squared of a weighted linear fit through per-x-value mean y."""
    xs, ys, ws = [], [], []
    for v in np.unique(x):
        m = x == v
        xs.append(v)
        ys.append(float(y[m].mean()))
        ws.append(int(m.sum()))
    xs, ys, ws = np.asarray(xs), np.asarray(ys), np.asarray(ws, dtype=float)
    coef = np.polyfit(xs, ys, 1, w=np.sqrt(ws))
    fit = np.polyval(coef, xs)
    ss_res = float(np.sum(ws * (ys - fit) ** 2))
    ss_tot = float(np.sum(ws * (ys - np.average(ys, weights=ws)) ** 2))
    return 1.0 - ss_res / ss_tot


def test_criterion_08_dag_trends_at_desk_scale():
    t0 = time.perf_counter()
    result = run_dag_study(seed=42)  # 1000 users, 100 trees, b = 0.5
    elapsed = time.perf_counter() - t0

    cols = result.columns
    i_mode = cols.index("mode")
    i_dist = cols.index("distance")
    i_tasks = cols.index("tasks")
    i_base = cols.index("base_prestige")
    i_ret = cols.index("retained")
    i_gain = cols.index("gain")

    def series(mode):
        rows = [r for r in result.rows if r[i_mode] == mode]
        return {
            "dist": np.array([r[i_dist] for r in rows], float),
            "tasks": np.array([r[i_tasks] for r in rows], float),
            "base": np.array([r[i_base] for r in rows], float),
            "retained": np.array([r[i_ret] for r in rows], float),
            "gain": np.array([r[i_gain] for r in rows], float),
        }

    simple, progressive = series("simple"), series("progressive")

    # (a) simple-mode gain is flat in distance (away from the roots)
    m = simple["dist"] >= 1
    lr = stats.linregress(simple["dist"][m], simple["gain"][m])
    rho_simple = stats.spearmanr(simple["dist"][m], simple["gain"][m]).statistic
    assert abs(lr.slope) <= 2.0 * lr.stderr
    assert abs(rho_simple) < 0.1

    # (b) progressive-mode gain falls with distance from the root
    rho_prog = stats.spearmanr(progressive["dist"], progressive["gain"]).statistic
    assert rho_prog < -0.2

    # (c) mean gain is linear in task count in both modes
    r2_simple = binned_weighted_r2(simple["tasks"], simple["gain"])
    r2_prog = binned_weighted_r2(progressive["tasks"], progressive["gain"])
    assert r2_simple > 0.95
    assert r2_prog > 0.95

    # (d) zero standing retains nothing under progressive rules
    zero_base = progressive["base"] == 0.0
    assert zero_base.any()
    assert float(np.max(np.abs(progressive["retained"][zero_base]))) == 0.0

    assert elapsed < 60.0
    report(
        8,
        "dag reward trends",
        f"flat t={abs(lr.slope)/lr.stderr:.2f}, rank corr {rho_prog:.2f}, "
        f"R² {r2_simple:.3f}/{r2_prog:.3f}, {elapsed:.1f} s",
    )


def test_criterion_09_tradeoff_crossover():
    t0 = time.perf_counter()
    result = run_tradeoff(seed=0)
    elapsed = time.perf_counter() - t0

    cols = result.columns
    i_d, i_cohort, i_sum = cols.index("decay"), cols.index("cohort"), cols.index("prestige_sum")
    sums = {(r[i_d], r[i_cohort]): r[i_sum] for r in result.rows}
    grid = sorted({r[i_d] for r in result.rows})
    d_lo, d_hi = grid[0], grid[-1]

    assert sums[(d_lo, "poor_active")] > sums[(d_lo, "rich_lazy")]
    assert sums[(d_hi, "rich_lazy")] > sums[(d_hi, "poor_active")]
    assert elapsed < 30.0
    report(
        9,
        "work/wealth crossover",
        f"d={d_lo}: active wins by {sums[(d_lo, 'poor_active')]/sums[(d_lo, 'rich_lazy')]:.2f}x; "
        f"d={d_hi}: wealth wins by {sums[(d_hi, 'rich_lazy')]/sums[(d_hi, 'poor_active')]:.2f}x; "
        f"{elapsed:.1f} s",
    )


def test_criterion_10_distribution_budget_and_top_reward():
    t0 = time.perf_counter()
    result = run_file_distribution()  # 1/1000 scale
    elapsed = time.perf_counter() - t0

    rewards = np.array([row[-1] for row in result.rows], dtype=np.int64)
    budget = result.summary["budget_cents"]
    assert int(rewards.sum()) == budget
    top_currency = float(rewards.max()) / 100.0  # cents -> currency units
    assert 10.0 <= top_currency <= 100.0
    assert elapsed < 120.0
    report(
        10,
        "distribution budget and top reward",
        f"sum == {budget} cents exactly, top {top_currency:.2f}, {elapsed:.1f} s",
    )


def test_criterion_11_determinism_across_reruns():
    mismatched = []
    for name in scenario_names():
        first = run_scenario(name)
        second = run_scenario(name)
        if first.csv_text() != second.csv_text() or first.summary_text() != second.summary_text():
            mismatched.append(name)
    assert mismatched == []
    report(11, "rerun determinism", f"{len(scenario_names())} scenarios byte-identical")
