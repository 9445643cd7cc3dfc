"""The paper's Sybil and collusion claims, checked on the chain itself.

``run_theorem_checks`` checks both on plain lists; these rules drive a
``ChainState`` through ``submit_ack`` and ``advance_block`` instead. All use
``subsidy=0``, ``ack_fee=0`` and no motivators, so coins never move and only
prestige can tell the chains apart.
"""

import math

from hypothesis import given, settings, strategies as st

from prestigesim import (
    Account,
    ChainState,
    SystemParams,
    advance_block,
    extend_path_ack,
    keygen,
    make_root_ack,
    make_simple_ack,
    setup,
    submit_ack,
)

KEYS = setup(128)  # the security level ChainState.genesis derives keys at


def tid(n: int) -> bytes:
    return n.to_bytes(32, "big")


@st.composite
def sybil_splits(draw):
    """A genesis and the same genesis with account ``w`` split into k accounts in
    its ledger place: the coins cut into k parts, the prestige in the same
    proportions (in equal shares when it holds no coins)."""
    n = draw(st.integers(2, 6))
    coins = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n).filter(any))
    prestige = draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n))
    w, k = draw(st.integers(0, n - 1)), draw(st.integers(2, 5))
    cuts = sorted(draw(st.lists(st.integers(0, coins[w]), min_size=k - 1, max_size=k - 1)))
    parts = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, coins[w]])]
    weights = parts if coins[w] else [1] * k
    accounts = [Account(id=f"u{i}", coins=c, prestige=p)
                for i, (c, p) in enumerate(zip(coins, prestige))]
    group = [Account(id=f"u{w}-{m}", coins=c, prestige=prestige[w] * x / sum(weights))
             for m, (c, x) in enumerate(zip(parts, weights))]
    params = SystemParams(decay=draw(st.floats(0.01, 0.99)))
    seed = draw(st.integers(0, 2**64 - 1))
    split = accounts[:w] + group + accounts[w + 1:]
    return (ChainState.genesis(accounts, params, rng_seed=seed),
            ChainState.genesis(split, params, rng_seed=seed), w, k)


@settings(max_examples=300, deadline=None)
@given(sybil_splits())
def test_splitting_an_account_changes_nothing_on_the_chain(split_case):
    whole, split, w, k = split_case
    others_whole = [i for i in range(len(whole.accounts)) if i != w]
    others_split = [i if i < w else i + k - 1 for i in others_whole]
    group = split.accounts.ids[w:w + k]
    for _ in range(40):
        whole, whole_block = advance_block(whole)
        split, split_block = advance_block(split)
        p_whole = whole.accounts.prestige.item(w)
        p_group = sum(split.accounts.prestige[w:w + k].tolist())
        assert abs(p_group - p_whole) <= 1e-9 * max(1.0, abs(p_whole))
        assert (split.accounts.prestige[others_split].tobytes()
                == whole.accounts.prestige[others_whole].tobytes())
        if whole_block.minter == f"u{w}":
            assert split_block.minter in group
        else:
            assert split_block.minter == whole_block.minter


@settings(max_examples=100, deadline=None)
@given(sybil_splits(), st.data())
def test_splitting_an_account_paid_by_simple_acks_changes_nothing_on_the_chain(split_case, data):
    # Each block other accounts sign the same simple acks in both chains: for u{w}'s work in the
    # whole chain, and for a drawn member of the group in the split one. A split of an account
    # that holds DAG placements is not drawn here.
    whole, split, w, k = split_case
    others_whole = [i for i in range(len(whole.accounts)) if i != w]
    others_split = [i if i < w else i + k - 1 for i in others_whole]
    group = split.accounts.ids[w:w + k]
    keys = {name: keygen(KEYS, name) for name in (*whole.accounts.ids, *group)}
    acks = st.lists(st.tuples(st.sampled_from(others_whole), st.integers(0, 10**4),
                              st.sampled_from(group)), max_size=3)
    task = 0
    for _ in range(40):
        for payer, amount, member in data.draw(acks):
            for state, contributor in ((whole, f"u{w}"), (split, member)):
                ack = make_simple_ack(keys[f"u{payer}"], tid(task), keys[contributor].vk, amount)
                submit_ack(state, ack, beneficiary=f"u{payer}")
            task += 1
        whole, whole_block = advance_block(whole)
        split, split_block = advance_block(split)
        p_whole = whole.accounts.prestige.item(w)
        p_group = sum(split.accounts.prestige[w:w + k].tolist())
        assert abs(p_group - p_whole) <= 1e-9 * max(1.0, abs(p_whole))
        assert (split.accounts.prestige[others_split].tobytes()
                == whole.accounts.prestige[others_whole].tobytes())
        if whole_block.minter == f"u{w}":
            assert split_block.minter in group
        else:
            assert split_block.minter == whole_block.minter


@settings(max_examples=100, deadline=None)
@given(
    coins=st.lists(st.integers(10, 100), min_size=3, max_size=3),
    decay=st.floats(0.02, 0.3),
    branch_power=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**64 - 1),
    invoices=st.lists(st.tuples(st.integers(1, 50), st.integers(0, 10)), min_size=25, max_size=25),
)
def test_cross_acknowledging_pair_never_beats_an_idle_pair_on_the_chain(
        coins, decay, branch_power, seed, invoices):
    # r <- i <- j. Each block j pays i for a fresh hop on the accepted r->i
    # path, split along (i, r), and i pays j back by a simple ack at least
    # what it retained in the previous block, rounded up. The idle twins i2
    # and j2 hold the coins of i and j and acknowledge nothing.
    r, i, j = coins
    state = ChainState.genesis([("r", r), ("i", i), ("j", j), ("i2", i), ("j2", j)],
                               SystemParams(decay=decay, branch_power=branch_power), rng_seed=seed)
    kp = {name: keygen(KEYS, name) for name in ("r", "i", "j")}
    path_ri = extend_path_ack(make_root_ack(kp["r"], tid(0)), kp["i"], tid(1), kp["i"].vk, 0)
    submit_ack(state, path_ri)
    retained = 0.0
    for block, (x_ji, jitter) in enumerate(invoices):
        submit_ack(state, extend_path_ack(path_ri, kp["j"], tid(2 * block + 2), kp["j"].vk, x_ji))
        x_ij = math.ceil(retained) + jitter
        pay_back = make_simple_ack(kp["i"], tid(2 * block + 3), kp["j"].vk, x_ij)
        submit_ack(state, pay_back, beneficiary="i")
        state, minted = advance_block(state)
        (paid_by_j,) = [rec for rec in minted.processed_acks if rec.beneficiary == "j"]
        assert [node for node, _ in paid_by_j.retained_by] == ["i", "r"]
        retained = dict(paid_by_j.retained_by)["i"]
        p = state.accounts
        pair = p["i"].prestige + p["j"].prestige
        idle = p["i2"].prestige + p["j2"].prestige
        assert pair - idle <= 1e-9 * max(1.0, abs(idle))
