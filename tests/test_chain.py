"""Block processing: regeneration, ack settlement, election, rewards, snapshots."""

import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from prestigesim import (
    Account,
    ChainState,
    DuplicateTask,
    InsufficientFunds,
    InvalidSignature,
    NoAccounts,
    PathAck,
    PrestigeError,
    RewardSchedule,
    SnapshotError,
    SystemParams,
    UnknownAccount,
    advance_block,
    elect_minter,
    extend_path_ack,
    keygen,
    load_snapshot,
    make_root_ack,
    make_simple_ack,
    register_motivator_reward,
    save_snapshot,
    setup,
    submit_ack,
)
from prestigesim.chain import Ledger
from snapshot_reference import _load_lines

KEYS = setup(128)  # the security level ChainState.genesis derives keys at


def kp_for(account_id: str):
    """Key pair genesis derives for an account created without one."""
    return keygen(KEYS, account_id)


def tid(n: int) -> bytes:
    return n.to_bytes(32, "big")


def conserved(state: ChainState) -> bool:
    expected = state.initial_coins + state.height * state.subsidy
    return state.total_coins() + state.escrowed_coins() + state.fees_pending == expected


# --- genesis ---------------------------------------------------------------------

def test_genesis_from_tuples_derives_keys():
    state = ChainState.genesis([("a", 10), ("b", 0)], SystemParams(decay=0.5), rng_seed=1)
    assert state.height == 0
    assert state.accounts["a"].coins == 10
    assert state.accounts["a"].prestige == 0.0
    assert len(state.accounts["a"].verification_key) == 33
    assert state.accounts["a"].verification_key == kp_for("a").vk
    assert state.initial_coins == 10
    assert state.account_by_vk(kp_for("b").vk).id == "b"
    assert state.account_by_vk(b"\x00" * 33) is None


def test_genesis_keeps_provided_accounts():
    vk = keygen(KEYS, "custom-seed").vk
    acct = Account(id="a", coins=5, prestige=2.5, verification_key=vk)
    state = ChainState.genesis([acct], SystemParams(decay=0.5), rng_seed=1)
    assert state.accounts["a"].verification_key == vk
    assert state.accounts["a"].prestige == 2.5


def test_genesis_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        ChainState.genesis([("a", 1), ("a", 2)], SystemParams(decay=0.5), rng_seed=1)


@pytest.mark.parametrize("bad_id", ["a,b", "#x", "a b", "tab\tid", "line\nbreak", ""])
def test_genesis_rejects_ids_a_snapshot_cannot_hold(bad_id):
    with pytest.raises(ValueError, match="account id"):
        ChainState.genesis([(bad_id, 1)], SystemParams(decay=0.5), rng_seed=1)


@pytest.mark.parametrize("prestige", [math.nan, math.inf, -math.inf])
def test_genesis_rejects_non_finite_prestige(prestige):
    with pytest.raises(ValueError, match="finite"):
        ChainState.genesis(
            [Account(id="a", prestige=prestige)], SystemParams(decay=0.5), rng_seed=1
        )


# --- coin limit: the ledger keeps coins in an int64 array -----------------------------

def test_genesis_rejects_coins_past_int64():
    ChainState.genesis([("a", 2**63 - 1)], SystemParams(decay=0.5), rng_seed=1)
    with pytest.raises(ValueError, match="coins"):
        ChainState.genesis([("a", 2**63)], SystemParams(decay=0.5), rng_seed=1)


def test_setting_an_account_rejects_coins_past_int64():
    state = ChainState.genesis([("a", 1)], SystemParams(decay=0.5), rng_seed=1)
    with pytest.raises(ValueError, match="coins"):
        state.accounts["a"] = Account(id="a", coins=2**63)
    with pytest.raises(ValueError, match="coins"):
        state.accounts["new"] = Account(id="new", coins=2**64)
    assert list(state.accounts) == ["a"] and state.accounts["a"].coins == 1


def test_snapshot_rejects_coins_past_int64():
    text = save_snapshot(ChainState.genesis([("a", 2**63 - 1)], SystemParams(decay=0.5), rng_seed=1))
    assert save_snapshot(load_snapshot(text)) == text
    with pytest.raises(SnapshotError, match="coins"):
        load_snapshot(text.replace(f"a,{2**63 - 1},", f"a,{2**63},"))


def test_minter_reward_past_int64_raises_instead_of_wrapping():
    state = ChainState.genesis([("a", 2**63 - 2)], SystemParams(decay=0.5), rng_seed=1, subsidy=2)
    with pytest.raises(OverflowError):
        advance_block(state)


def test_minter_reward_past_int64_leaves_the_state_unchanged():
    state = ChainState.genesis(
        [("a", 2**63 - 2), ("b", 100)], SystemParams(decay=0.5), rng_seed=1, subsidy=2, ack_fee=1
    )
    register_motivator_reward(state, "b", 1, 3)
    submit_ack(state, make_simple_ack(kp_for("b"), tid(1), kp_for("a").vk, 7))  # a pays the fee

    def snapshot_and_queue(s):
        unqueued = s.copy()
        unqueued.pending_acks = []
        return save_snapshot(unqueued), list(s.pending_acks)

    before = snapshot_and_queue(state)
    with pytest.raises(OverflowError, match=r"'a' .* coins, past 2\*\*63 - 1"):
        advance_block(state)
    assert snapshot_and_queue(state) == before
    assert state.height == 0 and len(state.pending_acks) == 1


# --- key index -------------------------------------------------------------------

def scan_by_vk(state: ChainState, vk: bytes):
    """The linear scan the key index must agree with."""
    return next((a for a in state.accounts.values() if a.verification_key == vk), None)


def assert_index_agrees(state: ChainState, extra_keys=()):
    keys = [a.verification_key for a in state.accounts.values()]
    for vk in [*keys, *extra_keys, b"\x00" * 33, b""]:
        assert state.account_by_vk(vk) == scan_by_vk(state, vk)


def test_account_by_vk_agrees_with_scan():
    shared = kp_for("shared").vk
    state = ChainState.genesis(
        [("a", 1), Account(id="b", verification_key=shared), ("c", 2),
         Account(id="d", verification_key=shared)],
        SystemParams(decay=0.5),
        rng_seed=1,
    )
    assert state.account_by_vk(shared).id == "b"  # first holder in dict order
    assert_index_agrees(state)
    assert_index_agrees(state.copy())
    assert_index_agrees(load_snapshot(save_snapshot(state)))

    old_a = state.accounts["a"].verification_key
    state.accounts["a"] = Account(id="a", verification_key=kp_for("other").vk)
    state.accounts["c"] = Account(id="c")
    state.accounts["b"] = Account(id="b", verification_key=kp_for("b").vk)
    assert state.account_by_vk(shared).id == "d"
    assert state.account_by_vk(old_a) is None
    assert_index_agrees(state, [old_a, shared, kp_for("c").vk])


def test_totals():
    state = ChainState.genesis([("a", 10), ("b", 7)], SystemParams(decay=0.5), rng_seed=1)
    assert state.total_coins() == 17
    assert state.total_prestige() == 0.0
    assert state.escrowed_coins() == 0


# --- block advance: hand-walked arithmetic ------------------------------------------
# alice=100, bob=50 coins, d=0.25, subsidy=3, rng_seed=0 elects bob, alice, bob.
#   h1: P_alice = 100,                 P_bob = 50          -> bob mints, 53 coins
#   h2: P_alice = 100+.75*100 = 175,   P_bob = 53+.75*50   = 90.5   -> alice, 103
#   h3: P_alice = 103+.75*175 = 234.25 P_bob = 53+.75*90.5 = 120.875 -> bob, 56

def test_block_math_hand_walk():
    state = ChainState.genesis(
        [("alice", 100), ("bob", 50)], SystemParams(decay=0.25), rng_seed=0, subsidy=3
    )
    state, b1 = advance_block(state)
    assert (b1.height, b1.minter, b1.subsidy) == (1, "bob", 3)
    assert state.accounts["alice"].prestige == 100.0
    assert state.accounts["bob"].prestige == 50.0
    assert state.accounts["bob"].coins == 53

    state, b2 = advance_block(state)
    assert b2.minter == "alice"
    assert state.accounts["alice"].prestige == 175.0
    assert state.accounts["bob"].prestige == 90.5  # h1 subsidy regenerates here
    assert state.accounts["alice"].coins == 103

    state, b3 = advance_block(state)
    assert b3.minter == "bob"
    assert state.accounts["alice"].prestige == 234.25
    assert state.accounts["bob"].prestige == 120.875
    assert state.total_coins() == 150 + 3 * 3
    assert conserved(state)


def test_advance_is_deterministic_in_seed():
    def run(seed):
        state = ChainState.genesis(
            [("a", 60), ("b", 60), ("c", 60)], SystemParams(decay=0.1), rng_seed=seed, subsidy=1
        )
        minters = []
        for _ in range(30):
            state, blk = advance_block(state)
            minters.append(blk.minter)
        return minters

    assert run(5) == run(5)
    assert run(5) != run(6)  # overwhelmingly likely for 30 equal-weight blocks


def test_advance_empty_chain():
    state = ChainState.genesis([], SystemParams(decay=0.5), rng_seed=1)
    with pytest.raises(NoAccounts):
        advance_block(state)


# --- eligibility election ------------------------------------------------------------

def test_election_proportional_to_clamped_prestige():
    accounts = {
        "x": Account(id="x", prestige=300.0),
        "y": Account(id="y", prestige=100.0),
        "z": Account(id="z", prestige=0.0),
        "w": Account(id="w", prestige=-500.0),
    }
    rng = np.random.default_rng(2026)
    wins = {u: 0 for u in accounts}
    for _ in range(4000):
        wins[elect_minter(accounts, rng)] += 1
    assert wins["z"] == 0  # zero weight never wins
    assert wins["w"] == 0  # negative clamps to zero
    assert 0.70 < wins["x"] / 4000 < 0.80  # expect 0.75


def test_election_fallback_prefers_funded_accounts():
    accounts = {
        "broke": Account(id="broke", coins=0, prestige=0.0),
        "rich": Account(id="rich", coins=9, prestige=0.0),
    }
    rng = np.random.default_rng(0)
    assert all(elect_minter(accounts, rng) == "rich" for _ in range(50))


def test_election_fallback_when_everyone_is_broke():
    accounts = {
        "a": Account(id="a", coins=0, prestige=0.0),
        "b": Account(id="b", coins=0, prestige=-1.0),
    }
    rng = np.random.default_rng(0)
    winners = {elect_minter(accounts, rng) for _ in range(50)}
    assert winners == {"a", "b"}


def list_weights_minter(accounts, rng):
    """elect_minter with weights built by a Python list, as the reference."""
    ids = list(accounts)
    weights = np.array([max(accounts[i].prestige, 0.0) for i in ids], dtype=np.float64)
    cumulative = np.cumsum(weights)
    total = float(cumulative[-1])
    if 0.0 < total < math.inf:
        cutoff = rng.random() * total
        return ids[int(np.searchsorted(cumulative, cutoff, side="right"))]
    funded = [i for i in ids if accounts[i].coins > 0]
    pool = funded if funded else ids
    return pool[int(rng.integers(len(pool)))]


@settings(max_examples=300, deadline=None)
@given(
    cells=st.lists(
        st.tuples(
            st.one_of(
                st.sampled_from([0.0, -0.0, -1.0, 1e-300, -1e300]),
                st.floats(-1e6, 1e6),
            ),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=8,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(cells=[(-5.0, 1), (-1.0, 0), (-2.5, 3)], seed=7)  # all negative: coins fallback
@example(cells=[(-0.0, 0), (-0.0, 0), (0.0, 0)], seed=7)  # signed zeros, nobody funded
@example(cells=[(0.0, 2), (0.0, 0), (0.0, 1)], seed=7)  # all zero: coins fallback
@example(cells=[(-3.0, 1), (-0.0, 2), (4.0, 0), (0.5, 0)], seed=7)  # mixed
def test_election_matches_list_weights(cells, seed):
    accounts = {f"u{k}": Account(id=f"u{k}", coins=c, prestige=p) for k, (p, c) in enumerate(cells)}
    assert elect_minter(accounts, np.random.default_rng(seed)) == list_weights_minter(
        accounts, np.random.default_rng(seed)
    )


class TopDraw:
    """An rng stub whose every draw is the largest double below 1."""

    def random(self) -> float:
        return 1.0 - 2.0**-53


def test_election_never_picks_an_account_of_zero_weight():
    # the pairwise sum of nine 0.1s is 0.9, an ulp above their running sum 0.8999999999999999:
    # a cutoff drawn against it could land past the last running sum, on the last account
    accounts = {f"a{k}": Account(id=f"a{k}", prestige=0.1 if k < 9 else 0.0) for k in range(10)}
    assert elect_minter(accounts, TopDraw()) == "a8"


def test_election_falls_back_when_the_weights_sum_to_infinity():
    # no cutoff can be drawn in proportion to an infinite total: the funded account is elected
    accounts = {"a": Account(id="a", coins=1, prestige=math.inf), "b": Account(id="b", prestige=math.inf)}
    rng = np.random.default_rng(0)
    assert all(elect_minter(accounts, rng) == "a" for _ in range(20))


def test_election_empty():
    with pytest.raises(NoAccounts):
        elect_minter({}, np.random.default_rng(0))


# --- simple-ack submission and settlement ----------------------------------------------

def fee_state(**kwargs):
    defaults = dict(subsidy=0, ack_fee=7)
    defaults.update(kwargs)
    return ChainState.genesis(
        [("alice", 100), ("bob", 10)], SystemParams(decay=0.5), rng_seed=3, **defaults
    )


def test_simple_ack_settles_fee_and_transfer():
    state = fee_state()
    state, _ = advance_block(state)  # P: alice 100, bob 10
    ack = make_simple_ack(kp_for("alice"), tid(1), kp_for("bob").vk, 20)
    state = submit_ack(state, ack)
    assert state.accounts["bob"].coins == 3  # claimer paid the 7-coin fee
    assert state.fees_pending == 7
    assert conserved(state)

    state, blk = advance_block(state)
    # step first (alice 150, bob 3+5=8), then the 20-point transfer lands
    assert state.accounts["alice"].prestige == 130.0
    assert state.accounts["bob"].prestige == 28.0
    assert blk.fees_collected == 7
    assert state.fees_pending == 0
    assert state.accounts[blk.minter].coins in (100 + 7, 3 + 7)  # fee went to the minter
    assert blk.ack_hexes == (ack.to_hex(),)
    rec = blk.processed_acks[0]
    assert (rec.beneficiary, rec.contributor, rec.amount) == ("alice", "bob", 20.0)
    assert conserved(state)


def test_simple_ack_beneficiary_hint_checked():
    state = fee_state()
    ack = make_simple_ack(kp_for("alice"), tid(1), kp_for("bob").vk, 5)
    with pytest.raises(UnknownAccount):
        submit_ack(state, ack, beneficiary="nobody")
    with pytest.raises(InvalidSignature):
        submit_ack(state, ack, beneficiary="bob")  # bob did not sign it
    submit_ack(state, ack, beneficiary="alice")


def test_simple_ack_unknown_contributor():
    state = fee_state()
    stranger = keygen(KEYS, "stranger")
    ack = make_simple_ack(kp_for("alice"), tid(1), stranger.vk, 5)
    with pytest.raises(UnknownAccount):
        submit_ack(state, ack)


def test_simple_ack_unknown_signer():
    state = fee_state()
    stranger = keygen(KEYS, "stranger")
    ack = make_simple_ack(stranger, tid(1), kp_for("bob").vk, 5)
    with pytest.raises(InvalidSignature):
        submit_ack(state, ack)


def test_duplicate_task_rejected_queued_and_settled():
    state = fee_state()
    ack = make_simple_ack(kp_for("alice"), tid(1), kp_for("bob").vk, 5)
    state = submit_ack(state, ack)
    with pytest.raises(DuplicateTask):
        submit_ack(state, ack)  # still queued
    state, _ = advance_block(state)
    with pytest.raises(DuplicateTask):
        submit_ack(state, ack)  # now settled


def test_fee_insufficient_funds():
    state = fee_state(ack_fee=11)  # bob holds 10
    ack = make_simple_ack(kp_for("alice"), tid(1), kp_for("bob").vk, 5)
    with pytest.raises(InsufficientFunds):
        submit_ack(state, ack)
    assert state.fees_pending == 0


def test_submit_rejects_unknown_type():
    state = fee_state()
    with pytest.raises(TypeError):
        submit_ack(state, object())


# --- path-ack settlement ----------------------------------------------------------------
# r, A, B at 8 coins each, d=0.5, b=1.0. Hand-walk:
#   h2 processes (r, A@6):  P all 12; A -6 -> 6, root absorbs 6 -> 18
#   h3 processes B@4 hop:   P r 17, A 11, B 14; A keeps 4*11/(11+17)=11/7, r rest

def path_state():
    return ChainState.genesis(
        [("r", 8), ("A", 8), ("B", 8)],
        SystemParams(decay=0.5, branch_power=1.0),
        rng_seed=9,
    )


def test_path_ack_settlement_hand_walk():
    state = path_state()
    state, _ = advance_block(state)

    root_ack = make_root_ack(kp_for("r"), tid(100))
    path_a = extend_path_ack(root_ack, kp_for("A"), tid(101), kp_for("A").vk, 6)
    state = submit_ack(state, path_a)
    state, blk = advance_block(state)
    assert state.accounts["r"].prestige == 18.0
    assert state.accounts["A"].prestige == 6.0
    assert state.accounts["B"].prestige == 12.0
    assert state.dag.parents["r"] is None and state.dag.parents["A"] == "r"
    assert blk.ack_hexes == (path_a.to_hex(),)
    # only A's hop moved prestige; the genesis hop just registers the root
    assert len(blk.processed_acks) == 1

    path_b = extend_path_ack(path_a, kp_for("B"), tid(102), kp_for("B").vk, 4)
    state = submit_ack(state, path_b)  # r and A hops are known; only B's is new
    state, blk = advance_block(state)
    assert state.dag.parents["B"] == "A"
    assert state.accounts["B"].prestige == 10.0
    assert state.accounts["A"].prestige == pytest.approx(11 + 4 * 11 / 28, abs=1e-12)
    assert state.accounts["r"].prestige == pytest.approx(17 + 4 * 17 / 28, abs=1e-12)
    assert len(blk.processed_acks) == 1

    with pytest.raises(DuplicateTask):
        submit_ack(state, path_b)  # every hop settled now


def test_path_ack_unknown_hop_account():
    state = path_state()
    root_ack = make_root_ack(kp_for("r"), tid(100))
    stranger = keygen(KEYS, "stranger")
    path = extend_path_ack(root_ack, stranger, tid(101), stranger.vk, 6)
    with pytest.raises(UnknownAccount):
        submit_ack(state, path)


def test_path_ack_must_start_at_recorded_root():
    state = path_state()
    root_ack = make_root_ack(kp_for("r"), tid(100))
    path_a = extend_path_ack(root_ack, kp_for("A"), tid(101), kp_for("A").vk, 6)
    state = submit_ack(state, path_a)
    state, _ = advance_block(state)  # DAG now has r -> A

    # A is recorded as an interior node; a fresh path rooted at A is rejected
    fake_root = make_root_ack(kp_for("A"), tid(200))
    fake = extend_path_ack(fake_root, kp_for("B"), tid(201), kp_for("B").vk, 2)
    with pytest.raises(InvalidSignature, match="not a branch root"):
        submit_ack(state, fake)


def test_path_ack_must_match_recorded_parents():
    state = path_state()
    root_ack = make_root_ack(kp_for("r"), tid(100))
    path_a = extend_path_ack(root_ack, kp_for("A"), tid(101), kp_for("A").vk, 6)
    path_b = extend_path_ack(path_a, kp_for("B"), tid(102), kp_for("B").vk, 4)
    state = submit_ack(state, path_b)
    state, _ = advance_block(state)  # records r -> A -> B

    # B claims to hang directly off the root: contradicts the recorded DAG
    lying = extend_path_ack(root_ack, kp_for("B"), tid(300), kp_for("B").vk, 4)
    with pytest.raises(InvalidSignature, match="attached elsewhere"):
        submit_ack(state, lying)


def test_path_ack_bad_composite():
    state = path_state()
    root_ack = make_root_ack(kp_for("r"), tid(100))
    path = extend_path_ack(root_ack, kp_for("A"), tid(101), kp_for("A").vk, 6)
    broken = PathAck(hops=path.hops, composite=bytes(33))
    with pytest.raises(InvalidSignature, match="does not verify"):
        submit_ack(state, broken)


def four_state():
    return ChainState.genesis(
        [("r", 8), ("A", 8), ("B", 8), ("C", 8)], SystemParams(decay=0.5), rng_seed=9
    )


def path_through(node_ids, first_task):
    """Path ack over node_ids, root first, one fresh task id per hop."""
    ack = make_root_ack(kp_for(node_ids[0]), tid(first_task))
    for k, node in enumerate(node_ids[1:], start=1):
        ack = extend_path_ack(ack, kp_for(node), tid(first_task + k), kp_for(node).vk, 1)
    return ack


def test_path_ack_rejects_repeated_account():
    state = path_state()  # r is not on chain yet, so only the repeat gives r->A->r away
    with pytest.raises(InvalidSignature, match="more than once"):
        submit_ack(state, path_through(["r", "A", "r"], 100))
    # two identical hops are refused for the account, before any signature check
    root = make_root_ack(kp_for("r"), tid(100))
    with pytest.raises(InvalidSignature, match="^path names an account more than once$"):
        submit_ack(state, PathAck(root.hops * 2, root.composite))
    assert state.pending_acks == [] and state.seen_tasks == set()


def test_path_ack_must_match_queued_parents():
    state = four_state()
    state = submit_ack(state, path_through(["r", "A", "C"], 100))
    with pytest.raises(InvalidSignature, match="attached elsewhere"):
        submit_ack(state, path_through(["r", "B", "C"], 200))  # C is queued under A
    state, blk = advance_block(state)
    assert state.dag.parents["C"] == "A" and "B" not in state.dag
    assert [rec.contributor for rec in blk.processed_acks] == ["r", "A"]


def test_path_ack_must_start_at_queued_root():
    state = four_state()
    state = submit_ack(state, path_through(["r", "A"], 100))
    with pytest.raises(InvalidSignature, match="not a branch root"):
        submit_ack(state, path_through(["A", "B"], 200))  # A is queued under r
    state, _ = advance_block(state)
    assert state.dag.parents["A"] == "r" and "B" not in state.dag


# Acks the property below draws: a root ack, an extension of an earlier path
# ack, a simple ack, or an exact replay of an earlier ack. Node and ack
# references are reduced modulo what exists when the op is built.
ACK_OPS = st.one_of(
    st.tuples(st.just("root"), st.integers(0, 4)),
    st.tuples(st.just("extend"), st.integers(0, 99), st.integers(0, 4)),
    st.tuples(st.just("simple"), st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.just("replay"), st.integers(0, 99)),
)


def build_acks(ops):
    ids = [f"n{i}" for i in range(5)]
    acks, paths = [], []
    for n, op in enumerate(ops):
        task = tid(1000 + n)
        if op[0] == "root":
            ack = make_root_ack(kp_for(ids[op[1]]), task)
            paths.append(ack)
        elif op[0] == "extend" and paths:
            kp = kp_for(ids[op[2]])
            ack = extend_path_ack(paths[op[1] % len(paths)], kp, task, kp.vk, 1)
            paths.append(ack)
        elif op[0] == "simple":
            ack = make_simple_ack(kp_for(ids[op[1]]), task, kp_for(ids[op[2]]).vk, 1)
        elif op[0] == "replay" and acks:
            ack = acks[op[1] % len(acks)]
        else:
            continue
        acks.append(ack)
    return acks


def submit_with_cuts(acks, cuts):
    """Submit acks in order, minting a block before each index in cuts."""
    state = ChainState.genesis(
        [(f"n{i}", 10) for i in range(5)], SystemParams(decay=0.5), rng_seed=4, ack_fee=0
    )
    outcomes = []
    for k, ack in enumerate(acks):
        if k in cuts:
            state, _ = advance_block(state)
        try:
            submit_ack(state, ack)
            outcomes.append("accepted")
        except (InvalidSignature, DuplicateTask) as exc:
            outcomes.append(type(exc).__name__)
    state, _ = advance_block(state)
    return outcomes, dict(state.dag.parents)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(ACK_OPS, min_size=1, max_size=14), cuts=st.sets(st.integers(1, 13)))
def test_block_boundaries_do_not_change_acceptance(ops, cuts):
    acks = build_acks(ops)
    assert submit_with_cuts(acks, cuts) == submit_with_cuts(acks, set())


def submit_footprint(state: ChainState):
    """What a submit may change: seen ids, placements, queue length, fees, coins."""
    return (
        set(state.seen_tasks),
        dict(state.dag.parents),
        len(state.pending_acks),
        state.fees_pending,
        {acct_id: acct.coins for acct_id, acct in state.accounts.items()},
    )


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(ACK_OPS, min_size=1, max_size=14),
    coins=st.lists(st.integers(0, 2), min_size=5, max_size=5),
)
def test_rejected_submit_changes_nothing(ops, coins):
    # A fee of 1 against 0-2 coins makes some submits fail in _charge_fee,
    # after every other check has passed.
    state = ChainState.genesis(
        [(f"n{i}", c) for i, c in enumerate(coins)], SystemParams(decay=0.5), rng_seed=4, ack_fee=1
    )
    for ack in build_acks(ops):
        before = submit_footprint(state)
        try:
            submit_ack(state, ack)
        except PrestigeError:
            assert submit_footprint(state) == before
        else:
            assert len(state.pending_acks) == before[2] + 1


def test_path_ack_fee_charged_to_deepest_node():
    state = ChainState.genesis(
        [("r", 8), ("A", 8), ("B", 8)],
        SystemParams(decay=0.5, branch_power=1.0),
        rng_seed=9,
        ack_fee=5,
    )
    root_ack = make_root_ack(kp_for("r"), tid(100))
    path_a = extend_path_ack(root_ack, kp_for("A"), tid(101), kp_for("A").vk, 6)
    state = submit_ack(state, path_a)
    assert state.accounts["A"].coins == 3
    assert state.accounts["r"].coins == 8
    assert state.fees_pending == 5
    assert conserved(state)


# --- motivator rewards ---------------------------------------------------------------

def test_motivator_lifecycle():
    state = ChainState.genesis(
        [("carol", 100), ("dave", 0)], SystemParams(decay=0.5), rng_seed=4
    )
    state = register_motivator_reward(state, "carol", coins_per_block=10, duration_blocks=3)
    assert state.accounts["carol"].coins == 70
    assert state.escrowed_coins() == 30
    assert conserved(state)

    payouts = []
    for _ in range(4):
        state, blk = advance_block(state)
        payouts.append(blk.motivator_payout)
        assert conserved(state)
    assert payouts == [10, 10, 10, 0]
    assert state.escrowed_coins() == 0
    assert state.motivator_rewards == []
    assert state.total_coins() == 100


def test_motivator_validation():
    state = ChainState.genesis([("carol", 10)], SystemParams(decay=0.5), rng_seed=4)
    with pytest.raises(UnknownAccount):
        register_motivator_reward(state, "nobody", 1, 1)
    with pytest.raises(ValueError):
        register_motivator_reward(state, "carol", -1, 5)
    with pytest.raises(ValueError):
        register_motivator_reward(state, "carol", 1, -5)
    with pytest.raises(InsufficientFunds):
        register_motivator_reward(state, "carol", 6, 2)
    # zero-total schedules are a no-op
    state = register_motivator_reward(state, "carol", 0, 100)
    assert state.motivator_rewards == []
    assert state.accounts["carol"].coins == 10


def test_motivator_rewards_are_whole_coins():
    # 2.5 a block for 2 blocks escrowed 5 coins and paid out 4
    state = ChainState.genesis([("carol", 10)], SystemParams(decay=0.5), rng_seed=4)
    with pytest.raises(ValueError, match=r"^coins_per_block must be an integer, got 2.5$"):
        register_motivator_reward(state, "carol", 2.5, 2)
    with pytest.raises(ValueError, match=r"^duration_blocks must be an integer, got 2.0$"):
        register_motivator_reward(state, "carol", 1, 2.0)
    assert state.escrowed_coins() == 0 and state.accounts["carol"].coins == 10


# --- conservation under load -----------------------------------------------------------

def test_conservation_through_busy_history():
    state = ChainState.genesis(
        [("r", 50), ("A", 50), ("B", 50), ("C", 50)],
        SystemParams(decay=0.2, branch_power=0.5),
        rng_seed=11,
        subsidy=2,
        ack_fee=1,
    )
    state = register_motivator_reward(state, "C", coins_per_block=3, duration_blocks=5)
    root_ack = make_root_ack(kp_for("r"), tid(0))
    path = extend_path_ack(root_ack, kp_for("A"), tid(1), kp_for("A").vk, 10)
    state = submit_ack(state, path)
    for i in range(10):
        if i == 4:
            path = extend_path_ack(path, kp_for("B"), tid(2), kp_for("B").vk, 8)
            state = submit_ack(state, path)
        if i == 7:
            ack = make_simple_ack(kp_for("C"), tid(3), kp_for("B").vk, 12)
            state = submit_ack(state, ack)
        state, _ = advance_block(state)
        assert conserved(state)
    assert state.height == 10
    assert state.total_coins() + state.escrowed_coins() == 200 + 10 * 2


# --- snapshots -------------------------------------------------------------------------

def busy_state() -> ChainState:
    state = ChainState.genesis(
        [("r", 20), ("A", 20), ("B", 20)],
        SystemParams(decay=0.5, branch_power=1.0),
        rng_seed=9,
        subsidy=1,
        ack_fee=2,
    )
    state = register_motivator_reward(state, "B", coins_per_block=1, duration_blocks=4)
    root_ack = make_root_ack(kp_for("r"), tid(100))
    path = extend_path_ack(root_ack, kp_for("A"), tid(101), kp_for("A").vk, 6)
    state = submit_ack(state, path)
    state, _ = advance_block(state)
    path = extend_path_ack(path, kp_for("B"), tid(102), kp_for("B").vk, 4)
    state = submit_ack(state, path)
    state, _ = advance_block(state)
    return state


def test_snapshot_roundtrip_is_byte_identical():
    state = busy_state()
    text = save_snapshot(state)
    restored = load_snapshot(text)
    assert save_snapshot(restored) == text
    assert restored.height == state.height
    assert restored.accounts == state.accounts
    assert restored.seen_tasks == state.seen_tasks
    assert set(restored.dag.parents) == set(state.dag.parents)
    assert restored.dag.parents["B"] == "A"
    assert [(" ", s.funder, s.coins_per_block, s.remaining_blocks) for s in restored.motivator_rewards] == [
        (" ", s.funder, s.coins_per_block, s.remaining_blocks) for s in state.motivator_rewards
    ]


def test_snapshot_refused_while_acks_pending():
    # The accepted ack's task id is already seen and its fee already paid,
    # so a snapshot taken now would load back without its transfer.
    state = fee_state(ack_fee=2)
    state = submit_ack(state, make_simple_ack(kp_for("alice"), tid(1), kp_for("bob").vk, 5))
    with pytest.raises(ValueError, match="1 pending ack"):
        save_snapshot(state)
    state, blk = advance_block(state)
    assert len(blk.processed_acks) == 1
    assert save_snapshot(load_snapshot(save_snapshot(state))) == save_snapshot(state)


@pytest.mark.parametrize("acct", [
    Account("b c", 1), Account("b,c", 1), Account("#b", 1), Account("", 1),
    Account("b", 1, math.nan),
], ids=["space", "comma", "hash", "empty", "nan"])
def test_snapshot_refuses_accounts_that_would_not_load_back(acct):
    # Setting an account skips genesis's checks; save_snapshot must not write
    # a line load_snapshot refuses, and names the first such account as
    # genesis would.
    state = ChainState.genesis([("a", 5), ("b", 3)], SystemParams(decay=0.5), rng_seed=1)
    state.accounts[acct.id] = acct
    state.accounts["z z"] = Account("z z", 1)
    with pytest.raises(ValueError) as refused:
        ChainState.genesis([acct], SystemParams(decay=0.5), rng_seed=1)
    with pytest.raises(ValueError) as err:
        save_snapshot(state)
    assert str(err.value) == str(refused.value)


def test_snapshot_of_an_empty_ledger_roundtrips():
    state = ChainState.genesis([], SystemParams(decay=0.5), rng_seed=1, subsidy=2)
    text = save_snapshot(state)
    assert all(line.startswith("#") for line in text.splitlines())
    restored = load_snapshot(text)
    assert save_snapshot(restored) == text
    assert len(restored.accounts) == 0 and restored.accounts.coins.dtype == np.int64


def test_snapshot_restored_chain_advances_identically():
    state = busy_state()
    restored = load_snapshot(save_snapshot(state))
    a, blk_a = advance_block(state.copy())
    b, blk_b = advance_block(restored)
    assert blk_a.minter == blk_b.minter
    assert a.accounts == b.accounts


@pytest.mark.parametrize(
    "text",
    [
        "",
        "not a snapshot\n",
        "# wrong-magic 1\na,1,0.0,\n",
        "# prestigesim-state 99\na,1,0.0,\n",  # unsupported version
    ],
)
def test_snapshot_rejects_bad_headers(text):
    with pytest.raises(SnapshotError):
        load_snapshot(text)


def before_accounts(text: str, line: str) -> str:
    """Snapshot *text* with *line* put just before its first account line, after its '#' lines."""
    lines = text.splitlines()
    lines.insert(next(i for i, old in enumerate(lines) if not old.startswith("#")), line)
    return "\n".join(lines) + "\n"


def test_snapshot_rejects_malformed_lines():
    good = save_snapshot(busy_state())
    with pytest.raises(SnapshotError, match="expected id,coins"):
        load_snapshot(good + "too,few\n")
    dup_line = good.strip().splitlines()[-1]
    with pytest.raises(SnapshotError, match="duplicate account"):
        load_snapshot(good + dup_line + "\n")
    with pytest.raises(SnapshotError, match="dangling"):
        load_snapshot(before_accounts(good, "# edge ghost missing-parent"))
    for line in ("# root r", "# edge A r"):
        with pytest.raises(SnapshotError, match="^line 18: DAG node '[rA]' is already present$"):
            load_snapshot(before_accounts(good, line))
    with pytest.raises(SnapshotError):
        load_snapshot(good.replace("# decay 0.5", "# decay banana"))


def test_snapshot_rejects_an_edge_before_its_parent():
    lines = save_snapshot(busy_state()).splitlines(keepends=True)
    assert lines[10:12] == ["# root r\n", "# edge A r\n"]
    lines[10:12] = lines[11], lines[10]
    with pytest.raises(SnapshotError, match="^line 11: dangling DAG edge"):
        load_snapshot("".join(lines))


@pytest.mark.parametrize("header", ["# branch-power nan", "# branch-power inf", "# service-fee nan"])
def test_snapshot_rejects_non_finite_params(header):
    good = save_snapshot(busy_state())
    key = header.split()[1]
    text = "\n".join(header if line.startswith(f"# {key} ") else line for line in good.splitlines())
    with pytest.raises(SnapshotError, match="must be finite"):
        load_snapshot(text)


def test_snapshot_rejects_dag_nodes_without_accounts():
    good = save_snapshot(busy_state())
    with pytest.raises(SnapshotError, match="ghost"):
        load_snapshot(before_accounts(good, "# root ghost"))
    with pytest.raises(SnapshotError, match="ghost"):
        load_snapshot(before_accounts(good, "# edge ghost A"))


@pytest.mark.parametrize("line", ["a,1,nan,", "a,1,inf,", "a,1,-inf,", "a b,1,0.0,"])
def test_snapshot_rejects_accounts_genesis_rejects(line):
    good = save_snapshot(busy_state())
    with pytest.raises(SnapshotError, match="line"):
        load_snapshot(good + line + "\n")


@pytest.mark.parametrize("line, message", [
    ("c,-1,0.0,", "line 13: coins must be in [0, 2**63 - 1], got -1 for 'c'"),
    (f"c,{2**63},0.0,", f"line 13: coins must be in [0, 2**63 - 1], got {2**63} for 'c'"),
    ("c,1,0.0," + "ab" * 32, "line 13: verification_key must be empty or 33 bytes"),
    ("c d,1,0.0,", "line 13: account id 'c d' must be non-empty, start with no '#' and contain "
                   "no ',' or whitespace"),
    ("c,1,nan,", "line 13: prestige of 'c' must be finite, got nan"),
    ("a,1,0.0,", "line 13: duplicate account 'a'"),
    ("c,1,0.0", "line 13: expected id,coins,prestige,vk"),  # save writes a keyless vk as ''
])
def test_snapshot_account_line_errors_name_the_line(line, message):
    good = save_snapshot(ChainState.genesis([("a", 5), ("b", 3)], SystemParams(decay=0.5), rng_seed=1))
    assert len(good.splitlines()) == 12
    with pytest.raises(SnapshotError) as err:
        load_snapshot(good + line + "\n")
    assert str(err.value) == message


@pytest.mark.parametrize("line", ["# subsidy 2", "# seen " + "01" * 32, "#", "  # root a"])
def test_snapshot_refuses_a_hash_line_after_the_accounts(line):
    # save_snapshot writes every '#' line before the account lines
    good = save_snapshot(ChainState.genesis([("a", 5), ("b", 3)], SystemParams(decay=0.5), rng_seed=1))
    lines = good.splitlines()
    lines.insert(11, line)  # between the account lines a (line 11) and b
    with pytest.raises(SnapshotError) as err:
        load_snapshot("\n".join(lines) + "\n")
    assert str(err.value) == "line 12: a '#' line after the first account line"


def test_snapshot_loads_blank_lines_and_spaces_among_the_accounts():
    state = busy_state()
    lines = save_snapshot(state).splitlines()
    assert not lines[17].startswith("#") and len(lines) == 20
    lines[17:] = ["", "  " + lines[17] + "\t", "", " " + lines[18], "\r", lines[19] + " ", ""]
    assert save_snapshot(load_snapshot("\n".join(lines))) == save_snapshot(state)


@pytest.mark.parametrize("line, message", [
    ("# height x", "line 2: invalid literal for int() with base 10: 'x'"),
    ("# height -4", "line 2: height must be >= 0, got -4"),
    ("# decay 1.5", "line 3: decay must be in (0, 1), got 1.5"),
    ("# branch-power nan", "line 4: branch_power must be finite and >= 0, got nan"),
    ("# service-fee -1.0", "line 5: service_fee must be finite and >= 0, got -1.0"),
    ("# seed 1.5", "line 6: invalid literal for int() with base 10: '1.5'"),
    ("# seed -5", "line 6: seed must be in [0, 2**64), got -5"),
    ("# seed 18446744073709551616", "line 6: seed must be in [0, 2**64), got 18446744073709551616"),
    ("# subsidy -20", "line 7: subsidy must be >= 0, got -20"),
    ("# ack-fee -1", "line 8: ack-fee must be >= 0, got -1"),
    ("# initial-coins x", "line 9: invalid literal for int() with base 10: 'x'"),
    ("# initial-coins -5", "line 9: initial-coins must be >= 0, got -5"),
    ("# fees-pending -3", "line 10: fees-pending must be >= 0, got -3"),
    ("# reward a -1 3", "line 11: coins_per_block must be >= 0, got -1"),
    ("# reward a 1 -3", "line 11: remaining_blocks must be >= 0, got -3"),
])
def test_snapshot_header_errors_name_the_line(line, message):
    good = save_snapshot(ChainState.genesis([("a", 5), ("b", 3)], SystemParams(decay=0.5), rng_seed=1))
    key = line.split()[1]
    lines = good.splitlines()
    if key == "reward":
        lines.insert(10, line)  # after the headers, where save writes a reward
    else:
        lines = [line if old.startswith(f"# {key} ") else old for old in lines]
        assert line in lines
    with pytest.raises(SnapshotError) as err:
        load_snapshot("\n".join(lines) + "\n")
    assert str(err.value) == message


@pytest.mark.parametrize("at, line, message", [
    (10, "# subsidy 7", "line 11: repeated header 'subsidy'"),
    (10, "# seed 9", "line 11: repeated header 'seed'"),
    (10, "# height 3", "line 11: repeated header 'height'"),
    (1, "# subsidy 7", "line 8: repeated header 'subsidy'"),  # the second line is the one named
    (10, "# prestigesim-state 1", "line 11: repeated header 'prestigesim-state'"),
    (10, "# frobnicate 7", "line 11: unknown header 'frobnicate'"),
    (11, "# version 1", "line 12: unknown header 'version'"),
    (11, "#c,1,0.0,", "line 12: unknown header 'c,1,0.0,'"),  # a leading '#' makes a header
    (10, "# seen abcd", "line 11: task id 'abcd' must be 32 bytes, seen once"),
    (11, "# seen " + "01" * 32, f"line 12: task id '{'01' * 32}' must be 32 bytes, seen once"),
    (13, "c,1,0.0", "line 14: expected id,coins,prestige,vk"),
    (9, None, "missing header 'fees-pending'"),  # None: the line at *at* left out
])
def test_snapshot_refuses_header_lines_save_never_writes(at, line, message):
    # save_snapshot writes each header once and no other: a repeat would
    # overwrite the first value, and an unknown key would be dropped on re-save
    state = ChainState.genesis([("a", 5), ("b", 3)], SystemParams(decay=0.5), rng_seed=1, subsidy=2)
    state.seen_tasks.add(b"\x01" * 32)  # line 11, before the account lines
    lines = save_snapshot(state).splitlines()
    if line is None:
        assert lines.pop(at) == "# fees-pending 0"
    else:
        lines.insert(at, line)
    with pytest.raises(SnapshotError) as err:
        load_snapshot("\n".join(lines) + "\n")
    assert str(err.value) == message


@pytest.mark.parametrize("line, message", [
    ("# prestigesim-state 1 x", "line 1: 'prestigesim-state' takes 1 value, got 2"),
    ("# height 0 7", "line 2: 'height' takes 1 value, got 2"),
    ("# height", "line 2: 'height' takes 1 value, got 0"),
    ("# subsidy 2 # two coins", "line 7: 'subsidy' takes 1 value, got 4"),
    ("# root a b", "line 11: 'root' takes 1 value, got 2"),
    ("# edge b a c", "line 12: 'edge' takes 2 values, got 3"),
    ("# edge b", "line 12: 'edge' takes 2 values, got 1"),
    ("# reward a 1", "line 13: 'reward' takes 3 values, got 2"),
    ("# reward a 1 3 4", "line 13: 'reward' takes 3 values, got 4"),
    ("# seen " + "01" * 32 + " 02", "line 14: 'seen' takes 1 value, got 2"),
])
def test_snapshot_refuses_a_line_with_the_wrong_count_of_values(line, message):
    # each kind of '#' line holds a fixed count of values; a value past it would go unread
    state = ChainState.genesis([("a", 5), ("b", 3)], SystemParams(decay=0.5), rng_seed=1, subsidy=2)
    state.dag.add_root("a").attach("a", "b")
    register_motivator_reward(state, "a", 1, 3)
    state.seen_tasks.add(b"\x01" * 32)
    key = line.split()[1]
    lines = save_snapshot(state).splitlines()
    assert len(lines) == 16 and lines[-3].startswith("# seen ")
    lines = [line if old.startswith(f"# {key} ") else old for old in lines]
    assert line in lines
    with pytest.raises(SnapshotError) as err:
        load_snapshot("\n".join(lines) + "\n")
    assert str(err.value) == message


@pytest.mark.parametrize("old, new, message", [
    ("a,5,", "a,5_0,", "line 12: coins '5_0' must be written '50'"),
    ("a,5,", "a,+50,", "line 12: coins '+50' must be written '50'"),
    ("a,5,", "a,05,", "line 12: coins '05' must be written '5'"),
    (",0.0,", ",0e0,", "line 12: prestige '0e0' must be written '0.0'"),
    (",0.0,", ",+0.0,", "line 12: prestige '+0.0' must be written '0.0'"),
    (",ab", ",AB", "line 12: key 'AB" + "ab" * 32 + "' must be written '" + "ab" * 33 + "'"),
    ("# seen 0a", "# seen 0A", "line 11: task id '0A" + "0a" * 31 + "' must be written '"
     + "0a" * 32 + "'"),
    ("# height 0", "# height +0", "line 2: height '+0' must be written '0'"),
    ("# decay 0.5", "# decay 5e-1", "line 3: decay '5e-1' must be written '0.5'"),
    ("# branch-power 0.0", "# branch-power 0", "line 4: branch-power '0' must be written '0.0'"),
    ("# seed 1", "# seed +1", "line 6: seed '+1' must be written '1'"),
    ("# subsidy 0", "# subsidy 0_0", "line 7: subsidy '0_0' must be written '0'"),
    ("# initial-coins 8", "# initial-coins 08", "line 9: initial-coins '08' must be written '8'"),
    ("# reward b 1 3", "# reward b 01 3", "line 11: coins_per_block '01' must be written '1'"),
    ("# reward b 1 3", "# reward b 1 3_0", "line 11: remaining_blocks '3_0' must be written '30'"),
], ids=["underscore", "plus", "leading zero", "exponent", "plus float", "upper-case key",
        "upper-case seen id", "plus height", "exponent decay", "int branch power", "plus seed",
        "underscore subsidy", "leading zero initial coins", "leading zero reward",
        "underscore reward"])
def test_snapshot_refuses_spellings_save_never_writes(old, new, message):
    # int, float and bytes.fromhex each read more than one spelling of a value;
    # a load of any but save_snapshot's own would re-save as other bytes
    state = ChainState.genesis([("a", 5), ("b", 3)], SystemParams(decay=0.5), rng_seed=1)
    state.seen_tasks.add(b"\x0a" * 32)  # line 11, before the account lines
    state.accounts["a"] = Account(id="a", coins=5, verification_key=b"\xab" * 33)
    lines = save_snapshot(state).splitlines()
    assert lines[10] == "# seen " + "0a" * 32 and lines[11] == "a,5,0.0," + "ab" * 33
    if old.startswith("# reward"):  # a schedule funded by b, at line 11 ahead of the seen id
        register_motivator_reward(state, "b", 1, 3)
        lines = save_snapshot(state).splitlines()
        assert lines[10] == old
    at = next(i for i, line in enumerate(lines) if old in line)
    lines[at] = lines[at].replace(old, new, 1)
    text = "\n".join(lines) + "\n"
    for load in (load_snapshot, _load_lines):
        with pytest.raises(SnapshotError) as err:
            load(text)
        assert str(err.value) == message


def test_snapshot_skips_a_bare_hash_line():
    text = save_snapshot(ChainState.genesis([("a", 5), ("b", 3)], SystemParams(decay=0.5), rng_seed=1))
    lines = text.splitlines()
    lines[1:1] = ["#", "  #\t"]
    assert save_snapshot(load_snapshot("\n".join(lines) + "\n")) == text


def test_snapshot_names_the_first_missing_header_in_write_order():
    with pytest.raises(SnapshotError, match="^missing header 'height'$"):
        load_snapshot("# prestigesim-state 1\na,5,0.0,\n")


@pytest.mark.parametrize("key", ["subsidy", "ack_fee"])
def test_genesis_rejects_negative_coin_settings(key):
    with pytest.raises(ValueError, match=f"^{key} must be >= 0, got -1$"):
        ChainState.genesis([("a", 5)], SystemParams(decay=0.5), rng_seed=1, **{key: -1})


@pytest.mark.parametrize("key, value", [("subsidy", 2.5), ("ack_fee", 1.5), ("rng_seed", 2.5),
                                        ("subsidy", np.float64(2.0))])
def test_genesis_rejects_coin_settings_that_are_not_integers(key, value):
    # a fractional subsidy or fee broke conservation and wrote a snapshot that does not load
    with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value}$"):
        ChainState.genesis([("a", 5), ("b", 3)], SystemParams(decay=0.5), **{"rng_seed": 1, key: value})


@pytest.mark.parametrize("coins", [(5.0, 2), (5, 2.5), (5, np.float64(2.0))])
def test_genesis_rejects_balances_that_are_not_integers(coins):
    # balances of 5.0 and 2.5 made initial_coins 7.5 while the ledger held 7
    with pytest.raises(ValueError, match=f"^coins of '[ab]' must be an integer, got "):
        ChainState.genesis(list(zip("ab", coins)), SystemParams(decay=0.5), rng_seed=1)


def test_integer_settings_of_any_type_are_held_as_python_ints():
    state = ChainState.genesis([("a", np.int64(5)), Account("b", np.uint8(3))], SystemParams(decay=0.5),
                               rng_seed=np.uint64(7), subsidy=np.int32(2), ack_fee=np.int16(1))
    held = (state.accounts["a"].coins, state.accounts["b"].coins, state.rng_seed, state.subsidy,
            state.ack_fee, state.initial_coins)
    assert held == (5, 3, 7, 2, 1, 8) and {type(v) for v in held} == {int}
    text = save_snapshot(state)
    assert save_snapshot(load_snapshot(text)) == text
    state, _ = advance_block(state)
    assert conserved(state) and state.total_coins() == 10


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
def test_genesis_rejects_a_seed_outside_64_bits(seed):
    # the range `--seed` accepts and a block's stream takes as one unsigned word
    with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
        ChainState.genesis([("a", 5)], SystemParams(decay=0.5), rng_seed=seed)


def test_ledger_sets_accounts_and_never_removes_them():
    state = ChainState.genesis([("a", 5)], SystemParams(decay=0.5), rng_seed=1)
    led = state.accounts
    assert isinstance(led, Ledger)
    led["b"] = Account(id="b", coins=3)
    assert list(led) == ["a", "b"] and led["b"].coins == 3
    for method in ("__delitem__", "pop", "popitem", "clear", "update", "setdefault"):
        assert not hasattr(led, method)


def test_ledger_refuses_an_account_set_under_another_id():
    led = ChainState.genesis([("a", 5)], SystemParams(decay=0.5), rng_seed=1).accounts
    with pytest.raises(ValueError, match=r"^account 'b' set under id 'a'$"):
        led["a"] = Account(id="b", coins=3)
    assert list(led) == ["a"] and led["a"].coins == 5


@pytest.mark.parametrize("params", [
    SystemParams(decay=np.float64(0.05)),
    SystemParams(decay=0.25, branch_power=1, service_fee=np.float32(2.5)),
    SystemParams(decay=np.float32(0.5), branch_power=np.int64(3)),
])
def test_snapshot_of_numpy_or_int_params_loads_back(params):
    # SystemParams holds Python floats, so every header save_snapshot writes parses back
    assert all(type(v) is float for v in (params.decay, params.branch_power, params.service_fee))
    text = save_snapshot(ChainState.genesis([("a", 5), ("b", 3)], params, rng_seed=1))
    loaded = load_snapshot(text)
    assert loaded.params == params
    assert save_snapshot(loaded) == text


ANY_ID = st.one_of(st.text(max_size=4), st.from_regex(r"[a-z0-9_.-]{1,4}", fullmatch=True))


@st.composite
def chain_states(draw):
    """Any state genesis accepts, with a forest, history and reward schedules.

    Ids and prestige are drawn unrestricted; what genesis rejects is discarded,
    so the property covers exactly the accounts genesis lets through.
    """
    ids = draw(st.lists(ANY_ID, min_size=1, max_size=6, unique=True))
    accounts = [
        Account(
            id=uid,
            coins=draw(st.integers(0, 10**12)),
            prestige=draw(st.one_of(st.floats(), st.floats(allow_nan=False, allow_infinity=False))),
            verification_key=draw(st.sampled_from([b"", kp_for(uid).vk])),
        )
        for uid in ids
    ]
    try:
        state = ChainState.genesis(
            accounts,
            SystemParams(
                decay=draw(st.floats(0.001, 0.999)),
                branch_power=draw(st.floats(0.0, 10.0)),
                service_fee=draw(st.floats(0.0, 10.0)),
            ),
            rng_seed=draw(st.integers(0, 2**64 - 1)),
            subsidy=draw(st.integers(0, 100)),
            ack_fee=draw(st.integers(0, 100)),
        )
    except ValueError:
        reject()
    for k, uid in enumerate(draw(st.permutations(ids))[: draw(st.integers(0, len(ids)))]):
        parents = list(state.dag.parents)
        if k == 0 or draw(st.booleans()):
            state.dag.add_root(uid)
        else:
            state.dag.attach(draw(st.sampled_from(parents)), uid)
    for funder in draw(st.lists(st.sampled_from(ids), max_size=3)):
        state.motivator_rewards.append(
            RewardSchedule(funder, draw(st.integers(1, 50)), draw(st.integers(1, 50)))
        )
    state.seen_tasks = draw(st.sets(st.binary(min_size=32, max_size=32), max_size=4))
    state.height = draw(st.integers(0, 10**6))
    state.fees_pending = draw(st.integers(0, 10**6))
    return state


@settings(max_examples=200, deadline=None)
@given(state=chain_states())
def test_snapshot_roundtrip_over_valid_states(state):
    text = save_snapshot(state)
    restored = load_snapshot(text)
    assert save_snapshot(restored) == text
    assert restored.accounts == state.accounts
    assert restored.dag.parents == state.dag.parents
    assert restored.seen_tasks == state.seen_tasks
    assert (restored.height, restored.params, restored.rng_seed) == (
        state.height, state.params, state.rng_seed
    )


def _pick(draw, lines, header):
    """Index of a drawn header line (after the magic line) or account line."""
    return draw(st.sampled_from([i for i, line in enumerate(lines)
                                 if i > 0 and line.startswith("#") == header]))


def _set_field(column, values):
    def corrupt(draw, lines):
        i = _pick(draw, lines, header=False)
        fields = lines[i].split(",")
        fields[column] = draw(st.sampled_from(values))
        lines[i] = ",".join(fields)
    return corrupt


def _insert(draw, lines, line):
    lines.insert(draw(st.integers(1, len(lines))), line)


def _insert_header(draw, lines, line):
    """Insert *line* among the header lines, after the magic line."""
    lines.insert(_pick(draw, lines, header=True), line)


def _field_count(draw, lines):
    i = _pick(draw, lines, header=False)
    lines[i] = draw(st.sampled_from(["too,few", lines[i] + ",x", lines[i].split(",", 1)[0]]))


def _three_fields(draw, lines):
    i = _pick(draw, lines, header=False)
    lines[i] = lines[i].rsplit(",", 1)[0]


def _duplicate_account(draw, lines):
    _insert(draw, lines, lines[_pick(draw, lines, header=False)])


def _dangling_edge(draw, lines):
    some_id = lines[_pick(draw, lines, header=False)].split(",")[0]
    _insert_header(draw, lines, draw(st.sampled_from([
        "# edge ghost nowhere", f"# edge {some_id} nowhere", f"# edge ghost {some_id}",
        "# root ghost"])))


def _duplicate_dag_line(draw, lines):
    dag_lines = [line for line in lines if line.startswith(("# root ", "# edge "))]
    some_id = lines[_pick(draw, lines, header=False)].split(",")[0]
    line = draw(st.sampled_from(dag_lines or [f"# root {some_id}"]))
    _insert_header(draw, lines, line)
    _insert_header(draw, lines, line)


def _header_value(draw, lines):
    line = draw(st.sampled_from([
        "# height x", "# height -4", "# decay 1.5", "# branch-power nan", "# service-fee -1.0",
        "# seed 1.5", "# subsidy -20", "# ack-fee -1", "# initial-coins x", "# fees-pending -3",
        "# reward a -1 3", "# reward a 1 -3", "# reward a 1", "# root", "# seen zz", "# seen",
    ]))
    key = line.split()[1]
    fixed = [i for i, old in enumerate(lines) if old.startswith(f"# {key} ") and key != "reward"]
    if fixed:
        lines[fixed[0]] = line
    else:
        _insert_header(draw, lines, line)


def _empty_cell(draw, lines):
    # one field of a root, edge or reward line left empty, its spaces kept
    listed = [i for i, line in enumerate(lines) if line.startswith(("# root ", "# edge ", "# reward "))]
    if not listed:
        _insert_header(draw, lines, "# reward  1 2")
        return
    i = draw(st.sampled_from(listed))
    cells = lines[i].split(" ")
    cells[draw(st.integers(2, len(cells) - 1))] = ""
    lines[i] = " ".join(cells)


def _spacing(draw, lines):
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    lines[i] = draw(st.sampled_from([
        line + " ", " " + line, line.replace(" ", "\t", 1),
        line + "\r", line + "\x0c", line + "\x1f", line + "\n", "\n" + line, "#\n" + line,
        line.replace(" ", "", 1),
    ]))


def _inner_space(draw, lines):
    i = draw(st.integers(0, len(lines) - 1))
    cut = draw(st.integers(0, len(lines[i])))
    lines[i] = lines[i][:cut] + " " + lines[i][cut:]


def _value_count(draw, lines):
    # a '#' line, the magic line included, with one value more or its last one dropped
    i = draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith("#")]))
    lines[i] = draw(st.sampled_from([lines[i] + " 7", lines[i].rsplit(" ", 1)[0]]))


def _swap_header_lines(draw, lines):
    i = _pick(draw, lines, header=True)
    j = _pick(draw, lines, header=True)
    lines[i], lines[j] = lines[j], lines[i]


def _late_header(draw, lines):
    # a '#' line moved below an account line, where save_snapshot never writes one
    line = lines.pop(_pick(draw, lines, header=True))
    lines.insert(_pick(draw, lines, header=False) + 1, line)


# One single-line corruption of each kind the pinned snapshot message tests cover.
SNAPSHOT_CORRUPTIONS = {
    "none": lambda draw, lines: None,
    "field count": _field_count,
    "three fields": _three_fields,
    "coins": _set_field(1, ["-1", str(2**63), str(2**63 - 1), "x", "", "+7", "1_0"]),
    "key length": _set_field(3, ["", "ab", "ab" * 32, "ab" * 34, "zz", "AB" * 33]),
    "id": _set_field(0, ["", "a b", "#x", "x\ty", "a\x1cb", "é", "a\x00b"]),
    "prestige": _set_field(2, ["nan", "inf", "-inf", "1e400", "-0.0", "NaN", "x", ""]),
    "duplicate account": _duplicate_account,
    "dangling edge": _dangling_edge,
    "duplicate dag line": _duplicate_dag_line,
    "header value": _header_value,
    "empty cell": _empty_cell,
    "spacing": _spacing,
    "inner space": _inner_space,
    "header order": _swap_header_lines,
    "value count": _value_count,
    "late header": _late_header,
}


def load_outcome(load, text):
    """What a loader makes of *text*: the state's snapshot bytes, or its error."""
    try:
        return "loaded", save_snapshot(load(text))
    except Exception as exc:  # any error: its type and text are the outcome
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(state=chain_states(), data=st.data())
def test_snapshot_loader_paths_agree(state, data):
    # load_snapshot converts account lines a column at a time; it must load
    # what the line-at-a-time reference loads, or raise the reference's error
    # (the first bad line's), word for word. Each state meets one corruption
    # of every kind.
    text = save_snapshot(state)
    for kind, corrupt in SNAPSHOT_CORRUPTIONS.items():
        lines = text.splitlines()
        corrupt(data.draw, lines)
        corrupted = "\n".join(lines) + "\n"
        assert load_outcome(load_snapshot, corrupted) == load_outcome(_load_lines, corrupted), kind


def test_copy_is_deep_enough():
    state = busy_state()
    dup = state.copy()
    dup.accounts["r"] = Account(id="r", coins=999)
    dup.dag.attach("B", "Z")
    dup.seen_tasks.add(tid(999))
    dup.fees_pending += 1
    assert state.accounts["r"].coins != 999
    assert "Z" not in state.dag
    assert tid(999) not in state.seen_tasks
