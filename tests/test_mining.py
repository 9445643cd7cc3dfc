"""Distribution DAG, retention rules, and upstream fee propagation."""

import itertools
import math
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from prestigesim import (
    Account,
    DuplicateNode,
    MiningDag,
    MiningMode,
    NotInDag,
    TransferRecord,
    UnknownAccount,
    UnknownNode,
    UnknownParent,
    apply_transfer,
    propagate_upstream,
    retain_progressive,
    settle_upstream,
)
from prestigesim.mining import root_path, settle_transfer


def chain_dag(*names: str) -> MiningDag:
    dag = MiningDag()
    dag.add_root(names[0])
    for parent, child in zip(names, names[1:]):
        dag.attach(parent, child)
    return dag


# --- DAG structure ---------------------------------------------------------------

class TestMiningDag:
    def test_growth_and_queries(self):
        dag = MiningDag()
        dag.add_root("r").attach("r", "a").attach("a", "b").attach("r", "c")
        assert len(dag) == 4
        assert set(dag.parents) == {"r", "a", "b", "c"}
        assert [n for n, p in dag.parents.items() if p is None] == ["r"]
        assert dag.parents["r"] is None
        assert dag.parents["b"] == "a"
        assert dag.parents["c"] == "r"
        assert dag.path_to_root("r") == ["r"]
        assert dag.path_to_root("b") == ["b", "a", "r"]

    def test_multiple_roots(self):
        dag = MiningDag()
        dag.add_root("r1").add_root("r2").attach("r2", "x")
        assert {n for n, p in dag.parents.items() if p is None} == {"r1", "r2"}

    def test_attach_unknown_parent(self):
        with pytest.raises(UnknownParent):
            MiningDag().attach("ghost", "child")

    def test_duplicate_node(self):
        dag = MiningDag().add_root("r")
        with pytest.raises(DuplicateNode):
            dag.add_root("r")
        with pytest.raises(DuplicateNode):
            dag.attach("r", "r")

    def test_query_unknown_node(self):
        dag = MiningDag().add_root("r")
        with pytest.raises(UnknownNode):
            dag.path_to_root("nope")

    def test_copy_is_independent(self):
        dag = chain_dag("r", "a")
        dup = dag.copy()
        dup.attach("a", "b")
        assert "b" in dup
        assert "b" not in dag


def test_mode_parse():
    assert MiningMode.parse("simple") is MiningMode.SIMPLE
    assert MiningMode.parse("Progressive") is MiningMode.PROGRESSIVE
    assert MiningMode.parse(MiningMode.SIMPLE) is MiningMode.SIMPLE
    with pytest.raises(ValueError):
        MiningMode.parse("turbo")
    for label in (5, None):  # not text: the documented error, not AttributeError
        with pytest.raises(ValueError, match=f"^mode: unknown mining mode {label}; "):
            MiningMode.parse(label)


@settings(max_examples=300)
@given(picks=st.lists(st.one_of(st.none(), st.integers(min_value=0)), max_size=30))
def test_root_path_over_a_list_walks_as_path_to_root_over_a_dict(picks):
    # node 0 is a root; node k + 1 is a root when picks[k] is None, else it hangs
    # under node picks[k] % (k + 1): any forest, its nodes numbered in attachment order
    parents = [None] + [None if p is None else p % (k + 1) for k, p in enumerate(picks)]
    dag = MiningDag()
    for node, parent in enumerate(parents):
        if parent is None:
            dag.add_root(f"n{node}")
        else:
            dag.attach(f"n{parent}", f"n{node}")
    for node in range(len(parents)):
        path = root_path(parents, node)
        assert [f"n{k}" for k in path] == dag.path_to_root(f"n{node}")
        assert parents[path[-1]] is None


# --- retention rules --------------------------------------------------------------

def test_retain_progressive_hand_values():
    # equal prestige and branch power -> keep exactly half
    assert retain_progressive(100.0, 50.0, 50.0) == 50.0
    assert retain_progressive(80.0, 30.0, 10.0) == pytest.approx(60.0)


def test_retain_progressive_clamps():
    assert retain_progressive(100.0, 0.0, 10.0) == 0.0  # no standing, keep nothing
    assert retain_progressive(100.0, -5.0, 10.0) == 0.0
    assert retain_progressive(100.0, 25.0, 0.0) == 100.0  # nothing above, keep all
    assert retain_progressive(100.0, 25.0, -3.0) == 100.0  # negative power clamps to 0
    with pytest.raises(ValueError):
        retain_progressive(-0.5, 10.0, 10.0)


# --- propagation -------------------------------------------------------------------

def test_propagate_equal_split():
    # A under root, both at prestige 60, b=1: A keeps 60/(60+60) of the fee.
    prestige = {"root": 60.0, "A": 60.0}
    shares = propagate_upstream(["A", "root"], 100.0, prestige, 1.0)
    assert shares == [("A", 50.0), ("root", 50.0)]


def test_propagate_zero_prestige_contributor_passes_everything():
    prestige = {"r": 0.0, "A": 70.0, "B": 0.0}
    shares = propagate_upstream(["B", "A", "r"], 100.0, prestige, 0.5)
    # B keeps nothing; A sees zero branch power above it (root at 0) and keeps all.
    assert shares == [("B", 0.0), ("A", 100.0), ("r", 0.0)]


def test_propagate_contributor_is_root():
    shares = propagate_upstream(["root"], 100.0, {"root": 5.0}, 2.0)
    assert shares == [("root", 100.0)]


def test_propagate_root_absorbs_even_at_zero_prestige():
    shares = propagate_upstream(["A", "r"], 90.0, {"r": -10.0, "A": 30.0}, 1.0)
    # nothing above A counts (root clamped to 0), so A keeps the lot
    assert shares == [("A", 90.0), ("r", 0.0)]
    shares = propagate_upstream(["A", "r"], 90.0, {"r": 10.0, "A": 0.0}, 1.0)
    assert shares == [("A", 0.0), ("r", 90.0)]


def test_propagate_errors():
    with pytest.raises(ValueError):
        propagate_upstream(["A", "r"], -1.0, {"r": 1.0, "A": 1.0}, 1.0)


@settings(max_examples=200)
@given(
    n=st.integers(min_value=1, max_value=10),
    x=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    b=st.floats(min_value=0.0, max_value=5.0),
    data=st.data(),
)
def test_propagation_conserves_and_stays_nonnegative(n, x, b, data):
    ids = [f"n{i}" for i in range(n)]
    dag = chain_dag(*ids)
    prestige = {
        u: data.draw(st.floats(min_value=-100.0, max_value=1000.0, allow_nan=False))
        for u in ids
    }
    shares = propagate_upstream(dag.path_to_root(ids[-1]), x, prestige, b)
    assert [u for u, _ in shares] == list(reversed(ids))
    assert all(a >= 0.0 for _, a in shares)
    assert math.isclose(sum(a for _, a in shares), x, rel_tol=1e-12, abs_tol=1e-9)


# Reference copies of the rule and the propagation as they stood before
# settle_upstream; the kernel must reproduce them bit for bit.

def _oracle_retain(x, prestige, branch_power_value):
    if x < 0:
        raise ValueError(f"transfer amount must be >= 0, got {x}")
    if prestige <= 0.0:
        return 0.0
    bp = max(branch_power_value, 0.0)
    if bp == 0.0:
        return x
    # multiply-then-divide can overshoot x by an ulp when bp is negligible
    # next to prestige; never hand back more than came in
    return min(x, x * prestige / (prestige + bp))


def _oracle_propagate(path, x, prestige_of, b):
    if x < 0:
        raise ValueError(f"transfer amount must be >= 0, got {x}")

    # Suffix sums, root first, give each node's ancestor prestige mass.
    above = [0.0] * len(path)
    running = 0.0
    for i in range(len(path) - 1, -1, -1):
        above[i] = running
        running += max(prestige_of[path[i]], 0.0)

    shares = []
    residual = x
    for i, node in enumerate(path[:-1]):
        kept = _oracle_retain(residual, prestige_of[node], b * above[i])
        shares.append((node, kept))
        residual -= kept
    shares.append((path[-1], residual))
    return shares


def _bits(values):
    return [struct.pack("<d", v) for v in values]


SPECIAL = [0.0, -0.0, 1.0, -1.0, 1e-300, 1e300, math.inf, -math.inf, math.nan]


def test_retain_progressive_matches_reference_on_special_values():
    for x, p, bp in itertools.product(SPECIAL, SPECIAL, SPECIAL):
        if x < 0:
            continue
        assert _bits([retain_progressive(x, p, bp)]) == _bits([_oracle_retain(x, p, bp)]), (x, p, bp)


_prestige_values = st.one_of(st.sampled_from([0.0, -0.0, -3.0, 2.0, math.inf, math.nan]), st.floats())


@settings(max_examples=400)
@given(
    prestige=st.lists(_prestige_values, min_size=1, max_size=8),
    start=st.lists(_prestige_values, min_size=8, max_size=8),
    x=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=0.0)),
    b=st.one_of(st.sampled_from([0.0, 0.5]), st.floats()),
    data=st.data(),
)
def test_settle_upstream_matches_reference_bits(prestige, start, x, b, data):
    n = len(prestige)
    path = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    shares = _oracle_propagate(path, x, prestige, b)

    got = propagate_upstream(path, x, prestige, b)
    assert [node for node, _ in got] == path
    assert _bits(a for _, a in got) == _bits(a for _, a in shares)

    # into a separate list: each credited entry gains exactly its share
    credit, expected = start[:n], start[:n]
    for node, amount in shares:
        expected[node] += amount
    settle_upstream(path, x, prestige, b, credit)
    assert _bits(credit) == _bits(expected)

    # into the prestige list itself: the same sums, no read sees a credit
    expected = list(prestige)
    for node, amount in shares:
        expected[node] += amount
    settle_upstream(path, x, prestige, b, prestige)
    assert _bits(prestige) == _bits(expected)


def _simple_rule(prestige, beneficiary, contributor, x):
    """Simple mining as it was written beside the kernel: debit, then credit a non-zero x."""
    prestige[beneficiary] += -x
    if x != 0.0:
        prestige[contributor] += x
    return [(contributor, x)]


@settings(max_examples=400)
@given(
    prestige=st.lists(_prestige_values, min_size=3, max_size=3),
    start=st.lists(_prestige_values, min_size=3, max_size=3),
    x=st.one_of(st.sampled_from([0.0, -0.0, 7]), st.integers(0, 10**6), st.floats(min_value=0.0)),
    b=st.one_of(st.sampled_from([0.0, 0.5]), st.floats()),
    beneficiary=st.integers(0, 2),
    contributor=st.integers(0, 2),  # the beneficiary itself included: a self-payment
)
@example(prestige=[0.3, 1.0, 2.0], start=[0.0] * 3, x=0.1, b=0.5, beneficiary=0, contributor=0)
def test_simple_mining_is_the_one_node_path_bit_for_bit(prestige, start, x, b, beneficiary, contributor):
    # (0.3 - 0.1) + 0.1 is 0.3, but (0.3 + 0.1) - 0.1 is 0.30000000000000004: a self-payment
    # shows whether the debit still comes before the credit
    expected = list(prestige)
    expected_shares = _simple_rule(expected, beneficiary, contributor, x)
    got = list(prestige)
    shares = settle_transfer(got, beneficiary, (contributor,), x, b)
    assert _bits(got) == _bits(expected)
    assert [node for node, _ in shares] == [contributor]
    assert _bits(a for _, a in shares) == _bits(a for _, a in expected_shares)  # an int x as its float
    assert repr(shares[0][1]) == repr(float(x))

    # into a separate list: the kernel's one-node case is credit[c] += x
    credit, expected = list(start), list(start)
    expected[contributor] += x
    settle_upstream((contributor,), x, prestige, b, credit)
    assert _bits(credit) == _bits(expected)


# --- applying transfers --------------------------------------------------------------

def accounts_for(dag_ids, prestige):
    return {u: Account(id=u, coins=0, prestige=prestige[u]) for u in dag_ids}


def test_apply_transfer_simple():
    accounts = {
        "alice": Account(id="alice", prestige=500.0),
        "bob": Account(id="bob", prestige=20.0),
    }
    rec = apply_transfer(
        accounts, MiningDag(), beneficiary="alice", contributor="bob",
        x=30.0, mode="simple", block=7,
    )
    assert accounts["alice"].prestige == 470.0  # updated in place
    assert accounts["bob"].prestige == 50.0
    assert rec == TransferRecord(
        beneficiary="alice", contributor="bob", amount=30.0, block=7,
        mode=MiningMode.SIMPLE, retained_by=(("bob", 30.0),),
    )


def test_apply_transfer_progressive():
    dag = chain_dag("root", "A")
    accounts = accounts_for(["root", "A", "payer"], {"root": 60.0, "A": 60.0, "payer": 10.0})
    rec = apply_transfer(
        accounts, dag, beneficiary="payer", contributor="A",
        x=100.0, mode=MiningMode.PROGRESSIVE, b=1.0,
    )
    assert accounts["payer"].prestige == -90.0  # debit may overdraw
    assert accounts["A"].prestige == 110.0
    assert accounts["root"].prestige == 110.0
    assert rec.retained_by == (("A", 50.0), ("root", 50.0))
    assert rec.mode is MiningMode.PROGRESSIVE


def test_apply_transfer_self_payment_is_neutral_in_simple_mode():
    accounts = {"solo": Account(id="solo", prestige=80.0)}
    apply_transfer(
        accounts, MiningDag(), beneficiary="solo", contributor="solo",
        x=25.0, mode="simple",
    )
    assert accounts["solo"].prestige == 80.0


def test_apply_transfer_errors():
    # root -> u and ghost -> w, where ghost has no account; payer is off the DAG
    dag = chain_dag("root", "u")
    dag.add_root("ghost").attach("ghost", "w")
    accounts = accounts_for(["root", "u", "w", "payer"],
                            {"root": 40.0, "u": 10.0, "w": 3.0, "payer": 7.0})
    before = dict(accounts)
    for beneficiary, contributor, x, mode, error in [
        ("ghost", "u", 1.0, "simple", UnknownAccount),
        ("u", "ghost", 1.0, "simple", UnknownAccount),
        ("root", "payer", 1.0, "progressive", NotInDag),
        ("payer", "w", 1.0, "progressive", UnknownAccount),
        ("payer", "u", -1.0, "simple", ValueError),
        ("payer", "u", -1.0, "progressive", ValueError),
    ]:
        with pytest.raises(error):
            apply_transfer(accounts, dag, beneficiary=beneficiary, contributor=contributor,
                           x=x, mode=mode, b=1.0)
        assert accounts == before  # every check runs before any account changes


def test_progressive_transfer_rejects_ancestor_without_account():
    dag = chain_dag("ghost", "a")
    accounts = accounts_for(["a"], {"a": 1.0})
    with pytest.raises(UnknownAccount, match="ghost"):
        apply_transfer(accounts, dag, beneficiary="a", contributor="a", x=1.0,
                       mode="progressive", b=1.0)


@settings(max_examples=200)
@given(
    parents=st.lists(st.integers(min_value=0), min_size=1, max_size=8),
    prestiges=st.lists(st.sampled_from([-20.0, 0.0, 5.0, 80.0]), min_size=10, max_size=10),
    x=st.sampled_from([0.0, 1.0, 37.5]),
    b=st.sampled_from([0.0, 0.5, 2.0]),
    mode=st.sampled_from(["simple", "progressive"]),
    data=st.data(),
)
def test_apply_transfer_replaces_only_the_accounts_it_pays(parents, prestiges, x, b, mode, data):
    # node i + 1 hangs under node parents[i] % (i + 1); "out" is off the DAG
    ids = [f"n{i}" for i in range(len(parents) + 1)]
    dag = MiningDag().add_root(ids[0])
    for i, p in enumerate(parents):
        dag.attach(ids[p % (i + 1)], ids[i + 1])
    accounts = accounts_for(ids + ["out"], dict(zip(ids + ["out"], prestiges)))
    before = dict(accounts)
    beneficiary = data.draw(st.sampled_from(ids + ["out"]))
    contributor = data.draw(st.sampled_from(ids))
    rec = apply_transfer(accounts, dag, beneficiary=beneficiary, contributor=contributor,
                         x=x, mode=mode, b=b)
    paid = {n for n, a in rec.retained_by if a != 0.0}
    replaced = {u for u in accounts if accounts[u] is not before[u]}
    assert replaced == {beneficiary} | paid
    assert accounts.keys() == before.keys()


@settings(max_examples=200)
@given(
    x=st.floats(min_value=0.0, max_value=1e4),
    b=st.floats(min_value=0.0, max_value=3.0),
    prestiges=st.lists(st.floats(min_value=-50, max_value=500), min_size=2, max_size=8),
)
def test_transfer_conserves_total_prestige(x, b, prestiges):
    ids = [f"n{i}" for i in range(len(prestiges))]
    dag = chain_dag(*ids)
    accounts = accounts_for(ids, dict(zip(ids, prestiges)))
    total0 = sum(a.prestige for a in accounts.values())
    apply_transfer(
        accounts, dag, beneficiary=ids[0], contributor=ids[-1],
        x=x, mode="progressive", b=b,
    )
    total1 = sum(a.prestige for a in accounts.values())
    assert math.isclose(total0, total1, rel_tol=1e-9, abs_tol=1e-6)


# --- no-gain-from-splitting inequality ------------------------------------------------

@settings(max_examples=500)
@given(
    x=st.floats(min_value=0.01, max_value=500.0),
    p1=st.floats(min_value=0.01, max_value=400.0),
    p2=st.floats(min_value=0.01, max_value=400.0),
    b=st.floats(min_value=0.05, max_value=2.0),
    outside=st.floats(min_value=0.0, max_value=300.0),
)
def test_split_identity_never_retains_more(x, p1, p2, b, outside):
    """A node split into a relay (p1) over a stump (p2) nets at most the whole.

    The relay earns the fee but must cover its membership: it forwards a full
    fee to the stump, whose retention is all that comes back. Gain of the pair
    is r1 - x + r2 and never beats the unsplit node's single retention.
    """
    whole = retain_progressive(x, p1 + p2, outside)
    r1 = retain_progressive(x, p1, b * p2 + outside)
    r2 = retain_progressive(2.0 * x - r1, p2, outside)
    assert (r1 - x + r2) <= whole + 1e-12
