"""Distribution DAG, retention rules, and upstream fee propagation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

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
    branch_power,
    propagate_upstream,
    retain_progressive,
    retain_simple,
)


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
        assert set(dag.nodes) == {"r", "a", "b", "c"}
        assert dag.roots == ("r",)
        assert dag.is_root("r") and not dag.is_root("b")
        assert dag.parent("r") is None
        assert dag.parent("b") == "a"
        assert dag.children("r") == ("a", "c")
        assert dag.children("b") == ()
        assert dag.path_to_root("b") == ["b", "a", "r"]
        assert dag.ancestors("b") == ["a", "r"]
        assert dag.depth("r") == 0
        assert dag.depth("b") == 2
        assert dag.root_of("c") == "r"

    def test_multiple_roots(self):
        dag = MiningDag()
        dag.add_root("r1").add_root("r2").attach("r2", "x")
        assert set(dag.roots) == {"r1", "r2"}
        assert dag.root_of("x") == "r2"

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
            dag.parent("nope")
        with pytest.raises(UnknownNode):
            dag.children("nope")

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


# --- retention rules --------------------------------------------------------------

def test_retain_simple():
    assert retain_simple(42.0) == 42.0
    assert retain_simple(0.0) == 0.0
    with pytest.raises(ValueError):
        retain_simple(-1.0)


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


def test_branch_power_hand_walk():
    dag = chain_dag("root", "A")
    prestige = {"root": 60.0, "A": 40.0}
    assert branch_power(dag, "root", prestige, 0.5) == 0.0  # roots have nothing above
    assert branch_power(dag, "A", prestige, 0.5) == pytest.approx(30.0)
    # negative ancestors contribute zero, not a deduction
    prestige["root"] = -60.0
    assert branch_power(dag, "A", prestige, 0.5) == 0.0
    with pytest.raises(UnknownNode):
        branch_power(dag, "missing", prestige, 0.5)


# --- propagation -------------------------------------------------------------------

def test_propagate_equal_split():
    # A under root, both at prestige 60, b=1: A keeps 60/(60+60) of the fee.
    dag = chain_dag("root", "A")
    prestige = {"root": 60.0, "A": 60.0}
    shares = propagate_upstream(dag, "A", 100.0, prestige, 1.0)
    assert shares == [("A", 50.0), ("root", 50.0)]


def test_propagate_zero_prestige_contributor_passes_everything():
    dag = chain_dag("r", "A", "B")
    prestige = {"r": 0.0, "A": 70.0, "B": 0.0}
    shares = propagate_upstream(dag, "B", 100.0, prestige, 0.5)
    # B keeps nothing; A sees zero branch power above it (root at 0) and keeps all.
    assert shares == [("B", 0.0), ("A", 100.0), ("r", 0.0)]


def test_propagate_contributor_is_root():
    dag = MiningDag().add_root("root")
    shares = propagate_upstream(dag, "root", 100.0, {"root": 5.0}, 2.0)
    assert shares == [("root", 100.0)]


def test_propagate_root_absorbs_even_at_zero_prestige():
    dag = chain_dag("r", "A")
    shares = propagate_upstream(dag, "A", 90.0, {"r": -10.0, "A": 30.0}, 1.0)
    # nothing above A counts (root clamped to 0), so A keeps the lot
    assert shares == [("A", 90.0), ("r", 0.0)]
    shares = propagate_upstream(dag, "A", 90.0, {"r": 10.0, "A": 0.0}, 1.0)
    assert shares == [("A", 0.0), ("r", 90.0)]


def test_propagate_errors():
    dag = chain_dag("r", "A")
    with pytest.raises(UnknownNode):
        propagate_upstream(dag, "nope", 10.0, {}, 1.0)
    with pytest.raises(ValueError):
        propagate_upstream(dag, "A", -1.0, {"r": 1.0, "A": 1.0}, 1.0)


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
    shares = propagate_upstream(dag, ids[-1], x, prestige, b)
    assert [u for u, _ in shares] == list(reversed(ids))
    assert all(a >= 0.0 for _, a in shares)
    assert math.isclose(sum(a for _, a in shares), x, rel_tol=1e-12, abs_tol=1e-9)


# --- applying transfers --------------------------------------------------------------

def accounts_for(dag_ids, prestige):
    return {u: Account(id=u, coins=0, prestige=prestige[u]) for u in dag_ids}


def test_apply_transfer_simple():
    accounts = {
        "alice": Account(id="alice", prestige=500.0),
        "bob": Account(id="bob", prestige=20.0),
    }
    out, rec = apply_transfer(
        accounts, MiningDag(), beneficiary="alice", contributor="bob",
        x=30.0, mode="simple", block=7,
    )
    assert out["alice"].prestige == 470.0
    assert out["bob"].prestige == 50.0
    assert accounts["alice"].prestige == 500.0  # input map untouched
    assert rec == TransferRecord(
        beneficiary="alice", contributor="bob", amount=30.0, block=7,
        mode=MiningMode.SIMPLE, retained_by=(("bob", 30.0),),
    )


def test_apply_transfer_progressive():
    dag = chain_dag("root", "A")
    accounts = accounts_for(["root", "A", "payer"], {"root": 60.0, "A": 60.0, "payer": 10.0})
    out, rec = apply_transfer(
        accounts, dag, beneficiary="payer", contributor="A",
        x=100.0, mode=MiningMode.PROGRESSIVE, b=1.0,
    )
    assert out["payer"].prestige == -90.0  # debit may overdraw
    assert out["A"].prestige == 110.0
    assert out["root"].prestige == 110.0
    assert rec.retained_by == (("A", 50.0), ("root", 50.0))
    assert rec.mode is MiningMode.PROGRESSIVE


def test_apply_transfer_self_payment_is_neutral_in_simple_mode():
    accounts = {"solo": Account(id="solo", prestige=80.0)}
    out, _ = apply_transfer(
        accounts, MiningDag(), beneficiary="solo", contributor="solo",
        x=25.0, mode="simple",
    )
    assert out["solo"].prestige == 80.0


def test_apply_transfer_errors():
    dag = chain_dag("root")
    accounts = accounts_for(["root", "u"], {"root": 1.0, "u": 1.0})
    with pytest.raises(UnknownAccount):
        apply_transfer(accounts, dag, beneficiary="ghost", contributor="u", x=1.0, mode="simple")
    with pytest.raises(UnknownAccount):
        apply_transfer(accounts, dag, beneficiary="u", contributor="ghost", x=1.0, mode="simple")
    with pytest.raises(NotInDag):
        apply_transfer(accounts, dag, beneficiary="root", contributor="u", x=1.0,
                       mode="progressive")


def test_progressive_transfer_rejects_ancestor_without_account():
    dag = chain_dag("ghost", "a")
    accounts = accounts_for(["a"], {"a": 1.0})
    with pytest.raises(UnknownAccount, match="ghost"):
        apply_transfer(accounts, dag, beneficiary="a", contributor="a", x=1.0,
                       mode="progressive", b=1.0)


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
    out, _ = apply_transfer(
        accounts, dag, beneficiary=ids[0], contributor=ids[-1],
        x=x, mode="progressive", b=b,
    )
    total1 = sum(a.prestige for a in out.values())
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
