"""Long mixed operation sequences on the chain, compared with ``chain_model``.

A hypothesis state machine submits honest, replayed, misplaced and badly
signed acks, registers motivators, mints blocks, round-trips snapshots and copies the
state, doing each to the real chain and to the plain-dict model. After
every step the two must hold the same accounts (prestige to the bit), DAG,
seen task ids, fees, schedules and snapshot bytes, and coins must be
conserved; each block must equal the model's and conserve prestige.
"""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from chain_model import ChainModel
from prestigesim import (
    Account,
    ChainState,
    MiningMode,
    PathAck,
    PrestigeError,
    SystemParams,
    TransferRecord,
    advance_block,
    apply_transfer,
    extend_path_ack,
    inject_prestige,
    keygen,
    load_snapshot,
    make_root_ack,
    make_simple_ack,
    propagate_upstream,
    register_motivator_reward,
    save_snapshot,
    setup,
    step_account,
    submit_ack,
)
from prestigesim.chain import _Pending

NAMES = [f"n{i}" for i in range(5)]
KP = {n: keygen(setup(128), n) for n in NAMES}  # the keys genesis derives
OUTSIDER = keygen(setup(128), "outsider")  # a key no account holds
NODE = st.integers(0, len(NAMES) - 1)
AMOUNT = st.integers(1, 60)


def outcome(call) -> str:
    try:
        call()
    except PrestigeError as exc:
        return type(exc).__name__
    return "accepted"


class ChainVersusModel(RuleBasedStateMachine):
    @initialize(
        coins=st.lists(st.integers(0, 30), min_size=len(NAMES), max_size=len(NAMES)),
        decay=st.sampled_from([0.05, 0.25, 0.5]),
        branch_power=st.sampled_from([0.0, 0.5, 2.0]),
        seed=st.integers(0, 2**64 - 1),
        subsidy=st.integers(0, 3),
        ack_fee=st.integers(0, 2),
    )
    def genesis(self, coins, decay, branch_power, seed, subsidy, ack_fee):
        self.state = ChainState.genesis(
            list(zip(NAMES, coins)), SystemParams(decay=decay, branch_power=branch_power),
            rng_seed=seed, subsidy=subsidy, ack_fee=ack_fee,
        )
        self.model = ChainModel([(n, c, KP[n].vk) for n, c in zip(NAMES, coins)],
                                decay, branch_power, seed, subsidy, ack_fee)
        self.paths = []  # every path ack built, for joins to extend
        self.submitted = []  # (ack, hint) of every submit, for replays
        self.tasks = 0

    def task(self) -> bytes:
        self.tasks += 1
        return self.tasks.to_bytes(32, "big")

    def submit(self, ack, hint=None) -> str:
        got = outcome(lambda: submit_ack(self.state, ack, hint))
        assert got == outcome(lambda: self.model.submit(ack, hint))
        if got == "accepted":
            task_ids = [h.task_id for h in ack.hops] if hasattr(ack, "hops") else [ack.task_id]
            assert set(task_ids) <= self.state.seen_tasks
        self.submitted.append((ack, hint))
        return got

    @rule(node=NODE)
    def root(self, node):
        ack = make_root_ack(KP[NAMES[node]], self.task())
        self.paths.append(ack)
        self.submit(ack)

    @precondition(lambda self: self.paths)
    @rule(k=st.integers(0, 99), node=NODE, amount=AMOUNT)
    def join(self, k, node, amount):
        kp = KP[NAMES[node]]
        ack = extend_path_ack(self.paths[k % len(self.paths)], kp, self.task(), kp.vk, amount)
        self.paths.append(ack)
        self.submit(ack)

    @rule(payer=NODE, payee=NODE, amount=AMOUNT, hinted=st.booleans())
    def simple(self, payer, payee, amount, hinted):
        ack = make_simple_ack(KP[NAMES[payer]], self.task(), KP[NAMES[payee]].vk, amount)
        self.submit(ack, NAMES[payer] if hinted else None)

    @precondition(lambda self: self.submitted)
    @rule(k=st.integers(0, 99))
    def replay(self, k):
        self.submit(*self.submitted[k % len(self.submitted)])

    @precondition(lambda self: self.paths)
    @rule(k=st.integers(0, 99), node=NODE, amount=AMOUNT, bit=st.integers(0, 8 * 33 - 1))
    def flipped_composite(self, k, node, amount, bit):
        """A join whose composite signature has one bit flipped."""
        kp = KP[NAMES[node]]
        ack = extend_path_ack(self.paths[k % len(self.paths)], kp, self.task(), kp.vk, amount)
        composite = (int.from_bytes(ack.composite, "big") ^ (1 << bit)).to_bytes(33, "big")
        assert self.submit(PathAck(ack.hops, composite)) != "accepted"

    @rule(payee=NODE, amount=AMOUNT, hint=st.none() | st.sampled_from(NAMES))
    def wrong_signer(self, payee, amount, hint):
        """A simple ack signed by a key no account holds, with or without a hint."""
        ack = make_simple_ack(OUTSIDER, self.task(), KP[NAMES[payee]].vk, amount)
        assert self.submit(ack, hint) == "InvalidSignature"

    @rule(order=st.permutations(range(len(NAMES))), length=st.integers(2, 4), amount=AMOUNT)
    def fresh_path(self, order, length, amount):
        """A path through any accounts, whatever the DAG holds: often misplaced."""
        ack = make_root_ack(KP[NAMES[order[0]]], self.task())
        for node in order[1:length]:
            kp = KP[NAMES[node]]
            ack = extend_path_ack(ack, kp, self.task(), kp.vk, amount)
        self.submit(ack)

    @rule(funder=NODE, per_block=st.integers(0, 5), blocks=st.integers(0, 4))
    def motivator(self, funder, per_block, blocks):
        name = NAMES[funder]
        got = outcome(lambda: register_motivator_reward(self.state, name, per_block, blocks))
        assert got == outcome(lambda: self.model.register_motivator(name, per_block, blocks))

    @rule()
    def advance(self):
        coins_in, prestige_in = self.state.total_coins(), self.state.total_prestige()
        self.state, block = advance_block(self.state)
        assert repr(block) == repr(self.model.advance())
        expected = coins_in + (1.0 - self.model.decay) * prestige_in
        assert abs(self.state.total_prestige() - expected) <= 1e-9 * max(1.0, abs(expected))

    @precondition(lambda self: not self.state.pending_acks)
    @rule()
    def save_load(self):
        text = save_snapshot(self.state)
        self.state = load_snapshot(text)
        assert save_snapshot(self.state) == text

    @rule()
    def copy(self):
        self.state = self.state.copy()

    @invariant()
    def agrees_with_model(self):
        state, model = self.state, self.model
        assert (state.total_coins() + state.escrowed_coins() + state.fees_pending
                == state.initial_coins + state.height * state.subsidy)
        assert [(uid, a.coins, repr(a.prestige), a.verification_key)
                for uid, a in state.accounts.items()] == [
            (uid, c, repr(p), vk) for uid, (c, p, vk) in model.accounts.items()]
        forest = dict(state.dag.parents)
        assert forest == model.parent and set(forest) <= set(state.accounts)
        assert state.seen_tasks == model.seen
        assert (state.height, state.fees_pending, len(state.pending_acks)) == (
            model.height, model.fees_pending, len(model.pending))
        assert [(s.funder, s.coins_per_block, s.remaining_blocks)
                for s in state.motivator_rewards] == [tuple(s) for s in model.rewards]
        if not state.pending_acks:
            assert save_snapshot(state) == model.snapshot()


ChainVersusModel.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestChainVersusModel = ChainVersusModel.TestCase


# --- regeneration, bit for bit -------------------------------------------------------

COINS = st.one_of(st.integers(0, 10**6), st.integers(2**53 - 2, 2**53 + 2**12),
                  st.integers(0, 2**63 - 1), st.sampled_from([2**53 + 1, 2**63 - 1]))
PRESTIGE = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, 1e300, -1e300]))


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(st.tuples(COINS, PRESTIGE), min_size=1, max_size=20),
       decay=st.floats(1e-6, 1 - 1e-6))
def test_block_regeneration_matches_step_account_bit_for_bit(cells, decay):
    params = SystemParams(decay=decay)
    accounts = [Account(id=f"a{i}", coins=c, prestige=p) for i, (c, p) in enumerate(cells)]
    state, _ = advance_block(ChainState.genesis(accounts, params, rng_seed=3))
    for acct in accounts:
        got = state.accounts[acct.id].prestige
        want = step_account(acct, params).prestige
        assert got.hex() == want.hex()  # tells -0.0 from 0.0


# --- settlement, bit for bit ---------------------------------------------------------

AMOUNTS = st.one_of(st.sampled_from([0.0, -0.0]), st.integers(0, 2**32 - 1).map(float),
                    st.floats(0.0, 1e6))


def restated_transfer(accounts, dag, beneficiary, contributor, x, mode, b):
    """The settlement rule restated on ``Account``s, sharing no code with ``settle_transfer``:
    shares from the prestige before the debit, the debit, then each non-zero share."""
    shares = [(contributor, x)]
    if mode is MiningMode.PROGRESSIVE:
        path = dag.path_to_root(contributor)
        shares = propagate_upstream(path, x, {n: accounts[n].prestige for n in path}, b)
    accounts[beneficiary] = inject_prestige(accounts[beneficiary], -x)
    for node, amount in shares:
        if amount != 0.0:
            accounts[node] = inject_prestige(accounts[node], amount)
    return TransferRecord(beneficiary, contributor, x, 1, mode, tuple(shares))


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(0, 1000), PRESTIGE), min_size=1, max_size=6),
       parents=st.lists(st.integers(-1, 5), max_size=6),
       decay=st.sampled_from([0.05, 0.5]), branch_power=st.sampled_from([0.0, 0.5, 2.0]),
       data=st.data())
def test_block_settlement_matches_apply_transfer_bit_for_bit(cells, parents, decay,
                                                             branch_power, data):
    """``advance_block`` settles its queue as ``apply_transfer`` over ``Account``s,
    and both settle as the restated rule.

    Transfers are queued directly, so any pair can be settled: a beneficiary
    on the contributor's own root path, self-payment, zero amounts of either
    sign, negative prestige and ±0.0 prestige.
    """
    params = SystemParams(decay=decay, branch_power=branch_power)
    ids = [f"a{i}" for i in range(len(cells))]
    accounts = [Account(id=uid, coins=c, prestige=p) for uid, (c, p) in zip(ids, cells)]
    state = ChainState.genesis(accounts, params, rng_seed=7)
    for i, parent in enumerate(parents[: len(ids)]):  # node i hangs under an earlier node or roots
        if parent < 0 or i == 0:
            state.dag.add_root(ids[i])
        else:
            state.dag.attach(ids[parent % i], ids[i])
    nodes = list(state.dag.parents)
    simple = st.tuples(st.sampled_from(ids), st.sampled_from(ids), AMOUNTS, st.just(MiningMode.SIMPLE))
    progressive = st.tuples(st.sampled_from(ids), st.sampled_from(nodes), AMOUNTS,
                            st.just(MiningMode.PROGRESSIVE)) if nodes else simple
    transfers = data.draw(st.lists(st.one_of(simple, progressive), max_size=8))
    carrier = make_simple_ack(KP["n0"], b"\x00" * 32, KP["n1"].vk, 0)
    state.pending_acks = [_Pending(carrier, (t,)) for t in transfers]

    expected = {a.id: step_account(a, params) for a in accounts}
    restated = dict(expected)
    records = [apply_transfer(expected, state.dag, *t, b=branch_power, block=1) for t in transfers]
    assert repr(records) == repr([restated_transfer(restated, state.dag, *t, branch_power)
                                  for t in transfers])
    state, block = advance_block(state)
    assert repr(block.processed_acks) == repr(tuple(records))
    got = [p.hex() for p in state.accounts.prestige.tolist()]
    assert got == [expected[uid].prestige.hex() for uid in ids]
    assert got == [restated[uid].prestige.hex() for uid in ids]
