"""Composite signatures and the two acknowledgment wire formats."""

import dataclasses
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from prestigesim import acks
from prestigesim import (
    AmountOverflow,
    DuplicateHop,
    InvalidPrev,
    KeyPair,
    PathAck,
    PathHop,
    SimpleAck,
    compose,
    encode_ack_message,
    extend_path_ack,
    keygen,
    make_root_ack,
    make_simple_ack,
    setup,
    sign,
    verify,
    verify_path_ack,
    verify_simple_ack,
)
from prestigesim.acks import (
    PATH_ACK_BASE_BYTES,
    PATH_HOP_BYTES,
    SIMPLE_ACK_BYTES,
    _entry_sig,
    _xor_bytes,
)

PARAMS = setup(128)


def kp(label: str) -> KeyPair:
    return keygen(PARAMS, label)


def tid(n: int) -> bytes:
    return n.to_bytes(32, "big")


# --- keys --------------------------------------------------------------------

def test_setup_rejects_nonpositive_security():
    with pytest.raises(ValueError):
        setup(0)
    with pytest.raises(ValueError):
        setup(-8)


def test_keygen_is_deterministic():
    assert kp("alice") == kp("alice")
    assert keygen(PARAMS, 7) == keygen(PARAMS, 7)
    assert keygen(PARAMS, b"\x01\x02") == keygen(PARAMS, b"\x01\x02")


def test_keygen_seed_types_are_distinct_keys():
    seen = {kp("x").vk, keygen(PARAMS, 0).vk, keygen(PARAMS, b"\x00").vk}
    assert len(seen) == 3


def test_keygen_no_collisions_over_many_seeds():
    vks = {keygen(PARAMS, i).vk for i in range(2000)}
    assert len(vks) == 2000
    assert all(len(vk) == 33 for vk in vks)


def test_keypair_derives_its_vk():
    p = kp("alice")
    assert [f.name for f in dataclasses.fields(KeyPair)] == ["sk", "vk"]
    assert KeyPair(sk=p.sk) == p and hash(KeyPair(p.sk)) == hash(p)
    assert KeyPair(b"\x00" * 32).vk == acks._derive_vk(b"\x00" * 32)
    assert len(KeyPair(b"").vk) == 33
    with pytest.raises(TypeError):
        KeyPair(sk=p.sk, vk=p.vk)
    with pytest.raises(ValueError):
        dataclasses.replace(p, vk=kp("bob").vk)
    assert dataclasses.replace(p) == p
    assert dataclasses.replace(p, sk=kp("bob").sk) == kp("bob")


# --- sign / verify -----------------------------------------------------------

def test_single_signature_roundtrip():
    pair = kp("signer")
    sig = sign(pair.sk, b"hello")
    assert len(sig) == 33
    assert verify([(b"hello", pair.vk)], sig)
    assert not verify([(b"hell0", pair.vk)], sig)
    assert not verify([(b"hello", kp("other").vk)], sig)


def test_verify_rejects_degenerate_inputs():
    pair = kp("signer")
    sig = sign(pair.sk, b"m")
    assert not verify([], sig)  # no entries
    assert not verify([(b"m", pair.vk)], sig[:-1])  # short sig
    # two entries carrying the same message are ill-formed by construction
    dup = [(b"m", pair.vk), (b"m", kp("other").vk)]
    assert not verify(dup, sig)


def test_verify_rejects_a_repeated_message():
    a, b = kp("a"), kp("b")
    sa, sb = sign(a.sk, b"m"), sign(b.sk, b"m")
    s2 = sign(b.sk, b"m2")
    assert verify([(b"m", a.vk), (b"m2", b.vk)], _xor_bytes(sa, s2))
    # the same pair twice: neither as if listed once, nor as its self-cancelling XOR
    for sig in (sa, bytes(33)):
        assert not verify([(b"m", a.vk), (b"m", a.vk)], sig)
    # the same message under another key, also after another entry
    assert not verify([(b"m", a.vk), (b"m", b.vk)], _xor_bytes(sa, sb))
    assert not verify([(b"m", a.vk), (b"m2", b.vk), (b"m", b.vk)],
                      _xor_bytes(_xor_bytes(sa, s2), sb))


# --- composition ----------------------------------------------------------------

def test_compose_verifies_against_union():
    a, b = kp("a"), kp("b")
    d1 = [(b"m1", a.vk)]
    d2 = [(b"m2", b.vk)]
    s1, s2 = sign(a.sk, b"m1"), sign(b.sk, b"m2")
    s12 = compose(d1, s1, d2, s2)
    assert s12 is not None
    assert verify(d1 + d2, s12)
    # but not against either part alone
    assert not verify(d1, s12)
    assert not verify(d2, s12)


def test_compose_is_order_free():
    a, b, c = kp("a"), kp("b"), kp("c")
    ds = [[(m, k.vk)] for m, k in [(b"1", a), (b"2", b), (b"3", c)]]
    sigs = [sign(a.sk, b"1"), sign(b.sk, b"2"), sign(c.sk, b"3")]
    left = compose(ds[0] + ds[1], compose(ds[0], sigs[0], ds[1], sigs[1]), ds[2], sigs[2])
    right = compose(ds[0], sigs[0], ds[1] + ds[2], compose(ds[1], sigs[1], ds[2], sigs[2]))
    swapped = compose(ds[2], sigs[2], ds[0] + ds[1], compose(ds[1], sigs[1], ds[0], sigs[0]))
    assert left == right == swapped
    assert verify(ds[0] + ds[1] + ds[2], left)


def test_compose_rejects_overlap_and_garbage():
    a, b = kp("a"), kp("b")
    d1 = [(b"m", a.vk)]
    d2 = [(b"m", b.vk)]  # same message, different key
    s1, s2 = sign(a.sk, b"m"), sign(b.sk, b"m")
    assert compose(d1, s1, d2, s2) is None  # overlapping messages
    d3 = [(b"other", b.vk)]
    assert compose(d1, b"\x00" * 33, d3, sign(b.sk, b"other")) is None  # s1 invalid


@given(st.integers(0, 64).flatmap(lambda n: st.tuples(st.binary(min_size=n, max_size=n),
                                                       st.binary(min_size=n, max_size=n))))
def test_xor_bytes_matches_bytewise_xor(pair):
    a, b = pair
    assert _xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))


@given(st.binary(max_size=40), st.binary(max_size=40))
def test_xor_bytes_rejects_unequal_lengths(a, b):
    if len(a) == len(b):
        b += b"\x00"
    with pytest.raises(ValueError):
        _xor_bytes(a, b)


def test_same_signer_two_messages_composes():
    a = kp("a")
    d1 = [(b"m1", a.vk)]
    d2 = [(b"m2", a.vk)]
    s = compose(d1, sign(a.sk, b"m1"), d2, sign(a.sk, b"m2"))
    assert s is not None and verify(d1 + d2, s)


@given(
    st.lists(st.tuples(st.binary(max_size=80), st.sampled_from("abc")),
             min_size=1, max_size=8, unique_by=lambda e: e[0]),
    st.binary(min_size=33, max_size=33),
)
def test_verify_matches_reduced_xor_reference(pairs, other_sig):
    entries = [(m, kp(label).vk) for m, label in pairs]
    # the byte-wise fold verify computed before it kept one int accumulator
    reference = reduce(_xor_bytes, (_entry_sig(vk, m) for m, vk in entries))
    assert verify(entries, reference)
    assert verify(entries[::-1], reference)
    assert verify(entries, other_sig) == (other_sig == reference)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8, unique=True))
def test_composite_never_verifies_against_proper_subset(indices):
    pairs = [kp(f"u{i}") for i in indices]
    entries = [(f"msg{i}".encode(), p.vk) for i, p in zip(indices, pairs)]
    sigs = [sign(p.sk, m) for (m, _), p in zip(entries, pairs)]
    full = entries
    composite = sigs[0]
    acc = entries[:1]
    for entry, sig in zip(entries[1:], sigs[1:]):
        composite = compose(acc, composite, [entry], sig)
        acc = acc + [entry]
    assert verify(full, composite)
    for k in range(len(entries)):
        subset = entries[:k] + entries[k + 1 :]
        if len(subset):
            assert not verify(subset, composite)


# --- message encoding ----------------------------------------------------------

def test_encode_ack_message_layout():
    vk = kp("c").vk
    msg = encode_ack_message(tid(5), vk, 258)
    assert len(msg) == 69
    assert msg[:32] == tid(5)
    assert msg[32:65] == vk
    assert msg[65:] == (258).to_bytes(4, "big")


def test_encode_ack_message_validation():
    vk = kp("c").vk
    with pytest.raises(ValueError):
        encode_ack_message(b"short", vk, 1)
    with pytest.raises(ValueError):
        encode_ack_message(tid(1), b"short", 1)
    with pytest.raises(AmountOverflow):
        encode_ack_message(tid(1), vk, -1)
    with pytest.raises(AmountOverflow):
        encode_ack_message(tid(1), vk, 2**32)
    encode_ack_message(tid(1), vk, 2**32 - 1)  # boundary is allowed


# --- simple acks ------------------------------------------------------------------

def test_simple_ack_is_102_bytes_and_roundtrips():
    benef, contrib = kp("benef"), kp("contrib")
    ack = make_simple_ack(benef, tid(1), contrib.vk, 500)
    raw = ack.to_bytes()
    assert len(raw) == SIMPLE_ACK_BYTES == 102
    assert SimpleAck.from_bytes(raw) == ack
    assert SimpleAck.from_hex(ack.to_hex()) == ack
    decoded = SimpleAck.from_bytes(bytearray(raw))
    assert verify_simple_ack(decoded, benef.vk)
    assert type(decoded.task_id) is type(decoded.contributor_vk) is bytes  # kept message cannot go stale


def test_simple_ack_verifies_only_for_signer():
    benef, contrib = kp("benef"), kp("contrib")
    ack = make_simple_ack(benef, tid(1), contrib.vk, 500)
    assert verify_simple_ack(ack, benef.vk)
    assert not verify_simple_ack(ack, contrib.vk)


def test_simple_ack_tampering_detected():
    benef, contrib = kp("benef"), kp("contrib")
    ack = make_simple_ack(benef, tid(1), contrib.vk, 500)
    for mangled in (
        SimpleAck(tid(2), ack.contributor_vk, ack.amount, ack.signature),
        SimpleAck(ack.task_id, kp("x").vk, ack.amount, ack.signature),
        SimpleAck(ack.task_id, ack.contributor_vk, 501, ack.signature),
        SimpleAck(ack.task_id, ack.contributor_vk, ack.amount, bytes(33)),
    ):
        assert not verify_simple_ack(mangled, benef.vk)


def test_simple_ack_with_malformed_fields_fails_closed():
    # direct construction bypasses encode-time validation; verify must not raise
    bad = SimpleAck(task_id=b"tiny", contributor_vk=b"vk", amount=7, signature=bytes(33))
    assert not verify_simple_ack(bad, kp("b").vk)
    bad_amount = SimpleAck(tid(1), kp("c").vk, 2**40, bytes(33))
    assert not verify_simple_ack(bad_amount, kp("b").vk)


def test_simple_ack_from_bytes_rejects_wrong_length():
    with pytest.raises(ValueError):
        SimpleAck.from_bytes(bytes(101))
    with pytest.raises(ValueError):
        SimpleAck.from_bytes(bytes(103))


# --- path acks ---------------------------------------------------------------------

def build_path(n: int, amount: int = 10) -> tuple[PathAck, list[KeyPair]]:
    """Root plus n-1 extensions, keys named hop0..hop{n-1}."""
    keys = [kp(f"hop{i}") for i in range(n)]
    return grow_path(keys, amount), keys


def grow_path(keys: list[KeyPair], amount: int = 10) -> PathAck:
    """A root ack signed by keys[0], extended once by each later key."""
    ack = make_root_ack(keys[0], tid(1000))
    for i, key in enumerate(keys[1:], start=1):
        ack = extend_path_ack(ack, key, tid(1000 + i), key.vk, amount)
    return ack


@pytest.mark.parametrize("n", range(1, 11))
def test_path_ack_size_grows_69_per_hop(n):
    ack, _ = build_path(n)
    assert len(ack.to_bytes()) == PATH_ACK_BASE_BYTES + PATH_HOP_BYTES * n == 33 + 69 * n


def test_path_ack_roundtrips():
    ack, keys = build_path(4)
    assert PathAck.from_bytes(ack.to_bytes()) == ack
    assert PathAck.from_hex(ack.to_hex()) == ack
    # a received buffer need not be bytes
    decoded = PathAck.from_bytes(bytearray(ack.to_bytes()))
    assert verify_path_ack(decoded, keys[0].vk)
    assert all(type(h.task_id) is type(h.vk) is bytes for h in decoded.hops)


def test_path_ack_from_bytes_rejects_bad_lengths():
    ack, _ = build_path(2)
    raw = ack.to_bytes()
    with pytest.raises(ValueError):
        PathAck.from_bytes(raw[:-1])
    with pytest.raises(ValueError):
        PathAck.from_bytes(bytes(33))  # composite alone, zero hops
    with pytest.raises(ValueError):
        PathAck.from_bytes(bytes(20))


def test_path_ack_constructor_validation():
    with pytest.raises(ValueError):
        PathAck(hops=(), composite=bytes(33))
    hop = PathHop(task_id=tid(1), vk=kp("r").vk, amount=0)
    with pytest.raises(ValueError):
        PathAck(hops=(hop,), composite=bytes(32))


def test_path_hop_roundtrip():
    hop = PathHop(task_id=tid(3), vk=kp("h").vk, amount=999)
    assert PathHop.from_bytes(hop.to_bytes()) == hop
    with pytest.raises(ValueError):
        PathHop.from_bytes(bytes(68))


def test_root_ack_verifies_against_root_key_only():
    root = kp("root")
    ack = make_root_ack(root, tid(1))
    assert verify_path_ack(ack, root.vk)
    assert not verify_path_ack(ack, kp("imposter").vk)


def test_extended_path_verifies_and_binds_every_hop():
    ack, keys = build_path(5, amount=42)
    assert verify_path_ack(ack, keys[0].vk)
    assert [hop.vk for hop in ack.hops] == [k.vk for k in keys]
    assert [hop.amount for hop in ack.hops] == [0] + [42] * 4

    # tampering any hop field kills the composite
    hops = list(ack.hops)
    hops[2] = PathHop(hops[2].task_id, hops[2].vk, hops[2].amount + 1)
    assert not verify_path_ack(PathAck(tuple(hops), ack.composite), keys[0].vk)

    # dropping an interior hop kills it too
    assert not verify_path_ack(
        PathAck(ack.hops[:2] + ack.hops[3:], ack.composite), keys[0].vk
    )


def test_path_reorder_keeps_composite_but_breaks_root_anchor():
    # The composite signs a *set*, so swapping interior hops still verifies;
    # structural order is enforced by the chain against its recorded DAG.
    ack, keys = build_path(4)
    shuffled = PathAck((ack.hops[0], ack.hops[2], ack.hops[1], ack.hops[3]), ack.composite)
    assert verify_path_ack(shuffled, keys[0].vk)
    rooted_elsewhere = PathAck(ack.hops[::-1], ack.composite)
    assert not verify_path_ack(rooted_elsewhere, keys[0].vk)


def test_path_with_two_identical_hops_does_not_verify():
    # Signed once, the hop would be counted twice; a composite never verifies
    # against a repeated message, whatever its signature.
    root = kp("root")
    ack = make_root_ack(root, tid(1))
    doubled = PathAck(ack.hops * 2, ack.composite)
    assert not verify_path_ack(doubled, root.vk)
    assert not verify_path_ack(PathAck(ack.hops * 2, bytes(33)), root.vk)


def test_extend_requires_own_key():
    ack, keys = build_path(2)
    with pytest.raises(ValueError, match="contributor_vk"):
        extend_path_ack(ack, kp("new"), tid(50), keys[0].vk, 5)


def test_extend_rejects_duplicate_hop():
    ack, keys = build_path(3)
    last = ack.hops[-1]
    with pytest.raises(DuplicateHop):
        extend_path_ack(ack, keys[2], last.task_id, keys[2].vk, last.amount)
    # same task id with a different amount is a different message: allowed
    extended = extend_path_ack(ack, keys[2], last.task_id, keys[2].vk, last.amount + 1)
    assert verify_path_ack(extended, keys[0].vk)


def test_extend_rejects_corrupt_previous():
    ack, keys = build_path(2)
    corrupt = PathAck(ack.hops, bytes(33))
    with pytest.raises(InvalidPrev):
        extend_path_ack(corrupt, kp("new"), tid(60), kp("new").vk, 5)


# --- built acks: trusted by extend_path_ack, one hash per hop -----------------------

def test_extend_trusts_only_acks_that_verify():
    new = kp("new")
    built, keys = build_path(3)

    # A pair built by hand or by dataclasses.replace signs exactly as
    # sign(sk, message) does, through every maker.
    message = encode_ack_message(tid(3), new.vk, 5)
    for pair in (KeyPair(new.sk), dataclasses.replace(new)):
        assert pair == new and hash(pair) == hash(new) and repr(pair) == repr(new)
        assert make_simple_ack(pair, tid(3), new.vk, 5).signature == sign(pair.sk, message)
        assert make_root_ack(pair, tid(3), 5).composite == sign(pair.sk, message)
        grown = extend_path_ack(built, pair, tid(9), pair.vk, 5)
        hop_message = encode_ack_message(tid(9), pair.vk, 5)
        assert grown.composite == _xor_bytes(built.composite, sign(pair.sk, hop_message))

    flipped = bytearray(built.to_bytes())
    flipped[-1] ^= 1
    for tampered in (
        dataclasses.replace(built, composite=bytes(33)),
        PathAck(built.hops, bytes(33)),
        PathAck.from_bytes(flipped),
    ):
        assert not verify_path_ack(tampered, keys[0].vk)
        with pytest.raises(InvalidPrev):
            extend_path_ack(tampered, new, tid(60), new.vk, 5)


def test_built_mark_is_invisible():
    built, keys = build_path(3)
    for copy in (dataclasses.replace(built), PathAck(built.hops, built.composite),
                 PathAck.from_bytes(built.to_bytes())):
        assert copy == built and repr(copy) == repr(built) and hash(copy) == hash(built)
        # an unmarked copy that verifies extends to the same bytes
        assert (extend_path_ack(copy, keys[1], tid(77), keys[1].vk, 3).to_bytes()
                == extend_path_ack(built, keys[1], tid(77), keys[1].vk, 3).to_bytes())


_AMOUNTS = st.sampled_from([0, 1, 7, 2**32 - 1, 2**32])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), _AMOUNTS,
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 6), _AMOUNTS), max_size=30))
def test_extending_built_and_decoded_paths_agree(root_task, root_amount, steps):
    # Grown once from the acks extend_path_ack returned and once from a fresh
    # decoding at every step: the same bytes, or the same error, at each step.
    keys = [kp(f"eq{i}") for i in range(6)]

    def attempt(make):
        try:
            return make()
        except (DuplicateHop, AmountOverflow) as exc:
            return type(exc)

    built = attempt(lambda: make_root_ack(keys[0], tid(root_task), root_amount))
    if not isinstance(built, PathAck):
        assert built is AmountOverflow and root_amount > 2**32 - 1
        return
    decoded = built
    for k, task, amount in steps:
        key = keys[k]
        grown = attempt(lambda: extend_path_ack(built, key, tid(task), key.vk, amount))
        redecoded = PathAck.from_bytes(decoded.to_bytes())
        regrown = attempt(lambda: extend_path_ack(redecoded, key, tid(task), key.vk, amount))
        if isinstance(grown, PathAck):
            assert isinstance(regrown, PathAck) and grown.to_bytes() == regrown.to_bytes()
            built, decoded = grown, regrown
        else:
            assert regrown is grown
            repeated = any(h.task_id == tid(task) and h.vk == key.vk and h.amount == amount
                           for h in built.hops)
            assert (grown is DuplicateHop) == repeated
    assert verify_path_ack(built, keys[0].vk) and verify_path_ack(decoded, keys[0].vk)


_PAIRS = st.one_of(st.integers(0, 5).map(lambda i: kp(f"prop{i}")), st.binary(max_size=40).map(KeyPair))


@settings(max_examples=200, deadline=None)
@given(_PAIRS, st.integers(0, 3),
       st.lists(st.tuples(_PAIRS, st.integers(0, 3), st.integers(0, acks.AMOUNT_MAX)), max_size=12))
def test_every_ack_the_makers_return_is_built_and_verifies(root, root_task, steps):
    # From keygen's pairs or hand-built ones alike; a decoding of it is not built.
    made = [make_root_ack(root, tid(root_task))]
    for pair, task, amount in steps:
        try:
            made.append(extend_path_ack(made[-1], pair, tid(task), pair.vk, amount))
        except DuplicateHop:
            pass
    for ack in made:
        assert ack._built and verify_path_ack(ack, root.vk)
        assert not PathAck.from_bytes(ack.to_bytes())._built


def test_growing_and_verifying_a_path_costs_one_hash_per_hop(monkeypatch):
    n = 200
    keys = [kp(f"hop{i}") for i in range(n)]
    hand_built = [KeyPair(i.to_bytes(32, "big")) for i in range(n)]
    signs, encodes, derives = [], [], []
    entry_sig, encode, derive = acks._entry_sig, acks.encode_ack_message, acks._derive_vk
    monkeypatch.setattr(acks, "_entry_sig", lambda *a: signs.append(1) or entry_sig(*a))
    monkeypatch.setattr(acks, "encode_ack_message", lambda *a: encodes.append(1) or encode(*a))
    monkeypatch.setattr(acks, "_derive_vk", lambda *a: derives.append(1) or derive(*a))
    ack = grow_path(keys)
    assert len(signs) == n  # re-verifying every prev made n(n+1)/2
    assert len(encodes) == n  # one per hop, kept by the hop
    assert len(derives) == 0  # keygen's pairs sign with their vk; deriving it made n
    assert verify_path_ack(ack, keys[0].vk)
    ack.to_hex()
    assert len(signs) == 2 * n
    assert len(encodes) == n
    make_simple_ack(keys[0], tid(1), keys[1].vk, 5)
    assert len(derives) == 0
    # a hand-built pair derived its vk once, when constructed, as keygen's do
    signs.clear()
    grow_path(hand_built)
    assert len(signs) == n and len(derives) == 0


def test_hop_past_the_amount_range_constructs_but_neither_verifies_nor_encodes():
    root = kp("root")
    ack = PathAck((PathHop(tid(1), root.vk, 2**32),), bytes(33))
    assert not verify_path_ack(ack, root.vk)
    for _ in range(2):  # a failed encoding keeps nothing
        with pytest.raises(AmountOverflow):
            ack.to_bytes()
    with pytest.raises(AmountOverflow):
        extend_path_ack(ack, kp("new"), tid(2), kp("new").vk, 1)
