"""Acknowledgments: signed receipts that make work claims checkable.

Two wire formats are exchanged:

* ``SimpleAck`` (102 bytes): one beneficiary acknowledges one contributor.
  Layout: task_id (32) || contributor_vk (33) || amount (4, big-endian
  unsigned) || signature (33). The beneficiary signs the first three fields;
  verification therefore needs the beneficiary's verification key, which
  travels out of band (the chain looks it up in account state).

* ``PathAck`` (33 + 69*n bytes): a contributor's proof of membership in a
  distribution branch. Hop 0 is the branch root's self-signed genesis record;
  every later hop is appended by the node that just received the content,
  signed over (task_id || its own vk || amount it owes). Each hop verifies
  against the vk stored in that hop, so the whole path checks out from the
  bytes alone plus the expected root key. The composite signature is the
  composition of all hop signatures. A composite verifies against exactly
  its (message, key) entries, none repeated: removing or repeating a hop, or
  tampering any field, breaks it.

Trust rule and costs. A ``KeyPair``'s vk is derived from its sk; every ack
``make_root_ack`` and ``extend_path_ack`` return is trusted; anything else is
verified in full. So growing a path to n hops costs n hashes (one signature
each), while a path ack from the constructor, ``from_bytes``, ``from_hex`` or
``dataclasses.replace`` costs ``extend_path_ack`` one hash per hop first.
``verify_path_ack`` always costs one hash per hop; the chain verifies every
path it is handed. Every hop and simple ack encodes its signed message once,
on first use, and keeps the bytes (its fields are frozen).

The signature scheme is a deterministic keyed-hash construction (sign =
33-byte hash bound to the signer's public key and message, compose = bytewise
XOR). It gives the exact algebra the simulator needs (commutative,
associative, order-free composition; unions verify; subsets do not) but no
real unforgeability, and exists so the package stays dependency-free and
reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import AmountOverflow, DuplicateHop, InvalidPrev

TASK_ID_BYTES = 32
VK_BYTES = 33
SIG_BYTES = 33
AMOUNT_BYTES = 4
AMOUNT_MAX = 2**32 - 1

SIMPLE_ACK_BYTES = TASK_ID_BYTES + VK_BYTES + AMOUNT_BYTES + SIG_BYTES  # 102
PATH_HOP_BYTES = TASK_ID_BYTES + VK_BYTES + AMOUNT_BYTES  # 69
PATH_ACK_BASE_BYTES = SIG_BYTES  # 33


@dataclass(frozen=True)
class SchemeParams:
    """Output of scheme setup; ``keygen`` mixes its security level into every sk."""

    security: int


@dataclass(frozen=True)
class KeyPair:
    """A secret key and the vk derived from it, once, on construction."""

    sk: bytes
    vk: bytes = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vk", _derive_vk(self.sk))


Entry = tuple[bytes, bytes]  # (message, verification key)


def _seed_bytes(seed: bytes | int | str) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, str):
        return seed.encode()
    return seed.to_bytes(16, "big", signed=False)


def _derive_vk(sk: bytes) -> bytes:
    return hashlib.shake_256(b"prestigesim/vk/" + sk).digest(VK_BYTES)


def _entry_sig(vk: bytes, message: bytes) -> bytes:
    return hashlib.shake_256(b"prestigesim/sig/" + vk + message).digest(SIG_BYTES)


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError(f"cannot XOR {len(a)} bytes with {len(b)} bytes")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def setup(security_parameter: int) -> SchemeParams:
    if security_parameter <= 0:
        raise ValueError(f"security parameter must be positive, got {security_parameter}")
    return SchemeParams(security=security_parameter)


def keygen(params: SchemeParams, seed: bytes | int | str) -> KeyPair:
    """Deterministic key pair; the public key is derived from the secret key."""
    sk = hashlib.shake_256(
        b"prestigesim/sk/" + params.security.to_bytes(4, "big") + _seed_bytes(seed)
    ).digest(32)
    return KeyPair(sk)


def sign(sk: bytes, message: bytes) -> bytes:
    """Per-entry signature: a hash bound to (signer's vk, message)."""
    return _entry_sig(_derive_vk(sk), message)


def verify(entries: Iterable[Entry], signature: bytes) -> bool:
    """A composite verifies against exactly the entries it was built from.

    False for a signature not 33 bytes, for no entries and for a message
    listed twice, under the same key or another.
    """
    if len(signature) != SIG_BYTES:
        return False
    seen: set[bytes] = set()
    acc = 0
    for message, vk in entries:
        if message in seen:
            return False
        seen.add(message)
        acc ^= int.from_bytes(_entry_sig(vk, message), "big")
    return bool(seen) and acc == int.from_bytes(signature, "big")


def compose(e1: Sequence[Entry], s1: bytes, e2: Sequence[Entry], s2: bytes) -> bytes | None:
    """Merge two valid composites over disjoint messages; None otherwise."""
    if not verify(e1, s1) or not verify(e2, s2):
        return None
    if not {m for m, _ in e1}.isdisjoint(m for m, _ in e2):
        return None
    return _xor_bytes(s1, s2)


# --- wire formats -----------------------------------------------------------

def encode_ack_message(task_id: bytes, vk: bytes, amount: int) -> bytes:
    """Canonical signed payload: task_id || vk || amount (4-byte big-endian)."""
    if len(task_id) != TASK_ID_BYTES:
        raise ValueError(f"task id must be {TASK_ID_BYTES} bytes, got {len(task_id)}")
    if len(vk) != VK_BYTES:
        raise ValueError(f"verification key must be {VK_BYTES} bytes, got {len(vk)}")
    if not (0 <= amount <= AMOUNT_MAX):
        raise AmountOverflow(f"amount {amount} outside [0, {AMOUNT_MAX}]")
    return b"".join((task_id, vk, amount.to_bytes(AMOUNT_BYTES, "big")))  # bytes from any buffer


def _keep_message(record: SimpleAck | PathHop, vk: bytes) -> bytes:
    """Encode the (task id, *vk*, amount) payload *record* signs and keep it there, as its
    fields are frozen; an encoding that raises (``AmountOverflow`` included) keeps nothing."""
    message = encode_ack_message(record.task_id, vk, record.amount)
    object.__setattr__(record, "_message", message)
    return message


@dataclass(frozen=True, slots=True)
class SimpleAck:
    """Single-task receipt; fixed 102-byte encoding."""

    task_id: bytes
    contributor_vk: bytes
    amount: int
    signature: bytes
    _message: bytes | None = field(default=None, init=False, compare=False, repr=False)

    def message(self) -> bytes:
        """The signed payload, encoded on first use and kept."""
        return self._message or _keep_message(self, self.contributor_vk)

    def to_bytes(self) -> bytes:
        return self.message() + self.signature

    def to_hex(self) -> str:
        return self.to_bytes().hex()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SimpleAck":
        if len(raw) != SIMPLE_ACK_BYTES:
            raise ValueError(f"simple ack must be {SIMPLE_ACK_BYTES} bytes, got {len(raw)}")
        hop = PathHop.from_bytes(raw[:PATH_HOP_BYTES])
        return cls(hop.task_id, hop.vk, hop.amount, bytes(raw[PATH_HOP_BYTES:]))

    @classmethod
    def from_hex(cls, text: str) -> "SimpleAck":
        return cls.from_bytes(bytes.fromhex(text))


def make_simple_ack(
    beneficiary: KeyPair,
    task_id: bytes,
    contributor_vk: bytes,
    amount: int,
) -> SimpleAck:
    """Beneficiary-signed receipt naming the contributor to be credited."""
    message = encode_ack_message(task_id, contributor_vk, amount)
    ack = SimpleAck(
        task_id=bytes(task_id),
        contributor_vk=bytes(contributor_vk),
        amount=int(amount),
        signature=_entry_sig(beneficiary.vk, message),  # sign(beneficiary.sk, message)
    )
    object.__setattr__(ack, "_message", message)  # what ack.message() would encode
    return ack


def verify_simple_ack(ack: SimpleAck, beneficiary_vk: bytes) -> bool:
    try:
        message = ack.message()
    except ValueError:  # AmountOverflow included
        return False
    return verify([(message, beneficiary_vk)], ack.signature)


@dataclass(frozen=True, slots=True)
class PathHop:
    """One node's membership record on a distribution branch."""

    task_id: bytes
    vk: bytes
    amount: int
    _message: bytes | None = field(default=None, init=False, compare=False, repr=False)

    def message(self) -> bytes:
        """The signed payload, encoded on first use and kept."""
        return self._message or _keep_message(self, self.vk)

    def to_bytes(self) -> bytes:
        return self.message()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PathHop":
        if len(raw) != PATH_HOP_BYTES:
            raise ValueError(f"path hop must be {PATH_HOP_BYTES} bytes")
        raw = bytes(raw)  # immutable fields from any buffer, so a kept message cannot go stale
        task_id = raw[:TASK_ID_BYTES]
        vk = raw[TASK_ID_BYTES : TASK_ID_BYTES + VK_BYTES]
        amount = int.from_bytes(raw[TASK_ID_BYTES + VK_BYTES :], "big")
        return cls(task_id=task_id, vk=vk, amount=amount)


@dataclass(frozen=True, slots=True)
class PathAck:
    """Root-first chain of hop records plus one composite signature."""

    hops: tuple[PathHop, ...]
    composite: bytes
    # Set only by make_root_ack and extend_path_ack, whose composites verify;
    # every other way of making a PathAck leaves it False.
    _built: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.hops:
            raise ValueError("path ack needs at least the root hop")
        if len(self.composite) != SIG_BYTES:
            raise ValueError(f"composite must be {SIG_BYTES} bytes")

    def entries(self) -> list[Entry]:
        """The (message, vk) pair of every hop, root first."""
        return [(hop.message(), hop.vk) for hop in self.hops]

    def to_bytes(self) -> bytes:
        return b"".join([hop.message() for hop in self.hops]) + self.composite

    def to_hex(self) -> str:
        return self.to_bytes().hex()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PathAck":
        body = len(raw) - PATH_ACK_BASE_BYTES
        if body <= 0 or body % PATH_HOP_BYTES != 0:
            raise ValueError(f"path ack length {len(raw)} is not 33 + 69*n")
        raw = bytes(raw)  # as in PathHop.from_bytes
        hops = tuple(
            PathHop.from_bytes(raw[i : i + PATH_HOP_BYTES])
            for i in range(0, body, PATH_HOP_BYTES)
        )
        return cls(hops=hops, composite=raw[body:])

    @classmethod
    def from_hex(cls, text: str) -> "PathAck":
        return cls.from_bytes(bytes.fromhex(text))


def make_root_ack(root: KeyPair, task_id: bytes, amount: int = 0) -> PathAck:
    """Self-signed genesis record that seeds a branch's path acks. It verifies,
    as ``root.vk`` is derived from ``root.sk``, so ``extend_path_ack`` trusts it."""
    hop = PathHop(task_id=bytes(task_id), vk=root.vk, amount=int(amount))
    ack = PathAck(hops=(hop,), composite=_entry_sig(root.vk, hop.message()))  # sign(root.sk, ...)
    object.__setattr__(ack, "_built", True)
    return ack


def extend_path_ack(
    prev: PathAck,
    beneficiary: KeyPair,
    task_id: bytes,
    contributor_vk: bytes,
    amount: int,
) -> PathAck:
    """Append the extending node's hop and recompose the signature.

    The node that just received the content signs its own membership record
    and becomes the branch's newest contributor, so ``contributor_vk`` must be
    the signing key pair's public key. Grows the encoding by exactly 69 bytes.

    A ``KeyPair``'s vk is derived from its sk, so every ack this module
    returns verifies and a ``prev`` it returned is trusted: extending it
    costs one hash (the new hop's signature) plus one bytes comparison per
    hop for the duplicate check. Any other ``prev`` (decoded, constructed or
    replaced) is verified in full first, one hash per hop, and raises
    ``InvalidPrev`` if it does not verify.
    """
    if contributor_vk != beneficiary.vk:
        raise ValueError("extending node records its own key; contributor_vk must match beneficiary.vk")
    if not prev._built and not verify(prev.entries(), prev.composite):
        raise InvalidPrev("previous path ack does not verify")

    hop = PathHop(task_id=bytes(task_id), vk=bytes(contributor_vk), amount=int(amount))
    message = hop.message()
    if message in [h.message() for h in prev.hops]:
        raise DuplicateHop("hop message already present in the path")

    composite = _xor_bytes(prev.composite, _entry_sig(beneficiary.vk, message))  # sign(beneficiary.sk, ...)
    ack = PathAck(hops=prev.hops + (hop,), composite=composite)
    object.__setattr__(ack, "_built", True)  # prev verifies (built or checked above), so does the hop
    return ack


def verify_path_ack(ack: PathAck, expected_root_vk: bytes) -> bool:
    """Check the composite against every hop and the anchoring at the root.

    One hash per hop, for every ack: the built mark is not consulted.
    """
    if ack.hops[0].vk != expected_root_vk:
        return False
    try:
        entries = ack.entries()
    except ValueError:  # AmountOverflow included
        return False
    return verify(entries, ack.composite)
