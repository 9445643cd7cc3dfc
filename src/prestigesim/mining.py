"""Mining: how acknowledged work turns into retained prestige.

A completed task moves a prestige fee x from the beneficiary to the
contributor side. Two modes are supported:

* progressive mining: contributors sit in a distribution DAG (a forest of
  single-parent trees rooted at original content sources). A node keeps only
  the fraction P / (P + Pb) of what reaches it, where Pb is its branch power:
  the configured multiplier b times the summed (non-negative) prestige of all
  its ancestors up to the root. The remainder climbs the branch, each ancestor
  applying its own fraction, and the root absorbs whatever is left, so every
  transferred unit lands somewhere on the path.

* simple mining: the same rule on a forest with no parents, so each path
  is the one node ``(contributor,)``: its own root, it keeps the whole fee.

Nodes with zero or negative prestige retain nothing and pass everything
upstream; ancestors with negative prestige contribute zero to branch power.

``root_path`` walks a forest held as a parent map, and ``retain_progressive``
states the per-node rule. ``settle_upstream`` is the propagation kernel,
which settles every transfer in either mode: it walks a root path twice
(ancestor mass up, then the residual down, applying the rule inline) and
adds each node's share into a caller's container in place, which may be the
prestige container itself. ``propagate_upstream`` runs it into a fresh
tally and returns the shares. ``settle_transfer`` is a whole transfer along
a root path on a prestige container (the chain's and the theorem checks'
per-position lists); ``apply_transfer`` maps it onto ``Account``s.
"""

from __future__ import annotations

import enum
from collections.abc import Hashable, Mapping, MutableMapping, MutableSequence, Sequence
from dataclasses import dataclass, replace

from .core import Account
from .errors import (
    DuplicateNode,
    NotInDag,
    UnknownAccount,
    UnknownNode,
    UnknownParent,
)


class MiningMode(str, enum.Enum):
    SIMPLE = "simple"
    PROGRESSIVE = "progressive"

    @classmethod
    def parse(cls, label: str, key: str = "mode") -> "MiningMode":
        try:  # a member is a str too, and parses back to itself
            return cls(label.lower())
        except (AttributeError, ValueError):  # naming the argument, *key*, the label came in
            raise ValueError(f"{key}: unknown mining mode {label!r}; "
                             "expected 'simple' or 'progressive'") from None


class MiningDag:
    """Forest of distribution trees; every node has at most one parent.

    ``parents`` maps each node to its parent, None for a root. Read it freely;
    grow it only by add_root/attach, which return self for chaining and assume
    exclusive access. Acyclicity holds by construction because only brand-new
    node ids can be attached.
    """

    __slots__ = ("parents",)

    def __init__(self) -> None:
        self.parents: dict[str, str | None] = {}

    def add_root(self, node: str) -> "MiningDag":
        if node in self.parents:
            raise DuplicateNode(f"DAG node {node!r} is already present")
        self.parents[node] = None
        return self

    def attach(self, parent: str, child: str) -> "MiningDag":
        if parent not in self.parents:
            raise UnknownParent(parent)
        if child in self.parents:
            raise DuplicateNode(f"DAG node {child!r} is already present")
        self.parents[child] = parent
        return self

    def __contains__(self, node: object) -> bool:
        return node in self.parents

    def __len__(self) -> int:
        return len(self.parents)

    def path_to_root(self, node: str) -> list[str]:
        """``root_path`` over ``parents``; UnknownNode if *node* is not in the DAG."""
        if node not in self.parents:
            raise UnknownNode(node)
        return root_path(self.parents, node)

    def copy(self) -> "MiningDag":
        dup = MiningDag()
        dup.parents = dict(self.parents)
        return dup


def root_path(parent_of: Mapping[Hashable, Hashable] | Sequence[Hashable], node: Hashable) -> list:
    """Node first, root last, over a parent mapping or list in which a root maps to None."""
    path = [node]
    node = parent_of[node]
    while node is not None:
        path.append(node)
        node = parent_of[node]
    return path


@dataclass(frozen=True)
class TransferRecord:
    """Audit record of one applied prestige transfer."""

    beneficiary: str
    contributor: str
    amount: float
    block: int
    mode: MiningMode
    retained_by: tuple[tuple[str, float], ...]


# --- retention ----------------------------------------------------------------

def retain_progressive(x: float, prestige: float, branch_power_value: float) -> float:
    """Fraction of x kept by a node with the given prestige and branch power.

    Clamps: non-positive prestige keeps nothing; with zero, negative or NaN
    branch power a positive-prestige node keeps everything.
    """
    if x < 0:
        raise ValueError(f"transfer amount must be >= 0, got {x}")
    if prestige <= 0.0:
        return 0.0
    if not branch_power_value > 0.0:
        return x
    kept = x * prestige / (prestige + branch_power_value)
    # multiply-then-divide can overshoot x by an ulp when the branch power is
    # negligible next to prestige; never hand back more than came in
    return kept if kept < x else x


def settle_upstream(
    path: Sequence[Hashable],
    x: float,
    prestige_of: Mapping[Hashable, float] | Sequence[float],
    b: float,
    credit: MutableMapping[Hashable, float] | MutableSequence[float],
) -> None:
    """Split a fee x along a contributor's path to the root, crediting in place.

    *path* is a root path of the contributor, contributor first and root
    last, never empty, naming each node once: ``root_path`` of a parent map
    (``MiningDag.path_to_root`` in the chain), or ``(contributor,)`` in simple
    mining, which is ``credit[contributor] += x``; its ids may be account ids
    or, as in the tree scenarios, positions.
    *prestige_of* maps each id on the path to its prestige: a mapping, or a
    list indexed by position when the ids are positions; ids off the path
    are never read.

    Every node before the root keeps ``retain_progressive`` of the residual
    reaching it, with branch power b times the summed non-negative prestige
    of its ancestors; the rule is applied inline, bit for bit
    ``retain_progressive``, NaN and signed zeros included. The root absorbs
    the final residual outright. Each node's amount is added to
    ``credit[node]``, so the amounts credited are non-negative and sum to
    exactly x (up to float rounding).

    *credit* may be *prestige_of* itself, and the result is the same as
    crediting a separate container and adding it in afterwards: every
    ancestor's prestige is read before any credit, each node's own prestige
    is read before that node is credited, and the path names each node once.
    """
    if x < 0:
        raise ValueError(f"transfer amount must be >= 0, got {x}")
    if len(path) == 1:  # no ancestors: the contributor is its own root (simple mining)
        credit[path[0]] += x
        return

    # Ancestor prestige mass, summed from the root down; above[-1 - i] is
    # what sits above path[i]. Skipping a negative p leaves the same bits as
    # adding max(p, 0.0), NaN included (mass starts at +0.0, never -0.0).
    above = []
    mass = 0.0
    for node in path[:0:-1]:
        p = prestige_of[node]
        if not p < 0.0:
            mass += p
        above.append(mass)

    residual = x
    for node, mass_above in zip(path, reversed(above)):
        # retain_progressive(residual, p, b * mass_above), inline to save a call per
        # hop; the residual is never negative, so its x check could never fire.
        p = prestige_of[node]
        if p <= 0.0:
            kept = 0.0
        else:
            power = b * mass_above
            if not power > 0.0:
                kept = residual
            else:
                kept = residual * p / (p + power)
                if not kept < residual:
                    kept = residual
        credit[node] += kept
        residual -= kept
    credit[path[-1]] += residual


def propagate_upstream(
    path: Sequence[Hashable],
    x: float,
    prestige_of: Mapping[Hashable, float] | Sequence[float],
    b: float,
) -> list[tuple[Hashable, float]]:
    """``settle_upstream`` into a fresh tally: the (node, amount) pairs in path order.

    Each tally starts at -0.0, the additive identity, so every amount keeps
    the exact bits ``settle_upstream`` computes, x = -0.0 included.
    """
    credit = dict.fromkeys(path, -0.0)
    settle_upstream(path, x, prestige_of, b, credit)
    return list(credit.items())


# --- applying transfers ---------------------------------------------------------

def settle_transfer(
    prestige: MutableMapping[Hashable, float] | MutableSequence[float],
    beneficiary: Hashable,
    path: Sequence[Hashable],
    x: float,
    b: float = 0.0,
) -> list[tuple[Hashable, float]]:
    """Debit the beneficiary by x and credit the contributor side in *prestige*.

    *path* is the contributor's root path, ``(contributor,)`` in simple mining;
    ``propagate_upstream`` splits x along it from the prestige before the
    debit. Then the beneficiary is debited and each non-zero share credited,
    in path order; the (node, amount) shares are returned.
    """
    shares = propagate_upstream(path, x, prestige, b)
    prestige[beneficiary] += -x  # inject_prestige's p + (-x): same bits as p - x, NaN sign too
    for node, amount in shares:
        if amount != 0.0:
            prestige[node] += amount
    return shares


def apply_transfer(
    accounts: MutableMapping[str, Account],
    dag: MiningDag,
    beneficiary: str,
    contributor: str,
    x: float,
    mode: MiningMode | str,
    *,
    b: float = 0.0,
    block: int = 0,
) -> TransferRecord:
    """``settle_transfer`` on a mapping of ``Account``s, with an audit record.

    Simple mode settles on the path ``(contributor,)``, which keeps all of x;
    progressive mode splits x along the contributor's branch (requires the
    contributor in the DAG, else NotInDag, and an account for every node on
    its path to the root, else UnknownAccount naming the first). Every check,
    ValueError for x < 0 included, runs before any account changes, so a
    call that raises leaves *accounts* as it found it. On success the
    beneficiary and every node with a non-zero share are replaced in
    *accounts*; the beneficiary may be driven below zero prestige.
    """
    mode = MiningMode.parse(mode)
    for acct_id in (beneficiary, contributor):
        if acct_id not in accounts:
            raise UnknownAccount(acct_id)
    path = (contributor,)
    if mode is MiningMode.PROGRESSIVE:
        if contributor not in dag:
            raise NotInDag(contributor)
        path = dag.path_to_root(contributor)
        for node in path:
            if node not in accounts:
                raise UnknownAccount(node)

    prestige = {n: accounts[n].prestige for n in (beneficiary, *path)}
    shares = settle_transfer(prestige, beneficiary, path, x, b)
    for node in (beneficiary, *(n for n, a in shares if a != 0.0)):
        accounts[node] = replace(accounts[node], prestige=prestige[node])
    return TransferRecord(beneficiary, contributor, float(x), block, mode,
                          tuple((n, float(a)) for n, a in shares))
