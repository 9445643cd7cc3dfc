"""Mining: how acknowledged work turns into retained prestige.

A completed task moves a prestige fee x from the beneficiary to the
contributor side. Two modes are supported:

* simple mining: the contributor keeps the whole fee.

* progressive mining: contributors sit in a distribution DAG (a forest of
  single-parent trees rooted at original content sources). A node keeps only
  the fraction P / (P + Pb) of what reaches it, where Pb is its branch power:
  the configured multiplier b times the summed (non-negative) prestige of all
  its ancestors up to the root. The remainder climbs the branch, each ancestor
  applying its own fraction, and the root absorbs whatever is left, so every
  transferred unit lands somewhere on the path.

Nodes with zero or negative prestige retain nothing and pass everything
upstream; ancestors with negative prestige contribute zero to branch power.
"""

from __future__ import annotations

import enum
from collections.abc import Hashable, Mapping, MutableMapping, Sequence
from dataclasses import dataclass
from typing import Iterator

from .core import Account, inject_prestige
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
    def parse(cls, label: str | MiningMode) -> "MiningMode":
        if isinstance(label, MiningMode):
            return label
        try:
            return cls(label.lower())
        except ValueError:
            raise ValueError(f"unknown mining mode {label!r}; expected 'simple' or 'progressive'") from None


class MiningDag:
    """Forest of distribution trees; every node has at most one parent.

    Mutation happens in place (attach/add_root return self for chaining) and
    assumes exclusive access; no two block-processing steps may grow the same
    DAG concurrently. Acyclicity holds by construction because only brand-new
    node ids can be attached.
    """

    __slots__ = ("_parent",)

    def __init__(self) -> None:
        self._parent: dict[str, str | None] = {}

    # -- growth --------------------------------------------------------------

    def add_root(self, node: str) -> "MiningDag":
        if node in self._parent:
            raise DuplicateNode(node)
        self._parent[node] = None
        return self

    def attach(self, parent: str, child: str) -> "MiningDag":
        if parent not in self._parent:
            raise UnknownParent(parent)
        if child in self._parent:
            raise DuplicateNode(child)
        self._parent[child] = parent
        return self

    # -- queries ---------------------------------------------------------------

    def __contains__(self, node: object) -> bool:
        return node in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def nodes(self) -> Iterator[str]:
        return iter(self._parent)

    @property
    def roots(self) -> tuple[str, ...]:
        return tuple(n for n, p in self._parent.items() if p is None)

    def parent(self, node: str) -> str | None:
        try:
            return self._parent[node]
        except KeyError:
            raise UnknownNode(node) from None

    def path_to_root(self, node: str) -> list[str]:
        """Node first, root last."""
        path = [node]
        current = self.parent(node)
        while current is not None:
            path.append(current)
            current = self._parent[current]
        return path

    def copy(self) -> "MiningDag":
        dup = MiningDag()
        dup._parent = dict(self._parent)
        return dup


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

    Clamps: non-positive prestige keeps nothing; with zero branch power a
    positive-prestige node keeps everything.
    """
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


def propagate_upstream(
    path: Sequence[Hashable],
    x: float,
    prestige_of: Mapping[Hashable, float] | Sequence[float],
    b: float,
) -> list[tuple[Hashable, float]]:
    """Split a fee x along a contributor's path to the root.

    *path* is the contributor's ``MiningDag.path_to_root``: contributor
    first, root last, never empty. Its ids may be account ids or, as in
    the tree scenarios, positions. *prestige_of* maps each id on the path
    to its prestige: a mapping, or a list indexed by position when the
    ids are positions; ids off the path are never read.
    Returns (node, amount) pairs in path order. Every node before the root
    keeps its progressive fraction of the residual reaching it; the root
    absorbs the final residual outright, so the amounts are non-negative
    and sum to exactly x (up to float rounding).
    """
    if x < 0:
        raise ValueError(f"transfer amount must be >= 0, got {x}")

    # Suffix sums, root first, give each node's ancestor prestige mass.
    above = [0.0] * len(path)
    running = 0.0
    for i in range(len(path) - 1, -1, -1):
        above[i] = running
        running += max(prestige_of[path[i]], 0.0)

    shares: list[tuple[str, float]] = []
    residual = x
    for i, node in enumerate(path[:-1]):
        kept = retain_progressive(residual, prestige_of[node], b * above[i])
        shares.append((node, kept))
        residual -= kept
    shares.append((path[-1], residual))
    return shares


# --- applying transfers ---------------------------------------------------------

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
    """Debit the beneficiary by x and credit the contributor side, in place.

    Simple mode credits the contributor in full; progressive mode splits x
    along the contributor's branch (requires the contributor to be in the
    DAG, else NotInDag, and an account for every node on its path to the
    root, else UnknownAccount naming the first one missing). Every check,
    ValueError for x < 0 included, runs before any account changes, so a
    call that raises leaves *accounts* as it found it. On success the
    beneficiary and every node with a non-zero share are replaced in
    *accounts* and an audit record is returned; the beneficiary may be
    driven below zero prestige.
    """
    mode = MiningMode.parse(mode)
    if beneficiary not in accounts:
        raise UnknownAccount(beneficiary)
    if contributor not in accounts:
        raise UnknownAccount(contributor)

    if mode is MiningMode.SIMPLE:
        if x < 0:
            raise ValueError(f"transfer amount must be >= 0, got {x}")
        shares = [(contributor, x)]
    else:
        if contributor not in dag:
            raise NotInDag(contributor)
        path = dag.path_to_root(contributor)
        for node in path:
            if node not in accounts:
                raise UnknownAccount(node)
        shares = propagate_upstream(path, x, {n: accounts[n].prestige for n in path}, b)

    accounts[beneficiary] = inject_prestige(accounts[beneficiary], -x)
    for node, amount in shares:
        if amount != 0.0:
            accounts[node] = inject_prestige(accounts[node], amount)

    return TransferRecord(
        beneficiary=beneficiary,
        contributor=contributor,
        amount=float(x),
        block=block,
        mode=mode,
        retained_by=tuple((n, float(a)) for n, a in shares),
    )
