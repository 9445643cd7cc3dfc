"""Core prestige dynamics.

Prestige is a per-account scalar that regenerates from coin holdings and
decays multiplicatively each block:

    P(t) = C + (1 - d) * P(t-1)        0 < d < 1

The unique fixed point of that recurrence is the static value S = C / d;
every trajectory converges to it geometrically, with the remaining gap
after t blocks equal to (P(0) - S) * (1 - d)^t.

Coins are integers in [0, 2**63 - 1], the range the chain's int64 ledger
holds; prestige is a float64 and may go negative when an account spends
more than it holds (downstream consumers clamp at zero where a
non-negative weight is required).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

MAX_COINS = 2**63 - 1  # the most coins one int64 ledger cell holds


@dataclass(frozen=True)
class SystemParams:
    """Global knobs of the reward system, each held as a Python float.

    decay:        fraction of prestige lost per block (0 < decay < 1)
    branch_power: multiplier b applied to ancestor prestige when computing
                  branch power in progressive mining (finite, b >= 0)
    service_fee:  default prestige fee x for one completed task (finite, >= 0)
    """

    decay: float
    branch_power: float = 0.0
    service_fee: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.decay < 1.0):
            raise ValueError(f"decay must be in (0, 1), got {self.decay}")
        object.__setattr__(self, "decay", float(self.decay))
        for name in ("branch_power", "service_fee"):
            object.__setattr__(self, name, finite_nonnegative(name, getattr(self, name)))


def whole(name: str, value: int) -> int:
    """*value* as a Python int, or ValueError naming *name* unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value}") from None


def seed(value: int) -> int:
    """*value*, or ValueError unless it is an unsigned 64-bit seed: the range of ``--seed``."""
    if not 0 <= value < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {value}")
    return value


def finite_nonnegative(name: str, value: float) -> float:
    """*value* as a Python float, or ValueError naming *name* unless it is finite and >= 0."""
    if not 0.0 <= value < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return float(value)


@dataclass(frozen=True)
class Account:
    """A participant: coin balance, prestige level, and signing identity.

    Fresh accounts start at zero prestige. ``verification_key`` is empty for
    accounts that never touch the acknowledgment layer and 33 bytes otherwise.
    """

    id: str
    coins: int = 0
    prestige: float = 0.0
    verification_key: bytes = b""

    def __post_init__(self) -> None:
        coins = check_account(self.id, self.coins, self.verification_key)
        if coins is not self.coins:
            object.__setattr__(self, "coins", coins)


def check_account(acct_id: str, coins: int, verification_key: bytes) -> int:
    """*coins* as an int; ValueError for coins not an integer in [0, 2**63 - 1] or a key not 0 or 33 bytes."""
    if type(coins) is not int:
        coins = whole(f"coins of {acct_id!r}", coins)
    if not 0 <= coins <= MAX_COINS:
        raise ValueError(f"coins must be in [0, 2**63 - 1], got {coins} for {acct_id!r}")
    if verification_key and len(verification_key) != 33:
        raise ValueError("verification_key must be empty or 33 bytes")
    return coins


def step_account(account: Account, params: SystemParams) -> Account:
    """Advance one block of regeneration and decay.

    Returns a new account with prestige C + (1 - d) * P. Coins are untouched;
    the coin balance used is the one the account holds entering the block, so
    coins earned during a block first regenerate prestige the following block.
    """
    new_p = account.coins + (1.0 - params.decay) * account.prestige
    return Account(account.id, account.coins, new_p, account.verification_key)


def static_value(coins: int, params: SystemParams) -> float:
    """Fixed point C / d that a constant coin balance sustains."""
    return coins / params.decay


def inject_prestige(account: Account, delta: float) -> Account:
    """Add (or with negative delta, remove) prestige out of band.

    Used by experiments to model one-off awards and by transfers; the result
    may be negative.
    """
    return Account(account.id, account.coins, account.prestige + delta, account.verification_key)


def convergence_gap(p0: float, coins: int, params: SystemParams, t: int) -> float:
    """Signed distance from the static value after t blocks.

    Closed form of iterating ``step_account`` t times from prestige p0:
    (p0 - S) * (1 - d)^t with S = static_value(coins).
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return (p0 - static_value(coins, params)) * (1.0 - params.decay) ** t
