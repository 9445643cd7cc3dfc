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

from dataclasses import dataclass


@dataclass(frozen=True)
class SystemParams:
    """Global knobs of the reward system.

    decay:        fraction of prestige lost per block (0 < decay < 1)
    branch_power: multiplier b applied to ancestor prestige when computing
                  branch power in progressive mining (b >= 0)
    service_fee:  default prestige fee x for one completed task (>= 0)
    """

    decay: float
    branch_power: float = 0.0
    service_fee: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.decay < 1.0):
            raise ValueError(f"decay must be in (0, 1), got {self.decay}")
        if self.branch_power < 0.0:
            raise ValueError(f"branch_power must be >= 0, got {self.branch_power}")
        if self.service_fee < 0.0:
            raise ValueError(f"service_fee must be >= 0, got {self.service_fee}")


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
        if not 0 <= self.coins <= 2**63 - 1:
            raise ValueError(f"coins must be in [0, 2**63 - 1], got {self.coins} for {self.id!r}")
        if self.verification_key and len(self.verification_key) != 33:
            raise ValueError("verification_key must be empty or 33 bytes")


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
