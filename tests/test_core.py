"""Prestige regeneration/decay dynamics and their closed forms."""

import math

import pytest
from hypothesis import example, given, strategies as st

from prestigesim import (
    Account,
    SystemParams,
    convergence_gap,
    inject_prestige,
    static_value,
    step_account,
)

PARAMS = SystemParams(decay=0.05)


def iterate(coins: int, p0: float, params: SystemParams, blocks: int) -> float:
    acct = Account(id="u", coins=coins, prestige=p0)
    for _ in range(blocks):
        acct = step_account(acct, params)
    return acct.prestige


# --- hand-computed trajectory: C=100, d=0.05, P0=0 ---------------------------
# P1 = 100 + 0.95*0    = 100
# P2 = 100 + 0.95*100  = 195
# P3 = 100 + 0.95*195  = 285.25

def test_step_account_first_blocks():
    acct = Account(id="u", coins=100)
    acct = step_account(acct, PARAMS)
    assert acct.prestige == 100.0
    acct = step_account(acct, PARAMS)
    assert acct.prestige == 195.0
    acct = step_account(acct, PARAMS)
    assert acct.prestige == 285.25


def test_step_account_returns_new_object():
    acct = Account(id="u", coins=10, prestige=5.0)
    out = step_account(acct, PARAMS)
    assert out is not acct
    assert acct.prestige == 5.0  # input untouched
    assert out.coins == 10
    assert out.id == "u"


def test_static_value():
    assert static_value(100, PARAMS) == 2000.0
    assert static_value(0, PARAMS) == 0.0
    assert static_value(7, SystemParams(decay=0.5)) == 14.0


def test_static_value_is_fixed_point():
    s = static_value(40, PARAMS)
    acct = Account(id="u", coins=40, prestige=s)
    assert step_account(acct, PARAMS).prestige == pytest.approx(s, abs=1e-12)


def test_convergence_gap_matches_iteration():
    for t in (0, 1, 5, 50, 300):
        predicted = static_value(100, PARAMS) + convergence_gap(0.0, 100, PARAMS, t)
        assert iterate(100, 0.0, PARAMS, t) == pytest.approx(predicted, abs=1e-9)


def test_convergence_gap_from_above():
    # starting above the static value decays down toward it
    p0 = 5000.0
    s = static_value(100, PARAMS)
    g = convergence_gap(p0, 100, PARAMS, 10)
    assert g == pytest.approx((p0 - s) * 0.95**10)
    assert g > 0
    assert iterate(100, p0, PARAMS, 10) == pytest.approx(s + g, abs=1e-9)


def test_convergence_gap_rejects_negative_t():
    with pytest.raises(ValueError):
        convergence_gap(0.0, 100, PARAMS, -1)


def test_inject_prestige():
    acct = Account(id="u", coins=3, prestige=10.0)
    assert inject_prestige(acct, 2.5).prestige == 12.5
    assert inject_prestige(acct, -25.0).prestige == -15.0  # may go negative
    assert inject_prestige(acct, 0.0).prestige == 10.0


def test_negative_prestige_recovers():
    acct = Account(id="u", coins=100, prestige=-500.0)
    for _ in range(400):
        acct = step_account(acct, PARAMS)
    assert acct.prestige == pytest.approx(2000.0, abs=1e-3)


# --- validation ----------------------------------------------------------------

@pytest.mark.parametrize("decay", [0.0, 1.0, -0.1, 1.5])
def test_params_reject_bad_decay(decay):
    with pytest.raises(ValueError):
        SystemParams(decay=decay)


def test_params_reject_negative_branch_power():
    with pytest.raises(ValueError):
        SystemParams(decay=0.1, branch_power=-0.5)


def test_params_reject_negative_service_fee():
    with pytest.raises(ValueError):
        SystemParams(decay=0.1, service_fee=-1.0)


@pytest.mark.parametrize("field", ["branch_power", "service_fee"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_branch_power_and_fee(field, value):
    # nan < 0.0 is false, so a sign check alone lets NaN through
    with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
        SystemParams(decay=0.1, **{field: value})


def test_account_rejects_negative_coins():
    with pytest.raises(ValueError):
        Account(id="u", coins=-1)


def test_account_rejects_short_key():
    with pytest.raises(ValueError):
        Account(id="u", verification_key=b"\x02" * 32)
    Account(id="u", verification_key=b"\x02" * 33)  # exact length is fine


# --- properties ------------------------------------------------------------------

@given(
    coins=st.integers(min_value=0, max_value=10**6),
    p0=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    decay=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
    t=st.integers(min_value=0, max_value=200),
)
@example(coins=17180, p0=0.99999, decay=1e-6, t=0)
def test_gap_closed_form_matches_iteration(coins, p0, decay, t):
    # Compared as distances from the static value: S + gap cancels when the
    # prestige is small next to S (here S = 1.7e10), losing more than abs_tol.
    params = SystemParams(decay=decay)
    expected = convergence_gap(p0, coins, params, t)
    got = iterate(coins, p0, params, t) - static_value(coins, params)
    assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-6)


@given(
    coins_a=st.integers(min_value=0, max_value=10**4),
    coins_b=st.integers(min_value=0, max_value=10**4),
    t=st.integers(min_value=0, max_value=60),
)
def test_trajectory_additive_in_coins(coins_a, coins_b, t):
    """Zero-start trajectories add: splitting a balance changes nothing."""
    whole = iterate(coins_a + coins_b, 0.0, PARAMS, t)
    split = iterate(coins_a, 0.0, PARAMS, t) + iterate(coins_b, 0.0, PARAMS, t)
    assert math.isclose(whole, split, rel_tol=1e-12, abs_tol=1e-9)


@given(decay=st.floats(min_value=0.01, max_value=0.99))
def test_gap_shrinks_monotonically(decay):
    params = SystemParams(decay=decay)
    gaps = [abs(convergence_gap(0.0, 100, params, t)) for t in range(30)]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
