import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decapsp import DomainError, GeometricRounder


def ceil_power_reference(delta, eps):
    """Independent oracle: walk the power ladder with plain multiplication."""
    base = 1.0 + eps
    e = 0
    val = 1.0
    while val < delta:
        val *= base
        e += 1
    return e, val


def test_known_value_five_at_half():
    # 1.5^3 = 3.375 < 5 <= 1.5^4 = 5.0625
    e, val = ceil_power_reference(5, 0.5)
    assert e == 4 and val == pytest.approx(5.0625)
    assert GeometricRounder(0.5).round(5) == pytest.approx(5.0625)
    assert GeometricRounder(0.5).exponent(5) == 4


def test_exact_powers_round_to_themselves():
    r = GeometricRounder(0.5)
    for e in range(8):
        v = 1.5**e
        assert r.exponent(v) == e
        assert r.round(v) == pytest.approx(v)


def test_rounding_domain_errors():
    for bad in (0, -1, -0.5, 0.5, 1 - 1e-9, math.inf, math.nan):
        with pytest.raises(DomainError):
            GeometricRounder(0.3).round(bad)
    # with 1.0 + eps == 1.0 every rung would stay 1.0 and the ladder would
    # grow forever; the smallest eps that moves 1.0 is accepted
    for bad_eps in (0, -0.1, math.inf, 1e-16, 1e-17, 2.0**-54, 5e-324):
        with pytest.raises(DomainError):
            GeometricRounder(bad_eps)
    assert GeometricRounder(2.0**-52).round(1 + 2.0**-52) == 1 + 2.0**-52


def test_values_above_the_largest_float_are_refused():
    """The ladder tops out at the largest float, so a value above it (an
    integer weight of 10^309, say) could never be reached; it is refused
    like any value outside the domain, and the ladder is left usable.  The
    refusal of 10^5000, past Python's 4300-digit limit on integer to string
    conversion, is a DomainError too."""
    r = GeometricRounder(0.3)
    top = sys.float_info.max
    assert r.round(top) == top
    for bad in (10**309, int(top) + 1, 10**5000):
        with pytest.raises(DomainError):
            r.round(bad)
    assert r.round(top) == top and r.round(5) == pytest.approx(1.3**7)


@settings(max_examples=150, deadline=None)
@given(st.floats(1, 1e6), st.sampled_from([0.05, 0.3, 0.5, 0.9, 2.0]))
def test_sandwich_and_idempotence(delta, eps):
    r = GeometricRounder(eps)
    val = r.round(delta)
    assert val >= delta * (1 - 1e-12)
    assert val <= (1 + eps) * delta * (1 + 1e-12)
    assert r.exponent(val) == r.exponent(delta)  # idempotent on the ladder


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**6), st.sampled_from([0.3, 0.9]))
def test_monotone(a, b, eps):
    r = GeometricRounder(eps)
    lo, hi = min(a, b), max(a, b)
    assert r.exponent(lo) <= r.exponent(hi)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5000), st.sampled_from([0.3, 0.5, 0.9]))
def test_distinct_values_bounded_on_a_range(top, eps):
    """Over [1, top] there are at most ceil(log_{1+eps} top) + 1 buckets."""
    r = GeometricRounder(eps)
    exps = {r.exponent(x) for x in range(1, top + 1)}
    assert len(exps) <= math.ceil(math.log(top, 1 + eps)) + 1



@settings(max_examples=200, deadline=None)
@given(st.floats(1, 1e12), st.floats(1, 1e12), st.sampled_from([0.1, 0.2, 0.3, 1 / 3]))
def test_values_identify_exponents(a, b, eps):
    """The structures store and compare rounded values instead of exponents:
    equal values exactly when equal exponents, and a value rounds to itself."""
    r = GeometricRounder(eps)
    assert (r.round(a) == r.round(b)) == (r.exponent(a) == r.exponent(b))
    assert r.round(r.round(a)) == r.round(a)


@pytest.mark.parametrize("eps, delta", [
    (1e308 / 3, 7e307),
    (1e308 / 3, sys.float_info.max),
    (0.9, 1.7e308),
    (0.9, sys.float_info.max),
])
def test_a_value_past_the_last_finite_power_rounds_to_a_finite_rung(eps, delta):
    """A rung past the float range would be inf; it is the largest float
    instead, which still sandwiches every value above the rung before it."""
    r = GeometricRounder(eps)
    val = r.round(delta)
    assert math.isfinite(val)
    assert delta <= val <= (1 + eps) * delta
    assert r.round(val) == val
