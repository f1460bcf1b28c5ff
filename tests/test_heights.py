import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermlat import (
    CurveInvariants,
    asymptotic_consistency,
    binomial_sum_constant,
    height_floor,
    height_limit,
    height_lower_bounds,
    height_upper_bounds,
)


# independent oracle: Pascal-triangle binomials plus a direct Fraction sum
def _pascal(n, k):
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def _oracle_d(m, k, g):
    if k == 1:
        return 1
    total = Fraction(0)
    for a in range(min(k - 1, g) + 1):
        total += Fraction(_pascal(m + g - k - a, k - 1 - a)) * _pascal(g, a)
    return int((m + g) * total)


def test_d_is_one_for_k_one():
    for m in range(1, 21):
        for g in range(0, 5):
            assert binomial_sum_constant(m, 1, g) == 1


def test_d_worked_value():
    assert binomial_sum_constant(10, 2, 2) == 144
    assert binomial_sum_constant(10, 2, 2) == _oracle_d(10, 2, 2)


def test_d_genus_zero_value():
    # direct evaluation of the displayed sum: (m+g) * C(m+g-k, k-1) at g=0
    assert binomial_sum_constant(6, 2, 0) == 6 * math.comb(4, 1) == 24
    assert binomial_sum_constant(6, 2, 0) == _oracle_d(6, 2, 0)


@given(
    m=st.integers(min_value=1, max_value=25),
    k=st.integers(min_value=1, max_value=8),
    g=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=200, deadline=None)
def test_d_matches_oracle_and_positive(m, k, g):
    if k > 1 and m + g - k - min(k - 1, g) < 0:
        with pytest.raises(ValueError):
            binomial_sum_constant(m, k, g)
        return
    value = binomial_sum_constant(m, k, g)
    assert value == _oracle_d(m, k, g)
    assert value >= 0
    if k == 1 or m + g - k >= k - 1:
        assert value >= 1


def test_d_bad_arguments():
    with pytest.raises(ValueError):
        binomial_sum_constant(0, 1, 1)
    with pytest.raises(ValueError):
        binomial_sum_constant(1, 0, 1)
    with pytest.raises(ValueError):
        binomial_sum_constant(1, 1, -1)
    with pytest.raises(ValueError):
        binomial_sum_constant(1, 5, 1)


def test_height_limit():
    assert height_limit(0, 1) == 0
    assert height_limit(1, 2) == 0.25
    # dualizing-sheaf specialization: degree 2g-2 at g=2 gives w/4
    assert height_limit(Fraction(1), 2 * 2 - 2) == Fraction(1, 4)
    with pytest.raises(ValueError):
        height_limit(1, 0)


def test_lower_bounds_worked_values():
    inv = CurveInvariants(g=2, r=1, log_disc=0.0, omega_sq=1.0, residual_c=0.0)
    a, b = height_lower_bounds(inv, 5)
    assert abs(a - 0.19643) < 1e-5
    assert abs(b - 0.16667) < 1e-5


def test_lower_bounds_exact_mode():
    inv = CurveInvariants(g=2, omega_sq=Fraction(1))
    a, b = height_lower_bounds(inv, 5)
    assert a == Fraction(11, 56)
    assert b == Fraction(1, 6)


def test_lower_bounds_zero_inputs():
    inv = CurveInvariants(g=2, omega_sq=0.0)
    a, b = height_lower_bounds(inv, 7)
    assert a == 0 and b == 0


def test_lower_bounds_limit():
    inv = CurveInvariants(g=2, omega_sq=1.0)
    a, _ = height_lower_bounds(inv, 10**8)
    assert abs(a - 0.25) < 1e-6


def test_lower_bounds_b_absence():
    inv = CurveInvariants(g=2, omega_sq=1.0)
    _, b = height_lower_bounds(inv, 4)  # 2g+1 = 5
    assert b is None
    with pytest.raises(ValueError):
        height_lower_bounds(inv, 0)


def test_upper_bounds_worked_values():
    inv = CurveInvariants(g=2, omega_sq=1.0)
    a, b = height_upper_bounds(inv, 5)
    assert abs(a - 0.30357) < 1e-5
    assert abs(b - (0.25 + 1 / 12)) < 1e-12


def test_upper_bounds_exact_mode():
    inv = CurveInvariants(g=2, omega_sq=Fraction(1))
    a, b = height_upper_bounds(inv, 5)
    assert a == Fraction(17, 56)
    assert b == Fraction(1, 3)


def test_upper_bounds_limit():
    inv = CurveInvariants(g=3, omega_sq=2.0)
    a, b = height_upper_bounds(inv, 10**8)
    assert abs(a - 0.25) < 1e-6
    assert abs(b - 0.25) < 1e-6


def test_height_floor():
    assert height_floor(CurveInvariants(g=2, omega_sq=8.0)) == 1.0
    assert height_floor(CurveInvariants(g=3, omega_sq=0.0)) == 0.0
    assert height_floor(CurveInvariants(g=2, omega_sq=1.0)) == 0.125


def test_asymptotic_consistency_g2():
    rep = asymptotic_consistency(CurveInvariants(g=2, omega_sq=1.0))
    assert rep.limit == 0.25
    assert rep.converged
    assert abs(rep.lower_values[-1] - 0.25) <= 1e-6
    assert abs(rep.upper_values[-1] - 0.25) <= 1e-6
    assert rep.fitted_k > 0
    for lo, hi, d in zip(rep.lower_values, rep.upper_values, rep.grid):
        assert abs(lo - rep.limit) <= rep.fitted_k / d * (1 + 1e-12)
        assert abs(hi - rep.limit) <= rep.fitted_k / d * (1 + 1e-12)


def test_asymptotic_consistency_g3():
    rep = asymptotic_consistency(CurveInvariants(g=3, omega_sq=2.0))
    assert rep.limit == 0.25
    assert rep.converged


def test_asymptotic_consistency_rejects_crossed_bounds(monkeypatch):
    from hermlat import heights

    def below_the_lower(inv, d):  # an upper bound below the sharpest lower one
        la, lb = height_lower_bounds(inv, d)
        return max(la, lb if lb is not None else la) - 1e-6, None

    monkeypatch.setattr(heights, "height_upper_bounds", below_the_lower)
    with pytest.raises(ValueError, match="lower bound exceeded upper bound"):
        asymptotic_consistency(CurveInvariants(g=2, omega_sq=1.0))


def test_lower_below_upper_at_d5():
    inv = CurveInvariants(g=2, omega_sq=1.0)
    _, lb = height_lower_bounds(inv, 5)
    ua, _ = height_upper_bounds(inv, 5)
    assert lb <= ua


@given(w=st.fractions(min_value=0, max_value=100))
@settings(max_examples=50, deadline=None)
def test_monotone_in_omega_sq(w):
    base = CurveInvariants(g=2, omega_sq=w)
    more = CurveInvariants(g=2, omega_sq=w + 1)
    for d in (1, 5, 50):
        a0, _ = height_lower_bounds(base, d)
        a1, _ = height_lower_bounds(more, d)
        assert a1 >= a0
        u0, _ = height_upper_bounds(base, d)
        u1, _ = height_upper_bounds(more, d)
        assert u1 >= u0


@pytest.mark.parametrize("name", ["log_disc", "omega_sq", "residual_c"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_invariants_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        CurveInvariants(g=2, **{"omega_sq": 1.0, name: value})


def test_invalid_invariants():
    with pytest.raises(ValueError):
        CurveInvariants(g=1, omega_sq=1.0)
    with pytest.raises(ValueError):
        CurveInvariants(g=2, omega_sq=-1.0)
    with pytest.raises(ValueError):
        CurveInvariants(g=2, omega_sq=1.0, residual_c=-0.5)
    with pytest.raises(ValueError):
        CurveInvariants(g=2, omega_sq=1.0, log_disc=-1.0)
