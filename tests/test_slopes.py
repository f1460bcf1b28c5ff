import math

import numpy as np
import pytest

from hermlat import (
    BundleError,
    NotDiagonalError,
    SlopeProfile,
    as_diagonal,
    check_minima_slope_bound,
    check_slope_duality,
    diagonal_bundle,
    diagonal_slopes,
    dual_diagonal,
    line_degree,
    make_bundle,
)


def test_line_degree_trivial(field_q):
    assert line_degree(field_q, [1.0]) == 0.0
    assert math.isclose(line_degree(field_q, [2.0]), -math.log(2))


def test_line_degree_gaussian(field_qi):
    assert math.isclose(line_degree(field_qi, [math.e, math.e]), -1.0)


def test_line_degree_errors(field_qi):
    # line_degree and diagonal_bundle share one validator
    cases = [([1.0, -1.0], "positive"), ([1.0], "one scale per embedding"),
             ([1.0, 2.0], "conjugation-invariant")]
    for scales, message in cases:
        with pytest.raises(BundleError, match=message):
            line_degree(field_qi, scales)
        with pytest.raises(BundleError, match=message):
            diagonal_bundle(field_qi, [[1.0, 1.0], scales])


def test_diagonal_slopes_trivial(field_q):
    diag = diagonal_bundle(field_q, [[1.0], [1.0], [1.0]])
    assert diagonal_slopes(diag).slopes == (0.0, 0.0, 0.0)


def test_diagonal_slopes_sorted(field_q):
    diag = diagonal_bundle(field_q, [[0.5], [2.0]])
    slopes = diagonal_slopes(diag).slopes
    assert math.isclose(slopes[0], math.log(2))
    assert math.isclose(slopes[1], -math.log(2))


def test_slope_profile_rejects_increasing_slopes():
    assert SlopeProfile((1.0, 1.0, -1.0)).slopes == (1.0, 1.0, -1.0)
    with pytest.raises(ValueError, match="nonincreasing"):
        SlopeProfile((0.0, 0.5))


def test_diagonal_slopes_gaussian(field_qi):
    diag = diagonal_bundle(field_qi, [[1.0, 1.0], [math.e, math.e]])
    slopes = diagonal_slopes(diag).slopes
    assert math.isclose(slopes[0], 0.0, abs_tol=1e-12)
    assert math.isclose(slopes[1], -1.0)


def test_minima_slope_rank1_scale(field_q):
    for t in (0.5, 1.0, 3.0):
        diag = diagonal_bundle(field_q, [[t]])
        rep = check_minima_slope_bound(diag, 1)
        assert rep.passed
        assert math.isclose(rep.get("mu_k"), math.log(t), abs_tol=1e-12)
        assert math.isclose(rep.get("sigma_k"), -math.log(t), abs_tol=1e-12)
        assert abs(rep.get("sum")) <= 1e-12


def test_minima_slope_diag_q(field_q):
    diag = diagonal_bundle(field_q, [[0.5], [2.0]])
    rep = check_minima_slope_bound(diag, 1)
    assert rep.passed and abs(rep.get("sum")) <= 1e-12


def test_minima_slope_uncertified_past_budget(field_qi):
    # one node is not enough to find mu_2; the report says so instead of raising
    diag = diagonal_bundle(field_qi, [[1.0, 1.0], [2.0, 2.0]])
    rep = check_minima_slope_bound(diag, 2, budget=1)
    assert rep.verdict == "uncertified" and not rep.passed
    assert math.isnan(rep.get("mu_k"))


def test_minima_slope_random(field_sqrt_minus3):
    rng = np.random.default_rng(21)
    for _ in range(10):
        scale = [math.exp(rng.uniform(-1, 1))] * field_sqrt_minus3.degree
        scale2 = [math.exp(rng.uniform(-1, 1))] * field_sqrt_minus3.degree
        diag = diagonal_bundle(field_sqrt_minus3, [scale, scale2])
        for k in (1, 2):
            assert check_minima_slope_bound(diag, k).passed


def test_slope_duality_all_k(field_q, field_qi):
    diag_q = diagonal_bundle(field_q, [[0.5], [2.0], [3.0]])
    for k in (1, 2, 3):
        rep = check_slope_duality(diag_q, k)
        assert rep.passed and abs(rep.get("sum")) <= 1e-10
    diag_qi = diagonal_bundle(field_qi, [[1.0, 1.0], [2.0, 2.0]])
    for k in (1, 2):
        assert check_slope_duality(diag_qi, k).passed


def test_dual_profile_negated_reverse(field_sqrt2):
    diag = diagonal_bundle(field_sqrt2, [[0.5, 2.0], [1.0, 1.0], [3.0, 3.0]])
    fwd = diagonal_slopes(diag).slopes
    bwd = diagonal_slopes(dual_diagonal(diag)).slopes
    for k in range(3):
        assert math.isclose(fwd[k], -bwd[2 - k], abs_tol=1e-12)


def test_scaling_shifts_slopes_and_minima(field_q):
    diag = diagonal_bundle(field_q, [[0.5], [2.0]])
    t = 3.0
    scaled = diagonal_bundle(field_q, [[0.5 * t], [2.0 * t]])
    s0 = diagonal_slopes(diag).slopes
    s1 = diagonal_slopes(scaled).slopes
    for a, b in zip(s0, s1):
        assert math.isclose(b, a - math.log(t), abs_tol=1e-12)
    r0 = check_minima_slope_bound(diag, 1)
    r1 = check_minima_slope_bound(scaled, 1)
    assert abs(r0.get("sum") - r1.get("sum")) <= 1e-9  # minima/slope sums are scale-invariant


def test_non_diagonal_rejected(field_q):
    h = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = make_bundle(field_q, 2, [h])
    with pytest.raises(NotDiagonalError):
        as_diagonal(b)


def test_nonpositive_scale_rejected(field_q):
    with pytest.raises(BundleError):
        diagonal_bundle(field_q, [[0.0]])
