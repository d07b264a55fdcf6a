import math

import numpy as np
import pytest

from fracbvp import GammaPoleError, gamma, reciprocal_gamma

from helpers import GAMMA_M03, SQRT_PI


def test_gamma_one_is_one():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)


def test_gamma_half_is_sqrt_pi():
    assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-13)


def test_gamma_negative_noninteger_matches_reflection_oracle():
    # reference computed by reflection with a 40-digit Gamma
    assert gamma(-0.3) == pytest.approx(GAMMA_M03, rel=1e-13)
    assert gamma(-0.3) < 0.0


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0, 5e-13, -3.0 + 1e-13])
def test_gamma_pole_raises(x):
    with pytest.raises(GammaPoleError):
        gamma(x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_gamma_nonfinite_rejected(x):
    with pytest.raises(ValueError):
        gamma(x)


def test_reciprocal_gamma_is_exactly_zero_at_poles():
    for x in (0.0, -1.0, -2.0, -9.0, 1e-13, -4.0 - 1e-13):
        assert reciprocal_gamma(x) == 0.0


def test_reciprocal_gamma_regular_values():
    assert reciprocal_gamma(2.0) == pytest.approx(1.0, rel=1e-13)
    assert reciprocal_gamma(0.5) == pytest.approx(1.0 / SQRT_PI, rel=1e-13)
    assert reciprocal_gamma(-0.3) == pytest.approx(1.0 / GAMMA_M03, rel=1e-13)


def test_recurrence_property():
    # gamma(x + 1) = x gamma(x) on [-5, 20], sampled away from the poles
    rng = np.random.default_rng(20240811)
    count = 0
    while count < 500:
        x = float(rng.uniform(-5.0, 20.0))
        if x <= 0.0 and min(abs(x - round(x)), abs(x + 1 - round(x + 1))) < 1e-3:
            continue
        if abs(x) < 1e-3:
            continue
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)
        count += 1


def test_reflection_property():
    # gamma(x) gamma(1-x) sin(pi x) / pi = 1 for non-integer x in (-5, 5)
    rng = np.random.default_rng(7)
    count = 0
    while count < 500:
        x = float(rng.uniform(-5.0, 5.0))
        if abs(x - round(x)) < 1e-3:
            continue
        value = gamma(x) * gamma(1.0 - x) * math.sin(math.pi * x) / math.pi
        assert value == pytest.approx(1.0, rel=1e-11)
        count += 1


def test_integer_factorials():
    for n in range(1, 16):
        assert gamma(float(n)) == pytest.approx(
            float(math.factorial(n - 1)), rel=1e-12
        )


def test_accuracy_against_mpmath_across_range():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = np.random.default_rng(99)
    count = 0
    while count < 300:
        x = float(rng.uniform(-50.0, 50.0))
        if x < 0.5 and abs(x - round(x)) < 1e-3:
            continue
        ref = float(mpmath.gamma(x))
        assert gamma(x) == pytest.approx(ref, rel=1e-13)
        count += 1


def test_accuracy_to_a_few_ulps_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng(2026)
    worst = 0.0
    for x in rng.uniform(-50.0, 50.0, 2000):
        x = float(x)
        if x < 0.5 and abs(x - round(x)) < 1e-3:
            continue
        ref = mpmath.gamma(mpmath.mpf(x))
        worst = max(worst, float(abs((gamma(x) - ref) / ref)))
    assert worst <= 2e-15


def test_edge_values_past_the_double_range():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    assert gamma(171.5) == pytest.approx(float(mpmath.gamma(171.5)), rel=1e-14)
    assert gamma(180.0) == math.inf
    assert reciprocal_gamma(180.0) == 0.0
    tiny = gamma(-180.5)
    assert tiny == 0.0 and math.copysign(1.0, tiny) == -1.0
    assert reciprocal_gamma(-180.5) == -math.inf
    assert reciprocal_gamma(-181.5) == math.inf
