import numpy as np
import pytest

from fracbvp import gamma, green_eval
from fracbvp.green import bracket_values, green_values

from helpers import GREEN_HALF_15

ALPHAS = (1.1, 1.5, 1.9, 2.0)


def test_alpha_two_reduces_to_classical_value():
    assert green_eval(0.5, 0.25, 2.0) == pytest.approx(0.125, rel=1e-14)


def test_vanishes_at_t_equal_one():
    for alpha in ALPHAS:
        assert green_eval(1.0, 0.3, alpha) == 0.0


def test_diagonal_value_alpha_15():
    assert green_eval(0.5, 0.5, 1.5) == pytest.approx(GREEN_HALF_15, rel=1e-13)


def test_domain_validation():
    with pytest.raises(ValueError):
        green_eval(0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        green_eval(-0.1, 0.5, 1.5)
    with pytest.raises(ValueError):
        green_eval(0.5, 1.2, 1.5)


def test_nonnegativity_on_grid():
    ts = np.linspace(0.0, 1.0, 200)
    ss = np.linspace(0.0, 1.0, 200)
    for alpha in ALPHAS:
        for t in ts:
            assert float(np.min(green_values(float(t), ss, alpha))) >= 0.0


def test_boundary_zeros_exactly():
    ss = np.linspace(0.0, 1.0, 50)
    for alpha in ALPHAS:
        assert np.all(green_values(0.0, ss, alpha) == 0.0)
        assert np.all(green_values(1.0, ss, alpha) == 0.0)


def test_branches_agree_at_the_seam():
    # per the region-split definition both expressions coincide at s = t
    for alpha in ALPHAS:
        for t in np.linspace(0.05, 0.95, 19):
            left = green_values(float(t), np.array([float(t) - 0.0]), alpha)[0]
            right = (t * (1.0 - t)) ** (alpha - 1.0) / gamma(alpha)
            assert left == pytest.approx(right, rel=1e-13)


def test_branch_continuity_across_the_seam():
    # G is (alpha-1)-Hoelder in s across s = t, so the seam jump at offset
    # eps is bounded by eps^(alpha-1)/Gamma(alpha) plus roundoff; for
    # alpha = 2 this collapses to the plain 1e-6 bound.
    eps = 1e-9
    for alpha in ALPHAS:
        holder = eps ** (alpha - 1.0) / gamma(alpha)
        for t in np.linspace(0.05, 0.95, 19):
            t = float(t)
            lo = green_eval(t, t - eps, alpha)
            hi = green_eval(t, t + eps, alpha)
            assert abs(lo - hi) <= holder + 1e-6


def test_alpha_two_reduction_on_grid():
    ts = np.linspace(0.0, 1.0, 200)
    ss = np.linspace(0.0, 1.0, 200)
    for t in ts:
        got = green_values(float(t), ss, 2.0)
        want = np.minimum(ss, t) * (1.0 - np.maximum(ss, t))
        assert float(np.max(np.abs(got - want))) <= 1e-14


def test_matches_brute_force_quadrature_of_derivative_definition():
    # independent check: for s <= t the bracket equals the integral of its
    # own derivative, int_(t-s)^(t(1-s)) (alpha-1) x^(alpha-2) dx, evaluated
    # here by dense trapezoid quadrature
    alpha = 1.5
    t = 0.62
    for s in (1e-3, 0.1, 0.3, 0.55):
        x = np.linspace(t - s, t * (1.0 - s), 400001)
        y = (alpha - 1.0) * x ** (alpha - 2.0)
        ref = (np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum() / gamma(alpha)
        assert green_eval(t, s, alpha) == pytest.approx(ref, rel=1e-8)


def test_bracket_matches_mpmath():
    # B_e(t, s) = t^e (1-s)^(alpha-1) - (t-s)^e for e = alpha-1 (G, u) and
    # e = alpha-2 (u'), against 50 digits at the double-rounded t and s; the
    # ratios s/t straddle |d| = ln 2, where the kernel switches from the
    # expm1/log1p form to the direct difference.  Near t = 1 the two log1p
    # terms of the e = alpha-1 exponent agree to many digits; the kernel
    # must not take their difference.
    mpmath = pytest.importorskip("mpmath")
    ratios = (1e-15, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.65, 0.68, 0.7, 0.72, 0.9,
              0.99, 1.0 - 1e-6, 1.0 - 1e-9)
    with mpmath.workdps(50):
        for alpha in (1.1, 1.3, 1.5, 1.6, 1.9, 2.0):
            for e in (alpha - 1.0, alpha - 2.0):
                for t in (1e-17, 1e-6, 0.3, 0.77, 1.0 - 1e-7, 1.0 - 1e-8, 1.0):
                    s = t * np.array(ratios)
                    got = bracket_values(t, s, alpha, e)
                    for sj, gj in zip(s, got):
                        tm, sm = mpmath.mpf(t), mpmath.mpf(float(sj))
                        ref = tm**e * (1 - sm) ** (alpha - 1.0) - (tm - sm) ** e
                        assert abs(gj - ref) <= 1e-14 * abs(ref), (alpha, e, t, sj)
