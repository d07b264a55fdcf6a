import math

import numpy as np
import pytest

from fracbvp import (
    ONE,
    ZERO,
    ExponentRangeError,
    PowerSum,
    PowerSumParseError,
    SingularEvaluationError,
    classical_derivative,
    exact_dirichlet_solution,
    format_power_sum,
    frac_derivative,
    frac_integral,
    gamma,
    parse_power_sum,
)

from helpers import (
    R_G12_G17,
    R_G12_GM03,
    R_G18_G03,
    R_G22_G07,
    R_G22_G27,
    R_G28_G13,
    U2,
    U3,
    U3_AT_SIXTH,
)


# --- construction / canonical form -------------------------------------------


def test_terms_are_merged_sorted_and_zero_free():
    u = PowerSum([(2.0, 1.5), (1.0, 0.5), (-2.0, 1.5), (3.0, 0.5)])
    assert u.terms == ((4.0, 0.5),)
    assert PowerSum([(1.0, 2.0), (-1.0, 2.0)]).is_zero


def test_exponents_rounded_to_twelve_decimals():
    u = PowerSum([(1.0, 0.2 + 4e-14), (1.0, 0.2)])
    assert u.terms == ((2.0, 0.2),)


def test_arithmetic():
    u = PowerSum([(1.0, 0.2)])
    v = PowerSum([(2.0, 1.2)])
    assert (u + v).terms == ((1.0, 0.2), (2.0, 1.2))
    assert (u - u).is_zero
    assert (3.0 * v).terms == ((6.0, 1.2),)
    assert (-u).terms == ((-1.0, 0.2),)
    assert u.times_power(1.0).terms == ((1.0, 1.2),)


# --- evaluation ---------------------------------------------------------------


def test_eval_examples():
    assert U3(1.0) == pytest.approx(0.0, abs=1e-15)
    assert U3(1.0 / 6.0) == pytest.approx(U3_AT_SIXTH, rel=1e-14)
    assert ZERO(0.37) == 0.0


def test_eval_at_origin():
    assert ONE(0.0) == 1.0
    assert PowerSum([(2.0, 0.0), (5.0, 1.0)])(0.0) == 2.0
    with pytest.raises(SingularEvaluationError):
        PowerSum([(1.0, -0.5)])(0.0)
    with pytest.raises(ValueError):
        ONE(-0.1)


def test_eval_on_arrays_checks_the_domain():
    with pytest.raises(ValueError, match="needs t >= 0"):
        ONE(np.array([0.5, -0.1]))
    with pytest.raises(SingularEvaluationError):
        PowerSum([(1.0, -0.5)])(np.array([0.0, 0.5]))
    assert np.array_equal(ONE(np.array([0.0, 0.5])), [1.0, 1.0])


def test_eval_vectorized_matches_scalar():
    t = np.array([0.1, 0.4, 0.9])
    u = PowerSum([(1.3, -0.7), (-0.4, 0.3)])
    out = u(t)
    assert out == pytest.approx([u(float(x)) for x in t], rel=1e-15)


@pytest.mark.parametrize(
    "u", [ONE, PowerSum([(2.5, 0.0), (-0.7, 0.5), (1.3, 2.0)]), ZERO], ids=["one", "mixed", "zero"]
)
def test_eval_on_arrays_matches_the_term_loop_bit_for_bit(u):
    # a zero exponent adds its coefficient without a power, as c * t^0 = c
    # for every t, 0 included
    rng = np.random.default_rng(7)
    for t in (rng.uniform(0.0, 1.0, 1000), np.array([0.0, 0.25, 0.0, 1.0]), np.empty(0)):
        ref = np.zeros_like(t)
        for c, lam in u.terms:
            ref += c * np.power(t, lam)
        assert np.array_equal(u(t), ref)


# --- fractional derivative -----------------------------------------------------


def test_derivative_of_u3_has_the_published_coefficients():
    h3 = frac_derivative(U3, 1.5)
    assert h3.exponents == (-1.3, -0.3)
    assert h3.coefficients[0] == pytest.approx(R_G12_GM03, rel=1e-13)
    assert h3.coefficients[1] == pytest.approx(-R_G22_G07, rel=1e-13)


def test_derivative_of_u2_has_the_published_coefficients():
    h2 = frac_derivative(U2, 1.5)
    assert h2.exponents == (-0.7, 0.3)
    assert h2.coefficients[0] == pytest.approx(R_G18_G03, rel=1e-13)
    assert h2.coefficients[1] == pytest.approx(-R_G28_G13, rel=1e-13)


def test_kernel_powers_are_annihilated_exactly():
    u = PowerSum([(1.0, 0.5)])
    assert frac_derivative(u, 1.5).is_zero


def test_derivative_input_must_be_integrable():
    with pytest.raises(ExponentRangeError):
        frac_derivative(PowerSum([(1.0, -1.3)]), 0.5)
    with pytest.raises(ValueError):
        frac_derivative(ONE, 2.5)
    with pytest.raises(ValueError):
        frac_derivative(ONE, 0.0)


# --- fractional integral --------------------------------------------------------


def test_integral_of_constant_is_t():
    v = frac_integral(ONE, 1.0)
    assert v.exponents == (1.0,)
    assert v.coefficients[0] == pytest.approx(1.0, rel=1e-13)


def test_integral_then_derivative_is_identity_on_powers():
    u = PowerSum([(1.0, 0.7)])
    w = frac_derivative(frac_integral(u, 1.5), 1.5)
    assert w.exponents == (0.7,)
    assert w.coefficients[0] == pytest.approx(1.0, rel=1e-13)


def test_integral_of_u3_coefficients():
    v = frac_integral(U3, 0.5)
    assert v.exponents == (0.7, 1.7)
    assert v.coefficients[0] == pytest.approx(R_G12_G17, rel=1e-13)
    assert v.coefficients[1] == pytest.approx(-R_G22_G27, rel=1e-13)


def test_integral_input_validation():
    with pytest.raises(ValueError):
        frac_integral(ONE, 0.0)
    with pytest.raises(ExponentRangeError):
        frac_integral(PowerSum([(1.0, -1.2)]), 0.5)


# --- classical derivative -------------------------------------------------------


def test_classical_derivative_of_the_pair_solutions():
    assert classical_derivative(U3).terms == ((0.2, -0.8), (-1.2, 0.2))
    assert classical_derivative(U2).terms == ((0.8, -0.2), (-1.8, 0.8))
    assert classical_derivative(ONE).is_zero


def test_classical_derivative_range_check():
    with pytest.raises(ExponentRangeError):
        classical_derivative(PowerSum([(1.0, -0.5)]))


# --- algebraic properties -------------------------------------------------------


def test_kernel_property_random():
    # D^alpha (c1 t^(alpha-1) + c2 t^(alpha-2)) = 0, exactly (pole-driven)
    rng = np.random.default_rng(3)
    for _ in range(200):
        alpha = float(rng.uniform(1.01, 2.0))
        c1, c2 = rng.uniform(-5, 5, size=2)
        u = PowerSum([(c1, alpha - 1.0), (c2, alpha - 2.0)])
        assert frac_derivative(u, alpha).is_zero


def test_composition_property_random():
    # I^alpha D^alpha u = u when all exponents exceed alpha - 1
    rng = np.random.default_rng(5)
    for _ in range(200):
        alpha = float(rng.uniform(1.01, 2.0))
        terms = [
            (float(rng.uniform(-3, 3)), alpha - 1.0 + float(rng.uniform(0.05, 4.0)))
            for _ in range(rng.integers(1, 4))
        ]
        u = PowerSum(terms)
        v = frac_integral(frac_derivative(u, alpha), alpha)
        assert v.exponents == u.exponents
        for cu, cv in zip(u.coefficients, v.coefficients):
            assert cv == pytest.approx(cu, rel=1e-11)


def test_semigroup_property_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = rng.uniform(0.1, 2.0, size=2)
        u = PowerSum([(float(rng.uniform(-2, 2)), float(rng.uniform(-0.9, 3.0)))])
        lhs = frac_integral(frac_integral(u, a), b)
        rhs = frac_integral(u, a + b)
        # construction-time rounding may shift exponents by one 1e-12 cell
        assert lhs.exponents == pytest.approx(rhs.exponents, abs=2e-12)
        for cl, cr in zip(lhs.coefficients, rhs.coefficients):
            assert cl == pytest.approx(cr, rel=1e-11)


def test_linearity_property_random():
    rng = np.random.default_rng(13)
    for _ in range(100):
        mu = float(rng.uniform(0.1, 2.0))
        a, b = rng.uniform(-4, 4, size=2)
        u = PowerSum([(1.0, 0.3), (2.0, 1.1)])
        v = PowerSum([(-0.5, 0.3), (1.5, 2.4)])
        lhs = frac_derivative(a * u + b * v, mu)
        rhs = a * frac_derivative(u, mu) + b * frac_derivative(v, mu)
        assert lhs.exponents == rhs.exponents
        for cl, cr in zip(lhs.coefficients, rhs.coefficients):
            assert cl == pytest.approx(cr, rel=1e-12, abs=1e-15)


# --- closed-form Dirichlet oracle ----------------------------------------------


def test_exact_solution_inverts_the_pairs():
    for u in (U2, U3):
        g = -frac_derivative(u, 1.5)
        v = exact_dirichlet_solution(g, 1.5)
        assert v.exponents == u.exponents
        for cu, cv in zip(u.coefficients, v.coefficients):
            assert cv == pytest.approx(cu, rel=1e-12)


def test_exact_solution_satisfies_equation_and_boundary():
    rng = np.random.default_rng(17)
    for _ in range(50):
        alpha = float(rng.uniform(1.05, 2.0))
        lam = float(rng.uniform(-alpha + 0.05, 2.0))
        # near the kernel resonance lam = -1 the Gamma ratios lose accuracy
        if abs(lam + 1.0) < 0.05:
            continue
        g = PowerSum([(float(rng.uniform(-2, 2)), lam)])
        u = exact_dirichlet_solution(g, alpha)
        assert u(1.0) == pytest.approx(0.0, abs=1e-12)
        back = frac_derivative(u, alpha)
        assert (back + g).is_zero or max(
            abs(c) for c in (back + g).coefficients
        ) < 1e-11


def test_exact_solution_rejects_resonant_and_too_singular_forcings():
    with pytest.raises(ExponentRangeError):
        exact_dirichlet_solution(PowerSum([(1.0, -1.0)]), 1.5)
    with pytest.raises(ExponentRangeError):
        exact_dirichlet_solution(PowerSum([(1.0, -1.6)]), 1.5)


@pytest.mark.parametrize("alpha", [1.0, 2.5, float("nan")])
def test_exact_solution_rejects_orders_outside_one_two(alpha):
    with pytest.raises(ValueError, match=r"order must lie in \(1, 2\], got "):
        exact_dirichlet_solution(ONE, alpha)


# --- text form ------------------------------------------------------------------


def test_parse_format_round_trip():
    texts = [
        "1*t^0.2 + -1*t^1.2",
        "2.5",
        "t^0.5 - 3e-2*t^2",
        "-0.5*t^-1.3 + 1*t^0",
        "0",
    ]
    for text in texts:
        u = parse_power_sum(text)
        canon = format_power_sum(u)
        assert format_power_sum(parse_power_sum(canon)) == canon


def test_parse_errors_carry_positions():
    with pytest.raises(PowerSumParseError) as err:
        parse_power_sum("1*t^0.2 + ")
    assert err.value.position == 10
    with pytest.raises(PowerSumParseError) as err:
        parse_power_sum("1*t^")
    assert err.value.position == 4
    with pytest.raises(PowerSumParseError):
        parse_power_sum("")
    with pytest.raises(PowerSumParseError) as err:
        parse_power_sum("1*t^0.2 & 3")
    assert err.value.position == 8
    # a literal too large for a double is at fault where it starts
    for text, pos in (("1e400*t^0.5", 0), ("t^1e400", 2)):
        with pytest.raises(PowerSumParseError) as err:
            parse_power_sum(text)
        assert err.value.position == pos


@pytest.mark.parametrize(
    "make",
    [
        lambda: PowerSum([(math.inf, 0.5)]),
        lambda: PowerSum([(1.0, math.nan)]),
        # two finite coefficients merge past the double range
        lambda: parse_power_sum("1e308*t^0.5 + 1e308*t^0.5"),
    ],
)
def test_non_finite_terms_are_rejected(make):
    with pytest.raises(ValueError, match="not finite"):
        make()


def test_format_of_derivative_output_parses_back():
    h3 = frac_derivative(U3, 1.5)
    again = parse_power_sum(format_power_sum(h3))
    assert again == h3
