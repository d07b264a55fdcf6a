import math
import tracemalloc

import numpy as np
import pytest

from fracbvp import (
    ONE,
    ConditionHError,
    GradedMesh,
    PowerSum,
    WeightSpec,
    apply_dalpha_minus_1,
    apply_green,
    apply_green_derivative,
    apply_operators,
    as_weight_spec,
    build_mesh,
    check_condition_h,
    classical_derivative,
    exact_dirichlet_solution,
    frac_derivative,
    solve_linear,
)
from fracbvp import quadrature, regularity
from fracbvp.green import bracket_values

from helpers import (
    ALPHA_PAIRS,
    D05_U3_AT_HALF,
    PAIRS,
    decomposed,
    forcing,
    sup_node_error,
    weight_problem,
)


# --- weights and condition (H) -------------------------------------------------


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec(-0.5)
    with pytest.raises(ValueError):
        WeightSpec(1.0, PowerSum([(1.0, -0.2)]))


def test_weight_evaluation():
    w = WeightSpec(0.5, PowerSum([(2.0, 0.0), (1.0, 1.0)]))
    s = 0.25
    assert w(s) == pytest.approx(s**-0.5 * (2.0 + s), rel=1e-14)
    assert w(0.0) == np.inf
    assert WeightSpec(0.0)(0.0) == 1.0


def test_singular_decomposition_shifts_to_leading_order():
    w = WeightSpec(2.0, PowerSum([(1.0, 1.5)]))
    beta_eff, reg = w.singular_decomposition()
    assert beta_eff == pytest.approx(0.5)
    assert reg.min_exponent == 0.0


def test_as_weight_spec_normalizes_signed_power_sums():
    g = PowerSum([(-0.3, -0.7), (1.9, 0.3)])
    w = as_weight_spec(g)
    assert w.beta == pytest.approx(0.7)
    assert w.regular.exponents == (0.0, 1.0)
    s = np.array([0.2, 0.8])
    assert w(s) == pytest.approx(g(s), rel=1e-14)


@pytest.mark.parametrize(
    "beta,alpha,satisfied,margin",
    [
        (1.2, 1.6, True, 0.4),
        (1.3, 1.5, True, 0.2),
        (1.6, 1.5, False, -0.1),
    ],
)
def test_condition_h_examples(beta, alpha, satisfied, margin):
    report = check_condition_h(WeightSpec(beta), alpha)
    assert report.satisfied is satisfied
    assert report.exponent_margin == pytest.approx(margin, abs=1e-12)


def test_as_weight_spec_zero_sum_and_other_types():
    w = as_weight_spec(PowerSum([]))
    assert w.beta == 0.0 and w.regular.is_zero
    with pytest.raises(TypeError, match="expected WeightSpec or PowerSum, got float"):
        as_weight_spec(1.5)


@pytest.mark.parametrize("alpha", [1.0, 2.5, float("nan")])
def test_orders_outside_one_two_are_rejected(alpha):
    mesh = build_mesh(16, WeightSpec(0.0), 1.5)
    message = r"order must lie in \(1, 2\], got "
    with pytest.raises(ValueError, match=message):
        apply_green(0.5, 0.0, ONE, alpha, mesh)
    with pytest.raises(ValueError, match=message):
        check_condition_h(WeightSpec(0.0), alpha)


def test_condition_h_uses_minimum_regular_exponent():
    w = WeightSpec(1.9, PowerSum([(1.0, 0.6), (2.0, 2.0)]))
    report = check_condition_h(w, 1.5)
    assert report.exponent_margin == pytest.approx(0.2, abs=1e-12)
    assert report.satisfied


# --- graded meshes --------------------------------------------------------------


def test_mesh_grading_formula_and_clamps():
    mesh = build_mesh(64, WeightSpec(0.0), 1.5)
    assert mesh.grading == pytest.approx(4.0 / 3.0, rel=1e-14)
    mesh = build_mesh(64, WeightSpec(1.3), 1.5)  # 2/0.2 = 10, clamped
    assert mesh.grading == 8.0
    mesh = build_mesh(16, WeightSpec(0.0), 2.0)  # margin 2 -> uniform
    assert mesh.grading == 1.0
    assert np.allclose(mesh.nodes, np.linspace(0.0, 1.0, 17))


def test_mesh_nodes_follow_power_law():
    mesh = build_mesh(32, WeightSpec(1.2), 1.6)
    i = np.arange(33)
    assert mesh.nodes == pytest.approx((i / 32.0) ** mesh.grading)
    assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0
    assert np.all(np.diff(mesh.nodes) > 0.0)


def test_mesh_validation():
    with pytest.raises(ValueError):
        build_mesh(8, WeightSpec(0.0), 1.5)
    with pytest.raises(ConditionHError):
        build_mesh(64, WeightSpec(1.6), 1.5)
    with pytest.raises(ValueError):
        GradedMesh.from_grading(8, 1.0)


def test_mesh_rejects_malformed_nodes():
    nodes = np.linspace(0.0, 1.0, 17)
    with pytest.raises(ValueError, match=r"node count must be n \+ 1"):
        GradedMesh(16, 1.0, nodes[:-1])
    with pytest.raises(ValueError, match="mesh must span"):
        GradedMesh(16, 1.0, 0.5 * nodes)
    swapped = nodes.copy()
    swapped[[3, 4]] = swapped[[4, 3]]
    with pytest.raises(ValueError, match="strictly ascending"):
        GradedMesh(16, 1.0, swapped)


# --- Green operator -------------------------------------------------------------


def test_apply_green_classical_case():
    mesh = build_mesh(128, WeightSpec(0.0), 2.0)
    value = apply_green(0.5, 0.0, ONE, 2.0, mesh)
    assert value == pytest.approx(0.125, abs=1e-12)


@pytest.mark.parametrize(
    "name,t",
    [("u2", 0.5), ("u3", 0.25)],
)
def test_apply_green_recovers_pair_values(name, t):
    g = forcing(name)
    beta_g, reg = decomposed(g)
    mesh = build_mesh(512, as_weight_spec(g), ALPHA_PAIRS)
    value = apply_green(t, beta_g, reg, ALPHA_PAIRS, mesh)
    assert value == pytest.approx(PAIRS[name](t), abs=5e-6)


def test_apply_green_is_zero_at_the_boundary():
    mesh = build_mesh(64, WeightSpec(0.0), 1.5)
    assert apply_green(0.0, 0.0, ONE, 1.5, mesh) == 0.0
    assert apply_green(1.0, 0.0, ONE, 1.5, mesh) == 0.0


def test_apply_green_rejects_supercritical_singularity():
    mesh = build_mesh(64, WeightSpec(0.0), 1.5)
    with pytest.raises(ConditionHError):
        apply_green(0.5, 1.5, ONE, 1.5, mesh)


# --- derivative operator ---------------------------------------------------------


def test_derivative_classical_case():
    mesh = build_mesh(128, WeightSpec(0.0), 2.0)
    value = apply_green_derivative(0.25, 0.0, ONE, 2.0, mesh)
    assert value == pytest.approx(0.25, abs=1e-12)


def test_derivative_matches_pair_oracles():
    g2 = forcing("u2")
    beta_g, reg = decomposed(g2)
    mesh = build_mesh(512, as_weight_spec(g2), ALPHA_PAIRS)
    got = apply_green_derivative(0.5, beta_g, reg, ALPHA_PAIRS, mesh)
    want = 0.8 * 0.5**-0.2 - 1.8 * 0.5**0.8
    assert got == pytest.approx(want, abs=1e-5)

    g3 = forcing("u3")
    beta_g, reg = decomposed(g3)
    mesh = build_mesh(512, as_weight_spec(g3), ALPHA_PAIRS)
    got = apply_green_derivative(0.1, beta_g, reg, ALPHA_PAIRS, mesh)
    want = 0.2 * 0.1**-0.8 - 1.2 * 0.1**0.2
    assert got == pytest.approx(want, abs=1e-5)


def test_derivative_rejects_endpoints():
    mesh = build_mesh(64, WeightSpec(0.0), 1.5)
    for t in (0.0, 1.0):
        with pytest.raises(ValueError):
            apply_green_derivative(t, 0.0, ONE, 1.5, mesh)


def test_derivative_inside_the_first_mesh_panel():
    # t below the first interior node exercises the panel pre-split; the
    # closed form for h = 1 at alpha = 1.6 is (0.6 t^-0.4 - 1.6 t^0.6)/G(2.6)
    alpha = 1.6
    w = WeightSpec(0.0)
    mesh = build_mesh(512, w, alpha)
    beta_g, reg = w.singular_decomposition()
    from fracbvp import gamma

    for t in (1e-5, 1e-7):
        assert t < mesh.nodes[1]
        got = apply_green_derivative(t, beta_g, reg, alpha, mesh)
        want = (0.6 * t**-0.4 - 1.6 * t**0.6) / gamma(2.6)
        assert got == pytest.approx(want, rel=1e-7)


# --- D^(alpha-1) operator --------------------------------------------------------


def test_dalpha_classical_case_is_the_derivative():
    mesh = build_mesh(128, WeightSpec(0.0), 2.0)
    value = apply_dalpha_minus_1(0.5, 0.0, ONE, 2.0, mesh)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_dalpha_matches_pair_oracle_at_half():
    g3 = forcing("u3")
    beta_g, reg = decomposed(g3)
    mesh = build_mesh(512, as_weight_spec(g3), ALPHA_PAIRS)
    got = apply_dalpha_minus_1(0.5, beta_g, reg, ALPHA_PAIRS, mesh)
    assert got == pytest.approx(D05_U3_AT_HALF, abs=1e-6)


def test_dalpha_admits_the_right_endpoint():
    # at t = 1 the second integral is empty and the value is the oracle's
    g2 = forcing("u2")
    beta_g, reg = decomposed(g2)
    mesh = build_mesh(512, as_weight_spec(g2), ALPHA_PAIRS)
    got = apply_dalpha_minus_1(1.0, beta_g, reg, ALPHA_PAIRS, mesh)
    oracle = frac_derivative(PAIRS["u2"], 0.5)
    assert got == pytest.approx(oracle(1.0), abs=1e-6)


def test_dalpha_limit_toward_one_is_nonpositive_for_nonnegative_g():
    g3 = forcing("u3")  # positive coefficients
    beta_g, reg = decomposed(g3)
    mesh = build_mesh(256, as_weight_spec(g3), ALPHA_PAIRS)
    value = apply_dalpha_minus_1(1.0 - 1e-6, beta_g, reg, ALPHA_PAIRS, mesh)
    assert value < 0.0


def test_dalpha_consistency_with_oracle_across_the_pairs():
    # |quadrature - closed form| <= 1e-4 at t = 0.1..0.9, n = 512
    for name in ("u1", "u2", "u3"):
        g = forcing(name)
        beta_g, reg = decomposed(g)
        mesh = build_mesh(512, as_weight_spec(g), ALPHA_PAIRS)
        oracle = frac_derivative(PAIRS[name], ALPHA_PAIRS - 1.0)
        for t in np.arange(0.1, 0.95, 0.1):
            got = apply_dalpha_minus_1(float(t), beta_g, reg, ALPHA_PAIRS, mesh)
            assert got == pytest.approx(oracle(float(t)), abs=1e-4)


# --- array targets ---------------------------------------------------------------


def _unsorted_targets(mesh):
    # on nodes, just either side of them, below t_1, duplicated, unsorted
    nodes = mesh.nodes[[1, 2, 5, mesh.n // 2, mesh.n - 1]]
    t = np.concatenate((
        nodes, nodes * (1.0 + 1e-12), nodes * (1.0 - 1e-12),
        [1e-12, 0.3 * mesh.nodes[1], 0.37, 0.5, 0.37, nodes[2]],
    ))
    return t[::-1]


@pytest.mark.parametrize(
    "w,alpha",
    [
        (WeightSpec(1.2), 1.6),
        (as_weight_spec(forcing("u3")), ALPHA_PAIRS),
        # u' and D^(alpha-1)u vanish exactly at t = 0.5
        (WeightSpec(0.0), 2.0),
    ],
)
@pytest.mark.parametrize(
    "op,endpoints",
    [
        (apply_green, [0.0, 1.0]),
        (apply_green_derivative, []),
        (apply_dalpha_minus_1, [1.0]),
    ],
)
def test_array_targets_match_scalar_calls(op, endpoints, w, alpha):
    mesh = build_mesh(64, w, alpha)
    beta_g, reg = w.singular_decomposition()
    t = np.concatenate((_unsorted_targets(mesh), endpoints))
    scalar = [op(float(x), beta_g, reg, alpha, mesh) for x in t]
    assert all(isinstance(v, float) for v in scalar)
    got = op(t, beta_g, reg, alpha, mesh)
    np.testing.assert_allclose(got, scalar, rtol=1e-13, atol=1e-15)
    grid = op(t.reshape(-1, 1), beta_g, reg, alpha, mesh)
    assert grid.shape == (len(t), 1)


@pytest.mark.parametrize(
    "op", [apply_green, apply_green_derivative, apply_dalpha_minus_1]
)
@pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
def test_array_with_one_bad_target_raises(op, bad):
    mesh = build_mesh(64, WeightSpec(0.0), 1.5)
    with pytest.raises(ValueError):
        op(np.array([0.2, bad, 0.7]), 0.0, ONE, 1.5, mesh)


@pytest.mark.parametrize(
    "w,alpha", [(WeightSpec(1.2), 1.6), (as_weight_spec(forcing("u3")), ALPHA_PAIRS)]
)
def test_tiling_does_not_change_values(monkeypatch, w, alpha):
    # With a budget of 96 * 12 doubles the 160 sorted targets own their
    # pieces in two blocks of 96 rows, the far field builds its prefix
    # moments in chunks of a few panels and takes the series on buffers of
    # a few rows, and each target's band starts at its own cut.  A budget
    # of 64 doubles gives own-piece blocks of 5 rows, chunks of one panel and
    # a buffer of one row; 16 doubles give own-piece blocks of one row, band
    # groups and range-sum runs of one row where a row's band is wide, and
    # rows whose band exceeds the budget.  A budget of 4096**2 doubles puts
    # all targets in one block, one buffer and one group of the band, and
    # the chunks are bounded only by the exponents of their panel tops.
    mesh = build_mesh(64, w, alpha)
    beta_g, reg = w.singular_decomposition()
    rng = np.random.default_rng(5)
    t = np.concatenate((mesh.nodes[1:-1], rng.uniform(mesh.nodes[1], 1.0, 97)))
    ts = np.sort(t)
    cut = np.searchsorted(mesh.nodes, quadrature.EPS * ts, side="right") - 1
    band = np.searchsorted(mesh.nodes, ts) - 1 - cut
    assert len(t) > 96 and np.count_nonzero(cut > 0) > 96 and np.max(band) > 0
    assert quadrature.GAUSS_ORDER * np.max(band) > 16
    ops = (apply_green, apply_green_derivative)
    arms = []
    for budget in (96 * quadrature.GAUSS_ORDER, 64, 16):
        monkeypatch.setattr(quadrature, "_BUDGET", budget)
        arms.append([op(t, beta_g, reg, alpha, mesh) for op in ops])
    monkeypatch.setattr(quadrature, "_BUDGET", 4096**2)
    for i, op in enumerate(ops):
        whole = op(t, beta_g, reg, alpha, mesh)
        bound = 1e-13 * np.abs(whole) + 1e-15 * np.max(np.abs(whole))
        for arm in arms:
            assert np.all(np.abs(arm[i] - whole) <= bound)


# --- several operators in one pass -------------------------------------------------

# forcings of the operator parity set: a strongly singular weight, constants
# at the classical and a fractional order, the README's forcings u3 and u1,
# a weight that changes sign, and margins of 0.1 and 0.15
_PARITY_PROBLEMS = {
    "t^-1.2@1.6": (WeightSpec(1.2), 1.6),
    "1@2": (WeightSpec(0.0), 2.0),
    "1@1.5": (WeightSpec(0.0), 1.5),
    "u3@1.5": (as_weight_spec(forcing("u3")), ALPHA_PAIRS),
    "u1@1.5": (as_weight_spec(forcing("u1")), ALPHA_PAIRS),
    "signed@1.3": (WeightSpec(0.5, PowerSum([(1.0, 0.0), (-2.5, 0.5)])), 1.3),
    "t^-0.95@1.05": (WeightSpec(0.95), 1.05),
    "t^-1.8@1.95": (WeightSpec(1.8, PowerSum([(2.0, 0.0), (1.0, 0.7)])), 1.95),
}
_SINGLE = {"u": apply_green, "du": apply_green_derivative, "dalpha": apply_dalpha_minus_1}


@pytest.mark.parametrize("n", [16, 128, 512])
@pytest.mark.parametrize("problem", list(_PARITY_PROBLEMS))
def test_operators_in_one_pass_match_single_calls(problem, n):
    # The three operators requested at once share the shared panels, g on
    # the pieces each target owns and the far-field moments (as long as the
    # longer of the two series); each must still agree with its own
    # call.  Targets: interior nodes, random points, nodes x (1 +- 1e-12),
    # a point far below t_1 and one next to t = 1.
    w, alpha = _PARITY_PROBLEMS[problem]
    mesh = build_mesh(n, w, alpha)
    beta_g, reg = w.singular_decomposition()
    inner = mesh.nodes[1:-1]
    t = np.concatenate((
        inner, np.random.default_rng(n).uniform(0.0, 1.0, 200),
        inner * (1.0 + 1e-12), inner * (1.0 - 1e-12), [1.4e-17, 1.0 - 1e-9],
    ))
    t = t[(t > 0.0) & (t < 1.0)]
    kinds = ("u", "du", "dalpha")
    fused = apply_operators(kinds, t, beta_g, reg, alpha, mesh)
    for kind, got in zip(kinds, fused):
        single = _SINGLE[kind](t, beta_g, reg, alpha, mesh)
        _assert_within_bound(got, single)


def test_operators_in_one_pass_keep_each_domain():
    w, alpha = WeightSpec(1.2), 1.6
    mesh = build_mesh(64, w, alpha)
    # scalar targets give floats, in the order asked for
    u, dalpha = apply_operators(("u", "dalpha"), 0.3, 1.2, ONE, alpha, mesh)
    assert u == apply_green(0.3, 1.2, ONE, alpha, mesh)
    assert dalpha == apply_dalpha_minus_1(0.3, 1.2, ONE, alpha, mesh)
    # t = 1 is computed for D^(alpha-1)u, while u stays exactly 0 there
    t = np.array([[0.5], [1.0]])
    u, dalpha = apply_operators(("u", "dalpha"), t, 1.2, ONE, alpha, mesh)
    assert u.shape == dalpha.shape == (2, 1) and u[1, 0] == 0.0
    assert dalpha[1, 0] == apply_dalpha_minus_1(1.0, 1.2, ONE, alpha, mesh)
    assert apply_operators((), t, 1.2, ONE, alpha, mesh) == ()
    # every kind's interval applies: u' takes neither t = 0 nor t = 1
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            apply_operators(("u", "du"), [0.5, bad], 1.2, ONE, alpha, mesh)
    with pytest.raises(ValueError, match="unknown operator"):
        apply_operators(("u", "d2u"), 0.5, 1.2, ONE, alpha, mesh)


class _CountedPoints:
    """A g_regular that counts the points it is evaluated at."""

    def __init__(self, regular):
        self.regular, self.points, self.calls = regular, 0, 0

    def __call__(self, s):
        self.points += s.size
        self.calls += 1
        return self.regular(s)


def _g_points(kinds, t, mesh):
    # 12 points on each shared panel (the mesh panels, split to ratios of at
    # most 2) and on each piece a target owns: the Gauss-Jacobi left piece
    # [a, t], which u and u' share, and the Gauss-Legendre left piece of
    # D^(alpha-1)u and of every target in the first panel, which also owns
    # the origin piece [0, t/2] and, below t_1, the right piece [t, t_1]
    edges = quadrature._panel_edges(mesh.nodes)
    t = t[(t > 0.0) & ((t < 1.0) | ("dalpha" in kinds))]
    first = np.count_nonzero(t <= mesh.nodes[1])
    jacobi = len(t) if {"u", "du"} & set(kinds) else 0
    legendre = len(t) if "dalpha" in kinds else first
    right = np.count_nonzero(t < mesh.nodes[1])
    return quadrature.GAUSS_ORDER * (len(edges) - 1 + jacobi + legendre + first + right)


def test_g_is_evaluated_once_per_quadrature_point(monkeypatch):
    # The origin panel is a shared panel, and past the first panel a target
    # owns only its left piece [a, t]: at grading 5 the split to ratios of
    # at most 2 adds 11 shared panels to an n = 512 mesh, and at its nodes g
    # is taken at 12,432 points (12,420 when t_1 owned no Gauss-Legendre
    # piece), and in classify's pass at 19,032: u and u' share a
    # Gauss-Jacobi piece, D^(alpha-1)u owns a Gauss-Legendre one (19,272
    # when each target inside its panel also owned a right piece).
    w, alpha = WeightSpec(1.2), 1.6
    beta_g, reg = w.singular_decomposition()
    mesh = build_mesh(512, w, alpha)
    g = _CountedPoints(reg)
    apply_operators(("u",), mesh.nodes, beta_g, g, alpha, mesh)
    assert g.points == _g_points(("u",), mesh.nodes, mesh) == 12_432

    calls = []

    def counted(kinds, t, beta_g, g_regular, *rest):
        calls.append((kinds, t, _CountedPoints(g_regular)))
        return apply_operators(kinds, t, beta_g, calls[-1][2], *rest)

    monkeypatch.setattr(regularity, "apply_operators", counted)
    problem = weight_problem(1.2, alpha)
    regularity.classify(problem)
    [(kinds, t, g)] = calls
    assert g.points == _g_points(kinds, t, problem.mesh) == 19_032


def test_row_blocks_fill_the_temporary_budget(monkeypatch):
    # The pieces the targets own go in row blocks of _BUDGET // GAUSS_ORDER
    # = 768 rows, and g is evaluated in one call on the shared panels and
    # one per row block: 4 calls at the 2,047 interior nodes of an n = 2048
    # mesh and 2 in classify's pass at its 531 points (23 and 7 in blocks of
    # 96 rows).  The far field and the band take all targets of a pass in
    # one call (3 at n = 2048 when they went in row blocks as well).
    w, alpha = WeightSpec(1.2), 1.6
    beta_g, reg = w.singular_decomposition()
    mesh = build_mesh(2048, w, alpha)
    left_calls = [0]
    left_bracket_sums = quadrature._left_bracket_sums

    def counted_left(*args):
        left_calls[0] += 1
        return left_bracket_sums(*args)

    monkeypatch.setattr(quadrature, "_left_bracket_sums", counted_left)
    g = _CountedPoints(reg)
    apply_green(mesh.nodes, beta_g, g, alpha, mesh)
    assert g.calls == 4 and left_calls == [1]

    calls = []

    def counted(kinds, t, beta_g, g_regular, *rest):
        calls.append((t, _CountedPoints(g_regular)))
        return apply_operators(kinds, t, beta_g, calls[-1][1], *rest)

    monkeypatch.setattr(regularity, "apply_operators", counted)
    problem = weight_problem(1.2, alpha)
    left_calls[0] = 0
    regularity.classify(problem)
    [(t, g)] = calls
    assert len(t) == 531 and g.calls == 2 and left_calls == [1]


def test_gauss_jacobi_rule_at_b_0_matches_leggauss():
    # Golub-Welsch against numpy's companion-matrix rule with a Newton step,
    # at the order in use and two below it
    from numpy.polynomial.legendre import leggauss

    for order in (2, 5, quadrature.GAUSS_ORDER):
        x, w = quadrature._gauss_jacobi(order, 0.0)
        ref_x, ref_w = leggauss(order)
        assert np.all(np.abs(x - ref_x) <= 1e-15)
        assert np.all(np.abs(w - ref_w) <= 1e-14 * ref_w)


def test_gauss_jacobi_rule_at_b_0_is_the_legendre_rule_bit_for_bit():
    # the Jacobi matrix of the Legendre polynomials, off-diagonal
    # k / sqrt(4k^2 - 1), and its weights 2 v_0^2
    k = np.arange(1.0, quadrature.GAUSS_ORDER)
    ref_x, v = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    x, w = quadrature._gauss_jacobi(quadrature.GAUSS_ORDER, 0.0)
    assert np.array_equal(x, ref_x) and np.array_equal(w, 2.0 * v[0] ** 2)
    assert np.array_equal(x, quadrature._GL_X) and np.array_equal(w, quadrature._GL_W)


@pytest.mark.parametrize(
    "b,rel",
    [
        (0.0, 1e-14), (0.5, 1e-14), (-0.2, 1e-14), (-0.59, 1e-14), (1.6, 1e-14),
        # the rule at s = 1 at alpha = 2, and the rule at s = t at alpha = 1.05
        (1.0, 1e-14), (-0.95, 1e-14),
        # The node next to -1 lies 1.4e-6 from it and weighs 1e4, so each
        # unit of 2^-53 in its absolute error, which is eigh's, moves the
        # k = 1 moment by 5.5e-13 relative; 1.1e-12 here.
        (-0.9999, 1e-11),
    ],
)
def test_gauss_jacobi_rule_matches_closed_form_moments(b, rel):
    # int_{-1}^{1} (1+x)^(b+k) dx = 2^(b+k+1)/(b+k+1), exact for k < 24
    x, w = quadrature._gauss_jacobi(12, b)
    k = np.arange(24.0)
    got = np.sum(w[:, None] * (1.0 + x[:, None]) ** k, axis=0)
    ref = 2.0 ** (b + k + 1.0) / (b + k + 1.0)
    assert np.all(np.abs(got - ref) <= rel * ref)


def _series_by_recurrence(e):
    # the loop the vectorized _series_coefficients replaced: b_m by the
    # recurrence, appended until the tail bound drops below _SERIES_TAIL
    coeffs, b, m = [], 1.0, 1
    while True:
        b *= (m - 1.0 - e) / m
        if abs(b) * quadrature.EPS**m / (1.0 - quadrature.EPS) < quadrature._SERIES_TAIL:
            return np.array(coeffs)
        coeffs.append(b)
        m += 1


def test_series_coefficients_match_the_recurrence():
    es = np.concatenate((
        np.linspace(-1.0, 1.0, 2001)[1:], [1e-12, -1e-12, 2.0**-10, -0.999999, 0.6, -0.4],
    ))
    lengths = set()
    for e in es:
        got = quadrature._series_coefficients(float(e))
        ref = _series_by_recurrence(float(e))
        assert got.shape == ref.shape and np.array_equal(got, ref), e
        lengths.add(len(got))
    # e = 0 keeps no term and e = 1 one; the longest series fits the cap
    assert min(lengths) == 0 and 1 in lengths
    assert max(lengths) < quadrature._SERIES_CAP


def _far_field_targets(mesh, rng):
    # nodes, off-mesh points, points below t_1, targets whose far-field cut
    # falls on one of the first nodes, targets next to t = 1, where the far
    # series of u has the factors t^m - 1, and close clusters in (0.5,
    # 0.99), whose bands straddle the split of the two sums
    nodes = mesh.nodes
    first_cuts = nodes[1:5] / quadrature.EPS
    t = np.concatenate((
        nodes[1:-1],
        rng.uniform(0.0, 1.0, 60),
        nodes[1] * np.array([1e-12, 0.01, 0.5, 0.99]),
        first_cuts * (1.0 - 1e-12), first_cuts, first_cuts * (1.0 + 1e-12),
        [1.0 - 1e-6, 1.0 - 1e-9],
        *(c + np.linspace(0.0, 1e-3, 24) for c in (0.52, 0.7, 0.85, 0.98)),
    ))
    return np.sort(t[(t > 0.0) & (t < 1.0)])


def _full_bracket_block(t, lo, panels, alpha, e):
    # the bracket kernel over every (target, shared Gauss point) pair left
    # of the panel each target lies in (j = 0..lo-2)
    s = panels.s.ravel()
    with np.errstate(invalid="ignore", divide="ignore"):
        kern = bracket_values(t[:, None], s[None, :], alpha, e)
    mine = np.arange(s.size) < quadrature.GAUSS_ORDER * (lo - 1)[:, None]
    return np.where(mine, kern, 0.0) @ panels.wg.ravel()


# regular factors of g: positive (0.3 <= reg <= 1), and one that changes
# sign at s = 0.16
_POSITIVE = PowerSum([(1.0, 0.0), (-0.7, 0.5)])
_SIGNED = PowerSum([(1.0, 0.0), (-2.5, 0.5)])


def _left_bracket_case(mesh, t, alpha, kind, reg=_POSITIVE, margin=0.2):
    beta_g = max(alpha - margin, 0.0)
    e = alpha - 1.0 if kind == "u" else alpha - 2.0
    lo = np.searchsorted(mesh.nodes, t)
    panels = quadrature._SharedPanels.build(mesh.nodes, beta_g, reg, alpha)
    ref = _full_bracket_block(t, lo, panels, alpha, e)
    return e, lo, panels, ref


def _far_field_case(grading, alpha, kind, reg=_POSITIVE, margin=0.2):
    mesh = GradedMesh.from_grading(48, grading)
    t = _far_field_targets(mesh, np.random.default_rng(int(10 * grading)))
    return (mesh, t, *_left_bracket_case(mesh, t, alpha, kind, reg, margin))


def _left_bracket_sums(kind, alpha, mesh, panels, t, e, lo):
    return quadrature._left_bracket_sums(
        (kind,), t, {kind: t**e}, lo, alpha, mesh.nodes, panels
    )[0]


def _assert_within_bound(got, ref):
    bound = 1e-12 * np.abs(ref) + 1e-15 * np.max(np.abs(ref))
    assert np.all(np.abs(got - ref) <= bound)


@pytest.mark.parametrize("kind", ["u", "du"])
@pytest.mark.parametrize("alpha", [1.0005, 1.05, 1.3, 1.6, 2.0])
@pytest.mark.parametrize("grading", [1.0, 2.0, 5.0, 8.0])
def test_far_field_matches_full_bracket_block(grading, alpha, kind):
    # The left bracket over the shared panels left of each target (j = 0..
    # lo-2), far panels from moments and the band from the kernel and the
    # two sums, against the bracket kernel over every (target, shared Gauss
    # point) pair.  At alpha = 1.0005 the exponent of u is below 2^-10,
    # where the split's 2^(1/e) would overflow.
    mesh, t, e, lo, panels, ref = _far_field_case(grading, alpha, kind)
    got = _left_bracket_sums(kind, alpha, mesh, panels, t, e, lo)
    _assert_within_bound(got, ref)
    # g > 0, so no sum cancels: the values stay relatively accurate next to
    # t = 1 too, where those of u are O(1 - t)
    near_one = t >= 1.0 - 1e-6
    assert np.all(np.abs(got - ref)[near_one] <= 1e-12 * np.abs(ref[near_one]))


@pytest.mark.parametrize("kind", ["u", "du"])
@pytest.mark.parametrize("alpha", [1.0005, 1.05, 1.3, 1.6, 2.0])
@pytest.mark.parametrize("grading", [1.0, 2.0, 5.0, 8.0])
def test_far_field_matches_full_bracket_block_for_signed_g(grading, alpha, kind):
    # As above with a g that changes sign inside the bands of the targets
    # above s = 0.16, so the sums over a band may cancel.
    mesh, t, e, lo, panels, ref = _far_field_case(grading, alpha, kind, _SIGNED)
    got = _left_bracket_sums(kind, alpha, mesh, panels, t, e, lo)
    _assert_within_bound(got, ref)


@pytest.mark.parametrize("kind", ["u", "du"])
@pytest.mark.parametrize("alpha", [1.05, 1.3, 1.6])
@pytest.mark.parametrize("grading", [1.0, 5.0, 8.0])
def test_far_field_matches_full_bracket_block_at_margin_0_01(grading, alpha, kind):
    # At beta_g = alpha - 0.01 the origin row's Gauss-Jacobi weights, those
    # of s^(1-beta_g) over s, are largest next to 0; the moments of the
    # far field must still match the bracket kernel.
    mesh, t, e, lo, panels, ref = _far_field_case(grading, alpha, kind, margin=0.01)
    got = _left_bracket_sums(kind, alpha, mesh, panels, t, e, lo)
    _assert_within_bound(got, ref)


@pytest.mark.parametrize("beta,alpha", [(1.05, 1.06), (1.49, 1.5)])
def test_solve_at_margin_0_01_stays_finite(beta, alpha):
    # RuntimeWarnings are errors here.
    sol = solve_linear(WeightSpec(beta), alpha, 512)
    assert np.all(np.isfinite(sol.values))


@pytest.mark.parametrize("kind", ["u", "du"])
@pytest.mark.parametrize("alpha", [1.05, 1.6, 2.0])
@pytest.mark.parametrize("grading", [1.0, 5.0, 8.0])
@pytest.mark.parametrize("budget", [1, 1000, None, 4096**2])
def test_chunking_does_not_matter(monkeypatch, budget, grading, alpha, kind):
    # The prefix moments are built in chunks of panels and the series taken
    # on a buffer of rows, so neither size may change the sums: a budget of
    # 1 double gives chunks of one panel and a buffer of one row; 1,000
    # gives chunks of two or three panels and buffers of three or four rows
    # where the series is long (alpha < 2), the last buffer partly filled;
    # then the default budget, and a whole budget whose chunks are bounded
    # only by the exponents of their panel tops.
    # At grading 8 the tops of the first panels lie 2^8 apart, so
    # consecutive chunks differ by more than one binary exponent.
    mesh, t, e, lo, panels, ref = _far_field_case(grading, alpha, kind)
    if budget is not None:
        monkeypatch.setattr(quadrature, "_BUDGET", budget)
    chunks, buffers = [], []
    prefix_moments, add_series = quadrature._prefix_moments, quadrature._add_series

    def counted_chunks(*args):
        for j0, scale, moments in prefix_moments(*args):
            chunks.append((scale, len(moments)))
            yield j0, scale, moments

    def counted_buffers(out, kinds, b, m, q, t, x, top):
        buffers.append(len(x))
        return add_series(out, kinds, b, m, q, t, x, top)

    monkeypatch.setattr(quadrature, "_prefix_moments", counted_chunks)
    monkeypatch.setattr(quadrature, "_add_series", counted_buffers)
    got = _left_bracket_sums(kind, alpha, mesh, panels, t, e, lo)
    _assert_within_bound(got, ref)
    if kind == "du" and alpha == 2.0:  # no series: (1-x)^0 - 1 = 0
        assert chunks == []
        return
    scales, sizes = zip(*chunks)
    assert len(chunks) > 1 and sum(buffers) == np.count_nonzero(
        np.searchsorted(mesh.nodes, quadrature.EPS * t, side="right") > 1
    )
    if budget == 1:
        assert set(sizes) == {1} and set(buffers) == {1}
    if grading == 8.0:
        assert np.max(np.diff(np.log2(scales))) > 1


@pytest.mark.parametrize("reg", [_POSITIVE, _SIGNED], ids=["positive", "signed"])
@pytest.mark.parametrize("kind", ["u", "du"])
@pytest.mark.parametrize("alpha", [1.3, 1.6, 2.0])
def test_two_sums_match_full_bracket_block(monkeypatch, alpha, kind, reg):
    # Clusters of 16 close targets just above a node of a fine uniform
    # mesh: there most of each band lies past the row's split, where the two
    # terms of the bracket differ by a factor of two or more, and is summed
    # term by term; the bands of the targets near t = 0.176 hold the
    # sign change of the signed g.  For u' at alpha = 2 the terms are 1 - s
    # and 1, which never split, so the whole band stays on the kernel.
    mesh = GradedMesh.from_grading(512, 1.0)
    t = np.concatenate([
        mesh.nodes[k] * (1.0 + np.linspace(1e-6, 1e-3, 16)) for k in (30, 90, 300)
    ])
    e, lo, panels, ref = _left_bracket_case(mesh, t, alpha, kind, reg)
    # (row, column) pairs summed term by term
    count = [0]
    power_sums = quadrature._power_sums

    def counted(t, e, split, stop, panels):
        count[0] += int(np.sum(stop - split))
        return power_sums(t, e, split, stop, panels)

    monkeypatch.setattr(quadrature, "_power_sums", counted)
    got = _left_bracket_sums(kind, alpha, mesh, panels, t, e, lo)
    if kind == "du" and alpha == 2.0:
        assert count[0] == 0
    else:
        assert count[0] > 0
    _assert_within_bound(got, ref)


@pytest.mark.parametrize("e", [0.4, -0.4, 0.05, 0.95, -0.95])
def test_series_reaches_the_binomial_at_the_cut(e):
    # (1-x)^e - 1 = sum b_m x^m, truncated, at its worst point x = EPS;
    # e = -0.95 (u' at alpha = 1.05) has the longest series.  The reference
    # needs more than double precision: (1-x)^e - 1 cancels for small e.
    mpmath = pytest.importorskip("mpmath")
    x = quadrature.EPS
    b = quadrature._series_coefficients(e)
    got = math.fsum(bm * x**m for m, bm in enumerate(b, start=1))
    with mpmath.workdps(50):
        ref = float((1 - mpmath.mpf(x)) ** e - 1)
    assert abs(got - ref) <= 4e-16 * abs(ref)


def test_traced_memory_of_a_large_solve_stays_small():
    # The far field builds its prefix moments chunk by chunk and takes the
    # series on a buffer of rows; an n x M table of moments (4 MB), or
    # the series temporaries of all targets at once, would show here.  With
    # neither, 1.59 MiB is traced at n = 2048, reached in the band; the own
    # pieces, built one row block of 768 targets at a time once the
    # previous block's are freed, stay below it (1.63 MiB while the
    # previous block's pieces were still held, 2.53 MiB with the pieces of
    # all 2,047 targets in one block).
    tracemalloc.start()
    try:
        solve_linear(WeightSpec(1.2), 1.6, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 2**20


def test_band_evaluates_few_kernel_elements(monkeypatch):
    # Kernel elements, as broadcast sizes of (t, s), that one solve passes to
    # the bracket kernel: the band columns before each row's split plus the
    # origin pieces of the targets in the first panel.  4,271 with a cut per
    # target; 23,744 when sub-blocks of 16 targets shared the cut of the
    # first, 71,152 when they also shared one split, taken only where it
    # left the two sums half of the band, and 143,640 before the two sums,
    # when the whole band went through the kernel.
    count = [0]

    def counted(t, s, *args, **kwargs):
        count[0] += np.broadcast(t, s).size
        return bracket_values(t, s, *args, **kwargs)

    monkeypatch.setattr(quadrature, "bracket_values", counted)
    solve_linear(WeightSpec(1.2), 1.6, 512)
    assert 0 < count[0] <= 1.05 * 4_271


def test_each_target_cuts_the_far_field_at_its_own_node(monkeypatch):
    # (row, column) pairs of the band, summed over the _band calls of u and
    # u' for t^-1.2 at alpha = 1.6: each band starts at the target's own
    # cut, the last node t_c <= EPS t.  When sub-blocks of 16 targets shared
    # the cut of the first, the same passes took 185,760 (classify), 91,800
    # (n = 512) and 970,368 (n = 2048).
    pairs = [0]
    band = quadrature._band

    def counted(t, te, e, start, stop, *rest):
        pairs[0] += int(np.sum(stop - start))
        return band(t, te, e, start, stop, *rest)

    monkeypatch.setattr(quadrature, "_band", counted)
    regularity.classify(weight_problem(1.2, 1.6))
    assert pairs == [96_600]
    for n, count in ((512, 47_172), (2048, 792_192)):
        pairs[0] = 0
        solve_linear(WeightSpec(1.2), 1.6, n)
        assert pairs == [count]


def test_band_evaluates_exactly_the_pairs_it_owns(monkeypatch):
    # Each row's band is its own columns start_r..stop_r-1, each either on
    # the kernel or summed term by term: none is evaluated and then masked.
    owned, kernel, term_by_term, in_band = [0], [0], [0], [False]
    band = quadrature._band
    power_sums = quadrature._power_sums

    def counted_band(t, te, e, start, stop, *rest):
        owned[0] += int(np.sum(stop - start))
        in_band[0] = True
        try:
            return band(t, te, e, start, stop, *rest)
        finally:
            in_band[0] = False

    def counted_kernel(t, s, *args, **kwargs):
        if in_band[0]:
            kernel[0] += np.broadcast(t, s).size
        return bracket_values(t, s, *args, **kwargs)

    def counted_power_sums(t, e, split, stop, panels):
        term_by_term[0] += int(np.sum(stop - split))
        return power_sums(t, e, split, stop, panels)

    monkeypatch.setattr(quadrature, "_band", counted_band)
    monkeypatch.setattr(quadrature, "_power_sums", counted_power_sums)
    monkeypatch.setattr(quadrature, "bracket_values", counted_kernel)
    solve_linear(WeightSpec(1.2), 1.6, 512)
    assert kernel[0] > 0 and term_by_term[0] > 0
    assert kernel[0] + term_by_term[0] == owned[0]


def test_run_sums_skip_empty_runs():
    # reduceat returns the element at an empty run's start and rejects an
    # index at the end of the array; empty runs first, between and last
    x = np.arange(1.0, 8.0)
    runs = np.array([0, 2, 0, 0, 4, 1, 0])
    got = quadrature._run_sums(x, runs)
    assert np.array_equal(got, [0.0, 3.0, 0.0, 0.0, 18.0, 7.0, 0.0])
    empty = quadrature._run_sums(np.empty(0), np.zeros(3, dtype=int))
    assert np.array_equal(empty, np.zeros(3))


# --- convergence and sign --------------------------------------------------------


@pytest.mark.parametrize("name", ["u1", "u2", "u3"])
def test_mesh_refinement_errors_stay_at_round_off(name):
    # the rules hold the kernel's singular powers, so every n is at
    # round-off, not only the finest: 7.8e-16 at most
    errors = [sup_node_error(name, n) for n in (32, 64, 128, 256, 512)]
    assert max(errors) <= 1e-13


# The pairs of ROADMAP item 2, (u, alpha) with -D^alpha u as the forcing.
_ITEM2_PAIRS = [
    (PowerSum([(1.0, 0.2), (-1.0, 1.2)]), 1.5),
    (PowerSum([(1.0, 0.7), (-1.0, 1.7)]), 1.6),
    (PowerSum([(1.0, 0.5), (-1.0, 1.5)]), 1.3),
    (PowerSum([(1.0, 0.3), (-1.0, 1.3)]), 1.9),
    (PowerSum([(1.0, 0.6), (-1.0, 1.6)]), 1.05),
]


def _pair_case(u, alpha):
    return -frac_derivative(u, alpha), u, alpha


def _weight_case(beta, alpha):
    g = PowerSum.monomial(1.0, -beta)
    return g, exact_dirichlet_solution(g, alpha), alpha


@pytest.mark.parametrize(
    "g,u,alpha",
    [_pair_case(u, alpha) for u, alpha in _ITEM2_PAIRS]
    # margins 0.01 and 1e-4
    + [_weight_case(1.89, 1.9), _weight_case(1.4999, 1.5)],
    ids=[f"pair-{alpha}" for _, alpha in _ITEM2_PAIRS] + ["t^-1.89-1.9", "t^-1.4999-1.5"],
)
@pytest.mark.parametrize("n", [32, 64, 128, 256, 512])
def test_linear_solve_is_at_round_off_from_n_32(g, u, alpha, n):
    # Gauss-Jacobi rules at s = 0, s = t and s = 1: max nodal error 1.1e-14
    # at most, and relative error at t_1 1.1e-13 at most but for alpha =
    # 1.05, whose u(t_1) lies near the round-off of its far larger terms
    # (8.8e-11 at n = 512).
    sol = solve_linear(g, alpha, n)
    t = sol.mesh.nodes
    assert np.max(np.abs(sol.values - u(t))) <= 1e-13
    assert abs(sol.values[1] - u(t[1])) <= 1e-10 * abs(u(t[1]))


@pytest.mark.parametrize(
    "u,alpha", _ITEM2_PAIRS[1:3] + _ITEM2_PAIRS[4:], ids=["1.6", "1.3", "1.05"]
)
def test_off_mesh_targets_near_one_and_at_half(u, alpha):
    # At 1 - 1e-9 the target's left piece runs up to s = t under the rule of
    # (t-s)^(alpha-2), and the last panel takes the rule of (1-s)^(alpha-1):
    # u' and D^(alpha-1)u within 7.1e-15 relative, u within 1.2e-7, as
    # u(1 - 1e-9) is about 1e-9 of the terms it sums.
    g = -frac_derivative(u, alpha)
    w = as_weight_spec(g)
    beta_g, reg = w.singular_decomposition()
    mesh = build_mesh(128, w, alpha)
    t = np.array([1.0 - 1e-9, 0.5])
    got = apply_operators(("u", "du", "dalpha"), t, beta_g, reg, alpha, mesh)
    exact = (u, classical_derivative(u), frac_derivative(u, alpha - 1.0))
    for value, f, rel in zip(got, exact, (1e-6, 1e-12, 1e-12)):
        assert np.all(np.abs(value - f(t)) <= rel * np.abs(f(t)))


@pytest.mark.parametrize("alpha", [1.05, 1.6, 2.0])
def test_last_panel_holds_the_weight_of_s_equals_1(alpha):
    # The panel ending at 1 takes the Gauss-Jacobi rule of (1-s)^(alpha-1):
    # for g = 1 its right sum is int (1-s)^(alpha-1) ds = h^alpha / alpha,
    # h its width.
    mesh = build_mesh(64, WeightSpec(0.0), alpha)
    nodes = quadrature._panel_edges(mesh.nodes)
    panels = quadrature._SharedPanels.build(nodes, 0.0, ONE, alpha)
    want = (1.0 - nodes[-2]) ** alpha / alpha
    assert panels.right_sums[-2] == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n,max_err", [(32, 5.2e-6), (128, 8.4e-7), (512, 1.2e-7)])
def test_wide_panels_are_split_to_ratio_2(n, max_err):
    # At margin 0.2 the grading is 8, and [t_1, t_2] spans a ratio of 256.
    # The quadrature splits every panel past the origin panel to ratios of
    # at most 2; the mesh and its nodes stay the ones asked for.  Unsplit,
    # the README pair was off by 6.7e-2 relative at t_1 at every n, and the
    # alpha = 1.9 pair by 1.8e-2.
    u = PAIRS["u3"]
    sol = solve_linear(forcing("u3"), ALPHA_PAIRS, n)
    t = sol.mesh.nodes
    assert sol.mesh.n == n
    assert np.array_equal(t, GradedMesh.from_grading(n, 8.0).nodes)
    edges = quadrature._panel_edges(t)
    assert np.max(edges[2:] / edges[1:-1]) <= 2.0
    assert abs(sol.values[1] - u(t[1])) <= 1e-7 * u(t[1])
    assert np.max(np.abs(sol.values - u(t))) <= 1.5 * max_err
    u = PowerSum([(1.0, 0.3), (-1.0, 1.3)])
    sol = solve_linear(-frac_derivative(u, 1.9), 1.9, n)
    t1 = sol.mesh.nodes[1]
    assert abs(sol.values[1] - u(t1)) <= 1e-4 * u(t1)


def test_green_operator_preserves_sign():
    g3 = forcing("u3")  # g >= 0 on (0, 1)
    beta_g, reg = decomposed(g3)
    mesh = build_mesh(128, as_weight_spec(g3), ALPHA_PAIRS)
    for t in mesh.nodes:
        assert apply_green(float(t), beta_g, reg, ALPHA_PAIRS, mesh) >= 0.0


def test_alpha_two_matches_classical_solution_everywhere():
    mesh = build_mesh(128, WeightSpec(0.0), 2.0)
    for t in np.linspace(0.0, 1.0, 41):
        value = apply_green(float(t), 0.0, ONE, 2.0, mesh)
        assert value == pytest.approx(t * (1.0 - t) / 2.0, abs=1e-8)


def test_brute_force_cross_check_of_singular_integral():
    # independent oracle: adaptive scipy quadrature of the raw integrand for
    # a weight that is singular but integrable
    from scipy.integrate import quad

    from fracbvp import green_eval

    alpha, beta, t = 1.6, 0.8, 0.37
    w = WeightSpec(beta)
    mesh = build_mesh(256, w, alpha)
    beta_g, reg = w.singular_decomposition()
    got = apply_green(t, beta_g, reg, alpha, mesh)
    ref, err = quad(
        lambda s: green_eval(t, s, alpha) * s**-beta,
        0.0,
        1.0,
        points=[t],
        limit=400,
    )
    assert err < 1e-7
    assert got == pytest.approx(ref, abs=1e-6)
