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
    as_weight_spec,
    build_mesh,
    check_condition_h,
    frac_derivative,
)
from fracbvp import quadrature

from helpers import (
    ALPHA_PAIRS,
    D05_U3_AT_HALF,
    PAIRS,
    decomposed,
    forcing,
    sup_node_error,
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
    # Under the default tile the 160 sorted targets form two row blocks: the
    # first (from t_1 up) has only masked tiles, the second starts far
    # enough out that its first tile is owned by every row and skips the
    # mask.  A 4096 tile puts all targets and columns in one masked tile.
    mesh = build_mesh(64, w, alpha)
    beta_g, reg = w.singular_decomposition()
    rng = np.random.default_rng(5)
    t = np.concatenate((mesh.nodes[1:-1], rng.uniform(mesh.nodes[1], 1.0, 97)))
    tile = quadrature._TILE
    second_block_lo = np.searchsorted(mesh.nodes, np.sort(t)[tile])
    assert quadrature.GAUSS_ORDER * (second_block_lo - 2) >= tile
    ops = (apply_green, apply_green_derivative)
    tiled = [op(t, beta_g, reg, alpha, mesh) for op in ops]
    monkeypatch.setattr(quadrature, "_TILE", 4096)
    for got, op in zip(tiled, ops):
        whole = op(t, beta_g, reg, alpha, mesh)
        bound = 1e-13 * np.abs(whole) + 1e-15 * np.max(np.abs(whole))
        assert np.all(np.abs(got - whole) <= bound)


# --- convergence and sign --------------------------------------------------------


@pytest.mark.parametrize("name", ["u1", "u2", "u3"])
def test_mesh_refinement_errors_shrink_monotonically(name):
    errors = [sup_node_error(name, n) for n in (32, 64, 128, 256, 512)]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= 1.1 * coarse


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
