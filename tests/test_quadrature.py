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
    # no target, or no kind, does not skip the check
    with pytest.raises(ConditionHError):
        apply_operators(("u",), np.array([]), 1.5, ONE, 1.5, mesh)
    with pytest.raises(ConditionHError):
        apply_operators((), np.array([0.5]), 1.5, ONE, 1.5, mesh)


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
    # pieces in two blocks of 96 rows, and the far field builds its prefix
    # moments in chunks of a few panels and takes the series on buffers of
    # a few rows.  A budget of 64 doubles gives own-piece blocks of 5 rows,
    # chunks of one panel and a buffer of one row; 16 doubles give
    # own-piece blocks of one row.  A budget of 4096**2 doubles puts all
    # targets in one block and one buffer, and the chunks are bounded only
    # by the exponents of their panel tops.
    mesh = build_mesh(64, w, alpha)
    beta_g, reg = w.singular_decomposition()
    rng = np.random.default_rng(5)
    t = np.concatenate((mesh.nodes[1:-1], rng.uniform(mesh.nodes[1], 1.0, 97)))
    cut = np.searchsorted(mesh.nodes, quadrature.EPS * t, side="right") - 1
    assert len(t) > 96 and np.count_nonzero(cut > 0) > 96
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
    # a point far below t_1, one next to t = 1, and two in (t_1, t_1/EPS),
    # past the first panel and without a far field.
    w, alpha = _PARITY_PROBLEMS[problem]
    mesh = build_mesh(n, w, alpha)
    beta_g, reg = w.singular_decomposition()
    inner = mesh.nodes[1:-1]
    t = np.concatenate((
        inner, np.random.default_rng(n).uniform(0.0, 1.0, 200),
        inner * (1.0 + 1e-12), inner * (1.0 - 1e-12), [1.4e-17, 1.0 - 1e-9],
        mesh.nodes[1] * np.array([1.2, 1.6]),
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
    # most 2) and on each piece a target owns: the Gauss-Jacobi piece up to
    # t, which u and u' share, with the Gauss-Legendre pieces that double
    # away from it down to the cut when it stops at 1 - t or t/2 from t, the
    # Gauss-Legendre left piece [a, t] of D^(alpha-1)u, and for every target
    # with cut 0 the origin piece [0, t/2] and the run of Gauss-Legendre
    # pieces [2^k t/2, 2^(k+1) t/2] up to edges[1] = t_1
    edges = quadrature._panel_edges(mesh.nodes)
    t = t[(t > 0.0) & ((t < 1.0) | ("dalpha" in kinds))]
    bracket = bool({"u", "du"} & set(kinds))
    cut = np.searchsorted(edges, quadrature.EPS * t, side="right") - 1
    near = cut == 0
    jacobi = len(t) if bracket else 0
    # the graded pieces: one per k >= 0 with 2^k d below t - t_c, d the
    # width of the Gauss-Jacobi piece
    span = t - np.where(cut == 0, 0.5 * t, edges[cut])
    d = np.where(t < 1.0, np.minimum(np.minimum(span, 1.0 - t), 0.5 * t), span)
    graded = sum(np.count_nonzero(2.0**k * d < span) for k in range(60)) if bracket else 0
    legendre = len(t) if "dalpha" in kinds else 0
    run = np.sum(np.ceil(np.log2(edges[1] / (0.5 * t[near]))).astype(int))
    pieces = jacobi + graded + legendre + np.count_nonzero(near) + run
    return quadrature.GAUSS_ORDER * (len(edges) - 1 + pieces)


def test_g_is_evaluated_once_per_quadrature_point(monkeypatch):
    # The origin panel is a shared panel, and a target with a far field
    # owns one or two pieces up to t: at grading 5 the split to ratios of
    # at most 2 adds 11 shared panels to an n = 512 mesh, and at its nodes g
    # is taken at 13,380 points, and in classify's pass at 19,992: u and u'
    # share a Gauss-Jacobi piece, D^(alpha-1)u owns a Gauss-Legendre one,
    # and t_1 owns its origin piece and a run of one piece, [t_1/2, t_1]
    # (19,980 when t_1's piece of D^(alpha-1)u was that run's piece too).
    # The Gauss-Jacobi pieces that stop at 1 - t or t/2 from t add 79
    # graded pieces at the nodes and as many in classify's pass: t/2 binds
    # at the 11 nodes below 2e-7, where the split panels' ratios leave no
    # edge in (t/2, EPS t], and 1 - t at the 33 nodes past 0.71 (13,044 and
    # 19,644 with 51 graded pieces at a cut of 0.7 t without the t/2 bound;
    # 12,432 and 19,032 when each target's piece ran from its cut to t;
    # 12,420 when t_1 owned no Gauss-Legendre piece, 19,272 when each
    # target inside its panel also owned a right piece).  No target owns a
    # piece of width 0 at t = t_1.
    w, alpha = WeightSpec(1.2), 1.6
    beta_g, reg = w.singular_decomposition()
    mesh = build_mesh(512, w, alpha)
    g = _CountedPoints(reg)
    apply_operators(("u",), mesh.nodes, beta_g, g, alpha, mesh)
    assert g.points == _g_points(("u",), mesh.nodes, mesh) == 13_380
    # off the mesh below t_1/EPS, where the runs [t/2, t_1] have from one
    # to 666 pieces, for each kind alone and for all three
    t = mesh.nodes[1] * np.array([1e-200, 1e-9, 0.3, 1.0, 1.2, 1.6])
    for kinds in (("u",), ("du",), ("dalpha",), ("u", "du", "dalpha")):
        g = _CountedPoints(reg)
        apply_operators(kinds, t, beta_g, g, alpha, mesh)
        assert g.points == _g_points(kinds, t, mesh)

    calls = []

    def counted(kinds, t, beta_g, g_regular, *rest):
        calls.append((kinds, t, _CountedPoints(g_regular)))
        return apply_operators(kinds, t, beta_g, calls[-1][2], *rest)

    monkeypatch.setattr(regularity, "apply_operators", counted)
    problem = weight_problem(1.2, alpha)
    regularity.classify(problem)
    [(kinds, t, g)] = calls
    assert g.points == _g_points(kinds, t, problem.mesh) == 19_992


def test_pieces_at_s_equals_t_span_a_ratio_of_at_most_2(monkeypatch):
    # The Gauss-Jacobi piece [t - d, t] of each target is bounded by d <=
    # t/2, as well as by its cut and by 1 - t, so that, like every shared
    # panel, it spans a ratio of at most 2.  Bounded by the cut alone, it
    # may span up to 0.7 t at a cut of 0.6 t (0.51 t at these targets at a
    # cut of 0.7 t).  At the nodes of an n = 512 mesh and at classify's 531
    # targets.
    w, alpha = WeightSpec(1.2), 1.6
    beta_g, reg = w.singular_decomposition()
    mesh = build_mesh(512, w, alpha)
    jacobi_pieces = quadrature._jacobi_pieces
    pieces = []

    def recorded(a, c, e, rule):
        if e == alpha - 2.0:  # the pieces at s = t, not the last shared panel
            pieces.append((a, c))
        return jacobi_pieces(a, c, e, rule)

    monkeypatch.setattr(quadrature, "_jacobi_pieces", recorded)
    apply_operators(("u",), mesh.nodes, beta_g, reg, alpha, mesh)
    regularity.classify(weight_problem(1.2, alpha))
    a, c = (np.concatenate(x) for x in zip(*pieces))
    assert len(c) == 511 + 531 and np.all(c < 1.0)
    assert np.all(c - a <= 0.5 * c)


def test_row_blocks_fill_the_temporary_budget(monkeypatch):
    # The pieces the targets own go in row blocks of _BUDGET // GAUSS_ORDER
    # = 768 rows, and g is evaluated in one call on the shared panels and
    # one per batch of a block's pieces, a batch ending with its block or
    # at _BLOCK_PIECES pieces: 4 calls at the 2,047 interior nodes of an
    # n = 2048 mesh and 2 in classify's pass at its 531 points (23 and 7 in
    # blocks of 96 rows), as no block there owns more than 1,742 pieces.
    # The far field takes all targets of a pass in one call (3 at n = 2048
    # when it went in row blocks as well).
    w, alpha = WeightSpec(1.2), 1.6
    beta_g, reg = w.singular_decomposition()
    mesh = build_mesh(2048, w, alpha)
    far_calls = [0]
    far_series = quadrature._far_series

    def counted_far(*args):
        far_calls[0] += 1
        return far_series(*args)

    monkeypatch.setattr(quadrature, "_far_series", counted_far)
    g = _CountedPoints(reg)
    apply_green(mesh.nodes, beta_g, g, alpha, mesh)
    assert g.calls == 4 and far_calls == [1]

    calls = []

    def counted(kinds, t, beta_g, g_regular, *rest):
        calls.append((t, _CountedPoints(g_regular)))
        return apply_operators(kinds, t, beta_g, calls[-1][1], *rest)

    monkeypatch.setattr(regularity, "apply_operators", counted)
    problem = weight_problem(1.2, alpha)
    far_calls[0] = 0
    regularity.classify(problem)
    [(t, g)] = calls
    assert len(t) == 531 and g.calls == 2 and far_calls == [1]


def _green_at_own_nodes(w, alpha, n):
    # apply_green at the nodes of the mesh of n panels, on that mesh; a
    # linear solve past LINEAR_QUADRATURE_PANELS integrates on fewer
    mesh = build_mesh(n, w, alpha)
    return apply_green(mesh.nodes, *w.singular_decomposition(), alpha, mesh)


def test_graded_pieces_stay_within_the_temporary_budget(monkeypatch):
    # At grading 1.05 the last row block of n = 2048 quadrature at its own
    # nodes, 511 targets, owns 1,199 graded pieces (981 at a cut of 0.7 t):
    # they come in runs of at most _BUDGET // GAUSS_ORDER = 768, and a row's
    # pieces that straddle two runs are still added in order, so the values
    # are those of a single run.
    graded_pieces = quadrature._graded_pieces
    runs = []

    def counted(*args):
        for run in graded_pieces(*args):
            runs.append(len(run[0]))
            yield run

    def single_run(*args):
        parts = list(zip(*graded_pieces(*args)))
        if parts:
            yield tuple(np.concatenate(x) for x in parts)

    monkeypatch.setattr(quadrature, "_graded_pieces", counted)
    values = _green_at_own_nodes(WeightSpec(0.0), 1.9, 2048)
    assert max(runs) <= quadrature._BUDGET // quadrature.GAUSS_ORDER
    assert runs[-2:] == [768, 431]
    monkeypatch.setattr(quadrature, "_graded_pieces", single_run)
    assert np.array_equal(_green_at_own_nodes(WeightSpec(0.0), 1.9, 2048), values)


def test_cached_rules_and_coefficients_are_read_only():
    for x, w in quadrature._rules(1.2, 1.6):
        assert not x.flags.writeable and not w.flags.writeable
    b = quadrature._series_coefficients(0.6)
    assert not b.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        b[0] = 0.0


def test_operators_agree_with_cold_and_warm_caches():
    # Interleaved (beta_g, alpha) pairs from cleared caches of rules and
    # series coefficients: the first two passes build their entries, the
    # third reads the first one's, and a second round reads them all.  The
    # values are the same to the bit.
    def values(beta, alpha):
        w = WeightSpec(beta, _POSITIVE)
        mesh = build_mesh(64, w, alpha)
        beta_g, reg = w.singular_decomposition()
        t = np.concatenate((mesh.nodes[1:-1], [0.3 * mesh.nodes[1], 0.5, 1.0 - 1e-9]))
        return apply_operators(("u", "du", "dalpha"), t, beta_g, reg, alpha, mesh)

    pairs = ((1.2, 1.6), (0.3, 1.05), (1.2, 1.6))
    quadrature._rules.cache_clear()
    quadrature._series_coefficients.cache_clear()
    first = [values(*pair) for pair in pairs]
    assert quadrature._rules.cache_info()[:2] == (1, 2)  # hits, misses
    second = [values(*pair) for pair in pairs]
    assert quadrature._rules.cache_info()[:2] == (4, 2)
    assert quadrature._series_coefficients.cache_info().misses == 4
    for a, b in zip(first + first[:1], second + first[2:]):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


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
    # 0.99), whose cuts fall on neighbouring nodes
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


def _full_bracket_block(t, cut, panels, alpha, e):
    # the bracket kernel over every (target, shared Gauss point) pair below
    # the target's cut (j = 0..c-1)
    s = panels.s.ravel()
    with np.errstate(invalid="ignore", divide="ignore"):
        kern = bracket_values(t[:, None], s[None, :], alpha, e)
    mine = np.arange(s.size) < quadrature.GAUSS_ORDER * cut[:, None]
    return np.where(mine, kern, 0.0) @ panels.wg.ravel()


# regular factors of g: positive (0.3 <= reg <= 1), and one that changes
# sign at s = 0.16
_POSITIVE = PowerSum([(1.0, 0.0), (-0.7, 0.5)])
_SIGNED = PowerSum([(1.0, 0.0), (-2.5, 0.5)])


def _far_field_case(grading, alpha, kind, reg=_POSITIVE, margin=0.2):
    mesh = GradedMesh.from_grading(48, grading)
    t = _far_field_targets(mesh, np.random.default_rng(int(10 * grading)))
    beta_g = max(alpha - margin, 0.0)
    e = alpha - 1.0 if kind == "u" else alpha - 2.0
    # the cut c, the last node t_c <= EPS t
    cut = np.searchsorted(mesh.nodes, quadrature.EPS * t, side="right") - 1
    panels = quadrature._SharedPanels.build(mesh.nodes, beta_g, reg, alpha)
    ref = _full_bracket_block(t, cut, panels, alpha, e)
    return t, e, cut, panels, ref


def _far_field(kind, panels, t, e, cut):
    # the left bracket below each target's cut as apply_operators sums it:
    # t^e times the far series of u, and for u' t^e times left_sums[c] less
    # its far series
    b = [quadrature._series_coefficients(e)]
    [series] = quadrature._far_series((kind,), t, cut, b, panels)
    if kind == "du":
        series = panels.left_sums[cut] - series
    return t**e * series


def _assert_within_bound(got, ref):
    bound = 1e-12 * np.abs(ref) + 1e-15 * np.max(np.abs(ref))
    assert np.all(np.abs(got - ref) <= bound)


@pytest.mark.parametrize("kind", ["u", "du"])
@pytest.mark.parametrize("alpha", [1.0005, 1.05, 1.3, 1.6, 2.0])
@pytest.mark.parametrize("grading", [1.0, 2.0, 5.0, 8.0])
def test_far_field_matches_full_bracket_block(grading, alpha, kind):
    # The left bracket over the shared panels below each target's cut (j =
    # 0..c-1), from moments, against the bracket kernel over every (target,
    # shared Gauss point) pair there.  At alpha = 1.0005 no coefficient of
    # the series of u exceeds 5e-4.
    t, e, cut, panels, ref = _far_field_case(grading, alpha, kind)
    got = _far_field(kind, panels, t, e, cut)
    _assert_within_bound(got, ref)
    # g > 0, so no sum cancels: the values stay relatively accurate next to
    # t = 1 too, where those of u are O(1 - t)
    near_one = t >= 1.0 - 1e-6
    assert np.all(np.abs(got - ref)[near_one] <= 1e-12 * np.abs(ref[near_one]))


@pytest.mark.parametrize("kind", ["u", "du"])
@pytest.mark.parametrize("alpha", [1.0005, 1.05, 1.3, 1.6, 2.0])
@pytest.mark.parametrize("grading", [1.0, 2.0, 5.0, 8.0])
def test_far_field_matches_full_bracket_block_for_signed_g(grading, alpha, kind):
    # As above with a g that changes sign at s = 0.16, below the cuts of the
    # targets from t = 0.19 on, so their far sums may cancel.
    t, e, cut, panels, ref = _far_field_case(grading, alpha, kind, _SIGNED)
    got = _far_field(kind, panels, t, e, cut)
    _assert_within_bound(got, ref)


@pytest.mark.parametrize("kind", ["u", "du"])
@pytest.mark.parametrize("alpha", [1.05, 1.3, 1.6])
@pytest.mark.parametrize("grading", [1.0, 5.0, 8.0])
def test_far_field_matches_full_bracket_block_at_margin_0_01(grading, alpha, kind):
    # At beta_g = alpha - 0.01 the origin row's Gauss-Jacobi weights, those
    # of s^(1-beta_g) over s, are largest next to 0; the moments of the
    # far field must still match the bracket kernel.
    t, e, cut, panels, ref = _far_field_case(grading, alpha, kind, margin=0.01)
    got = _far_field(kind, panels, t, e, cut)
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
    t, e, cut, panels, ref = _far_field_case(grading, alpha, kind)
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
    got = _far_field(kind, panels, t, e, cut)
    _assert_within_bound(got, ref)
    if kind == "du" and alpha == 2.0:  # no series: (1-x)^0 - 1 = 0
        assert chunks == []
        return
    scales, sizes = zip(*chunks)
    assert len(chunks) > 1 and sum(buffers) == np.count_nonzero(cut > 0)
    if budget == 1:
        assert set(sizes) == {1} and set(buffers) == {1}
    if grading == 8.0:
        assert np.max(np.diff(np.log2(scales))) > 1


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


@pytest.mark.parametrize(
    "w,alpha,n",
    [
        (WeightSpec(1.2), 1.6, 512),
        (WeightSpec(1.59), 1.6, 512),
        (WeightSpec(0.0), 1.05, 512),
        (WeightSpec(0.0), 2.0, 128),
    ],
    ids=["t^-1.2@1.6", "margin_0.01@1.6", "1@1.05", "1@2"],
)
def test_prefix_moments_are_accurate(w, alpha, n):
    # Sampled rows of the prefix moments sum (s/2^E)^m w g, against math.fsum
    # of the terms with Python float powers.  g > 0, so no sum cancels.
    # The meshes: that of t^-1.2, one of grading 8 at margin 0.01, whose
    # origin panel holds the smallest s/2^E, that of 1 at alpha = 1.05,
    # the longest series, and that of 1 at alpha = 2, the README's
    # classical check, whose series has one term (M = 1).  The powers come
    # from products of two tables; from exp(m log(s/2^E)) they were up to
    # 55 eps off here.
    mesh = build_mesh(n, w, alpha)
    nodes = quadrature._panel_edges(mesh.nodes)
    panels = quadrature._SharedPanels.build(nodes, w.beta, _POSITIVE, alpha)
    b = [quadrature._series_coefficients(e) for e in (alpha - 1.0, alpha - 2.0)]
    big_m = max(len(bk) for bk in b)
    count = int(np.searchsorted(nodes, quadrature.EPS, side="right")) - 1
    rows = set(np.linspace(0, count - 1, 9).astype(int).tolist())
    powers = [p for p in (1, 2, 8, 9, 17, 40, 63, big_m) if p <= big_m]
    s, wg = panels.s.tolist(), panels.wg.tolist()
    worst, seen = 0.0, 0
    m = np.arange(1.0, big_m + 1.0)
    for j0, scale, moments in quadrature._prefix_moments(count, m, panels):
        for j in rows & set(range(j0, j0 + len(moments))):
            terms = [(x / scale, y) for i in range(j + 1) for x, y in zip(s[i], wg[i])]
            for p in powers:
                ref = math.fsum(x**p * y for x, y in terms)
                worst = max(worst, abs(moments[j - j0, p - 1] - ref) / ref)
            seen += 1
    assert seen == len(rows)
    assert worst <= 24 * np.finfo(float).eps


def test_traced_memory_of_a_large_solve_stays_small():
    # The far field builds its prefix moments chunk by chunk and takes the
    # series on a buffer of rows; an n x M table of moments (4 MB), or
    # the series temporaries of all targets at once, would show here.  With
    # neither, 1.51 MiB is traced for n = 2048 quadrature at its own nodes,
    # reached in the far field; the own pieces, built one row block of 768
    # targets at a time once the previous block's are freed, stay below it
    # at 1.37 MiB (2.53 MiB with the pieces of all 2,047 targets in one
    # block).
    tracemalloc.start()
    try:
        _green_at_own_nodes(WeightSpec(1.2), 1.6, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 2**20


@pytest.mark.parametrize(
    "t",
    [np.full(768, 1e-200), np.geomspace(1e-200, 1e-20, 768)],
    ids=["at_1e-200", "1e-200_to_1e-20"],
)
def test_row_blocks_deep_in_the_first_panel_stay_small(monkeypatch, t):
    # A target deep in the first panel owns a run of about log2(t_1/t)
    # pieces, 621 at 1e-200 at n = 512.  Blocks of 768 rows whose pieces
    # all took one g call traced 180 MiB and 94 MiB here, against 0.9 MiB
    # for 768 targets in (0.1, 0.9).  A block's pieces now go in batches of
    # at most _BLOCK_PIECES pieces, one g call each, and trace 2.0 MiB and
    # 2.2 MiB (blocks cut by a count of their pieces traced 1.2 MiB and
    # 1.4 MiB).  _BLOCK_PIECES = 1, one item of pieces per batch, gives the
    # same bits.
    mesh = build_mesh(512, WeightSpec(1.2), 1.6)
    kinds = ("u", "du", "dalpha")
    tracemalloc.start()
    try:
        values = apply_operators(kinds, t, 1.2, ONE, 1.6, mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
    monkeypatch.setattr(quadrature, "_BLOCK_PIECES", 1)
    for got, want in zip(apply_operators(kinds, t[::8], 1.2, ONE, 1.6, mesh), values):
        assert np.array_equal(got, want[::8])


def test_graded_pieces_hold_one_run_of_indices():
    # The geometric runs [t/2, t_1] of 768 targets at 1e-200 on the n = 512
    # mesh, 476,928 pieces: each run of 768 finds its rows on the cumulative
    # piece counts, 0.5 MiB traced.  Rows and indices repeated for every
    # piece up front traced 10.9 MiB.
    near = np.full(768, 0.5e-200)
    span = np.full(768, build_mesh(512, WeightSpec(1.2), 1.6).nodes[1])
    tracemalloc.start()
    try:
        pieces = 0
        for s, _, _ in quadrature._graded_pieces(near, span):
            pieces += len(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pieces == 768 * 621
    assert peak <= 2**20


def test_band_evaluates_few_kernel_elements(monkeypatch):
    # Kernel elements, as broadcast sizes of (t, s), that one solve passes to
    # the bracket kernel: only the origin pieces of the targets with cut 0,
    # here t_1 alone.  The pieces up to t hold their (t-s)^e in the weights
    # of their rule, and the far field sums a series.  4,271 when the shared
    # panels from the cut up to the target's panel went through a band, whose
    # columns before each row's split took the kernel; 143,640 when the whole
    # band did.
    count = [0]

    def counted(t, s, *args, **kwargs):
        count[0] += np.broadcast(t, s).size
        return bracket_values(t, s, *args, **kwargs)

    monkeypatch.setattr(quadrature, "bracket_values", counted)
    solve_linear(WeightSpec(1.2), 1.6, 512)
    assert count == [quadrature.GAUSS_ORDER]


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


_ROUND_OFF_CASES = pytest.mark.parametrize(
    "g,u,alpha",
    [_pair_case(u, alpha) for u, alpha in _ITEM2_PAIRS]
    # margins 0.01 and 1e-4
    + [_weight_case(1.89, 1.9), _weight_case(1.4999, 1.5)],
    ids=[f"pair-{alpha}" for _, alpha in _ITEM2_PAIRS] + ["t^-1.89-1.9", "t^-1.4999-1.5"],
)


@_ROUND_OFF_CASES
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


@_ROUND_OFF_CASES
@pytest.mark.parametrize("n", [1024, 2048])
def test_linear_solve_past_512_nodes_stays_at_round_off(g, u, alpha, n):
    # Past LINEAR_QUADRATURE_PANELS the nodes are the n + 1 asked for and
    # the rule is that of 512 panels: max nodal error 8.9e-15 at most, and
    # at the first five nodes within 8.7e-15 of the size of the terms they
    # sum, t^(alpha-1) (or u itself where it is larger), as with n panels.
    sol = solve_linear(g, alpha, n)
    t = sol.mesh.nodes
    assert sol.mesh.n == n
    assert np.max(np.abs(sol.values - u(t))) <= 1e-13
    t5 = t[1:6]
    scale = np.maximum(t5 ** (alpha - 1.0), np.abs(u(t5)))
    assert np.all(np.abs(sol.values[1:6] - u(t5)) <= 1e-14 * scale)


@pytest.mark.parametrize("n", [64, 512, 1024, 2048])
@pytest.mark.parametrize(
    "g,alpha", [(WeightSpec(1.2), 1.6), _pair_case(*_ITEM2_PAIRS[0])[::2]],
    ids=["t^-1.2-1.6", "pair-1.5"],
)
def test_linear_solve_integrates_on_at_most_512_panels(g, alpha, n):
    # The nodes are those of n panels; the Green integral at them is taken
    # on the n-panel mesh itself up to 512 panels and on the 512-panel
    # mesh of the same grading beyond, bit for bit, and the solution
    # carries that mesh.
    sol = solve_linear(g, alpha, n)
    w = as_weight_spec(g)
    assert np.array_equal(sol.mesh.nodes, build_mesh(n, w, alpha).nodes)
    quad = build_mesh(min(n, 512), w, alpha)
    want = apply_green(sol.mesh.nodes, *w.singular_decomposition(), alpha, quad)
    assert np.array_equal(sol.values, want)
    assert np.array_equal(sol.integrand[2].nodes, quad.nodes)
    if n <= 512:
        assert sol.integrand[2] is sol.mesh


@pytest.mark.parametrize("n", [512, 2048])
def test_linear_solve_true_error_is_below_1e_15(n):
    # The solve of g = t^-1.2 at alpha = 1.6 against its closed form c
    # (t^0.6 - t^0.4), c = Gamma(-0.2) / Gamma(1.4), at 40 digits, for the
    # doubles alpha and beta that the solve takes: max nodal error 6.7e-16
    # at n = 512, and at n = 2048, whose nodes take the rule of 512 panels
    # (7.8e-16 with all 2,048).  The closed form in double
    # precision (exact_dirichlet_solution) is itself off by 1.2e-15 at
    # n = 2048, so only this reference sees a digit lost at round-off.
    mpmath = pytest.importorskip("mpmath")
    sol = solve_linear(WeightSpec(1.2), 1.6, n)
    with mpmath.workdps(40):
        alpha, beta = mpmath.mpf(1.6), mpmath.mpf(1.2)
        c = mpmath.gamma(1 - beta) / mpmath.gamma(1 + alpha - beta)
        exact = np.array([
            float(c * (mpmath.mpf(t) ** (alpha - 1) - mpmath.mpf(t) ** (alpha - beta)))
            for t in sol.mesh.nodes
        ])
    assert np.max(np.abs(sol.values - exact)) <= 1e-15


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


def _pair_operators(u, alpha, t, kinds, n=128):
    # the operators of the pair's forcing -D^alpha u at t, on an n-panel
    # mesh, and their closed forms
    g = -frac_derivative(u, alpha)
    w = as_weight_spec(g)
    beta_g, reg = w.singular_decomposition()
    mesh = build_mesh(n, w, alpha)
    if callable(t):
        t = t(mesh.nodes)
    got = apply_operators(kinds, t, beta_g, reg, alpha, mesh)
    exact = {
        "u": u, "du": classical_derivative(u), "dalpha": frac_derivative(u, alpha - 1.0),
    }
    return t, got, [exact[kind](t) for kind in kinds]


@pytest.mark.parametrize(
    "u,alpha", _ITEM2_PAIRS[1:3] + _ITEM2_PAIRS[4:], ids=["1.6", "1.3", "1.05"]
)
def test_off_mesh_targets_next_to_nodes(u, alpha):
    # Each target owns the pieces from its cut t_c <= EPS t up to t, so no
    # shared panel lies closer to t than 0.4 t.  Just past the
    # interior nodes, just either side of them, and in clusters just past
    # three nodes, u and u' are within 3.7e-12 relative.  When the shared
    # panel below a target just past a node went through Gauss-Legendre, u'
    # was off by up to 3.3 there and u by up to 1.2e-4.
    def targets(nodes):
        inner = nodes[1:-1]
        return np.concatenate((
            inner + 1e-9 * np.diff(nodes)[1:], inner * (1.0 + 1e-12),
            inner * (1.0 - 1e-12),
            *(nodes[k] * (1.0 + np.linspace(1e-6, 1e-3, 16)) for k in (10, 40, 100)),
        ))

    _, got, exact = _pair_operators(u, alpha, targets, ("u", "du"))
    for value, want in zip(got, exact):
        assert np.all(np.abs(value - want) <= 1e-11 * np.abs(want))


@pytest.mark.parametrize(
    "u,alpha", _ITEM2_PAIRS[1:3] + _ITEM2_PAIRS[4:], ids=["1.6", "1.3", "1.05"]
)
def test_targets_past_t_1_without_a_far_field(u, alpha):
    # A target in (t_1, t_1/EPS] has cut 0 and lies in the panel past t_1;
    # no mesh node falls there, as the next edge lies at 1.41 t_1 or above.
    # It owns the origin piece [0, t/2] and the run [t/2, t_1], like a
    # target below t_1: u, u' and D^(alpha-1)u within 3.7e-12 relative,
    # where u' was off by up to 0.45 and u by up to 7.7e-5.
    def targets(nodes):
        edges = quadrature._panel_edges(nodes)
        assert edges[2] >= 1.41 * nodes[1]
        t = nodes[1] * np.append(1.0 + 1e-12, np.geomspace(1.001, 0.999 / quadrature.EPS, 6))
        assert np.all(np.searchsorted(edges, quadrature.EPS * t, side="right") == 1)
        assert np.all(np.searchsorted(edges, t) == 2)
        return t

    _, got, exact = _pair_operators(u, alpha, targets, ("u", "du", "dalpha"))
    for value, want in zip(got, exact):
        assert np.all(np.abs(value - want) <= 1e-9 * np.abs(want))


def test_targets_with_cut_0_past_the_second_edge():
    # At grading 1.25 the panel [t_1, t_2] spans a ratio of 2.38 and is split
    # at edges[2] = 1.54 t_1, below t_1/EPS: a target in (edges[2],
    # t_1/EPS) has cut 0 and lies in panel 2, two edges past the end of its
    # run [t/2, t_1].  Its origin piece [0, t/2] still lies inside [0, t_1],
    # as EPS >= 0.5.  u, u' and D^(alpha-1)u within 7.2e-14 relative.
    def targets(nodes):
        edges = quadrature._panel_edges(nodes)
        assert edges[2] < nodes[1] / quadrature.EPS
        t = np.geomspace(edges[2] * (1.0 + 1e-12), 0.999 * nodes[1] / quadrature.EPS, 8)
        assert np.all(np.searchsorted(edges, quadrature.EPS * t, side="right") == 1)
        assert np.all(np.searchsorted(edges, t) == 3)
        return t

    u = PowerSum([(1.0, 1.6), (-1.0, 2.6)])
    _, got, exact = _pair_operators(u, 1.6, targets, ("u", "du", "dalpha"))
    for value, want in zip(got, exact):
        assert np.all(np.abs(value - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("n", [128, 512])
@pytest.mark.parametrize(
    "u,alpha",
    _ITEM2_PAIRS[1:3] + _ITEM2_PAIRS[4:] + [(PAIRS["u1"], ALPHA_PAIRS)],
    ids=["1.6", "1.3", "1.05", "u1-1.5"],
)
def test_targets_without_a_far_field_are_at_round_off(u, alpha, n):
    # A target below t_1/EPS takes the right kernel over [t/2, t_1] from
    # Gauss-Legendre pieces [2^k t/2, 2^(k+1) t/2], the last one clipped at
    # t_1, so each spans a ratio of at most 2.  Scaled by the terms the
    # Green integral sums, t^(alpha-1) for u, t^(alpha-2) for u' and 1 for
    # D^(alpha-1)u, the errors are at most 2.2e-15; with one Gauss-Legendre
    # piece from t to the next node they reached 0.12.  The u1 pair has no
    # t^(alpha-1) term, so its u' is t^(alpha-2) times a sum that vanishes
    # at 0.
    def targets(nodes):
        return np.array([1.4e-17, 1e-10, 1e-7, nodes[1] / 0.85, 1.2 * nodes[1]])

    kinds = ("u", "du", "dalpha")
    t, got, exact = _pair_operators(u, alpha, targets, kinds, n)
    scales = (t ** (alpha - 1.0), t ** (alpha - 2.0), 1.0)
    for value, want, scale in zip(got, exact, scales):
        assert np.all(np.abs(value - want) <= 1e-14 * scale)


@pytest.mark.parametrize("n", [128, 512, 2048])
def test_targets_deep_in_the_first_panel(n):
    # t^-1.2 at alpha = 1.6, down to 1e-250: a run of up to about 800
    # pieces from t/2 to t_1 keeps u, u' and D^(alpha-1)u within 6.4e-14
    # relative at every n; one piece [t, t_1], up to 240 decades wide, left
    # them off by 0.85, 1.3 and 1.0.
    w = WeightSpec(1.2)
    u = exact_dirichlet_solution(PowerSum.monomial(1.0, -1.2), 1.6)
    mesh = build_mesh(n, w, 1.6)
    t = np.array([1e-250, 1e-200, 1e-100, 1e-50, 1e-20])
    got = apply_operators(("u", "du", "dalpha"), t, 1.2, w.regular, 1.6, mesh)
    for value, f in zip(got, (u, classical_derivative(u), frac_derivative(u, 0.6))):
        assert np.all(np.abs(value - f(t)) <= 1e-12 * np.abs(f(t)))


@pytest.mark.parametrize("n,u_rel", [(128, 1e-11), (512, 1e-10)])
@pytest.mark.parametrize(
    "u,alpha", _ITEM2_PAIRS[1:3] + _ITEM2_PAIRS[4:], ids=["1.6", "1.3", "1.05"]
)
def test_targets_just_past_the_first_cut(u, alpha, n, u_rel):
    # Past t_1/EPS a target sums the origin panel [0, t_1] from its 12-point
    # rule, and s = t lies at least (1/EPS - 1) t_1 = 0.67 t_1 past its end;
    # below t_1/EPS it owns the cut-0 pieces.  u' within 2.8e-13 relative
    # at n = 128 and 6.7e-12 at n = 512, u within 3.4e-12 and 8.1e-11: at
    # n = 512 and alpha = 1.05, u(t_1) lies near the round-off of its far
    # larger terms, as at t_1 itself.  At EPS = 0.85, with s = t only
    # 0.18 t_1 past the panel, u' was off by up to 2.0e-10.
    g = -frac_derivative(u, alpha)
    w = as_weight_spec(g)
    beta_g, reg = w.singular_decomposition()
    mesh = build_mesh(n, w, alpha)
    t = mesh.nodes[1] * np.array([1.0 / 0.85, 1.0 / quadrature.EPS, 1.2, 1.3])
    got = apply_operators(("u", "du"), t, beta_g, reg, alpha, mesh)
    for value, f, rel in zip(got, (u, classical_derivative(u)), (u_rel, 1e-11)):
        assert np.all(np.abs(value - f(t)) <= rel * np.abs(f(t)))


@pytest.mark.parametrize("alpha", [1.3, 1.6, 1.9])
def test_targets_next_to_1_with_a_forcing_singular_there(alpha):
    # g = sqrt(1-s): the piece at s = t spans at most 1 - t, and Gauss-
    # Legendre pieces as long as their distance to t cover the rest down to
    # the cut, so s = 1 lies at least a piece's length from every piece.
    # With one 12-point piece from the cut up to t, running into s = 1, u
    # was off by up to 1.9e-6 max|u| and u' by 2.3e-3 relative, at n = 128
    # and 512; now 1.2e-9 and 4.3e-10 at most, the last panel's rule of
    # (1-s)^(alpha-1), which does not hold sqrt(1-s), setting them.
    mpmath = pytest.importorskip("mpmath")
    a = mpmath.mpf(alpha)

    def exact(t):
        t = mpmath.mpf(t)
        u = t ** (a - 1) / (a + 0.5) - t**a / a * mpmath.hyp2f1(-0.5, 1, a + 1, t)
        du = (a - 1) * (
            t ** (a - 2) / (a + 0.5) - t ** (a - 1) / (a - 1) * mpmath.hyp2f1(-0.5, 1, a, t)
        )
        return float(u / mpmath.gamma(a)), float(du / mpmath.gamma(a))

    mesh = build_mesh(512, WeightSpec(0.0), alpha)
    t = np.concatenate((1.0 - 10.0 ** -np.arange(1.0, 10.0), mesh.nodes[-6:-1]))
    u, du = apply_operators(("u", "du"), t, 0.0, lambda s: np.sqrt(1.0 - s), alpha, mesh)
    with mpmath.workdps(30):
        want_u, want_du = np.array([exact(x) for x in t]).T
        # max|u|, on a grid across [0, 1]
        top = max(exact(x)[0] for x in np.linspace(0.05, 0.95, 19))
    assert np.all(np.abs(u - want_u) <= 1e-8 * top)
    assert np.all(np.abs(du - want_du) <= 1e-8 * np.abs(want_du))


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
    quad = pytest.importorskip("scipy.integrate").quad

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
