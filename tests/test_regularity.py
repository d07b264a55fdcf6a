import numpy as np
import pytest

from fracbvp import (
    NO,
    YES,
    ConditionHError,
    GradedMesh,
    GreenProblem,
    PowerSum,
    ZERO,
    WeightSpec,
    apply_green,
    classical_derivative,
    classify,
    exact_dirichlet_solution,
    frac_derivative,
    p_profile,
    q_profile,
)
from fracbvp.regularity import _judge, _profile_bases

from helpers import ALPHA_PAIRS, PAIRS, forcing, pair_problem, weight_problem


# --- profiles -----------------------------------------------------------------


def test_q_profile_classical_case():
    problem = GreenProblem.build(WeightSpec(0.0), 2.0, 128)
    for t, q in q_profile(problem, [0.25, 0.5, 0.75]):
        assert q == pytest.approx(t * (1.0 - 2.0 * t) / 2.0, abs=1e-10)


def test_profiles_match_closed_forms_on_the_pairs():
    # absolute 1e-3 at the probe points is the stated agreement bar
    for name in ("u2", "u3"):
        problem = pair_problem(name, 512)
        u = PAIRS[name]
        qo = frac_derivative(u, ALPHA_PAIRS - 1.0)
        po = classical_derivative(u)
        for t, q in q_profile(problem, [0.4, 0.2, 0.1, 0.05]):
            assert q == pytest.approx(t**0.5 * qo(t), abs=1e-3)
        for t, p in p_profile(problem, [0.4, 0.2, 0.1, 0.05]):
            assert p == pytest.approx(t**0.5 * po(t), abs=1e-3)


def test_p_profile_classical_case_is_the_plain_derivative():
    # at alpha = 2 the weight power is zero, so p(t) = u'(t) = (1 - 2t)/2
    problem = GreenProblem.build(WeightSpec(0.0), 2.0, 128)
    for t, p in p_profile(problem, [0.2, 0.5, 0.8]):
        assert p == pytest.approx((1.0 - 2.0 * t) / 2.0, abs=1e-10)


def test_p_profile_u2_is_the_published_weighted_derivative():
    # t^0.5 u2'(t) = 0.8 t^0.3 - 1.8 t^1.3
    problem = pair_problem("u2", 512)
    for t, p in p_profile(problem, [0.3, 0.1, 0.02]):
        assert p == pytest.approx(0.8 * t**0.3 - 1.8 * t**1.3, abs=1e-5)


# --- classification ------------------------------------------------------------


def test_classify_u2_is_in_both_spaces():
    report = classify(pair_problem("u2", 512))
    assert report.in_E_alpha == YES
    assert report.in_C1_2ma == YES
    assert report.q_limit_estimate == pytest.approx(0.0, abs=1e-6)
    assert report.p_limit_estimate == pytest.approx(0.0, abs=1e-4)
    assert report.e_alpha_norm is not None and report.c1_norm is not None


def test_classify_u1_limits_on_a_coarse_mesh():
    # u1 = t^2.2 - t^3.2 at alpha = 1.5, n = 32 (grading 1): q and p vanish
    # at 0, and classify samples them from 4.8e-7, far below t_1 = 1/32.
    # With each target's right kernel over [t/2, t_1] in pieces of ratio at
    # most 2 the limits are 6e-18 and 4.7e-16; with one piece [t, t_1] they
    # were 2.0e-10 and 2.4e-8.
    report = classify(pair_problem("u1", 32))
    assert report.in_E_alpha == YES and report.in_C1_2ma == YES
    assert abs(report.q_limit_estimate) <= 1e-13
    assert abs(report.p_limit_estimate) <= 1e-13


def test_classify_u3_leaves_the_weighted_c1_space():
    report = classify(pair_problem("u3", 512))
    assert report.in_E_alpha == YES
    assert report.in_C1_2ma == NO
    assert report.p_limit_estimate is None
    assert report.c1_norm is None


def test_classify_continuous_weight_alpha_16():
    for w in (WeightSpec(0.0), WeightSpec(0.0, PowerSum.monomial(1.0, 0.6))):
        report = classify(GreenProblem.build(w, 1.6, 512))
        assert report.in_C1_2ma == YES
        assert report.in_E_alpha != NO


def test_classify_strongly_singular_weight_alpha_16():
    report = classify(weight_problem(1.2, 1.6, 512))
    assert report.in_E_alpha == YES
    assert report.in_C1_2ma == NO


def test_no_admissible_weight_is_expelled_from_e_alpha():
    # membership in E_alpha is guaranteed for every (H)-weight
    cases = [(1.5, b) for b in (0.0, 0.5, 1.0, 1.2, 1.4)] + [(1.1, 0.9), (2.0, 1.5)]
    for alpha, beta in cases:
        report = classify(weight_problem(beta, alpha, 256))
        assert report.in_E_alpha == YES, (alpha, beta)


def test_continuous_weights_are_never_expelled_from_weighted_c1():
    for alpha in (1.3, 1.6, 1.9):
        for w in (WeightSpec(0.0), WeightSpec(0.0, PowerSum.monomial(2.0, 0.6))):
            report = classify(GreenProblem.build(w, alpha, 256))
            assert report.in_C1_2ma == YES, (alpha, w)


def test_norm_consistency_with_samples():
    report = classify(pair_problem("u2", 512))
    max_q = max(abs(q) for _, q, _ in report.samples)
    assert report.e_alpha_norm >= max_q


def test_limit_extrapolation_matches_closed_form():
    # for h = t^-0.6 at alpha = 1.6: p(t) -> 0.6 * Gamma(0.4) * ... the
    # closed-form solution is c (t^0.6 - t), so t^0.4 u' -> 0.6 c with
    # c = 2.2181595437576882 (Gamma(0.4), mpmath 40 digits)
    report = classify(weight_problem(0.6, 1.6, 512))
    assert report.in_C1_2ma == YES
    assert report.p_limit_estimate == pytest.approx(
        0.6 * 2.2181595437576882, rel=1e-4
    )


@pytest.mark.parametrize(
    "problem",
    [weight_problem(1.2, 1.6), pair_problem("u3"), weight_problem(0.0, 2.0, 128)],
    ids=["t^-1.2@1.6", "u3@1.5", "1@2"],
)
def test_classify_is_the_composition_of_the_profiles(problem):
    # classify takes u, q and p from one assembly pass; its report is the
    # one that q_profile, p_profile and apply_green give at its points,
    # within 1e-12 relative plus 1e-15 of the largest value.
    report = classify(problem)
    beta_g, reg = problem.decomposition()
    alpha, mesh = problem.alpha, problem.mesh
    ts = [t for t, _, _ in report.samples]
    grid = GradedMesh.from_grading(512, mesh.grading).nodes
    pts = np.union1d(grid[(grid > 0.0) & (grid < 1.0)], ts)
    q = np.array(q_profile(problem, pts))[:, 1]
    p = np.array(p_profile(problem, pts))[:, 1]
    u = apply_green(pts, beta_g, reg, alpha, mesh)
    probes = np.searchsorted(pts, ts)

    def close(got, ref, scale):
        return abs(got - ref) <= 1e-12 * abs(ref) + 1e-15 * scale

    q_scale, p_scale = np.max(np.abs(q)), np.max(np.abs(p))
    for (t, qs, ps), qr, pr in zip(report.samples, q[probes], p[probes]):
        assert close(qs, qr, q_scale) and close(ps, pr, p_scale), t
    u_max = np.max(np.abs(u))
    for norm, profile_max, verdict in (
        (report.e_alpha_norm, q_scale, report.in_E_alpha),
        (report.c1_norm, p_scale, report.in_C1_2ma),
    ):
        if verdict == NO:
            assert norm is None
        else:
            assert close(norm, u_max + profile_max, u_max + profile_max)
    ref_q, ref_p = (
        _judge(np.array(ts), x[probes], basis)
        for x, basis in zip((q, p), _profile_bases(problem))
    )
    assert (report.in_E_alpha, report.in_C1_2ma) == (ref_q[0], ref_p[0])
    for got, ref in zip(
        (report.q_limit_estimate, report.q_fit_residual,
         report.p_limit_estimate, report.p_fit_residual),
        ref_q[1:] + ref_p[1:],
    ):
        assert (got is None) == (ref is None)
        if got is not None:
            assert close(got, ref, abs(ref))


def test_problem_build_rejects_condition_h_violation():
    with pytest.raises(ConditionHError):
        GreenProblem.build(WeightSpec(1.7), 1.5, 64)


def test_classify_rejects_more_exponents_than_probes():
    # 19 forcing exponents give p 20 fit columns, one per probe, and q 21;
    # 17 leave q 19 columns and a probe to spare
    def problem(count):
        w = WeightSpec(0.5, PowerSum([(1.0, 0.05 * k) for k in range(count)]))
        return GreenProblem.build(w, 1.5, 64)

    with pytest.raises(ValueError):
        classify(problem(19))
    assert classify(problem(17)).in_C1_2ma == YES


# --- verdicts from the forcing's exponents ----------------------------------------


def _exact_profiles(w: WeightSpec, alpha: float):
    """Verdicts and limits of q and p by powersum calculus.

    At the exponent -1 the forcing resonates with the kernel and u gains
    t^(alpha-1) log t, which no power sum holds: q still tends to 0, and p
    grows like log t.
    """
    g = w.regular.times_power(-w.beta)
    if -1.0 in g.exponents:
        return YES, 0.0, NO, None
    u = exact_dirichlet_solution(g, alpha)
    q = frac_derivative(u, alpha - 1.0).times_power(alpha - 1.0)
    p = classical_derivative(u).times_power(2.0 - alpha)
    verdicts = [YES if x.is_zero or x.min_exponent >= 0.0 else NO for x in (q, p)]
    limits = [sum(c for c, lam in x if lam == 0.0) for x in (q, p)]
    return verdicts[0], limits[0], verdicts[1], limits[1] if verdicts[1] == YES else None


VERDICT_CASES = [
    pytest.param(alpha, WeightSpec(beta), id=f"{alpha}:t^-{beta}")
    for alpha in (1.3, 1.6, 1.9)
    for beta in sorted(
        {0.0, 0.2, 0.9, 0.99, 1.0, 1.01, 1.2, round(alpha - 0.1, 12), round(alpha - 0.01, 12)}
    )
] + [
    pytest.param(1.3, WeightSpec(0.6, PowerSum([(1.0, 0.0), (-0.5, 0.4)])), id="1.3:multi"),
    pytest.param(1.6, WeightSpec(1.1, PowerSum([(1.0, 0.0), (2.0, 0.5)])), id="1.6:multi"),
    pytest.param(
        1.9, WeightSpec(0.9, PowerSum([(1.0, 0.0), (1.0, 0.1), (1.0, 1.0)])), id="1.9:multi"
    ),
    # p = c0 + c1 t^0.03: its difference ratios 0.5^0.03 = 0.98 settle nothing
    pytest.param(1.5, WeightSpec(0.97), id="1.5:t^-0.97"),
    # resonant: p grows like log t, and q tends to 0 through the fit's
    # t^0.5 log t column
    pytest.param(1.5, WeightSpec(1.0), id="1.5:t^-1"),
    # u = 0: both profiles are 0, and so are the fit residuals
    pytest.param(1.6, WeightSpec(0.0, ZERO), id="1.6:zero"),
]


@pytest.mark.parametrize("alpha,w", VERDICT_CASES)
def test_verdicts_and_limits_match_powersum_calculus(alpha, w):
    # every verdict exact; q_limit within 1e-9 absolute; p_limit within
    # 1e-4 relative up to beta = 0.9 and 2e-3 beyond (beta = 0.99 at
    # alpha = 1.3 gives p the exponents 0 and 0.01)
    report = classify(GreenProblem.build(w, alpha, 512))
    verdict_q, q0, verdict_p, p0 = _exact_profiles(w, alpha)
    assert (report.in_E_alpha, report.in_C1_2ma) == (verdict_q, verdict_p)
    assert report.q_limit_estimate == pytest.approx(q0, abs=1e-9)
    assert np.isfinite(report.q_fit_residual)
    if p0 is None:
        assert report.p_limit_estimate is None and report.p_fit_residual is None
    else:
        rel = 1e-4 if w.beta <= 0.9 else 2e-3
        assert report.p_limit_estimate == pytest.approx(p0, rel=rel)
        assert np.isfinite(report.p_fit_residual)

