import numpy as np
import pytest

from fracbvp import (
    INCONCLUSIVE,
    NO,
    YES,
    ConditionHError,
    GradedMesh,
    GreenProblem,
    PowerSum,
    WeightSpec,
    apply_green,
    classical_derivative,
    classify,
    frac_derivative,
    p_profile,
    q_profile,
)
from fracbvp.regularity import _stabilization_verdict

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
        assert report.in_E_alpha != NO, (alpha, beta)


def test_continuous_weights_are_never_expelled_from_weighted_c1():
    for alpha in (1.3, 1.6, 1.9):
        for w in (WeightSpec(0.0), WeightSpec(0.0, PowerSum.monomial(2.0, 0.6))):
            report = classify(GreenProblem.build(w, alpha, 256))
            assert report.in_C1_2ma != NO, (alpha, w)


def test_near_critical_exponent_is_inconclusive_not_forced():
    # h = t^-0.97 at alpha = 1.5 gives p(t) = c1 t^0.03 + c0: the difference
    # ratio 0.5^0.03 = 0.979 sits above the stabilization bound and the
    # profile stays bounded, so neither verdict trigger may fire
    report = classify(weight_problem(0.97, 1.5, 256))
    assert report.in_C1_2ma == INCONCLUSIVE


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
    ref_q, ref_p = _stabilization_verdict(q[probes]), _stabilization_verdict(p[probes])
    assert (report.in_E_alpha, report.in_C1_2ma) == (ref_q[0], ref_p[0])
    for got, ref in ((report.q_limit_estimate, ref_q[1]), (report.p_limit_estimate, ref_p[1])):
        assert (got is None) == (ref is None)
        if got is not None:
            assert close(got, ref, abs(ref))


def test_problem_build_rejects_condition_h_violation():
    with pytest.raises(ConditionHError):
        GreenProblem.build(WeightSpec(1.7), 1.5, 64)


def test_classify_parameter_validation():
    problem = weight_problem(0.0, 1.5, 256)
    with pytest.raises(ValueError):
        classify(problem, t0=1.5)
    with pytest.raises(ValueError):
        classify(problem, r=1.0)
    with pytest.raises(ValueError):
        classify(problem, J=3)


# --- verdict machinery ----------------------------------------------------------


def test_stabilization_verdict_on_synthetic_power_tails():
    ts = [0.25 * 0.5**j for j in range(20)]
    # sigma > 0: stabilizes to the additive constant
    verdict, limit = _stabilization_verdict([3.0 + t**0.4 for t in ts])
    assert verdict == YES
    assert limit == pytest.approx(3.0, abs=1e-4)
    # sigma < 0: diverges
    verdict, limit = _stabilization_verdict([t**-0.3 for t in ts])
    assert verdict == NO
    assert limit is None
    # sigma ~ 0+: too slow to certify
    verdict, _ = _stabilization_verdict([1.0 + t**0.02 for t in ts])
    assert verdict == INCONCLUSIVE


def test_stabilization_verdict_constant_series():
    verdict, limit = _stabilization_verdict([2.0] * 20)
    assert verdict == YES
    assert limit == 2.0
