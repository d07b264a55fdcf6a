"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from fracbvp import (
    ONE,
    NO,
    YES,
    GreenProblem,
    NonlinearitySpec,
    PowerSum,
    WeightSpec,
    apply_green_derivative,
    build_mesh,
    check_condition_h,
    classify,
    frac_derivative,
    gamma,
    gl_residual,
    green_eval,
    solve_linear,
    solve_nonlinear,
)
from fracbvp.cli import main as cli_main
from fracbvp.green import green_values

from helpers import (
    ALPHA_PAIRS,
    U2,
    U3,
    forcing,
    pair_problem,
    solved,
    sup_node_error,
    weight_problem,
)


def _report(num: int, ok: bool, elapsed: float, limit: float, detail: str = ""):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {num}] {status} ({elapsed:.2f}s / limit {limit:g}s) {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_oracle_exactness():
    start = time.perf_counter()
    h2 = frac_derivative(U2, 1.5)
    h3 = frac_derivative(U3, 1.5)
    expected = {
        (-0.7): gamma(1.8) / gamma(0.3),
        (0.3): -gamma(2.8) / gamma(1.3),
        (-1.3): gamma(1.2) / gamma(-0.3),
        (-0.3): -gamma(2.2) / gamma(0.7),
    }
    ok = True
    for sum_, lams in ((h2, (-0.7, 0.3)), (h3, (-1.3, -0.3))):
        ok = ok and sum_.exponents == lams
        for coeff, lam in sum_:
            ref = expected[lam]
            ok = ok and abs(coeff - ref) <= 1e-12 * abs(ref)
    rng = np.random.default_rng(1)
    for _ in range(20):
        c1, c2 = rng.uniform(-10, 10, size=2)
        kernel = PowerSum([(c1, 0.5), (c2, -0.5)])
        ok = ok and frac_derivative(kernel, 1.5).is_zero
    _report(1, ok, time.perf_counter() - start, 1.0,
            "h2/h3 coefficients at 1e-12, kernel annihilated exactly")


def test_criterion_2_classical_reduction():
    start = time.perf_counter()
    sol = solve_linear(WeightSpec(0.0), 2.0, 128)
    t = sol.mesh.nodes
    err = float(np.max(np.abs(sol.values - t * (1.0 - t) / 2.0)))
    _report(2, err <= 1e-8, time.perf_counter() - start, 1.0,
            f"sup error {err:.2e} <= 1e-8 at n=128")


@pytest.mark.parametrize("name,tol", [("u2", 5e-4), ("u3", 2e-3)])
def test_criterion_3_singular_round_trip(name, tol):
    start = time.perf_counter()
    errors = [sup_node_error(name, n) for n in (32, 64, 128, 256, 512)]
    ok = errors[-1] <= tol
    monotone = all(b <= 1.1 * a for a, b in zip(errors, errors[1:]))
    detail = (
        f"{name}: sup error {errors[-1]:.2e} <= {tol:g} at n=512;"
        f" errors over n=32..512: {['%.2e' % e for e in errors]}"
    )
    _report(3, ok and monotone, time.perf_counter() - start, 10.0, detail)


def test_criterion_4_residual_identity():
    start = time.perf_counter()
    ok = True
    medians = {}
    for name in ("u1", "u2", "u3"):
        sol = solved(name, 512)
        g = forcing(name)
        with np.errstate(divide="ignore"):
            g_nodes = g(np.where(sol.mesh.nodes > 0.0, sol.mesh.nodes, np.nan))
        stats = gl_residual(sol, g_nodes, ALPHA_PAIRS, 1024)
        medians[name] = stats.median_rel
        ok = ok and stats.median_rel <= 0.05
    _report(4, ok, time.perf_counter() - start, 10.0,
            "median relative GL residuals at m=1024: "
            + ", ".join(f"{k}={v:.4f}" for k, v in medians.items()))


def test_criterion_5_regularity_verdicts():
    start = time.perf_counter()
    results = []

    rep = classify(pair_problem("u2", 512))
    results.append(("u2 both yes", rep.in_E_alpha == YES and rep.in_C1_2ma == YES))
    rep = classify(pair_problem("u3", 512))
    results.append(("u3 E yes / C1 no", rep.in_E_alpha == YES and rep.in_C1_2ma == NO))
    rep = classify(GreenProblem.build(
        WeightSpec(0.0, PowerSum.monomial(1.0, 0.6)), 1.6, 512))
    results.append(("t^0.6 C1 yes", rep.in_C1_2ma == YES))
    rep = classify(GreenProblem.build(WeightSpec(0.0), 1.6, 512))
    results.append(("h=1 C1 yes", rep.in_C1_2ma == YES))
    rep = classify(weight_problem(1.2, 1.6, 512))
    results.append(("t^-1.2 E yes / C1 no",
                    rep.in_E_alpha == YES and rep.in_C1_2ma == NO))
    for alpha, beta in ((1.5, 0.5), (1.5, 1.2), (1.1, 0.9), (2.0, 1.5), (1.6, 1.2)):
        rep = classify(weight_problem(beta, alpha, 256))
        results.append((f"E not 'no' at a={alpha} b={beta}", rep.in_E_alpha != NO))

    ok = all(flag for _, flag in results)
    failed = [label for label, flag in results if not flag]
    _report(5, ok, time.perf_counter() - start, 30.0,
            "all verdicts as published" if ok else f"failed: {failed}")


def test_criterion_6_figure_reproduction(tmp_path):
    start = time.perf_counter()
    out_dir = tmp_path / "fig"
    code = cli_main(["figure1", "--n", "512", "--out", str(out_dir)])
    ok = code == 0
    csvs = sorted(out_dir.glob("hpow_*.csv"))
    ok = ok and len(csvs) == 4 and (out_dir / "figure1.svg").exists()
    for path in csvs:
        rows = path.read_text().splitlines()[1:]
        u = np.array([float(r.split(",")[1]) for r in rows])
        ok = ok and u[0] == 0.0 and u[-1] == 0.0 and float(np.min(u)) >= 0.0

    # slope blow-up for h = t^-1.2
    w = WeightSpec(1.2)
    mesh = build_mesh(512, w, 1.6)
    beta_g, reg = w.singular_decomposition()
    slopes = [
        apply_green_derivative(10.0**-k, beta_g, reg, 1.6, mesh) for k in (1, 2, 3)
    ]
    ok = ok and slopes[0] < slopes[1] < slopes[2]

    # p(t) = t^0.4 u'(t) stabilizes for the three milder weights: the
    # samples fit their exponents to 1e-4 relative
    for w in (
        WeightSpec(0.0, PowerSum.monomial(1.0, 0.6)),
        WeightSpec(0.0),
        WeightSpec(0.6),
    ):
        rep = classify(GreenProblem.build(w, 1.6, 512))
        ok = ok and rep.in_C1_2ma == YES and rep.p_fit_residual <= 1e-4
    _report(6, ok, time.perf_counter() - start, 30.0,
            f"boundary zeros, u >= 0, u'(1e-k) = {['%.3g' % s for s in slopes]}"
            " increasing, p stabilizes for the three milder weights")


def test_criterion_7_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True

    # gamma function: recurrence and reflection
    for _ in range(200):
        x = float(rng.uniform(-5.0, 20.0))
        if (x <= 0 and abs(x - round(x)) < 1e-3) or abs(x) < 1e-3:
            continue
        ok = ok and abs(gamma(x + 1.0) - x * gamma(x)) <= 1e-12 * abs(x * gamma(x))
    for _ in range(200):
        x = float(rng.uniform(-5.0, 5.0))
        if abs(x - round(x)) < 1e-3:
            continue
        val = gamma(x) * gamma(1.0 - x) * np.sin(np.pi * x) / np.pi
        ok = ok and abs(val - 1.0) <= 1e-11

    # power-sum calculus: kernel, composition, semigroup, linearity
    from fracbvp import frac_integral

    for _ in range(100):
        alpha = float(rng.uniform(1.01, 2.0))
        c1, c2 = rng.uniform(-5, 5, size=2)
        ok = ok and frac_derivative(
            PowerSum([(c1, alpha - 1.0), (c2, alpha - 2.0)]), alpha
        ).is_zero
        u = PowerSum([(float(rng.uniform(-3, 3)), alpha - 0.9 + 1.0)])
        v = frac_integral(frac_derivative(u, alpha), alpha)
        ok = ok and all(
            abs(cv - cu) <= 1e-11 * max(1.0, abs(cu))
            for cu, cv in zip(u.coefficients, v.coefficients)
        )
        a, b = rng.uniform(0.1, 2.0, size=2)
        w = PowerSum([(1.7, 0.3)])
        lhs = frac_integral(frac_integral(w, a), b)
        rhs = frac_integral(w, a + b)
        ok = ok and abs(lhs.coefficients[0] - rhs.coefficients[0]) <= 1e-11 * abs(
            rhs.coefficients[0]
        )

    # Green kernel: nonnegativity, boundary zeros, seam behaviour
    ss = np.linspace(0.0, 1.0, 200)
    for alpha in (1.1, 1.5, 1.9, 2.0):
        for t in np.linspace(0.0, 1.0, 50):
            ok = ok and float(np.min(green_values(float(t), ss, alpha))) >= 0.0
        ok = ok and np.all(green_values(0.0, ss, alpha) == 0.0)
        ok = ok and np.all(green_values(1.0, ss, alpha) == 0.0)
        eps = 1e-9
        holder = eps ** (alpha - 1.0) / gamma(alpha)
        for t in np.linspace(0.05, 0.95, 10):
            t = float(t)
            jump = abs(green_eval(t, t - eps, alpha) - green_eval(t, t + eps, alpha))
            ok = ok and jump <= holder + 1e-6

    # solver: positivity, boundary zeros, monotone iterates from zero
    rep = solve_nonlinear(WeightSpec(0.6), NonlinearitySpec.affine(0.5, 1.0), 1.5, 64)
    ok = ok and rep.converged and float(np.min(rep.solution.values)) >= -1e-12
    ok = ok and rep.solution.values[0] == 0.0 and rep.solution.values[-1] == 0.0
    prev = None
    for iters in (1, 2, 3, 4):
        partial = solve_nonlinear(
            WeightSpec(0.6), NonlinearitySpec.affine(0.5, 1.0), 1.5, 64,
            tol=1e-15, max_iter=iters,
        ).solution.values
        if prev is not None:
            ok = ok and bool(np.all(partial >= prev - 1e-12))
        prev = partial

    _report(7, ok, time.perf_counter() - start, 60.0,
            "gamma/power-sum/kernel/solver invariant suites")


def test_criterion_8_condition_h_gate():
    start = time.perf_counter()
    ok = True
    for ka in range(11, 21):
        for kb in range(0, 20):
            alpha = ka / 10.0
            beta = kb / 10.0
            exact = Fraction(ka, 10) - Fraction(kb, 10) > 0
            got = check_condition_h(WeightSpec(beta), alpha).satisfied
            ok = ok and (got == exact)
    _report(8, ok, time.perf_counter() - start, 1.0,
            "(alpha, beta) acceptance boundary matches exact arithmetic on the sweep")
