import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracbvp
from fracbvp import solve
from fracbvp import (
    ONE,
    ConditionHError,
    GradedMesh,
    GridFunction,
    NonlinearitySpec,
    PowerSum,
    WeightSpec,
    apply_operators,
    exact_dirichlet_solution,
    gl_residual,
    gl_weights,
    solve_linear,
    solve_nonlinear,
)

from helpers import ALPHA_PAIRS, PAIRS, forcing, solved, sup_node_error


# --- linear solves ---------------------------------------------------------------


def test_classical_solve_matches_parabola():
    sol = solve_linear(WeightSpec(0.0), 2.0, 128)
    t = sol.mesh.nodes
    assert np.max(np.abs(sol.values - t * (1.0 - t) / 2.0)) <= 1e-8


def test_singular_round_trips_meet_tolerances():
    assert sup_node_error("u2", 512) <= 5e-4
    assert sup_node_error("u3", 512) <= 2e-3


def test_solve_rejects_condition_h_violations():
    with pytest.raises(ConditionHError):
        solve_linear(WeightSpec(1.6), 1.5, 64)


def test_boundary_values_are_exact_zeros():
    for name in ("u2", "u3"):
        sol = solved(name, 256)
        assert sol.values[0] == 0.0
        assert sol.values[-1] == 0.0


def test_grid_function_validation():
    mesh = GradedMesh.from_grading(16, 1.0)
    with pytest.raises(ValueError):
        GridFunction(mesh, np.zeros(5), 1.5)
    with pytest.raises(ValueError):
        GridFunction(mesh, np.full(17, np.nan), 1.5)


# --- the solution's Green integrand -----------------------------------------------


def _rebuilt_integrand(sol, w, f):
    # What a caller rebuilds from the problem alone: the weight's pieces on
    # the mesh of min(n, 512) panels for a linear solve (f None), and
    # regular(s) f(u(s)) of the returned node spline on all n for Picard.
    beta_g, regular = w.singular_decomposition()
    if f is None:
        if sol.mesh.n <= 512:
            return beta_g, regular, sol.mesh
        return beta_g, regular, GradedMesh.from_grading(512, sol.mesh.grading)
    spline = solve.mesh_spline(sol.mesh, sol.values)
    return beta_g, lambda s: regular(s) * f(spline(s)), sol.mesh


@pytest.mark.parametrize(
    "n,f", [(128, None), (1024, None), (64, NonlinearitySpec.power(0.5))],
    ids=["linear-128", "linear-1024", "picard-64"],
)
def test_operators_apply_the_solution_own_integrand(n, f):
    # The command line's du and q calls, bit for bit as with the rebuilt
    # integrand; a linear solution's u at its nodes is its values.
    w, alpha = WeightSpec(1.2), 1.6
    if f is None:
        sol = solve_linear(w, alpha, n)
    else:
        sol = solve_nonlinear(w, f, alpha, n).solution
    beta_g, g_regular, quad = _rebuilt_integrand(sol, w, f)
    nodes = sol.mesh.nodes
    for kinds, t in ((("du", "dalpha"), nodes[1:-1]), (("dalpha",), 1.0)):
        got = sol.operators(kinds, t)
        want = apply_operators(kinds, t, beta_g, g_regular, alpha, quad)
        assert len(got) == len(kinds)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    if f is None:
        assert np.array_equal(sol.operators(("u",), nodes)[0], sol.values)


def test_a_bare_grid_function_has_no_operators():
    gf = GridFunction(GradedMesh.from_grading(16, 1.0), np.zeros(17), 1.5)
    with pytest.raises(ValueError):
        gf.operators(("u",), 0.5)


def test_operators_are_as_accurate_off_the_mesh_as_at_the_nodes():
    # h = 1 at alpha = 1.05, n = 128: at the cell midpoints the operator is
    # 1.2e-15 of sup |u| off the closed form, the node spline 9.2e-2.
    alpha = 1.05
    sol = solve_linear(WeightSpec(0.0), alpha, 128)
    u = exact_dirichlet_solution(ONE, alpha)
    nodes = sol.mesh.nodes
    mid = 0.5 * (nodes[1:] + nodes[:-1])
    sup = np.max(np.abs(u(nodes)))
    assert np.max(np.abs(sol.operators(("u",), mid)[0] - u(mid))) <= 1e-14 * sup
    assert np.max(np.abs(sol(mid) - u(mid))) > 1e-2 * sup


# --- nonlinearity spec ------------------------------------------------------------


def test_nonlinearity_kinds():
    assert NonlinearitySpec.constant(2.0)(0.3) == 2.0
    assert NonlinearitySpec.linear(1.5)(2.0) == 3.0
    assert NonlinearitySpec.power(0.5)(4.0) == 2.0
    assert NonlinearitySpec.affine(2.0, 1.0)(3.0) == 7.0
    # tiny negative interpolation jitter is clipped before the power
    assert NonlinearitySpec.power(0.5)(-1e-15) == 0.0


def test_nonlinearity_reads_negative_arguments_as_zero():
    u = np.array([-2.0, -1e-15, 0.0, 3.0])
    clamped = np.array([0.0, 0.0, 0.0, 3.0])
    for f in (
        NonlinearitySpec.constant(2.0),
        NonlinearitySpec.linear(1.5),
        NonlinearitySpec.power(0.5),
        NonlinearitySpec.affine(2.0, 1.0),
    ):
        assert np.array_equal(f(u), f(clamped))
        assert f(-2.0) == f(0.0)


def test_nonlinearity_validation():
    with pytest.raises(ValueError):
        NonlinearitySpec.power(0.0)
    with pytest.raises(ValueError):
        NonlinearitySpec.linear(-1.0)
    with pytest.raises(ValueError):
        NonlinearitySpec("cubic", (1.0,))


# --- Picard iteration ---------------------------------------------------------------


def test_constant_nonlinearity_converges_in_two_sweeps():
    report = solve_nonlinear(WeightSpec(0.0), NonlinearitySpec.constant(1.0), 2.0, 128)
    assert report.converged
    assert report.picard_iterations == 2
    assert report.final_update_sup_norm == 0.0
    t = report.solution.mesh.nodes
    assert np.max(np.abs(report.solution.values - t * (1.0 - t) / 2.0)) <= 1e-8


def test_constant_nonlinearity_scales_the_linear_solve():
    c = 2.5
    lin = solve_linear(WeightSpec(0.6), 1.6, 64)
    rep = solve_nonlinear(WeightSpec(0.6), NonlinearitySpec.constant(c), 1.6, 64)
    assert np.max(np.abs(rep.solution.values - c * lin.values)) <= 1e-12


def test_linear_contraction_converges_and_satisfies_fixed_point():
    # small slope: the trace contracts and u = T u holds within tol
    tol = 1e-10
    rep = solve_nonlinear(
        WeightSpec(0.0), NonlinearitySpec.linear(0.5), 1.5, 64, tol=tol
    )
    assert rep.converged
    ratios = [
        b / a
        for a, b in zip(rep.update_history[1:-1], rep.update_history[2:])
        if a > 0.0
    ]
    assert ratios and max(ratios) < 1.0
    assert rep.final_update_sup_norm <= tol


def test_power_nonlinearity_finds_the_positive_solution():
    rep = solve_nonlinear(WeightSpec(0.0), NonlinearitySpec.power(0.5), 1.5, 128)
    assert rep.converged
    assert rep.seeded
    assert np.min(rep.solution.values[1:-1]) > 0.0
    assert rep.residual_median_rel <= 0.05


@pytest.mark.parametrize(
    "f,errors",
    [
        (NonlinearitySpec.power(0.5), (8.4e-7, 9.1e-8, 9.9e-9)),
        (NonlinearitySpec.affine(0.5, 1.0), (2.2e-8, 1.4e-9, 8.9e-11)),
    ],
    ids=["power:0.5", "affine:0.5,1"],
)
def test_picard_error_falls_at_the_spline_order(f, errors):
    # t^-1.2 at alpha = 1.6 to tol 1e-15, against the n = 1024 solve, whose
    # nodes include those of n = 64, 128 and 256 (one grading): order 4 for
    # affine:0.5,1, and about 3.2 for power:0.5, where f(u) = u^0.5 meets
    # u ~ (1-t)^(alpha-1) at t = 1.  The iterate is interpolated by the
    # spline in the mesh coordinate; by PCHIP the errors were 2.1e-6,
    # 2.2e-7, 2.5e-8 and 1.2e-6, 9.9e-8, 1.1e-8.
    w = WeightSpec(1.2)
    fine = solve_nonlinear(w, f, 1.6, 1024, tol=1e-15)
    assert fine.converged
    for n, want in zip((64, 128, 256), errors):
        rep = solve_nonlinear(w, f, 1.6, n, tol=1e-15)
        err = np.max(np.abs(rep.solution.values - fine.solution.values[:: 1024 // n]))
        assert rep.converged and want / 2.0 <= err <= 2.0 * want, (n, err)


def test_trivial_nonlinearity_stays_at_zero():
    rep = solve_nonlinear(WeightSpec(0.0), NonlinearitySpec.constant(0.0), 1.5, 64)
    assert rep.converged
    assert not rep.seeded
    assert rep.picard_iterations == 1
    assert np.all(rep.solution.values == 0.0)


def test_divergent_iteration_reports_nonconvergence():
    rep = solve_nonlinear(
        WeightSpec(0.0), NonlinearitySpec.linear(25.0), 1.5, 64, max_iter=60
    )
    assert not rep.converged
    assert np.all(np.isfinite(rep.solution.values))


def test_overflowing_nonlinearity_is_divergence_not_breakdown():
    # Seeded at about 1e8, f(u) = u^40 overflows on the next sweep: that is
    # Picard divergence, reported, not a quadrature breakdown (the overflow
    # warnings are expected).
    w = WeightSpec(0.0, PowerSum.monomial(1e9, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        rep = solve_nonlinear(w, NonlinearitySpec.power(40.0), 1.5, 64)
    assert rep.seeded and not rep.converged
    assert np.all(np.isfinite(rep.solution.values))


def _apply_green_nan_from(call, monkeypatch):
    # the solvers' apply_green, returning NaN from its call number ``call``
    # on; returns the count of calls
    real, count = solve.apply_green, [0]

    def patched(*args):
        count[0] += 1
        values = real(*args)
        return values if count[0] < call else np.full_like(values, np.nan)

    monkeypatch.setattr(solve, "apply_green", patched)
    return count


@pytest.mark.parametrize(
    "f,call",
    [
        (None, 1),  # solve_linear
        (NonlinearitySpec.constant(1.0), 1),  # the first sweep
        (NonlinearitySpec.linear(1.0), 2),  # the first sweep after the seed
        (NonlinearitySpec.power(0.5), 3),  # a later sweep
        (NonlinearitySpec.linear(1.0), 1),  # the seed
    ],
)
def test_non_finite_operator_values_raise(monkeypatch, f, call):
    _apply_green_nan_from(call, monkeypatch)
    with pytest.raises(FloatingPointError, match="non-finite"):
        if f is None:
            solve_linear(WeightSpec(1.2), 1.6, 64)
        else:
            solve_nonlinear(WeightSpec(1.2), f, 1.6, 64)


@pytest.mark.parametrize(
    "f,seeded",
    [
        (NonlinearitySpec.power(0.5), True),
        (NonlinearitySpec.linear(0.5), True),
        (NonlinearitySpec.constant(1.0), False),
        (NonlinearitySpec.affine(0.5, 1.0), False),
    ],
)
def test_the_start_is_chosen_before_the_first_sweep(monkeypatch, f, seeded):
    # f(0) = 0 < f(1): u = 0 is a fixed point of T, so the iteration starts
    # from the weight profile, one apply_green pass before the first sweep;
    # otherwise from zero.  Every pass after it is one sweep u <- T u, the
    # first one included.
    w = WeightSpec(1.2)
    count = _apply_green_nan_from(np.inf, monkeypatch)  # counts, no NaN
    rep = solve_nonlinear(w, f, 1.6, 64)
    assert rep.converged and rep.seeded == seeded
    assert count[0] == rep.picard_iterations + seeded
    assert len(rep.update_history) == rep.picard_iterations
    first = solve_nonlinear(w, f, 1.6, 64, max_iter=1)
    start = solve_linear(w, 1.6, 64).values if seeded else 0.0
    assert first.update_history == (np.max(np.abs(first.solution.values - start)),)


def test_positivity_invariant():
    for w, f, alpha in (
        (WeightSpec(0.0), NonlinearitySpec.affine(0.5, 1.0), 1.5),
        (WeightSpec(1.2), NonlinearitySpec.power(0.5), 1.6),
        (WeightSpec(0.6), NonlinearitySpec.constant(1.0), 1.3),
    ):
        rep = solve_nonlinear(w, f, alpha, 64)
        assert rep.converged
        assert np.min(rep.solution.values) >= -1e-12
        assert rep.solution.values[0] == 0.0
        assert rep.solution.values[-1] == 0.0


def test_picard_iterates_are_monotone_from_zero():
    # nondecreasing f with f(0) > 0: iterates rise nodewise
    w = WeightSpec(0.6)
    f = NonlinearitySpec.affine(0.8, 1.0)
    alpha = 1.5
    mesh_nodes = None
    prev = None
    for iters in (1, 2, 3, 4, 5):
        rep = solve_nonlinear(w, f, alpha, 64, tol=1e-15, max_iter=iters)
        values = rep.solution.values
        if prev is not None:
            assert np.all(values >= prev - 1e-12)
        prev = values
        mesh_nodes = rep.solution.mesh.nodes
    assert mesh_nodes is not None


def test_parameter_validation():
    w = WeightSpec(0.0)
    f = NonlinearitySpec.constant(1.0)
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            solve_nonlinear(w, f, 1.5, 64, tol=tol)
    with pytest.raises(ValueError):
        solve_nonlinear(w, f, 1.5, 64, max_iter=0)
    with pytest.raises(TypeError):
        solve_nonlinear(w, f, 1.5, 64, damping=0.5)


# --- Gruenwald-Letnikov residual ------------------------------------------------


def test_gl_weights_recurrence():
    w = gl_weights(1.5, 6)
    assert w[0] == 1.0
    assert w[1] == pytest.approx(-1.5)
    assert w[2] == pytest.approx(1.5 * 0.5 / 2.0)
    # alpha = 2 truncates to the second-difference stencil
    w2 = gl_weights(2.0, 6)
    assert w2[:3] == pytest.approx([1.0, -2.0, 1.0])
    assert np.all(w2[3:] == 0.0)


def test_gl_residual_classical_case_vanishes_with_m():
    sol = solve_linear(WeightSpec(0.0), 2.0, 128)
    g = np.ones_like(sol.mesh.nodes)
    medians = [
        gl_residual(sol, g, 2.0, m).median_rel for m in (256, 512, 1024)
    ]
    assert medians[-1] <= 1e-10
    assert medians[-1] <= medians[0] + 1e-12


def test_gl_residual_zero_solution():
    mesh = GradedMesh.from_grading(64, 1.0)
    gf = GridFunction(mesh, np.zeros(65), 1.5)
    stats = gl_residual(gf, np.zeros(65), 1.5, 256)
    assert stats.median_rel == 0.0


def test_gl_residual_closes_the_loop_on_each_pair():
    for name in ("u1", "u2", "u3"):
        sol = solved(name, 512)
        g = forcing(name)
        with np.errstate(divide="ignore"):
            g_nodes = g(np.where(sol.mesh.nodes > 0.0, sol.mesh.nodes, np.nan))
        stats = gl_residual(sol, g_nodes, ALPHA_PAIRS, 1024)
        assert stats.median_rel <= 0.05


def test_gl_residual_on_a_coarse_strongly_graded_mesh():
    # 16 panels at grading 8: a spline through the nodes in t swings far
    # off between them; in the mesh coordinate it does not.
    sol = solved("u3", 16)
    assert sol.mesh.grading == 8.0
    g = forcing("u3")
    with np.errstate(divide="ignore"):
        g_nodes = g(np.where(sol.mesh.nodes > 0.0, sol.mesh.nodes, np.nan))
    assert gl_residual(sol, g_nodes, ALPHA_PAIRS, 1024).median_rel <= 0.05


def test_gl_residual_window_and_m_validation():
    sol = solve_linear(WeightSpec(0.0), 2.0, 128)
    g = np.ones_like(sol.mesh.nodes)
    stats = gl_residual(sol, g, 2.0, 256)
    ts = [t for t, _ in stats.per_point]
    assert min(ts) >= 0.1 - 1e-12
    assert max(ts) <= 0.9 + 1e-12
    with pytest.raises(ValueError):
        gl_residual(sol, g, 2.0, 100)


# --- interpolants and import cost --------------------------------------------

# Samples of functions of t, as the solver interpolates: a t^0.2 onset
# (monotone), sign changes, and flat runs where PCHIP's slopes are zero.
# Data drawn independently per node would make the 17-node grading-8 spline
# system ill-conditioned: there scipy's pivoted solve and the sweep both
# differ from a 60-digit solve by about 1e-11, so they cannot agree to 1e-13.
# The bound is relative to the largest term of the Hermite form, max|y| or
# max |y'(x_i)| (x_(i+1) - x_i): on the 17-node grading-8 mesh the t^0.2
# spline oscillates with terms near 700 against max|y| = 1.5, and slopes
# that agree to 4e-16 relative give values that differ by 1.3e-13.
INTERP_DATA = {
    "monotone": lambda t: t**0.2 - 0.5 * t**1.2 + t,
    "sign_changes": lambda t: np.sin(9.0 * t) - t**0.3 * np.cos(3.0 * t),
    "flat_runs": lambda t: np.clip(np.sin(7.0 * t), -0.5, 0.5),
}


@pytest.mark.parametrize("nodes", [17, 513, 2049])
@pytest.mark.parametrize("data", sorted(INTERP_DATA))
def test_interpolants_match_scipy(nodes, data):
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(nodes)
    for grading in (1.0, 2.0, 3.5, 5.0, 6.5, 8.0):
        x = GradedMesh.from_grading(nodes - 1, grading).nodes
        y = INTERP_DATA[data](x)
        points = np.concatenate((x, rng.random(1000)))
        for ours, theirs in (
            (solve.PchipInterpolator, interpolate.PchipInterpolator),
            (solve.CubicSpline, interpolate.CubicSpline),
        ):
            got, want = ours(x, y), theirs(x, y)
            scale = max(np.max(np.abs(y)), np.max(np.abs(want(x[:-1], 1) * np.diff(x))))
            diff = np.max(np.abs(got(points) - want(points)))
            assert diff <= 1e-13 * scale, (ours.__name__, grading, diff / scale)
            assert np.shape(got(0.3)) == np.shape(want(0.3))


def test_interpolants_reject_bad_data():
    x = np.linspace(0.0, 1.0, 5)
    for bad_x, bad_y in (
        (x[::-1], x),  # decreasing
        (x, np.append(x[:-1], np.nan)),
        (x, x[:-1]),  # length mismatch
        (x[:1], x[:1]),  # one point
    ):
        for cls in (solve.PchipInterpolator, solve.CubicSpline):
            with pytest.raises(ValueError):
                cls(bad_x, bad_y)
    with pytest.raises(ValueError):
        solve.CubicSpline(x[:3], x[:3])  # not-a-knot needs four points


def _child_python(code):
    # -B: the child writes no bytecode into the source tree
    return [sys.executable, "-B", "-c", code]


def _child_env():
    # the caller's environment, with this checkout's src first on the path
    src = str(Path(fracbvp.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_import_loads_no_scipy():
    code = (
        "import sys, fracbvp, fracbvp.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        _child_python(code), env=_child_env(), capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_package_exports_each_module_all_once():
    # Each public name is declared once, in its module's __all__; the
    # package republishes exactly those and its version.
    from fracbvp import gammafn, green, powersum, quadrature, regularity

    modules = (gammafn, green, powersum, quadrature, regularity, solve)
    assert len(fracbvp.__all__) == len(set(fracbvp.__all__))
    assert set(fracbvp.__all__) == {"__version__"}.union(
        *(m.__all__ for m in modules)
    )
    for m in modules:
        for name in m.__all__:
            assert getattr(fracbvp, name) is getattr(m, name), name


# The four commands of perfbench's cli-readme workload.
_README_COMMANDS = (
    ["solve", "--alpha", "2", "--weight", "power:0", "--f", "const:1", "--n", "128",
     "--out", "sol.csv"],
    ["solve", "--alpha", "1.5", "--forcing", "power:0.7*sum:-0.31,0;1.87,1",
     "--out", "g.csv"],
    ["classify", "--alpha", "1.6", "--weight", "power:1.2", "--out", "cls.csv"],
    ["figure1", "--n", "512", "--out", "figure1/"],
)


def test_cli_commands_load_no_heavy_modules(tmp_path):
    # Import is most of a command's time: one np.unique or np.median on the
    # way would pull in numpy.ma, about 20 ms a command, which the import
    # tests above do not see.  The commands run in one child, through
    # cli.main, in an empty directory.
    code = (
        "import sys\n"
        "from fracbvp.cli import main\n"
        f"for argv in {_README_COMMANDS!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "heavy = ('scipy', 'numpy.ma', 'numpy.polynomial')\n"
        "print(sorted(m for m in sys.modules"
        " if m in heavy or m.startswith(tuple(h + '.' for h in heavy))))"
    )
    out = subprocess.run(
        _child_python(code), env=_child_env(), capture_output=True, text=True,
        check=True, timeout=120, cwd=tmp_path,
    )
    assert out.stdout.splitlines()[-1] == "[]"


def test_import_loads_no_numpy_polynomial():
    # The Gauss-Legendre rule is built without numpy.polynomial, which
    # numpy imports only on first use.
    code = "import sys, fracbvp.cli\nprint('numpy.polynomial' in sys.modules)"
    out = subprocess.run(
        _child_python(code), env=_child_env(), capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"
