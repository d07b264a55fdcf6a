"""Riemann-Liouville fractional Dirichlet problems with singular weights.

Solves D^alpha u + h(t) f(u) = 0 on (0, 1) with u(0) = u(1) = 0 for orders
alpha in (1, 2], where the weight h may blow up at the origin fast enough to
leave L^1 (anything with int_0^1 s^(alpha-1) h(s) ds finite is admitted).
Alongside the solver: exact closed-form calculus on power sums used as the
validation oracle, Green-kernel evaluation, graded-mesh singular quadrature,
a Gruenwald-Letnikov residual check, and a classifier for the boundary
regularity of solutions.
"""

from .gammafn import GammaPoleError, gamma, reciprocal_gamma
from .green import green_eval
from .powersum import (
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
    parse_power_sum,
)
from .quadrature import (
    ConditionHError,
    ConditionReport,
    GradedMesh,
    WeightSpec,
    apply_dalpha_minus_1,
    apply_green,
    apply_green_derivative,
    apply_operators,
    as_weight_spec,
    build_mesh,
    check_condition_h,
)
from .regularity import (
    NO,
    YES,
    GreenProblem,
    RegularityReport,
    classify,
    p_profile,
    q_profile,
)
from .solve import (
    GridFunction,
    NonlinearitySpec,
    ResidualStats,
    SolveReport,
    gl_residual,
    gl_weights,
    solve_linear,
    solve_nonlinear,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "GammaPoleError",
    "gamma",
    "reciprocal_gamma",
    "green_eval",
    "ONE",
    "ZERO",
    "ExponentRangeError",
    "PowerSum",
    "PowerSumParseError",
    "SingularEvaluationError",
    "classical_derivative",
    "exact_dirichlet_solution",
    "format_power_sum",
    "frac_derivative",
    "frac_integral",
    "parse_power_sum",
    "ConditionHError",
    "ConditionReport",
    "GradedMesh",
    "WeightSpec",
    "apply_dalpha_minus_1",
    "apply_green",
    "apply_green_derivative",
    "apply_operators",
    "as_weight_spec",
    "build_mesh",
    "check_condition_h",
    "NO",
    "YES",
    "GreenProblem",
    "RegularityReport",
    "classify",
    "p_profile",
    "q_profile",
    "GridFunction",
    "NonlinearitySpec",
    "ResidualStats",
    "SolveReport",
    "gl_residual",
    "gl_weights",
    "solve_linear",
    "solve_nonlinear",
]
