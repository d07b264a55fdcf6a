"""Linear and nonlinear solves through the Green representation.

The linear problem D^alpha u + g = 0, u(0) = u(1) = 0 is solved by direct
quadrature of u(t) = int G(t,s) g(s) ds at the nodes of a graded mesh of n
panels, integrated on at most LINEAR_QUADRATURE_PANELS panels of the same
grading (a Nystrom rule need not share its panels with the targets).  The
nonlinear problem D^alpha u + h(t) f(u) = 0 is solved by Picard iteration
u <- T u on the integral operator (T u)(t) = int G(t,s) h(s) f(u(s)) ds,
with f(u(s)) evaluated through the not-a-knot cubic spline of the previous
iterate in the mesh coordinate x = t^(1/grading), in which the graded nodes
are uniform (f reads an undershoot below 0 as 0).

The start is chosen before the first sweep.  When f(0) = 0 < f(1) and the
weight is nonzero, u = 0 is a fixed point of T that is not the positive
solution, so the iteration starts from the weight profile int G(t,s) h(s) ds
(the f = 1 solve), and the report records it as seeded; otherwise it
starts from zero.

A solution carries the integrand of its Green representation: the
weight's singular exponent, a regular factor and the quadrature mesh.
GridFunction.operators applies the Green operator to it, so the
solution's derivatives and its values off the mesh come from the rule
that gave its node values.  For a linear solve the factor is the
forcing's; for Picard it is regular(s) f(u(s)) of the returned iterate
u, whose image T u differs from u by the last update.

A linear solve computes no residual.  The Picard report carries a
cross-check by an independent discretization, the Gruenwald-Letnikov
backward sum

    D^alpha u(t) ~ delta^(-alpha) * sum_k (-1)^k C(alpha, k) u(t - k delta)

on a uniform grid, whose relative residual against the forcing is reported
over the window t in [0.1, 0.9] (near 0 a uniform-step scheme is
meaningless for non-integrable weights; this is a diagnostic limitation).

The two interpolants are small numpy classes with scipy's formulas, so that
importing the package needs numpy alone: the not-a-knot cubic spline (de
Boor, A Practical Guide to Splines), whose tridiagonal slope system is
solved by one Thomas sweep, for the iterate and the solution, and PCHIP
(Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980) with
weighted-harmonic-mean interior slopes and three-point end slopes, for the
residual's forcing samples.  Both evaluate in cubic Hermite form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import (
    GradedMesh,
    apply_green,
    apply_operators,
    as_weight_spec,
    build_mesh,
)

__all__ = [
    "GridFunction",
    "NonlinearitySpec",
    "SolveReport",
    "ResidualStats",
    "solve_linear",
    "solve_nonlinear",
    "gl_residual",
    "gl_weights",
]

RESIDUAL_WINDOW = (0.1, 0.9)
RESIDUAL_FLOOR = 1e-12
# A sup-norm update beyond this is treated as Picard divergence; the last
# finite iterate is kept so the report stays usable.
DIVERGENCE_CAP = 1e12
# Node values of the forcing below this coordinate are ignored by the
# residual's interpolation; singular weights are infinite at the origin.
_G_INTERP_CUTOFF = 0.02
# A linear solve integrates on at most this many panels.  The suite
# measures the Green quadrature of a power-sum forcing at round-off for
# n = 32 to 512 (test_linear_solve_is_at_round_off_from_n_32), so 512 is
# the most it has shown to be needed; finer meshes cost O(n^2) and buy no
# digit.  Picard sweeps keep all n panels: their integrand holds the
# iterate's spline, whose knots are the n nodes.
LINEAR_QUADRATURE_PANELS = 512


class CubicHermiteSpline:
    """Piecewise cubic through (x, y) with slopes ``dydx`` at the nodes.

    Called with points (scalar or array) it returns the values, same shape;
    outside [x[0], x[-1]] the end cubics extrapolate.  Coefficients and
    evaluation follow scipy's ``CubicHermiteSpline``/``PPoly`` to the bit.
    """

    def __init__(self, x, y, dydx):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        self.x = x
        self.c = (t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        i = np.clip(np.searchsorted(self.x, flat, side="right") - 1, 0, len(self.x) - 2)
        s = flat - self.x[i]
        s2 = s * s
        c0, c1, c2, c3 = (c[i] for c in self.c)
        return (c3 + c2 * s + c1 * s2 + c0 * (s2 * s)).reshape(t.shape)


def _checked_xy(x, y, min_points: int):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < min_points:
        raise ValueError(f"need x and y of one equal length >= {min_points}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("x and y must be finite")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("x must be strictly increasing")
    return x, y


class PchipInterpolator(CubicHermiteSpline):
    """Monotone piecewise cubic (PCHIP, Fritsch & Carlson 1980) through (x, y).

    Interior slopes are the weighted harmonic mean of the adjacent secants,
    or 0 where those differ in sign or one vanishes; end slopes are the
    shape-preserving three-point estimate.  Two points give the line.
    """

    def __init__(self, x, y):
        x, y = _checked_xy(x, y, 2)
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.empty_like(y)
        if len(x) == 2:
            d[:] = m[0]
        else:
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
                d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
            d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        super().__init__(x, y, d)


def _pchip_end_slope(h0, h1, m0, m1):
    # one-sided three-point estimate, zeroed or capped to keep the shape
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class CubicSpline(CubicHermiteSpline):
    """Not-a-knot cubic spline through (x, y), at least four points.

    The node slopes solve scipy's tridiagonal system: the continuity rows
    dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = r[i], and
    end rows that make the third derivative continuous at x[1] and x[-2].
    For strictly increasing x every pivot of the sweep is positive (the
    last one is at least dx[-2]^2 / (2 dx[-2] + dx[-1])), so no pivoting
    is needed.
    """

    def __init__(self, x, y):
        x, y = _checked_xy(x, y, 4)
        n = len(x)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # Row i: lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i].
        lower, diag, upper, rhs = (np.empty(n) for _ in range(4))
        lower[1:-1] = dx[1:]
        diag[1:-1] = 2 * (dx[:-1] + dx[1:])
        upper[1:-1] = dx[:-1]
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        diag[0], upper[0] = dx[1], d
        rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        lower[-1], diag[-1] = d, dx[-2]
        rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        # Thomas sweep on Python floats (same IEEE arithmetic, no numpy
        # scalar overhead per row)
        lower, diag, upper, s = (v.tolist() for v in (lower, diag, upper, rhs))
        for i in range(1, n):
            f = lower[i] / diag[i - 1]
            diag[i] -= f * upper[i - 1]
            s[i] -= f * s[i - 1]
        s[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
        super().__init__(x, y, np.array(s))


def mesh_spline(mesh: GradedMesh, values):
    """The not-a-knot cubic spline of node values in x = t^(1/grading).

    Returns a function of t (scalar or array).  In x the graded nodes are
    uniform; a spline in t oscillates on a coarse, strongly graded mesh,
    and at grading 1 the two are one.
    """
    root = 1.0 / mesh.grading
    spline = CubicSpline(mesh.nodes**root, values)
    return lambda t: spline(np.asarray(t, dtype=float) ** root)


@dataclass(eq=False)
class GridFunction:
    """Solution samples on a graded mesh; Dirichlet values pinned to zero.

    ``integrand`` is (beta_g, g_regular, quadrature mesh), set by the
    solvers: the function is int G(t,s) s^(-beta_g) g_regular(s) ds taken
    on that mesh (for Picard, up to the last update).  Calling the
    function gives the node values' spline (mesh_spline, cached), whose
    error between the nodes can far exceed theirs; ``operators`` gives the
    Green operator of the integrand, as accurate off the mesh as at the
    nodes.
    """

    mesh: GradedMesh
    values: np.ndarray
    alpha: float
    integrand: tuple | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.mesh.nodes.shape:
            raise ValueError("one value per mesh node required")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        self._spline = None

    def __call__(self, t):
        if self._spline is None:
            self._spline = mesh_spline(self.mesh, self.values)
        return self._spline(t)

    def operators(self, kinds, t):
        """apply_operators(kinds, t, ...) of the solution's own integrand.

        ValueError if the function carries no integrand.
        """
        if self.integrand is None:
            raise ValueError("this GridFunction carries no Green integrand")
        beta_g, g_regular, quad = self.integrand
        return apply_operators(kinds, t, beta_g, g_regular, self.alpha, quad)

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


# Each nonlinearity kind and the rule its parameters must satisfy.
_PARAMETER_RULES = {
    "constant": lambda p: len(p) == 1 and p[0] >= 0.0,
    "linear": lambda p: len(p) == 1 and p[0] >= 0.0,
    "power": lambda p: len(p) == 1 and p[0] > 0.0,
    "affine": lambda p: len(p) == 2 and p[0] >= 0.0 and p[1] >= 0.0,
}


@dataclass(frozen=True)
class NonlinearitySpec:
    """Nonlinearity f mapping [0, inf) into [0, inf).

    Kinds: ``constant`` c, ``linear`` a*u, ``power`` u**p (p > 0) and
    ``affine`` a*u + b, with a, b, c >= 0.  Arguments below 0 are read as
    0 (interpolation jitter may dip infinitesimally below zero).
    """

    kind: str
    params: tuple[float, ...]

    KINDS = tuple(_PARAMETER_RULES)

    def __post_init__(self):
        p = self.params
        if self.kind not in _PARAMETER_RULES:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if not all(math.isfinite(v) for v in p) or not _PARAMETER_RULES[self.kind](p):
            raise ValueError(
                f"invalid parameters {p!r} for nonlinearity {self.kind!r}"
            )

    @classmethod
    def constant(cls, c: float) -> "NonlinearitySpec":
        return cls("constant", (float(c),))

    @classmethod
    def linear(cls, a: float) -> "NonlinearitySpec":
        return cls("linear", (float(a),))

    @classmethod
    def power(cls, p: float) -> "NonlinearitySpec":
        return cls("power", (float(p),))

    @classmethod
    def affine(cls, a: float, b: float) -> "NonlinearitySpec":
        return cls("affine", (float(a), float(b)))

    def __call__(self, u):
        scalar = np.isscalar(u)
        v = np.maximum(np.asarray(u, dtype=float), 0.0)
        if self.kind == "constant":
            out = np.full_like(v, self.params[0])
        elif self.kind == "linear":
            out = self.params[0] * v
        elif self.kind == "power":
            out = np.power(v, self.params[0])
        else:
            out = self.params[0] * v + self.params[1]
        return float(out) if scalar else out

    @property
    def value_at_zero(self) -> float:
        return float(self(0.0))


@dataclass(frozen=True)
class ResidualStats:
    """Gruenwald-Letnikov residual diagnostics over the interior window."""

    median_rel: float
    per_point: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a Picard solve, convergent or not.

    ``seeded`` is true when the iteration started from the weight profile.
    """

    solution: GridFunction
    picard_iterations: int
    final_update_sup_norm: float
    residual_median_rel: float
    converged: bool
    update_history: tuple[float, ...] = field(default=())
    seeded: bool = False


def require_finite(*values) -> None:
    """Raise FloatingPointError unless all of ``values`` (arrays or floats) are finite.

    Used on operator values: a non-finite one is a breakdown of the
    quadrature, not an input error and not a Picard outcome.
    """
    if not all(np.all(np.isfinite(v)) for v in values):
        raise FloatingPointError("the quadrature produced non-finite values")


def solve_linear(g, alpha: float, n: int = 512) -> GridFunction:
    """Solve D^alpha u + g = 0, u(0) = u(1) = 0 by Green quadrature.

    ``g`` is a WeightSpec or a (possibly signed) PowerSum; condition (H)
    must hold or :class:`ConditionHError` is raised.  The solution holds
    the n + 1 nodes of the graded mesh of n panels; the Green integral at
    those nodes is taken on that mesh up to LINEAR_QUADRATURE_PANELS
    panels, and on the mesh of that many panels of the same grading
    beyond.  FloatingPointError is raised if the quadrature produces a
    non-finite value.
    """
    w = as_weight_spec(g)
    mesh = build_mesh(n, w, alpha)
    quad = mesh
    if mesh.n > LINEAR_QUADRATURE_PANELS:
        quad = GradedMesh.from_grading(LINEAR_QUADRATURE_PANELS, mesh.grading)
    beta_g, regular = w.singular_decomposition()
    values = apply_green(mesh.nodes, beta_g, regular, alpha, quad)
    require_finite(values)
    return GridFunction(mesh, values, alpha, (beta_g, regular, quad))


def check_picard_controls(tol: float, max_iter: int) -> None:
    """ValueError unless the Picard stopping tolerance and sweep limit are valid."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")


def _sweep_integrand(regular, f, u):
    """The regular factor regular(s) f(u(s)) of a Picard sweep's integrand."""
    return lambda s: regular(s) * f(u(s))


def solve_nonlinear(
    w,
    f: NonlinearitySpec,
    alpha: float,
    n: int = 512,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> SolveReport:
    """Picard iteration u <- T u for D^alpha u + h f(u) = 0.

    Starts from the weight profile when f(0) = 0 < f(1) and the weight is
    nonzero (``seeded`` in the report), from u = 0 otherwise.  Stops when
    the sup-norm update drops to ``tol`` or after ``max_iter`` sweeps;
    nonconvergence is reported, not raised.  FloatingPointError is raised
    if the quadrature maps a finite iterate to non-finite values.
    """
    check_picard_controls(tol, max_iter)
    w = as_weight_spec(w)
    mesh = build_mesh(n, w, alpha)
    beta_g, regular = w.singular_decomposition()

    seeded = f.value_at_zero == 0.0 and f(1.0) > 0.0 and not regular.is_zero
    if seeded:
        u = apply_green(mesh.nodes, beta_g, regular, alpha, mesh)
        require_finite(u)
    else:
        u = np.zeros(mesh.n + 1)
    updates: list[float] = []
    converged = False
    for _ in range(max_iter):
        g_reg = _sweep_integrand(regular, f, mesh_spline(mesh, u))
        tu = apply_green(mesh.nodes, beta_g, g_reg, alpha, mesh)
        if np.all(np.isfinite(f(u))):
            # a non-finite image of a finite f(u) is a quadrature breakdown;
            # an f(u) that overflows is Picard divergence, stopped below
            require_finite(tu)
        update = float(np.max(np.abs(tu - u)))
        updates.append(update)
        if not math.isfinite(update) or update > DIVERGENCE_CAP:
            break
        u = tu
        if update <= tol:
            converged = True
            break

    solution = GridFunction(mesh, u, alpha)
    solution.integrand = (beta_g, _sweep_integrand(regular, f, solution), mesh)
    # h(0) is infinite for singular weights; the residual ignores the origin
    with np.errstate(invalid="ignore"):
        g_nodes = w(mesh.nodes) * f(solution.values)
    stats = gl_residual(solution, g_nodes, alpha)
    return SolveReport(
        solution=solution,
        picard_iterations=len(updates),
        final_update_sup_norm=updates[-1],
        residual_median_rel=stats.median_rel,
        converged=converged,
        update_history=tuple(updates),
        seeded=seeded,
    )


def gl_weights(alpha: float, count: int) -> np.ndarray:
    """Fractional binomial weights (-1)^k C(alpha, k), k = 0..count-1."""
    w = np.empty(count)
    w[0] = 1.0
    if count > 1:
        k = np.arange(1, count, dtype=float)
        w[1:] = np.cumprod((k - 1.0 - alpha) / k)
    return w


def gl_residual(u: GridFunction, g_values, alpha: float, m: int = 1024) -> ResidualStats:
    """Relative residual of D^alpha u + g = 0 by the Gruenwald-Letnikov sum.

    ``u`` is re-interpolated onto the uniform grid of step 1/m by its
    spline in the mesh coordinate (mesh_spline; at grading 1, exactness on
    polynomials keeps the classical alpha = 2 case clean); ``g_values``
    are forcing samples at the mesh nodes, of which non-finite entries and
    those below t = 0.02 are ignored.  Residuals are evaluated at the
    uniform points inside [0.1, 0.9] and summarized by their median.
    Diagnostic only: never raises on a bad solution.
    """
    if m < 256:
        raise ValueError(f"need at least 256 uniform steps, got {m}")
    alpha = float(alpha)
    delta = 1.0 / m
    grid = np.linspace(0.0, 1.0, m + 1)
    uu = u(grid)
    dal = np.convolve(uu, gl_weights(alpha, m + 1))[: m + 1] * delta**-alpha

    g_values = np.asarray(g_values, dtype=float)
    keep = np.isfinite(g_values) & (u.mesh.nodes >= _G_INTERP_CUTOFF)
    g_interp = PchipInterpolator(u.mesh.nodes[keep], g_values[keep])

    lo, hi = RESIDUAL_WINDOW
    window = (grid >= lo - 1e-12) & (grid <= hi + 1e-12)
    tw = grid[window]
    gw = g_interp(tw)
    rel = np.abs(dal[window] + gw) / (np.abs(gw) + RESIDUAL_FLOOR)
    # np.median's value, without its NaN check, which imports numpy.ma
    # (about 20 ms) on first use; rel is finite.
    middle = np.sort(rel)[(len(rel) - 1) // 2: len(rel) // 2 + 1]
    return ResidualStats(
        median_rel=float(np.mean(middle)),
        per_point=tuple(zip(tw.tolist(), rel.tolist())),
    )
