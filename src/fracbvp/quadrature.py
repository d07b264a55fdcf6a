"""Graded-mesh quadrature of the Green-operator integrals.

Evaluates, for a forcing g(s) = s^(-beta_g) * g_reg(s) with g_reg continuous
on [0, 1]:

    apply_green            u(t)        = int_0^1 G(t,s) g(s) ds
    apply_green_derivative u'(t)       = (alpha-1)/Gamma(alpha) *
        [ int_0^t (t^(a-2)(1-s)^(a-1) - (t-s)^(a-2)) g ds
          + int_t^1 t^(a-2)(1-s)^(a-1) g ds ]
    apply_dalpha_minus_1   D^(a-1)u(t) = int_0^t ((1-s)^(a-1) - 1) g ds
                                         + int_t^1 (1-s)^(a-1) g ds

The admissible forcing class is fixed by the integrability condition at the
origin, int_0^1 s^(alpha-1) g(s) ds < infty, which allows beta_g up to (not
including) alpha - i.e. weights that are not integrable on their own.  Near
s = 0 the kernels vanish like s, so the combined integrands are integrable;
they are evaluated in expm1/log1p form so that cancellation does not
destroy that product structure.  The left kernels of u and u' are one
bracket, t^e (1-s)^(a-1) - (t-s)^e with e = a-1 and e = a-2
(green.bracket_values); that of D^(a-1)u is expm1((a-1) log1p(-s)).

Three constructions replace adaptivity:

* panels follow a graded mesh t_i = (i/n)^grading, refined toward 0;
* the first panel [0, e] is mapped by s = tau^m, m = ceil(2/(alpha-beta_g)),
  which turns the leading s^(margin-1)-type behaviour into a smooth power;
* the panel ending at s = t (for u and u', whose bracket has a kink or an
  (t-s)^(alpha-2) blow-up there) is mapped by s = t - tau^(1/(alpha-1)),
  which absorbs the singular factor into the Jacobian exactly; elsewhere
  u and u' use the bracket kernel itself.

Fixed-order Gauss-Legendre (12 points) is used on every transformed panel:
once the integrands are regularized, panel count - not order - controls the
error.

The three operators share one assembly and accept any array of targets in
one pass.  g_reg is evaluated once at each quadrature point: in one call on
the plain panels between mesh nodes, which all targets share, and in one
call per block of targets on the 3 x 12 points of the panels each target
owns (origin panel, left panel ending at t, right panel starting at t).
Over the shared panels the parts that do not depend on t reduce to prefix
and suffix sums: (1-s)^(alpha-1) in the right parts of u and u', and both
kernels of D^(alpha-1)u.  The left brackets of u and u' depend on t.  The
sorted targets are taken in sub-blocks of 16 that split their shared left
panels at one cut, the last mesh node t_c <= EPS*t_min (EPS = 0.85).  Below
t_c, on the far panels, x = s/t <= 0.85 for every target of the sub-block,
and the bracket is t^e times an exact power series in x with the binomial
coefficients of (1-x)^e, cut at a 2^-60 tail; no sum in it subtracts two
terms of one sign.  The far panels thus reduce to power moments about t_c,
streamed up the mesh once per sub-block; the M powers of a point (M of
about 190 to 270) are products of two short tables, M/8 + 8 exps.  The
band, from t_c up to each target's own left panel, holds about 4% of the
lower triangle at grading 5 and n = 2048 (6% at n = 512) and 16% at grading
1.  From one column of a sub-block's band on, the split, the two terms of
the bracket differ by a factor of two or more in every row, so their
difference has condition number at most 3 (Higham, Accuracy and Stability
of Numerical Algorithms, 2002, sec. 1.7) and they are summed apart:
t^e sum (1-s)^(alpha-1) w g from a running sum, minus sum (t-s)^e w g with
(t-s)^e a power of the exact t - s.  An element past the split costs one
subtraction, one power and its share of a mat-vec.  The columns before the
split go through the bracket kernel in fixed tiles, and so do all of them
where the split would leave the two sums less than half of the band, and
for u' at alpha = 2, where the bracket is -s.  Each tile is one call of the
bracket kernel with t^e taken once per row and log1p(-s), (1-s)^(alpha-1)
once per call, so an element costs one log1p, one expm1 and one power (u)
or exp (u'), plus for u' a power where the two terms of the bracket differ
by a factor of two or more.  For t^-1.2 at alpha = 1.6 and n = 2048 the
kernel gets 15% of the band's elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gammafn import gamma
from .green import bracket_values, checked_alpha, column_terms
from .powersum import ONE, PowerSum

__all__ = [
    "GAUSS_ORDER",
    "GRADING_MAX",
    "ConditionHError",
    "ConditionReport",
    "WeightSpec",
    "GradedMesh",
    "as_weight_spec",
    "check_condition_h",
    "build_mesh",
    "apply_green",
    "apply_green_derivative",
    "apply_dalpha_minus_1",
]

GAUSS_ORDER = 12
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GAUSS_ORDER)

# Unbounded grading collapses the early panels below double-precision node
# spacing, so the exponent is clamped.
GRADING_MIN = 1.0
GRADING_MAX = 8.0

MIN_PANELS = 16


class ConditionHError(ValueError):
    """The forcing fails the integrability condition at the origin."""


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the origin-integrability check."""

    satisfied: bool
    exponent_margin: float


@dataclass(frozen=True)
class WeightSpec:
    """A weight h(s) = s^(-beta) * regular(s), regular a PowerSum on [0, 1].

    ``beta >= 0`` is the declared singularity exponent; ``regular`` must
    have only nonnegative exponents so h is continuous on (0, 1].  The same
    structure also carries signed forcings g (the Green representation is
    linear and sign-agnostic); nonnegativity matters only to the positivity
    theory of the nonlinear solver.
    """

    beta: float
    regular: PowerSum = ONE

    def __post_init__(self):
        if not math.isfinite(self.beta) or self.beta < 0.0:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")
        if not self.regular.is_zero and self.regular.min_exponent < 0.0:
            raise ValueError(
                "regular factor must have nonnegative exponents, got minimum"
                f" {self.regular.min_exponent}"
            )

    @property
    def min_regular_exponent(self) -> float:
        return 0.0 if self.regular.is_zero else self.regular.min_exponent

    def singular_decomposition(self) -> tuple[float, PowerSum]:
        """(effective origin exponent, regular factor with min exponent 0).

        Shifting the smallest regular exponent into beta gives the true
        algebraic order at 0, which may be negative (h vanishing at 0).
        """
        lam = self.min_regular_exponent
        return self.beta - lam, self.regular.times_power(-lam)

    def __call__(self, s):
        scalar = np.isscalar(s)
        arr = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.power(arr, -self.beta) * self.regular(arr)
        return float(out) if scalar else out


def as_weight_spec(g) -> WeightSpec:
    """Normalize a PowerSum forcing (possibly signed) into WeightSpec form."""
    if isinstance(g, WeightSpec):
        return g
    if isinstance(g, PowerSum):
        if g.is_zero:
            return WeightSpec(0.0, g)
        beta = max(0.0, -g.min_exponent)
        return WeightSpec(beta, g.times_power(beta))
    raise TypeError(f"expected WeightSpec or PowerSum, got {type(g).__name__}")


def check_condition_h(w, alpha: float) -> ConditionReport:
    """Integrability of s^(alpha-1) h(s) at the origin, by exponent count.

    With h ~ s^(lam_min - beta) near 0, the integral converges iff
    alpha - beta + lam_min > 0; the margin is that quantity.
    """
    w = as_weight_spec(w)
    alpha = checked_alpha(alpha)
    margin = alpha - w.beta + w.min_regular_exponent
    return ConditionReport(satisfied=margin > 0.0, exponent_margin=margin)


@dataclass(frozen=True, eq=False)
class GradedMesh:
    """Nodes t_i = (i/n)^grading, i = 0..n, clustering toward the origin."""

    n: int
    grading: float
    nodes: np.ndarray

    def __post_init__(self):
        if self.n < MIN_PANELS:
            raise ValueError(f"need at least {MIN_PANELS} panels, got {self.n}")
        if len(self.nodes) != self.n + 1:
            raise ValueError("node count must be n + 1")
        if self.nodes[0] != 0.0 or self.nodes[-1] != 1.0:
            raise ValueError("mesh must span [0, 1] exactly")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("mesh nodes must be strictly ascending")
        self.nodes.setflags(write=False)

    @classmethod
    def from_grading(cls, n: int, grading: float) -> "GradedMesh":
        i = np.arange(n + 1, dtype=float)
        return cls(n=n, grading=grading, nodes=(i / n) ** grading)


def grading_for_margin(margin: float) -> float:
    """Grading exponent 2/margin, clamped to [1, 8]."""
    return min(max(2.0 / margin, GRADING_MIN), GRADING_MAX)


def build_mesh(n: int, w, alpha: float) -> GradedMesh:
    """Graded mesh adapted to the weight's integrability margin."""
    if n < MIN_PANELS:
        raise ValueError(f"need at least {MIN_PANELS} panels, got {n}")
    report = check_condition_h(w, alpha)
    if not report.satisfied:
        raise ConditionHError(
            "condition (H) violated: exponent margin"
            f" {report.exponent_margin:.6g} <= 0"
        )
    return GradedMesh.from_grading(n, grading_for_margin(report.exponent_margin))


# --- operator evaluation -----------------------------------------------------


def apply_green(t, g_singular_exponent, g_regular, alpha, mesh):
    """int_0^1 G(t,s) g(s) ds for g(s) = s^(-beta_g) g_regular(s).

    ``t`` is a scalar in [0, 1] (a float is returned) or an array of such
    targets (an array of the same shape is returned).  ``g_regular`` must
    accept numpy arrays of s in [0, 1].  The value is exactly 0.0 at t = 0
    and t = 1 where the kernel vanishes.
    """
    alpha = checked_alpha(alpha)
    t = _checked_t(t, "[0, 1]")
    out = np.zeros(t.shape)
    inner = (t > 0.0) & (t < 1.0)
    out[inner] = _green_integrals(
        "u", t[inner], g_singular_exponent, g_regular, alpha, mesh
    )
    return _as_result(out / gamma(alpha))


def apply_green_derivative(t, g_singular_exponent, g_regular, alpha, mesh):
    """u'(t) of the Green representation for t (scalar or array) in (0, 1)."""
    alpha = checked_alpha(alpha)
    t = _checked_t(t, "(0, 1)")
    total = _green_integrals(
        "du", t.ravel(), g_singular_exponent, g_regular, alpha, mesh
    )
    return _as_result(total.reshape(t.shape) * (alpha - 1.0) / gamma(alpha))


def apply_dalpha_minus_1(t, g_singular_exponent, g_regular, alpha, mesh):
    """D^(alpha-1)u(t) of the Green representation for t (scalar or array) in (0, 1].

    The integrand has no kink at s = t (only the integral splits there), so
    no substitution is needed on the abutting panel; t = 1 is admitted with
    an empty right part.
    """
    alpha = checked_alpha(alpha)
    t = _checked_t(t, "(0, 1]")
    total = _green_integrals(
        "dalpha", t.ravel(), g_singular_exponent, g_regular, alpha, mesh
    )
    return _as_result(total.reshape(t.shape))


# --- internals ---------------------------------------------------------------

# Targets are taken in ascending row blocks of _TILE (the panels each target
# owns are built per block), and each block in sub-blocks of _TILE // 6 rows
# for the far field and the band.  The band is evaluated in tiles of
# _TILE // 6 rows by 6 * _TILE columns, so no temporary of the bracket
# kernel holds more than _TILE**2 doubles.  glibc mmaps blocks of 128 KiB
# (its default mmap threshold; 128**2 doubles exactly) and trims the heap
# top once 128 KiB lie free there; with square tiles of side 128, and in
# some heap layouts from 104 up, every tile faulted in fresh pages: about
# 70k-80k minor faults per n = 2048 solve, against about 1.3k at 96 (72 KiB
# per temporary).  The two sums past the split take the same tiles.  The
# rows of a sub-block share the cut of the smallest and each row's band ends
# at its own panel, so the rows should lie close together: at n = 2048
# (t^-1.2, alpha = 1.6) the kernel tiles mask away 12.5% of what they
# evaluate and the two-sum tiles 16.6%.
_TILE = 96

# Far-field cut.  A sub-block of targets sums the shared panels below the
# last mesh node t_c <= EPS*t_min from power moments (_LeftBracket); the
# shared panels from t_c up to each target's own left panel, the band, go
# through the exact bracket kernel or the two sums.  A higher cut shrinks
# the band (O(n^2)) and lengthens the series (O(n M)); at 0.85, M is at
# most 268.
EPS = 0.85
# The series in s/t keeps the terms before the first index M whose tail
# bound |b_M| EPS^M / (1 - EPS) is below this.
_SERIES_TAIL = 2.0**-60
# Shared points per chunk of the moment stream: 256 points by at most 34 + 8
# power factors each stay below the 128 KiB mmap threshold.
_STREAM_POINTS = 256
# Floor of t - s on the band columns a row does not own, where s may reach
# t: the smallest normal double.  An owned t - s is at least the spacing of
# doubles at s >= t_1, far above it, and _TINY^e stays finite for e > -1.
_TINY = np.finfo(float).tiny


def _checked_t(t, interval: str) -> np.ndarray:
    # ``interval`` is "[0, 1]", "(0, 1)" or "(0, 1]"; NaN fails every test.
    t = np.asarray(t, dtype=float)
    ok = (t >= 0.0) if interval[0] == "[" else (t > 0.0)
    ok &= (t <= 1.0) if interval[-1] == "]" else (t < 1.0)
    if not np.all(ok):
        raise ValueError(f"t must lie in {interval}, got {float(t[~ok].flat[0])!r}")
    return t


def _as_result(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def _dalpha_bracket(s, alpha):
    # (1-s)^(a-1) - 1, the left kernel of D^(alpha-1)u; it is free of t.
    return np.expm1((alpha - 1.0) * np.log1p(-s))


def _origin_substitution_order(alpha: float, beta_g: float) -> int:
    margin = alpha - beta_g
    if margin <= 0.0:
        raise ConditionHError(
            f"forcing singularity exponent {beta_g} is not below the order"
            f" {alpha}; the Green integral diverges"
        )
    return max(1, math.ceil(2.0 / margin))


def _gauss(a, b):
    # Gauss-Legendre points and weights on the panels [a_i, b_i], one per row.
    half = 0.5 * (b - a)
    return a[:, None] + half[:, None] * (_GL_X + 1.0), half[:, None] * _GL_W


def _green_integrals(kind, t, beta_g, g_regular, alpha, mesh) -> np.ndarray:
    """Unscaled operator integrals at a 1-D array of targets.

    ``kind`` is "u" (Green integral), "du" (u' without its factor
    (alpha-1)/Gamma(alpha)) or "dalpha" (D^(alpha-1)u).  Targets lie in
    (0, 1), or (0, 1] for "dalpha".  The plain panels between mesh nodes
    are shared by all targets (_SharedPanels); each target also owns three
    panels (see _own_panels).  Targets are taken in ascending row blocks of
    _TILE.
    """
    if t.size == 0:
        return t
    beta_g = float(beta_g)
    m = _origin_substitution_order(alpha, beta_g)
    # exponent of the left bracket t^e (1-s)^(alpha-1) - (t-s)^e of u and u'
    e = alpha - 1.0 if kind == "u" else alpha - 2.0
    nodes = mesh.nodes
    panels = _SharedPanels.build(nodes, beta_g, g_regular, alpha)
    if kind != "dalpha":
        left = _LeftBracket(kind, alpha, nodes, panels)

    order = np.argsort(t, kind="stable")
    out = np.empty(len(t))
    step = _TILE // 6  # rows per sub-block of the left bracket
    for r0 in range(0, len(t), _TILE):
        rows = order[r0:r0 + _TILE]
        tb = t[rows]
        te = None if kind == "dalpha" else tb**e
        # nodes[:lo] < t <= nodes[lo]; nodes[hi] is the first node above t.
        lo = np.searchsorted(nodes, tb, side="left")
        hi = np.minimum(np.searchsorted(nodes, tb, side="right"), mesh.n)
        s, w, k = _own_panels(kind, tb, e, te, lo, hi, nodes, m, beta_g, alpha)
        g = np.split(g_regular(np.concatenate([x.ravel() for x in s])), 3)
        origin, tail, right = (
            np.sum(kj * wj * gj.reshape(kj.shape), axis=1)
            for wj, kj, gj in zip(w, k, g)
        )
        right += panels.right_sums[hi - 1]
        total = origin + tail
        if kind == "dalpha":
            # shared left panels j = 1..lo-2
            out[rows] = total + panels.left_sums[np.maximum(lo - 2, 0)] + right
            continue
        for q0 in range(0, len(rows), step):
            q = slice(q0, q0 + step)
            total[q] += left.sums(tb[q], te[q], lo[q])
        out[rows] = total + te * right
    return out


@dataclass(frozen=True)
class _SharedPanels:
    """Gauss points of the panels [nodes[j], nodes[j+1]], j = 1..n-1, row j-1.

    ``wg`` holds the weights times g; ``log_s``, ``pow_s`` are
    green.column_terms.  The t-free kernels over these panels reduce to
    prefix sums, left_sums[k] = sum over rows < k of ((1-s)^(alpha-1) - 1)
    w g (the left part of D^(alpha-1)u, and a part of u'), and suffix sums,
    right_sums[k] = sum over rows >= k of (1-s)^(alpha-1) w g (the right
    part of all three operators).
    """

    s: np.ndarray
    wg: np.ndarray
    log_s: np.ndarray
    pow_s: np.ndarray
    left_sums: np.ndarray
    right_sums: np.ndarray

    @classmethod
    def build(cls, nodes, beta_g, g_regular, alpha) -> "_SharedPanels":
        s, w = _gauss(nodes[1:-1], nodes[2:])
        wg = w * np.power(s, -beta_g) * g_regular(s.ravel()).reshape(s.shape)
        log_s, pow_s = column_terms(s, alpha)
        left_sums = np.append(0.0, np.cumsum(np.sum(np.expm1(log_s) * wg, axis=1)))
        right_sums = np.append(np.cumsum(np.sum(pow_s * wg, axis=1)[::-1])[::-1], 0.0)
        return cls(s, wg, log_s, pow_s, left_sums, right_sums)


def _series_coefficients(e: float) -> np.ndarray:
    """b_m = (-1)^m C(e, m), m = 1..M-1, for e in (-1, 1].

    (1-x)^e - 1 = sum b_m x^m.  |b_m| does not increase, so for x <= EPS
    the terms dropped from M on sum to at most |b_M| EPS^M / (1 - EPS),
    below _SERIES_TAIL.  For 0 < e < 1 every b_m < 0, for e < 0 every
    b_m > 0; e = 1 keeps the one term -x and e = 0 none.
    """
    coeffs = []
    b = 1.0
    while True:
        m = len(coeffs) + 1
        b *= (m - 1.0 - e) / m
        if abs(b) * EPS**m / (1.0 - EPS) < _SERIES_TAIL:
            return np.array(coeffs)
        coeffs.append(b)


class _LeftBracket:
    """Sums of the left bracket of u or u' over the shared panels left of t.

    A target t with nodes[lo-1] < t <= nodes[lo] sums B_e(t, s) w(s) g(s)
    over the shared panels j = 1..lo-2.  The targets of one call share one
    cut, the last node t_c <= EPS*t_min; below it, j < c, lie the far
    panels, where x = s/t <= t_c/t <= EPS for every target of the call.
    With (1-x)^e - 1 = sum_m b_m x^m (_series_coefficients)

        u  (e = alpha-1):  B_e = t^e ((1-s)^e - (1-x)^e)
                               = t^e sum_m b_m (t^m - 1) x^m,
        u' (e = alpha-2):  B_e = t^e [((1-s)^(alpha-1) - 1) - sum_m b_m x^m],

    where no sum subtracts two terms of one sign.  The far panels thus need
    only the moments Phi_m(c) = sum (s/t_c)^m w g over the shared points
    s < t_c: their x-moments are (t_c/t)^m Phi_m(c).  Phi(1) = 0, and a
    higher cut c' takes Phi(c') = (t_c/t_c')^m Phi(c) plus the moments about
    t_c' of the points in [t_c, t_c').  Every factor is at most 1, so
    nothing overflows, and what underflows lies below the double range
    anyway.  Only the current Phi is kept, so targets must come in
    ascending order across calls.  The band, panels c..lo-2, goes through
    the bracket kernel up to a column ``split``; from there on the two terms
    of B_e differ by a factor of two or more in every row, so they are
    summed apart and subtracted once per row (_band).
    """

    def __init__(self, kind, alpha, nodes, panels: _SharedPanels):
        self.u = kind == "u"
        self.alpha = alpha
        self.e = alpha - 1.0 if self.u else alpha - 2.0
        self.nodes, self.panels = nodes, panels
        self.b = _series_coefficients(self.e)
        self.m = np.arange(1.0, len(self.b) + 1.0)
        # (s/t_c)^m = (s/t_c)^(8q) (s/t_c)^(j+1) for m = 8q + j + 1: Q + 8
        # exps per point give all M powers.
        self.m_coarse = 8.0 * np.arange(-(-len(self.b) // 8))
        self.m_fine = np.arange(1.0, 9.0)
        self.phi = np.zeros(len(self.b))
        self.cut = 1
        # the band's columns, flattened
        self.s, self.wg, self.log_s, self.pow_s = (
            x.ravel() for x in (panels.s, panels.wg, panels.log_s, panels.pow_s)
        )

    def sums(self, t, te, lo):
        """The sums at ascending targets ``t``, with te = t^e and lo as above."""
        # t_c <= EPS * t[0]; no shared point lies below t_1
        cut = max(int(np.searchsorted(self.nodes, EPS * t[0], side="right")) - 1, 1)
        far_sum = self._series(t, cut)
        if not self.u:
            far_sum = self.panels.left_sums[cut - 1] - far_sum
        stop = GAUSS_ORDER * np.maximum(lo - 2, 0)
        return te * far_sum + self._band(t, te, GAUSS_ORDER * (cut - 1), stop)

    def _series(self, t, cut):
        # sum_m b_m (t^m - 1) x^m (u) or sum_m b_m x^m (u') over s < t_c
        if not len(self.b) or cut == 1:
            return np.zeros(len(t))
        self._advance(cut)
        log_t = np.log(t)[:, None]
        x_moments = np.exp((math.log(self.nodes[cut]) - log_t) * self.m)
        x_moments *= self.phi
        if self.u:
            x_moments *= np.expm1(log_t * self.m)
        return x_moments @ self.b

    def _advance(self, cut):
        # Phi(cut) from Phi(self.cut), adding the shared points in
        # [t_(self.cut), t_cut) in chunks of _STREAM_POINTS.
        if cut <= self.cut:
            return
        top = self.nodes[cut]
        self.phi *= np.exp(math.log(self.nodes[self.cut] / top) * self.m)
        stop = GAUSS_ORDER * (cut - 1)
        for p0 in range(GAUSS_ORDER * (self.cut - 1), stop, _STREAM_POINTS):
            p = slice(p0, min(p0 + _STREAM_POINTS, stop))
            log_r = np.log(self.s[p] / top)[:, None]
            coarse = log_r * self.m_coarse
            np.exp(coarse, out=coarse)
            coarse *= self.wg[p, None]
            self.phi += (coarse.T @ np.exp(log_r * self.m_fine)).ravel()[:len(self.b)]
        self.cut = cut

    def _split_bound(self, t):
        # From s = this bound on, the two terms of B_e at t differ by a
        # factor of two or more: t^e (1-s)^(alpha-1) >= 2 (t-s)^e for u once
        # s >= K t / (1 + K - t), K = 2^(1/e) - 1, and (t-s)^e >= 2 t^e >=
        # 2 t^e (1-s)^(alpha-1) for u' once s >= t (1 - 2^(1/e)).  Both
        # increase with t.  For e = 0 (u' at alpha = 2, B = -s) the terms are
        # 1 - s and 1 and never split; for 0 < e <= 2^-10 (u at alpha up to
        # 1 + 2^-10) K overflows, and the bound would lie within t (1-t)/K
        # of t, closer than any double below t, so no column splits either.
        if self.e < 0.0:
            return (1.0 - 2.0 ** (1.0 / self.e)) * t
        if self.e > 2.0**-10:
            k = 2.0 ** (1.0 / self.e) - 1.0
            return k * t / (1.0 + k - t)
        return math.inf

    def _band(self, t, te, start, stop):
        # The bracket over the columns start..stop-1 of each row.  Columns
        # from ``split`` on, where the two terms differ by a factor of two
        # or more in every row (condition number at most 3), are summed term
        # by term; those before it go through the bracket kernel.
        hi = int(stop.max())
        bound = self._split_bound(t[-1])
        # The two sums cost a second pass, which pays only when it takes at
        # least half of the band's columns.  At small n the rows of a
        # sub-block spread widely (t_max/t_min >= 1.8 at n = 128, grading
        # 5), so the split at t_max leaves the two sums a few columns, most
        # of them past the rows' stops; taking them anyway cost 8% of an
        # n = 128 solve.
        mid = (start + hi) // 2
        if mid < hi and self.s[mid] >= bound:
            split = start + int(self.s[start:mid].searchsorted(bound))
        else:
            split = hi
        total = self._kernel_tiles(t, te, start, split, stop)
        if split < hi:
            total += self._two_sums(t, te, split, hi, stop)
        return total

    @staticmethod
    def _tiles(start, end, stop):
        # The columns start..end-1 in tiles of 6 * _TILE, each with the mask
        # of the columns that each row owns (those before its stop), or
        # None where every row owns the whole tile.
        owned = stop.min()
        for c0 in range(start, end, 6 * _TILE):
            cols = slice(c0, min(c0 + 6 * _TILE, end))
            if cols.stop <= owned:
                yield cols, None
            else:
                yield cols, np.arange(cols.start, cols.stop) < stop[:, None]

    def _kernel_tiles(self, t, te, start, end, stop):
        # The bracket kernel over the columns start..min(stop, end)-1 of each
        # row, in tiles of len(t) rows.
        total = np.zeros(len(t))
        tc, tec = t[:, None], te[:, None]
        for cols, mine in self._tiles(start, end, stop):
            args = (tc, self.s[None, cols], self.alpha, self.e, tec,
                    (self.log_s[cols], self.pow_s[cols]))
            if mine is None:
                total += bracket_values(*args) @ self.wg[cols]
                continue
            # columns at or past a row's stop may have s >= t
            with np.errstate(invalid="ignore", divide="ignore"):
                kern = bracket_values(*args)
            total += np.where(mine, kern, 0.0) @ self.wg[cols]
        return total

    def _two_sums(self, t, te, split, hi, stop):
        # t^e sum (1-s)^(alpha-1) w g - sum (t-s)^e w g over the columns
        # split..stop-1 of each row: the first sum from one running sum over
        # the columns, the second in the tiles of _kernel_tiles, with
        # (t-s)^e from the exact difference.  The columns a row does not own
        # (where s may reach t) take the floor _TINY and are zeroed after the
        # power.
        running = np.zeros(hi - split + 1)
        np.multiply(self.pow_s[split:hi], self.wg[split:hi], out=running[1:])
        np.cumsum(running[1:], out=running[1:])
        total = te * running[np.maximum(stop - split, 0)]
        tc = t[:, None]
        for cols, mine in self._tiles(split, hi, stop):
            x = tc - self.s[cols]
            if mine is not None:
                np.maximum(x, _TINY, out=x)
            np.power(x, self.e, out=x)
            if mine is not None:
                x *= mine
            total -= x @ self.wg[cols]
        return total


def _own_panels(kind, t, e, te, lo, hi, nodes, m, beta_g, alpha):
    """Points, weights and kernel values of the panels each target owns.

    Three (len(t), GAUSS_ORDER) arrays each, for: the origin panel, the left
    panel ending at t, and the right panel [t, nodes[hi]].  The weights
    carry s^(-beta_g) and the Jacobians; the right kernel is (1-s)^(alpha-1).
    ``e`` is the exponent of the left bracket of u or u' and ``te`` is t^e
    (unused for "dalpha").
    """
    a1 = alpha - 1.0
    tc = t[:, None]
    # t inside the first mesh panel: the origin panel ends at t, or at t/2
    # to keep it apart from the s = t substitution of u and u'.
    cut = t if kind == "dalpha" else 0.5 * t
    first = lo == 1
    origin_end = np.where(first, cut, nodes[1])
    tail_start = np.where(first, cut, nodes[lo - 1])

    # Origin panel under s = tau^m; the Jacobian and the singular power fold
    # into one smooth tau power.
    tau_hi = origin_end ** (1.0 / m)
    tau = 0.5 * tau_hi[:, None] * (_GL_X + 1.0)
    s0 = tau**m
    w0 = 0.5 * tau_hi[:, None] * _GL_W * m * np.power(tau, m - 1.0 - m * beta_g)
    if kind == "dalpha":
        k0 = _dalpha_bracket(s0, alpha)
    else:
        k0 = bracket_values(tc, s0, alpha, e, te[:, None])

    # Left panel ending at t.  For u and u' it is mapped by s = t - tau^p,
    # p = 1/(alpha-1): (t-s)^(alpha-1) becomes tau, and (t-s)^(alpha-2) ds
    # reduces to dtau/(alpha-1).
    if kind == "dalpha":
        s1, w1 = _gauss(tail_start, t)
        w1 = w1 * np.power(s1, -beta_g)
        k1 = _dalpha_bracket(s1, alpha)
    else:
        p = 1.0 / a1
        tau_hi = (t - tail_start) ** a1
        tau = 0.5 * tau_hi[:, None] * (_GL_X + 1.0)
        s1 = tc - tau**p
        w1 = 0.5 * tau_hi[:, None] * _GL_W * p * np.power(s1, -beta_g)
        if kind == "u":
            k1 = np.power(tc * (1.0 - s1), a1) - tau
            w1 = w1 * np.power(tau, p - 1.0)
        else:
            k1 = te[:, None] * np.power(1.0 - s1, a1) * np.power(tau, p - 1.0)
            k1 -= 1.0

    s2, w2 = _gauss(t, nodes[hi])
    w2 = w2 * np.power(s2, -beta_g)
    k2 = np.power(1.0 - s2, a1)
    return (s0, s1, s2), (w0, w1, w2), (k0, k1, k2)
