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
one pass, and several operators at one set of targets (apply_operators)
share that pass: the shared panels, the row blocks, the values of g_reg,
the right panel of each target and the one moment stream of the far field.
g_reg is evaluated once at each quadrature point: in one call on the plain
panels between mesh nodes, which all targets share, and in one call per
block of targets on the 12 points of each panel the targets own (origin
panel, left panel ending at t, right panel starting at t; u and u' use the
same points, D^(alpha-1)u its own origin and left panels).  Over the shared
panels the parts that do not depend on t reduce to prefix and suffix sums:
(1-s)^(alpha-1) in the right parts of all three operators, and both kernels
of D^(alpha-1)u.  The left brackets of u and u' depend on t.  The sorted
targets are taken in sub-blocks of 16 that split their shared left panels
at one cut, the last mesh node t_c <= EPS*t_min (EPS = 0.85).  Below t_c,
on the far panels, x = s/t <= 0.85 for every target of the sub-block, and
the bracket is t^e times an exact power series in x with the binomial
coefficients of (1-x)^e, cut at a 2^-60 tail; no sum in it subtracts two
terms of one sign.  The far panels thus reduce to power moments about t_c,
streamed up the mesh once per sub-block; the M powers of a point (M of
about 190 to 270) are products of two short tables, M/8 + 8 exps.  The
moments and the factors (t_c/t)^m do not depend on e, so u and u' read one
stream, as long as the longer of their series (one set of moments for
several target kernels, the economy of the multipole method: Greengard and
Rokhlin, J. Comput. Phys. 73, 1987).  The
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
    "apply_operators",
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

# The interval each operator's targets must lie in.
_DOMAINS = {"u": "[0, 1]", "du": "(0, 1)", "dalpha": "(0, 1]"}


def apply_operators(kinds, t, g_singular_exponent, g_regular, alpha, mesh):
    """Several operators of the Green representation at one set of targets.

    ``kinds`` is a sequence of "u" (apply_green), "du"
    (apply_green_derivative) and "dalpha" (apply_dalpha_minus_1).  A tuple
    with one value per kind is returned, in the order of ``kinds``, each as
    the named function returns it; ``t`` must lie in the interval of every
    kind requested.  The kinds share one assembly pass: the shared panels,
    one evaluation of g_regular per quadrature point, the right panel each
    target owns and, for u and u', the far-field moments.
    """
    alpha = checked_alpha(alpha)
    t = np.asarray(t, dtype=float)
    for kind in kinds:
        if kind not in _DOMAINS:
            raise ValueError(f"unknown operator {kind!r}")
        _checked_t(t, _DOMAINS[kind])
    # u vanishes at t = 0 and t = 1; D^(alpha-1)u is computed at t = 1.
    keep = (t > 0.0) & ((t < 1.0) | ("dalpha" in kinds))
    values = _green_integrals(
        tuple(kinds), t[keep], g_singular_exponent, g_regular, alpha, mesh
    )
    results = []
    for kind, value in zip(kinds, values):
        out = np.zeros(t.shape)
        out[keep] = value
        if kind == "u":
            out[t == 1.0] = 0.0
            out = out / gamma(alpha)
        elif kind == "du":
            out = out * (alpha - 1.0) / gamma(alpha)
        results.append(_as_result(out))
    return tuple(results)


def apply_green(t, g_singular_exponent, g_regular, alpha, mesh):
    """int_0^1 G(t,s) g(s) ds for g(s) = s^(-beta_g) g_regular(s).

    ``t`` is a scalar in [0, 1] (a float is returned) or an array of such
    targets (an array of the same shape is returned).  ``g_regular`` must
    accept numpy arrays of s in [0, 1].  The value is exactly 0.0 at t = 0
    and t = 1 where the kernel vanishes.
    """
    return apply_operators(("u",), t, g_singular_exponent, g_regular, alpha, mesh)[0]


def apply_green_derivative(t, g_singular_exponent, g_regular, alpha, mesh):
    """u'(t) of the Green representation for t (scalar or array) in (0, 1)."""
    return apply_operators(("du",), t, g_singular_exponent, g_regular, alpha, mesh)[0]


def apply_dalpha_minus_1(t, g_singular_exponent, g_regular, alpha, mesh):
    """D^(alpha-1)u(t) of the Green representation for t (scalar or array) in (0, 1].

    The integrand has no kink at s = t (only the integral splits there), so
    no substitution is needed on the abutting panel; t = 1 is admitted with
    an empty right part.
    """
    return apply_operators(
        ("dalpha",), t, g_singular_exponent, g_regular, alpha, mesh
    )[0]


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
# |b_m| <= 1, so the tail test holds by index 268 at EPS = 0.85 for every e.
_SERIES_CAP = math.ceil(math.log(_SERIES_TAIL * (1.0 - EPS)) / math.log(EPS))
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


def _bracket_exponent(kind, alpha):
    # e of the left bracket t^e (1-s)^(alpha-1) - (t-s)^e of u and u'
    return alpha - 1.0 if kind == "u" else alpha - 2.0


def _green_integrals(kinds, t, beta_g, g_regular, alpha, mesh):
    """Unscaled operator integrals at a 1-D array of targets, one array per kind.

    ``kinds`` is a tuple of "u" (Green integral), "du" (u' without its
    factor (alpha-1)/Gamma(alpha)) and "dalpha" (D^(alpha-1)u).  Targets
    lie in (0, 1]; t = 1 is not admitted for "du".  The plain panels
    between mesh nodes are shared by all targets (_SharedPanels); each
    target also owns three panels (see _own_panels).  Targets are taken in
    ascending row blocks of _TILE, once for all kinds.
    """
    if t.size == 0:
        return tuple(np.empty(0) for _ in kinds)
    beta_g = float(beta_g)
    m = _origin_substitution_order(alpha, beta_g)
    nodes = mesh.nodes
    panels = _SharedPanels.build(nodes, beta_g, g_regular, alpha)
    # the kinds with a left bracket, u last (see _LeftBracket)
    brackets = tuple(kind for kind in ("du", "u") if kind in kinds)
    if brackets:
        left = _LeftBracket(brackets, alpha, nodes, panels)

    order = np.argsort(t, kind="stable")
    # Allocated after the shared panels: allocated before them, these small
    # arrays changed glibc's heap layout so that an n = 2048 solve faulted
    # in 367 fresh pages instead of 318 and ran about 5% slower.
    out = tuple(np.empty(len(t)) for _ in kinds)
    step = _TILE // 6  # rows per sub-block of the left bracket
    for r0 in range(0, len(t), _TILE):
        rows = order[r0:r0 + _TILE]
        tb = t[rows]
        te = [tb ** _bracket_exponent(kind, alpha) for kind in brackets]
        # nodes[:lo] < t <= nodes[lo]; nodes[hi] is the first node above t.
        lo = np.searchsorted(nodes, tb, side="left")
        hi = np.minimum(np.searchsorted(nodes, tb, side="right"), mesh.n)
        s, parts, right = _own_panels(
            kinds, tb, dict(zip(brackets, te)), lo, hi, nodes, m, beta_g, alpha
        )
        g = np.split(g_regular(np.concatenate([x.ravel() for x in s])), len(s))
        g = [gj.reshape(-1, GAUSS_ORDER) for gj in g]
        right = np.sum(right * g[-1], axis=1) + panels.right_sums[hi - 1]
        # origin panel plus left panel ending at t, then the shared left panels
        total = {
            kind: np.sum(kw0 * g[j0], axis=1) + np.sum(kw1 * g[j1], axis=1)
            for kind, ((j0, kw0), (j1, kw1)) in parts.items()
        }
        if brackets:
            totals = [total[kind] for kind in brackets]
            for q0 in range(0, len(rows), step):
                q = slice(q0, q0 + step)
                sums = left.sums(tb[q], [x[q] for x in te], lo[q])
                for acc, sk in zip(totals, sums):
                    acc[q] += sk
        for kind, values in zip(kinds, out):
            if kind == "dalpha":
                # shared left panels j = 1..lo-2
                left_part = panels.left_sums[np.maximum(lo - 2, 0)]
                values[rows] = total[kind] + left_part + right
            else:
                values[rows] = total[kind] + te[brackets.index(kind)] * right
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
    b_m > 0; e = 1 keeps the one term -x and e = 0 none.  The recurrence
    b_m = b_(m-1) (m-1-e)/m is the running product of gl_weights, taken to
    _SERIES_CAP terms, past which the tail test holds for any e.
    """
    m = np.arange(1.0, _SERIES_CAP + 1.0)
    b = np.cumprod((m - 1.0 - e) / m)
    below = np.abs(b) * EPS**m / (1.0 - EPS) < _SERIES_TAIL
    return b[:int(np.argmax(below))]


class _LeftBracket:
    """Sums of the left brackets of u and u' over the shared panels left of t.

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

    Phi and the factors (t_c/t)^m do not depend on e, so the kinds of one
    instance ("u", "du" or both) share one moment stream, as long as the
    longer of their series, and one table of (t_c/t)^m per call; each kind
    has its own band.  Sums come back in the order of ``kinds``, which must
    end with "u" if it holds "u".
    """

    def __init__(self, kinds, alpha, nodes, panels: _SharedPanels):
        # u multiplies its factors t^m - 1 into the shared table of
        # (t_c/t)^m Phi_m in place, so it must be the last kind
        if "u" in kinds[:-1]:
            raise ValueError(f"u must be the last kind, got {kinds!r}")
        self.kinds = kinds
        self.alpha = alpha
        self.es = tuple(_bracket_exponent(kind, alpha) for kind in kinds)
        self.nodes, self.panels = nodes, panels
        self.b = tuple(_series_coefficients(e) for e in self.es)
        size = max(len(b) for b in self.b)
        self.m = np.arange(1.0, size + 1.0)
        # (s/t_c)^m = (s/t_c)^(8q) (s/t_c)^(j+1) for m = 8q + j + 1: Q + 8
        # exps per point give all M powers.
        self.m_coarse = 8.0 * np.arange(-(-size // 8))
        self.m_fine = np.arange(1.0, 9.0)
        self.phi = np.zeros(size)
        self.cut = 1
        # the band's columns, flattened
        self.s, self.wg, self.log_s, self.pow_s = (
            x.ravel() for x in (panels.s, panels.wg, panels.log_s, panels.pow_s)
        )

    def sums(self, t, te, lo):
        """The sums at ascending targets ``t``, one array per kind.

        ``te[i]`` is t^e of the i-th kind, and ``lo`` is as above.
        """
        # t_c <= EPS * t[0]; no shared point lies below t_1
        cut = max(int(np.searchsorted(self.nodes, EPS * t[0], side="right")) - 1, 1)
        start = GAUSS_ORDER * (cut - 1)
        stop = GAUSS_ORDER * np.maximum(lo - 2, 0)
        out = []
        for kind, e, te_k, far_sum in zip(self.kinds, self.es, te, self._series(t, cut)):
            if kind == "du":
                far_sum = self.panels.left_sums[cut - 1] - far_sum
            out.append(te_k * far_sum + self._band(t, te_k, e, start, stop))
        return out

    def _series(self, t, cut):
        # sum_m b_m (t^m - 1) x^m (u) or sum_m b_m x^m (u') over s < t_c,
        # one array per kind
        if not len(self.m) or cut == 1:
            return [np.zeros(len(t)) for _ in self.kinds]
        self._advance(cut)
        log_t = np.log(t)[:, None]
        x_moments = np.exp((math.log(self.nodes[cut]) - log_t) * self.m)
        x_moments *= self.phi
        out = []
        for kind, b in zip(self.kinds, self.b):
            x = x_moments[:, :len(b)]
            if kind == "u":  # the last kind: scale the table in place
                factor = log_t * self.m[:len(b)]
                x *= np.expm1(factor, out=factor)
            out.append(x @ b)
        return out

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
            self.phi += (coarse.T @ np.exp(log_r * self.m_fine)).ravel()[:len(self.m)]
        self.cut = cut

    @staticmethod
    def _split_bound(t, e):
        # From s = this bound on, the two terms of B_e at t differ by a
        # factor of two or more: t^e (1-s)^(alpha-1) >= 2 (t-s)^e for u once
        # s >= K t / (1 + K - t), K = 2^(1/e) - 1, and (t-s)^e >= 2 t^e >=
        # 2 t^e (1-s)^(alpha-1) for u' once s >= t (1 - 2^(1/e)).  Both
        # increase with t.  For e = 0 (u' at alpha = 2, B = -s) the terms are
        # 1 - s and 1 and never split; for 0 < e <= 2^-10 (u at alpha up to
        # 1 + 2^-10) K overflows, and the bound would lie within t (1-t)/K
        # of t, closer than any double below t, so no column splits either.
        if e < 0.0:
            return (1.0 - 2.0 ** (1.0 / e)) * t
        if e > 2.0**-10:
            k = 2.0 ** (1.0 / e) - 1.0
            return k * t / (1.0 + k - t)
        return math.inf

    def _band(self, t, te, e, start, stop):
        # The bracket over the columns start..stop-1 of each row.  Columns
        # from ``split`` on, where the two terms differ by a factor of two
        # or more in every row (condition number at most 3), are summed term
        # by term; those before it go through the bracket kernel.
        hi = int(stop.max())
        bound = self._split_bound(t[-1], e)
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
        total = self._kernel_tiles(t, te, e, start, split, stop)
        if split < hi:
            total += self._two_sums(t, te, e, split, hi, stop)
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

    def _kernel_tiles(self, t, te, e, start, end, stop):
        # The bracket kernel over the columns start..min(stop, end)-1 of each
        # row, in tiles of len(t) rows.
        total = np.zeros(len(t))
        tc, tec = t[:, None], te[:, None]
        for cols, mine in self._tiles(start, end, stop):
            args = (tc, self.s[None, cols], self.alpha, e, tec,
                    (self.log_s[cols], self.pow_s[cols]))
            if mine is None:
                total += bracket_values(*args) @ self.wg[cols]
                continue
            # columns at or past a row's stop may have s >= t
            with np.errstate(invalid="ignore", divide="ignore"):
                kern = bracket_values(*args)
            total += np.where(mine, kern, 0.0) @ self.wg[cols]
        return total

    def _two_sums(self, t, te, e, split, hi, stop):
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
            np.power(x, e, out=x)
            if mine is not None:
                x *= mine
            total -= x @ self.wg[cols]
        return total


def _origin_panel(end, m, beta_g):
    # Points and weights of the origin panels [0, end_i] under s = tau^m; the
    # Jacobian and the singular power fold into one smooth tau power.
    tau_hi = end ** (1.0 / m)
    tau = 0.5 * tau_hi[:, None] * (_GL_X + 1.0)
    w = 0.5 * tau_hi[:, None] * _GL_W * m * np.power(tau, m - 1.0 - m * beta_g)
    return tau**m, w


def _own_panels(kinds, t, te, lo, hi, nodes, m, beta_g, alpha):
    """Points of the panels each target owns, and each kind's weights on them.

    Returns (points, parts, right).  ``points`` is a list of (len(t),
    GAUSS_ORDER) arrays: for u and u' the origin panel and the left panel
    ending at t, which the two share; for D^(alpha-1)u its own two; last the
    right panel [t, nodes[hi]], which all kinds share.  ``parts`` maps each
    kind to its two (index into points, kernel times weight) pairs, and
    ``right`` is the right kernel (1-s)^(alpha-1) times the weights.  The
    weights carry s^(-beta_g) and the Jacobians; ``te`` maps each of u and
    u' that is asked for to t^e, e the exponent of its left bracket.
    """
    a1 = alpha - 1.0
    tc = t[:, None]
    first = lo == 1
    points, parts = [], {}
    if te:
        # t inside the first mesh panel: the origin panel ends at t/2, to
        # keep it apart from the s = t substitution.
        cut = 0.5 * t
        s0, w0 = _origin_panel(np.where(first, cut, nodes[1]), m, beta_g)
        # The left panel is mapped by s = t - tau^p, p = 1/(alpha-1):
        # (t-s)^(alpha-1) becomes tau, and (t-s)^(alpha-2) ds reduces to
        # dtau/(alpha-1).
        p = 1.0 / a1
        tau_hi = (t - np.where(first, cut, nodes[lo - 1])) ** a1
        tau = 0.5 * tau_hi[:, None] * (_GL_X + 1.0)
        s1 = tc - tau**p
        w1 = 0.5 * tau_hi[:, None] * _GL_W * p * np.power(s1, -beta_g)
        jacobian = np.power(tau, p - 1.0)
        for kind in te:
            k0 = bracket_values(tc, s0, alpha, _bracket_exponent(kind, alpha),
                                te[kind][:, None])
            if kind == "u":
                kw1 = (np.power(tc * (1.0 - s1), a1) - tau) * (w1 * jacobian)
            else:
                k1 = te[kind][:, None] * np.power(1.0 - s1, a1) * jacobian
                k1 -= 1.0
                kw1 = k1 * w1
            parts[kind] = [(0, k0 * w0), (1, kw1)]
        points += [s0, s1]
    if "dalpha" in kinds:
        # no substitution on the left panel; in the first mesh panel the
        # origin panel ends at t
        s0, w0 = _origin_panel(np.where(first, t, nodes[1]), m, beta_g)
        s1, w1 = _gauss(np.where(first, t, nodes[lo - 1]), t)
        w1 = w1 * np.power(s1, -beta_g)
        j = len(points)
        parts["dalpha"] = [
            (j, _dalpha_bracket(s0, alpha) * w0),
            (j + 1, _dalpha_bracket(s1, alpha) * w1),
        ]
        points += [s0, s1]

    s2, w2 = _gauss(t, nodes[hi])
    w2 = w2 * np.power(s2, -beta_g)
    points.append(s2)
    return points, parts, np.power(1.0 - s2, a1) * w2
