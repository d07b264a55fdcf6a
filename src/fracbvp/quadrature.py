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

Five constructions replace adaptivity:

* panels follow a graded mesh t_i = (i/n)^grading, refined toward 0;
* every panel past the origin panel whose ratio t_(j+1)/t_j exceeds 2 is
  split by geometric nodes into panels of ratio at most 2 (_panel_edges):
  at grading 8, [t_1, t_2] spans a ratio of 256, across which a forcing
  s^-1.3 varies by a factor of 1,350.  The split lives inside the
  quadrature; the mesh and its nodes are the ones asked for, and every
  mesh node is a panel edge;
* the origin panel [0, t_1], and for a target t <= t_1 the piece [0, t/2],
  takes the Gauss-Jacobi rule of the weight s^(1-beta_g) with the integrand
  kernel/s times g_reg: every left kernel vanishes like s, so kernel/s is
  smooth, and the rule holds the whole singular power at any margin;
* the piece [a, t] of the target's panel that ends at s = t takes, for u
  and u', the Gauss-Jacobi rule of the weight (t-s)^(alpha-2), which
  holds their whole term -(t-s)^e: u' has e = alpha-2 (the blow-up), and
  u, e = alpha-1 (the kink), takes the exact distance t - s as integrand.
  Their term t^e (1-s)^(alpha-1) does not see s = t and joins the right
  part, so on that piece no kernel is evaluated;
* the last panel [t_(P-1), 1] takes the Gauss-Jacobi rule of the weight
  (1-s)^(alpha-1), which holds the right kernel whole.

Fixed-order rules of 12 points, all from Golub-Welsch (Math. Comp. 23,
1969), are used: Gauss-Jacobi at s = 0, s = t and s = 1, Gauss-Legendre on
every other panel and piece.  With every algebraic singularity of the
kernel in a rule's weight, the closed-form round trips are at round-off
from n = 32: max nodal error 1.1e-14 at most, for alpha from 1.05 to 1.9
and margins down to 1e-4.

The three operators share one assembly and accept any array of targets in
one pass, and several operators at one set of targets (apply_operators)
share that pass: the shared panels, the values of g_reg, the pieces each
target owns and the prefix moments of the far field.  Below, "panel" and
"node" mean the split panels and their edges.  The targets are sorted
once.  g_reg is evaluated once at each quadrature point: in one call on
the shared panels, origin panel included, which all targets share,
and on the 12 points of each piece of its panel that a target owns: the
left piece [a, t] under the rule at s = t, which u and u' share, and
under Gauss-Legendre for D^(alpha-1)u, which subtracts the integral of g
over it from its prefix and suffix sums.  A target past the first panel
owns nothing else: the right parts of all kinds, and the t-free term of u
and u' over [a, t], are the suffix sum from a.  A target t <= t_1 has a =
t/2 and also owns the origin piece [0, t/2], which all kinds share, and
the Gauss-Legendre pieces [t/2, t] and [t, t_1] of the t-free term, as
the origin row's weights serve only kernels that vanish like s.  Only
these own pieces go in row blocks, of 768 targets with one g_reg call
each, so that each (row, Gauss point) array of a block, 768 x 12 doubles,
stays within a temporary budget of 72 KiB (_BUDGET).  The far field and
the band take all targets in one call, each in pieces that keep its
temporaries within the same budget.
Over the shared panels the parts that do not depend on t reduce to prefix
and suffix sums: (1-s)^(alpha-1) in the right parts of all three
operators, and both kernels of D^(alpha-1)u.  The left brackets of u and
u' depend on t.  Each target splits its shared left panels at its own
cut, the last node t_c <= EPS*t (EPS = 0.85).  Below t_c, on the far
panels, x = s/t <= 0.85, and the bracket is t^e times an exact power
series in x with the binomial coefficients of (1-x)^e, cut at a 2^-60
tail; no sum in it subtracts two terms of one sign.  The far panels thus
reduce to the target's x-moments, sum (s/t)^m w g over s < t_c, read off
running prefix sums over the panels of the power moments (s/2^E)^m w g.
These are built once up the mesh, in chunks of panels whose tops lie
within a factor of 8 below 2^E, so that (2^E/t)^m stays in range; between
chunks they are rescaled exactly by a power of two.  The M powers of a
point (M of about 190 to 270) are products of two short tables, M/8 + 8
exps, a batched matmul gives each panel's moments, and a matmul with a
triangle of ones their prefix sums.  The moments do not depend on e, so u
and u' read one set, as long as the longer of their series (one set of
moments for several target kernels, the economy of the multipole method:
Greengard and Rokhlin, J. Comput. Phys. 73, 1987).  The band, from t_c up
to the panel each target lies in, holds about 3% of the lower triangle at
grading 5 (n = 512 and 2048) and 15% at grading 1.  Each row sums its own
band columns and splits them at its own column, the first with s at or
above a closed-form bound in t: from there on the two terms of the
bracket differ by a factor of two or more, so their
difference has condition number at most 3 (Higham, Accuracy and Stability
of Numerical Algorithms, 2002, sec. 1.7) and they are summed apart:
t^e times the sum of (1-s)^(alpha-1) w g over the row's columns, in order,
minus sum (t-s)^e w g with (t-s)^e a power of the exact t - s.  An element
past the split costs two gathers, one subtraction, one power and its share
of a reduceat.  The
columns before the split go through the bracket kernel, and so do all of
them for u' at alpha = 2, where the bracket is -s.  Both take flat gathers
of the (t, s) pairs each row owns, so no element is evaluated and then
masked.  The kernel is given t^e and log1p(-s), (1-s)^(alpha-1) gathered,
so an element costs one log1p, one expm1 and one power (u) or exp (u'),
plus for u' a power where the two terms of the bracket differ by a factor
of two or more.  For t^-1.2 at alpha = 1.6 the kernel gets 8% of the
band's elements at n = 2048 and 9% at n = 512.
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


def _gauss_jacobi(order, b):
    # Golub-Welsch for the weight (1+x)^b on [-1, 1], b > -1: the nodes are
    # the eigenvalues of the Jacobi matrix of the polynomials P_n^(0,b), with
    # diagonal b/(b+2), then b^2 / (k (k+2)), and off-diagonal
    # 2n (n+b) / (k sqrt((k-1)(k+1))), k = 2n + b, n = 1..order-1; the
    # weights are 2^(b+1)/(b+1) v_0^2 from the first components of its unit
    # eigenvectors.  k-1 is formed as 2n-1+b, exact at n = 1 for b near -1.
    # At b = 0 this is Gauss-Legendre, with off-diagonal n / sqrt(4n^2 - 1)
    # to the last bit.  ``b`` may be a sequence: its rules, one row each,
    # come from one stacked eigh, which saves the overhead of a call per
    # rule (three rules: 64 us, against 108 us in three calls, on one 2.0
    # GHz Xeon vCPU).
    b = np.asarray(b, dtype=float)[..., None]
    n = np.arange(1.0, order)
    k = 2.0 * n + b
    diag = np.concatenate((b / (b + 2.0), b * b / (k * (k + 2.0))), axis=-1)
    off = (n + b) * (2.0 * n / k) / np.sqrt((2.0 * n - 1.0 + b) * (2.0 * n + 1.0 + b))
    i = np.arange(order)
    jacobi = np.zeros(diag.shape + (order,))
    jacobi[..., i, i] = diag
    jacobi[..., i[1:], i[:-1]] = off
    x, v = np.linalg.eigh(jacobi)
    return x, 2.0 ** (b + 1.0) / (b + 1.0) * v[..., 0, :] ** 2


_GL_X, _GL_W = _gauss_jacobi(GAUSS_ORDER, 0.0)

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
    one evaluation of g_regular per quadrature point, the pieces of its
    panel each target owns and, for u and u', the far-field moments.
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
    accept numpy arrays of s in [0, 1], of any shape, and return an array
    of that shape.  The value is exactly 0.0 at t = 0
    and t = 1 where the kernel vanishes.
    """
    return apply_operators(("u",), t, g_singular_exponent, g_regular, alpha, mesh)[0]


def apply_green_derivative(t, g_singular_exponent, g_regular, alpha, mesh):
    """u'(t) of the Green representation for t (scalar or array) in (0, 1)."""
    return apply_operators(("du",), t, g_singular_exponent, g_regular, alpha, mesh)[0]


def apply_dalpha_minus_1(t, g_singular_exponent, g_regular, alpha, mesh):
    """D^(alpha-1)u(t) of the Green representation for t (scalar or array) in (0, 1].

    The integrand has no kink at s = t (only the integral splits there), so
    the abutting piece takes Gauss-Legendre; t = 1 is admitted with an
    empty right part.
    """
    return apply_operators(
        ("dalpha",), t, g_singular_exponent, g_regular, alpha, mesh
    )[0]


# --- internals ---------------------------------------------------------------

# Temporary budget: 96**2 doubles, 72 KiB.  glibc mmaps blocks of 128 KiB
# (its default mmap threshold; 128**2 doubles exactly) and trims the heap
# top once 128 KiB lie free there; with band temporaries of 128**2 doubles,
# and in some heap layouts from 104**2 up, every temporary faulted in fresh
# pages: about 70k-80k minor faults per n = 2048 solve, against about 1.3k
# at 96**2.
_BUDGET = 96**2
# Only the pieces the targets own go in row blocks: _own_sums takes the
# sorted targets in blocks of _BUDGET // GAUSS_ORDER = 768 rows, so each
# (row, Gauss point) array of a block holds at most _BUDGET doubles, and
# g_regular takes the points of all of a block's pieces in one call.  Blocks
# of 96 rows took 6 g_regular calls for classify's 531 targets and 22 for an
# n = 2048 solve, where 768 rows take 1 and 3: classify ran 0.79x as long
# and an n = 2048 solve 0.83x.  The far field and the band take all targets
# in one call.  The band gathers the (row, column) pairs of groups of
# consecutive rows that hold at most _BUDGET pairs, and takes the range sums
# of its rows in runs whose columns span at most _BUDGET (_row_groups), so
# none of its temporaries holds more than _BUDGET doubles unless one row's
# band does.  The far field builds its prefix moments in chunks of panels
# whose power tables, and copies its targets' moment rows into a buffer
# whose rows, hold at most _BUDGET doubles (_far_series).

# Far-field cut.  Each target t sums the shared panels below its own cut,
# the last node t_c <= EPS*t, from power moments; the shared panels
# from t_c up to the panel the target lies in, the band, go through the
# exact bracket kernel or the two sums.  A higher cut shrinks the band
# (O(n^2)) and lengthens the series (O(n M)); at 0.85, M is at most 268.
EPS = 0.85
# The series in s/t keeps the terms before the first index M whose tail
# bound |b_M| EPS^M / (1 - EPS) is below this.
_SERIES_TAIL = 2.0**-60
# |b_m| <= 1, so the tail test holds by index 268 at EPS = 0.85 for every e.
_SERIES_CAP = math.ceil(math.log(_SERIES_TAIL * (1.0 - EPS)) / math.log(EPS))
# The panel tops of one chunk of prefix moments have binary exponents
# (frexp) within this many of each other.  With 2^E above the highest, each
# target's cut t_c >= 2^(E-3), so 2^E/t <= 8 EPS and no factor (2^E/t)^m
# exceeds (8 EPS)^268 < 1e224.
_EXPONENT_SPAN = 2


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
    lie in (0, 1]; t = 1 is not admitted for "du".  The mesh panels, split
    to ratios of at most 2 (_panel_edges), are shared by all targets
    (_SharedPanels), and the helpers take their edges as ``nodes``.  Each
    target also owns the left piece [a, t] of the panel it lies in, and in
    the first panel a few more (see _own_panels).  The targets are sorted
    once for all kinds: the pieces they own go in blocks of _BUDGET //
    GAUSS_ORDER rows (_own_sums), and the far field and the band take all
    of them in one call (_left_bracket_sums).
    """
    if t.size == 0:
        return tuple(np.empty(0) for _ in kinds)
    beta_g = float(beta_g)
    if not alpha - beta_g > 0.0:  # NaN fails too
        raise ConditionHError(
            f"forcing singularity exponent {beta_g} is not below the order"
            f" {alpha}; the Green integral diverges"
        )
    nodes = _panel_edges(mesh.nodes)
    panels = _SharedPanels.build(nodes, beta_g, g_regular, alpha)
    order = np.argsort(t, kind="stable")
    ts = t[order]
    # t^e of the kinds with a left bracket
    te = {
        kind: ts**_bracket_exponent(kind, alpha) for kind in kinds if kind != "dalpha"
    }
    # nodes[lo-1] < t <= nodes[lo]: t lies in panel lo-1
    lo = np.searchsorted(nodes, ts, side="left")
    total, right = _own_sums(kinds, ts, te, lo, nodes, beta_g, g_regular, alpha, panels)
    if te:  # the shared left panels
        left = _left_bracket_sums(tuple(te), ts, te, lo, alpha, nodes, panels)
        for kind, sums in zip(te, left):
            total[kind] += sums
    out = tuple(np.empty(len(t)) for _ in kinds)
    for kind, values in zip(kinds, out):
        if kind == "dalpha":  # shared left panels j = 0..lo-2
            values[order] = total[kind] + panels.left_sums[lo - 1] + right
        else:
            values[order] = total[kind] + te[kind] * right
    return out


def _panel_edges(nodes):
    # The mesh nodes, and inside each panel [t_j, t_(j+1)] past the origin
    # panel whose ratio r = t_(j+1)/t_j exceeds 2, the geometric nodes
    # t_j r^(i/m), i = 1..m-1, m = ceil(log2 r), which split it into m
    # panels of ratio r^(1/m) <= 2.  At i = 0 the factor is exactly 1, so
    # every mesh node is an edge.
    ratio = nodes[2:] / nodes[1:-1]
    m = np.ceil(np.log2(ratio)).astype(int)  # ratio > 1: m >= 1
    i = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
    edges = np.repeat(nodes[1:-1], m) * np.repeat(ratio, m) ** (i / np.repeat(m, m))
    return np.concatenate((nodes[:1], edges, nodes[-1:]))


@dataclass(frozen=True)
class _SharedPanels:
    """Gauss points of the shared panels [nodes[j], nodes[j+1]], one row each.

    Row j is panel j.  The weights carry s^(-beta_g); row 0, the origin
    panel, takes the Gauss-Jacobi rule ``origin`` of the weight s^(1-beta_g),
    its weights divided by s (_origin_panel), so that it integrates every
    left kernel, which vanishes like s, as kernel/s times g.  The last row,
    the panel ending at 1, takes the Gauss-Jacobi rule of the weight
    (1-s)^(alpha-1), whose weights hold that whole factor; only right_sums
    reads that row, so its pow_s is 1 and its log_s 0.  ``own`` is the
    Gauss-Jacobi rule of the weight (1+x)^(alpha-2), which the targets'
    left pieces take (_own_panels); the three rules are built once per
    pass.  ``wg`` holds the weights times g; ``log_s``, ``pow_s`` are
    green.column_terms.  The t-free kernels over these panels reduce to
    prefix sums, left_sums[k] = sum over rows < k of ((1-s)^(alpha-1) - 1)
    w g (the left part of D^(alpha-1)u, and a part of u'), and suffix sums,
    right_sums[k] = sum over rows >= k of (1-s)^(alpha-1) w g (the right
    part of all three operators).
    """

    origin: tuple
    own: tuple
    s: np.ndarray
    wg: np.ndarray
    log_s: np.ndarray
    pow_s: np.ndarray
    left_sums: np.ndarray
    right_sums: np.ndarray

    @classmethod
    def build(cls, nodes, beta_g, g_regular, alpha) -> "_SharedPanels":
        s, w = _gauss(nodes[:-1], nodes[1:])
        origin, last, own = zip(
            *_gauss_jacobi(GAUSS_ORDER, (1.0 - beta_g, alpha - 1.0, alpha - 2.0))
        )
        s[:1], w[:1] = _origin_panel(nodes[1:2], origin, beta_g)
        s[-1:], w[-1:], _ = _jacobi_pieces(nodes[-2:-1], nodes[-1:], alpha - 1.0, last)
        w[1:] *= np.power(s[1:], -beta_g)
        wg = w * g_regular(s)
        log_s, pow_s = column_terms(s, alpha)
        log_s[-1], pow_s[-1] = 0.0, 1.0
        left_sums = np.append(0.0, np.cumsum(np.sum(np.expm1(log_s) * wg, axis=1)))
        right_sums = np.append(np.cumsum(np.sum(pow_s * wg, axis=1)[::-1])[::-1], 0.0)
        return cls(origin, own, s, wg, log_s, pow_s, left_sums, right_sums)


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


def _left_bracket_sums(kinds, t, te, lo, alpha, nodes, panels: _SharedPanels):
    """Sums of the left brackets of u and u' over the shared panels left of t.

    ``kinds`` holds "u", "du" or both, ``t`` the ascending targets, ``te``
    maps each kind to t^e, and a target t with nodes[lo-1] < t <= nodes[lo]
    sums B_e(t, s) w(s) g(s) over the shared panels j = 0..lo-2 (row j is
    panel j, the origin panel row 0).  Each target has its own cut, the
    last node t_c <= EPS*t; below it, j < c, lie its far panels, where
    x = s/t <= EPS.  With (1-x)^e - 1 = sum_m b_m x^m (_series_coefficients)

        u  (e = alpha-1):  B_e = t^e ((1-s)^e - (1-x)^e)
                               = t^e sum_m b_m (t^m - 1) x^m,
        u' (e = alpha-2):  B_e = t^e [((1-s)^(alpha-1) - 1) - sum_m b_m x^m],

    where no sum subtracts two terms of one sign.  The far panels thus need
    only the target's x-moments X_m = sum (s/t)^m w g over the shared points
    s < t_c, which are read from running prefix sums over the panels, built
    once up the mesh in chunks of panels (_far_series, _prefix_moments).
    The band of a target, the columns of panels c..lo-2,
    goes through the bracket kernel up to the target's own column split;
    from there on the two terms of B_e differ by a factor of two or more,
    so they are summed apart and subtracted once per row (_band).

    The x-moments do not depend on e, so the kinds share one set of them,
    as long as the longer of their series; each kind has its own band.
    Sums come back in the order of ``kinds``.
    """
    # Each band starts at the first column of the target's cut c, the last
    # node t_c <= EPS * t.  The cuts are read back from there once the bands
    # are summed, so that one array of n indices fewer is held meanwhile.
    start = GAUSS_ORDER * (np.searchsorted(nodes, EPS * t, side="right") - 1)
    stop = GAUSS_ORDER * (lo - 1)
    es = [_bracket_exponent(kind, alpha) for kind in kinds]
    out = [
        _band(t, te[kind], e, start, stop, alpha, panels) for kind, e in zip(kinds, es)
    ]
    cuts = start // GAUSS_ORDER
    b = [_series_coefficients(e) for e in es]
    series = _far_series(kinds, t, cuts, b, nodes, panels)
    for kind, sums, far_sum in zip(kinds, out, series):
        if kind == "du":
            far_sum = panels.left_sums[cuts] - far_sum
        sums += te[kind] * far_sum
    return out


def _far_series(kinds, t, cuts, b, nodes, panels):
    # The far series of each kind, b[i] its coefficients: sum_m b_m (t^m -
    # 1) X_m for u, sum_m b_m X_m for u'.  A target with cut c reads its
    # x-moments as X_m = (2^E/t)^m C[c-1, m] from the prefix moments of the
    # chunk that holds panel c-1 (_prefix_moments).  The ascending targets'
    # rows C[c-1] are copied, chunk after chunk, into a buffer of _BUDGET // M
    # rows, on which the series runs.
    out = [np.zeros(len(t)) for _ in kinds]
    m = np.arange(1.0, max(len(bk) for bk in b) + 1.0)
    q = int(np.searchsorted(cuts, 1))  # the first target with far panels
    if not len(m) or q == len(t):
        return out
    x = np.empty((min(max(1, _BUDGET // len(m)), len(t) - q), len(m)))
    top = np.empty(len(x))  # 2^E of each buffered row
    k = 0  # rows in the buffer, those of targets q..q+k-1
    for j0, scale, moments in _prefix_moments(int(cuts[-1]), m, nodes, panels):
        # the targets whose last far panel c-1 lies in this chunk
        end = int(np.searchsorted(cuts, j0 + len(moments), side="right"))
        while q + k < end:
            r = slice(q + k, min(end, q + len(x)))
            rows = slice(k, k + r.stop - r.start)
            np.take(moments, cuts[r] - 1 - j0, axis=0, out=x[rows])
            top[rows] = scale
            k = rows.stop
            if k == len(x):
                _add_series(out, kinds, b, m, slice(q, q + k), t, x, top)
                q, k = q + k, 0
    if k:
        _add_series(out, kinds, b, m, slice(q, q + k), t, x[:k], top[:k])
    return out


def _add_series(out, kinds, b, m, q, t, x, top):
    # The far series of the targets t[q] into out, from the rows x of their
    # moments C[c-1] and the scales top = 2^E; x is overwritten.
    log_t = np.log(t[q])[:, None]
    factor = np.log(top / t[q])[:, None] * m
    x *= np.exp(factor, out=factor)  # X_m = (2^E/t)^m C[c-1, m]
    # u multiplies its factors t^m - 1 into x in place, so it reads x last
    for i in sorted(range(len(kinds)), key=lambda i: kinds[i] == "u"):
        xk = x[:, :len(b[i])]
        if kinds[i] == "u":
            factor = log_t * m[:len(b[i])]
            xk *= np.expm1(factor, out=factor)
        out[i][q] = xk @ b[i]


def _prefix_moments(count, m, nodes, panels):
    # The prefix moments over the shared panels j = 0..count-1, in chunks of
    # consecutive panels: for each chunk (j0, 2^E, C), C[i] = sum over the
    # points of panels 0..j0+i of (s/2^E)^m w g, E the frexp exponent of the
    # highest panel top of the chunk.  The tops of a chunk span at most
    # _EXPONENT_SPAN exponents, and its power table holds at most _BUDGET
    # doubles; C carries over to the next chunk rescaled exactly, by
    # 2^(-m dE).  Every power s/2^E is below 1, so nothing overflows, and
    # what underflows lies below the double range once scaled by 2^E/t.
    # (s/2^E)^m = (s/2^E)^(8q) (s/2^E)^(j+1) for m = 8q + j + 1: Q + 8 exps
    # per point give all M powers, and a batched matmul a panel's moments.
    m_coarse, m_fine = m[::8] - 1.0, np.arange(1.0, 9.0)
    exps = np.frexp(nodes[1:count + 1])[1]
    size = min(max(1, _BUDGET // (GAUSS_ORDER * len(m_coarse))), count)
    prefix = np.tri(size)  # sums over the panels of a chunk, in order
    carry, e_prev, j0 = np.zeros(len(m)), 0, 0
    m_int = m.astype(int)
    while j0 < count:
        span = np.searchsorted(exps, exps[j0] + _EXPONENT_SPAN, side="right")
        j1 = min(j0 + size, int(span))
        e = int(exps[j1 - 1])
        carry = np.ldexp(carry, (e_prev - e) * m_int)
        r = np.ldexp(panels.s[j0:j1], -e)
        wg = panels.wg[j0:j1]
        log_r = np.log(r)
        # tables along a last axis: (panel, point, power)
        coarse = np.multiply.outer(log_r, m_coarse)
        fine = np.multiply.outer(log_r, m_fine)
        np.exp(coarse, out=coarse)
        np.exp(fine, out=fine)
        fine *= wg[:, :, None]
        panel_moments = (coarse.transpose(0, 2, 1) @ fine).reshape(j1 - j0, -1)
        # taken as C^T = moments^T prefix^T: the product the other way round
        # raised classify's peak RSS by about 0.25 MB
        c = (panel_moments[:, :len(m)].T @ prefix[:j1 - j0, :j1 - j0].T).T
        c += carry
        yield j0, 2.0**e, c
        carry, e_prev, j0 = c[-1], e, j1


def _split_bound(t, e):
    # From s = this bound on, the two terms of B_e at t differ by a factor
    # of two or more: t^e (1-s)^(alpha-1) >= 2 (t-s)^e for u once s >= K t /
    # (1 + K - t), K = 2^(1/e) - 1, and (t-s)^e >= 2 t^e >= 2 t^e
    # (1-s)^(alpha-1) for u' once s >= t (1 - 2^(1/e)).  ``t`` is an array
    # of targets, one bound each.  Both bounds increase with t, so the
    # splits of ascending rows ascend.  For e = 0 (u' at alpha = 2, B = -s)
    # the terms are 1 - s and 1 and never split; for 0 < e <= 2^-10 (u at
    # alpha up to 1 + 2^-10) K overflows, and the bound would lie within
    # t (1-t)/K of t, closer than any double below t, so no column splits
    # either.
    if e < 0.0:
        return (1.0 - 2.0 ** (1.0 / e)) * t
    if e > 2.0**-10:
        k = 2.0 ** (1.0 / e) - 1.0
        return k * t / (1.0 + k - t)
    return math.inf


def _band(t, te, e, start, stop, alpha, panels):
    # The bracket over the shared columns start_r..stop_r-1 of each row r.
    # From its column split_r on, the two terms differ by a factor of two or
    # more (condition number at most 3) and are summed apart; the columns
    # before it go through the bracket kernel.
    s, wg, log_s, pow_s = (
        x.ravel() for x in (panels.s, panels.wg, panels.log_s, panels.pow_s)
    )
    split = np.clip(s.searchsorted(_split_bound(t, e)), start, stop)
    # t^e sum (1-s)^(alpha-1) w g, each row's range summed in order, in runs
    # of rows whose columns span at most _BUDGET; the even entries of
    # reduceat are the ranges split_r..stop_r-1, and an empty one returns
    # the element at its start
    past = np.empty(len(t))
    for g in _row_groups(split, stop + 1):
        c0, c1 = split[g.start], stop[g.stop - 1] + 1
        bounds = np.column_stack((split[g], stop[g])).ravel() - c0
        past[g] = np.add.reduceat(pow_s[c0:c1] * wg[c0:c1], bounds)[::2]
    total = np.where(split < stop, te * past, 0.0)
    # groups of rows whose pairs, flat and row by row, number at most _BUDGET
    ends = np.cumsum(stop - start)
    for g in _row_groups(ends - (stop - start), ends):
        tr, cols, runs = _gather(t[g], start[g], split[g])
        if cols.size:
            # log1p(-s) is read only by the kernel of u' (e <= 0)
            kern = bracket_values(
                tr, s[cols], alpha, e, np.repeat(te[g], runs),
                (log_s[cols] if e <= 0.0 else None, pow_s[cols]),
            )
            kern *= wg[cols]
            total[g] += _run_sums(kern, runs)
        total[g] -= _power_sums(t[g], e, split[g], stop[g], panels)
    return total


def _power_sums(t, e, split, stop, panels):
    # sum (t-s)^e w g over the shared columns split_r..stop_r-1 of each row
    # r, (t-s)^e a power of the exact t - s
    x, cols, runs = _gather(t, split, stop)
    if not cols.size:
        return 0.0
    x -= panels.s.ravel()[cols]
    np.power(x, e, out=x)
    x *= panels.wg.ravel()[cols]
    return _run_sums(x, runs)


def _row_groups(begin, end):
    # Slices of consecutive rows whose elements, from begin_r of the first
    # row to end_r of the last, span at most _BUDGET, one row at least;
    # ``end`` ascends.
    r0 = 0
    while r0 < len(begin):
        r1 = np.searchsorted(end, begin[r0] + _BUDGET, side="right")
        r1 = max(int(r1), r0 + 1)
        yield slice(r0, r1)
        r0 = r1


def _gather(t, begin, end):
    # The pairs (t_r, column c), begin_r <= c < end_r, flat and row by row:
    # t_r repeated, the columns, and the number of pairs of each row.
    runs = end - begin
    cols = np.arange(int(runs.sum()))
    cols += np.repeat(begin - (np.cumsum(runs) - runs), runs)
    return np.repeat(t, runs), cols, runs


def _run_sums(x, runs):
    # The sums of x over consecutive runs of runs_r elements, each in order.
    # reduceat takes only the nonempty runs: it returns the element at an
    # empty run's start, and no index may reach the end of x.
    sums = np.zeros(len(runs))
    full = runs > 0
    sums[full] = np.add.reduceat(x, (np.cumsum(runs) - runs)[full])
    return sums


def _origin_panel(end, origin, beta_g):
    # Points and weights of the origin panels [0, end_i] under ``origin``, the
    # Gauss-Jacobi rule (x, w) of the weight (1+x)^(1-beta_g).  With s =
    # h (1+x), h = end_i/2, s^(-beta_g) ds = h^(1-beta_g) (1+x)^(1-beta_g)
    # dx / (1+x): the weights are h^(1-beta_g) w / (1+x), the rule's over s,
    # and the kernels they meet vanish like s.  No node is 0.
    x, w = origin
    half = 0.5 * end[:, None]
    return half * (x + 1.0), half ** (1.0 - beta_g) * (w / (x + 1.0))


def _jacobi_pieces(a, c, e, rule):
    # Points, weights and distances c - s of the pieces [a_i, c_i] under
    # ``rule``, the Gauss-Jacobi rule (x, w) of the weight (1+x)^e.  With
    # s = c - d, d = h (1+x), h = (c_i - a_i)/2, (c-s)^e ds = h^(e+1)
    # (1+x)^e dx: the weights h^(e+1) w hold the whole factor (c-s)^e, and
    # s^(-beta_g) is left to the caller.  d, formed from h and x, keeps the
    # digits that c - s loses once s is rounded.
    x, w = rule
    half = 0.5 * (c - a)[:, None]
    d = half * (x + 1.0)
    return c[:, None] - d, half ** (e + 1.0) * w, d


def _own_sums(kinds, t, te, lo, nodes, beta_g, g_regular, alpha, panels):
    """Each kind's sums over the pieces each target owns, and its right sums.

    The ascending targets go in blocks of _BUDGET // GAUSS_ORDER rows, and
    g_regular is evaluated in one call per block at the points of every
    piece its targets own (_own_panels).  Returns ({kind: sums}, right),
    right being the sum of the right kernel (1-s)^(alpha-1) w g over
    [a, 1], a the start of the target's left piece: panels.right_sums[lo-1]
    past the first panel, and in it the target's Gauss-Legendre pieces
    [t/2, t] and [t, t_1] plus panels.right_sums[1].
    """
    total = {kind: np.zeros(len(t)) for kind in (*kinds, "right")}
    rows = _BUDGET // GAUSS_ORDER
    for r0 in range(0, len(t), rows):
        b = slice(r0, r0 + rows)
        s, parts = _own_panels(
            kinds, t[b], {kind: x[b] for kind, x in te.items()}, lo[b], nodes,
            beta_g, alpha, panels,
        )
        g = np.split(g_regular(np.concatenate(s)), np.cumsum([len(x) for x in s[:-1]]))
        _add_part_sums(total, r0, parts, g)
        # free this block's points, g values and weights before the next
        # block builds its own
        del s, parts, g
    right = total.pop("right") + panels.right_sums[np.maximum(lo - 1, 1)]
    return total, right


def _add_part_sums(total, r0, parts, g):
    # Each kind's sums over the pieces of a block whose first row is r0;
    # a weight array may cover only the first rows of its piece.
    for kind, pairs in parts.items():
        for j, kw in pairs:
            total[kind][r0:r0 + len(kw)] += np.sum(kw * g[j][:len(kw)], axis=1)


def _own_panels(kinds, t, te, lo, nodes, beta_g, alpha, panels):
    """Points of the pieces each target owns, and each kind's weights on them.

    A target t with nodes[lo-1] < t <= nodes[lo] owns the left piece
    [a, t] of the panel it lies in, a = nodes[lo-1], under the Gauss-Jacobi
    rule ``panels.own`` of the weight (t-s)^(alpha-2) (_jacobi_pieces).  It
    holds the whole term -(t-s)^e of u' (e = alpha-2), and of u (e =
    alpha-1) with the exact distance t - s as integrand, so u and u' share
    its points and the piece evaluates no kernel.  Their t-free term
    t^e (1-s)^(alpha-1) over [a, t], and the right part of all three kinds,
    is panels.right_sums[lo-1]; D^(alpha-1)u subtracts the integral of g
    over [a, t], under Gauss-Legendre, from panels.left_sums[lo-1] plus
    that right part.  In the first panel
    (lo = 1; these targets are a prefix of the ascending t) a = t/2, which
    keeps the origin rule apart from the rules at s = t, and the target
    also owns the origin piece [0, t/2], under the Gauss-Jacobi rule of the
    shared origin panel (_origin_panel), and its t-free term over [t/2, t]
    and, if t < t_1, over [t, t_1], both under Gauss-Legendre: the origin
    row's weights serve only kernels that vanish like s.

    Returns (points, parts).  ``points`` is a list of (rows, GAUSS_ORDER)
    arrays: the origin pieces, the Gauss-Legendre pieces [a, t] (of the
    first-panel targets only, unless D^(alpha-1)u is asked for), the right
    pieces [t, t_1], and, if u or u' is asked for, their Gauss-Jacobi
    pieces.  ``parts`` maps each kind, and "right" for the right kernel, to
    its (index into points, kernel times weight) pairs, whose rows are a
    prefix of the block.  The weights carry s^(-beta_g); ``te`` maps each
    of u and u' that is asked for to t^e, e the exponent of its left
    bracket.
    """
    a1 = alpha - 1.0
    k = int(np.count_nonzero(lo == 1))
    a = np.where(lo == 1, 0.5 * t, nodes[lo - 1])
    s0, w0 = _origin_panel(0.5 * t[:k], panels.origin, beta_g)
    m = len(t) if "dalpha" in kinds else k
    s1, w1 = _gauss(a[:m], t[:m])
    w1 *= np.power(s1, -beta_g)
    inside = int(np.count_nonzero(t[:k] < nodes[1]))
    s2, w2 = _gauss(t[:inside], np.full(inside, nodes[1]))
    w2 *= np.power(s2, -beta_g)
    points = [s0, s1, s2]
    parts = {
        "right": [
            (1, np.power(1.0 - s1[:k], a1) * w1[:k]),
            (2, np.power(1.0 - s2, a1) * w2),
        ]
    }
    if "dalpha" in kinds:
        parts["dalpha"] = [(0, _dalpha_bracket(s0, alpha) * w0), (1, -w1)]
    if te:
        s3, w3, d3 = _jacobi_pieces(a, t, alpha - 2.0, panels.own)
        w3 *= -np.power(s3, -beta_g)
        points.append(s3)
    for kind in te:
        e = _bracket_exponent(kind, alpha)
        k0 = bracket_values(t[:k, None], s0, alpha, e, te[kind][:k, None])
        parts[kind] = [(0, k0 * w0), (3, w3 * d3 if kind == "u" else w3)]
    return points, parts
