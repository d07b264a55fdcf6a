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
* the origin panel [0, t_1], and for a target without a far field (below)
  the piece [0, t/2], takes the Gauss-Jacobi rule of the weight
  s^(1-beta_g) with the integrand kernel/s times g_reg: every left kernel
  vanishes like s, so kernel/s is smooth, and the rule holds the whole
  singular power at any margin;
* for u and u', the piece of each target that ends at s = t takes the
  Gauss-Jacobi rule of the weight (t-s)^(alpha-2), which holds their whole
  term -(t-s)^e: u' has e = alpha-2 (the blow-up), and u, e = alpha-1
  (the kink), takes the exact distance t - s as integrand.  Their term
  t^e (1-s)^(alpha-1) does not see s = t and joins the right part, so on
  that piece no kernel is evaluated.  The piece spans at most t/2 and at
  most 1 - t, and Gauss-Legendre pieces graded away from t take the rest
  of the term (below);
* the last panel [t_(P-1), 1] takes the Gauss-Jacobi rule of the weight
  (1-s)^(alpha-1), which holds the right kernel whole.

Fixed-order rules of 12 points, all from Golub-Welsch (Math. Comp. 23,
1969), are used: Gauss-Jacobi at s = 0, s = t and s = 1, Gauss-Legendre on
every other panel and piece.  With every algebraic singularity of the
kernel in a rule's weight, the closed-form round trips are at round-off
from n = 32: max nodal error 1.1e-14 at most, for alpha from 1.05 to 1.9
and margins down to 1e-4.  Off the mesh, next to a node, u and u' of
the closed-form pairs are within 3.7e-12 relative at n = 128, and below
t_1/EPS within 2.2e-15 of t^(alpha-1) and t^(alpha-2), the size of the
terms they sum.

The three operators share one assembly and accept any array of targets in
one pass, and several operators at one set of targets (apply_operators)
share that pass: the shared panels, the values of g_reg, the pieces each
target owns and the prefix moments of the far field.  Below, "panel" and
"node" mean the split panels and their edges.  The targets are sorted
once.  g_reg is evaluated once at each quadrature point: in one call on
the shared panels, origin panel included, which all targets share, and on
the 12 points of each piece a target owns.

Each target t has its cut, the last node t_c <= EPS*t (EPS = 0.6).  For u
and u' it owns [t_c, t].  Every panel past the origin panel has a ratio of
at most 2, so t_c > 0.3 t once c >= 1, and no shared panel lies closer to
t than 0.4 t.  The rule at s = t takes [t - d, t], with
d = min(t - t_c, t/2, 1 - t), so that piece spans a ratio of at most 2, as
every shared panel does: s^(-beta_g) is singular only at s = 0, far enough
away for 12 points to reach round-off.  Gauss-Legendre pieces
[t - 2^k d, t - 2^(k-1) d], k = 1, 2, ..., the last one clipped at t_c,
take the rest: each lies as far from t, and farther from s = 1, as it is
long, so a g_reg singular at s = 1, as (1-s)^p in f(u) is, stays out of
every rule's reach (a single piece from t_c left u' off by 2.3e-3 relative
at t = 1 - 1e-9 for g_reg = sqrt(1-s)).  Where d = t/2, one such piece,
[t_c, t/2], spans a ratio below 1.7.  The t-free term over the pieces and
the right part are the suffix sum from t_c.  D^(alpha-1)u, whose left
kernel does not depend on t, owns instead the left piece [a, t] of the
panel t lies in, a its lower node, under Gauss-Legendre, and subtracts
the integral of g over it from its prefix and suffix sums from a.  A
target with cut 0 (t < t_1/EPS) has no far field: it owns the origin
piece [0, t/2], which lies inside [0, t_1] as EPS >= 0.5, and [t/2, t],
for u and u' under the rule at s = t, for D^(alpha-1)u as its left piece
(a = t/2).  The origin row's weights serve only kernels that vanish like
s, so the t-free term over [t/2, t_1] takes a geometric run of
Gauss-Legendre pieces [2^k t/2, 2^(k+1) t/2], the last one clipped at
t_1, each of a ratio of at most 2 (geometric refinement: Schwab, p- and
hp-Finite Element Methods, 1998), and the suffix sum from t_1 the rest.
Only these own pieces go in row blocks of at most 768 targets, built in
one place, item by item (_own_pieces): each item holds at most 768
pieces, the graded pieces and geometric runs of a block coming in runs
of as many, so that each (row, Gauss point) array, 768 x 12 doubles,
stays within a temporary budget of 72 KiB (_BUDGET).  g_reg takes a
block's items in batches of at most 3,072 pieces, one call each.
The far field takes all targets in one call, in pieces that keep its
temporaries within the same budget.

Over the shared panels the parts that do not depend on t reduce to prefix
and suffix sums: (1-s)^(alpha-1) in the right parts of all three
operators, and both kernels of D^(alpha-1)u.  The left brackets of u and
u' depend on t.  Below t_c, on the far panels, x = s/t <= 0.6, and the
bracket is t^e times an exact power series in x with the binomial
coefficients of (1-x)^e, cut at a 2^-60 tail; no sum in it subtracts two
terms of one sign.  The far panels thus reduce to the target's x-moments,
sum (s/t)^m w g over s < t_c, read off running prefix sums over the
panels of the power moments (s/2^E)^m w g.  These are built once up the
mesh, in chunks of panels whose tops lie within a factor of 8 below 2^E,
so that (2^E/t)^m stays in range; between chunks they are rescaled
exactly by a power of two.  The M powers of a point (M of about 60 to
84) are products of two short tables, r^(j+1), j < 8, and r^(8q), of r =
s/2^E, each entry formed from the one before by one product, so that
r^m takes about m/8 + 8 roundings; a batched matmul gives each panel's
moments, and np.cumsum, plus the carry from the chunk below, their prefix
sums.  For g_reg > 0, on the meshes of t^-1.2 at alpha = 1.6 (n = 512 and
2048), of margin 0.01 at grading 8 and of g = 1 at alpha = 1.05, the
moments are within 10 eps of a math.fsum of their terms at every row and
power (from exp(m log r) they were up to 71 eps off).  The chunks are
still cut by that exponent span, and each keeps its own 2^E, cumulative
sum and carry; but the tables and the batched matmul are formed for a run
of consecutive chunks at once, as many panels as one chunk may hold, so
that the small chunks near the origin share the fixed cost of those
numpy calls.  The moments do not
depend on e, so u and u' read one set, as long as the longer of their
series (one set of moments for several target kernels, the economy of
the multipole method: Greengard and Rokhlin, J. Comput. Phys. 73,
1987).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .gammafn import gamma
from .green import bracket_values, checked_alpha
from .powersum import ONE, PowerSum

__all__ = [
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
    one evaluation of g_regular per quadrature point, the pieces each
    target owns and, for u and u', the far-field moments.

    The pass takes the kept targets (u vanishes at t = 0 and t = 1, and
    only D^(alpha-1)u is computed at t = 1), sorted once by t.  The mesh
    panels, split to ratios of at most 2 (_panel_edges), are shared by all
    targets (_SharedPanels).  Each target t has its cut c, the last edge
    t_c <= EPS*t, and lies in panel lo-1, nodes[lo-1] < t <= nodes[lo].
    Its pieces (_own_pieces) are built in row blocks of _BUDGET //
    GAUSS_ORDER rows, with g evaluated per batch of a block's pieces
    (_own_sums), and the far field takes all targets in one call
    (_far_series).  One rule then assembles every kind, by its index a:
    its sum over the pieces the target owns, plus t^e times its left part,
    the shared panels below a, plus t^e times its right part, the run
    [t/2, t_1] if the target owns one plus right_sums[max(a, 1)].  For u
    and u', a = c, e is the exponent of their left bracket and the left
    part is the far series (for u', left_sums[c] less it).  For
    D^(alpha-1)u, a = 0 without a far field (c = 0) and lo-1 otherwise,
    the left part is left_sums[a], and t^e is 1.0.  Each kind is written
    into its zeros at the kept targets' flat indices and scaled in place.
    """
    alpha = checked_alpha(alpha)
    t = np.asarray(t, dtype=float)
    for kind in kinds:
        if kind not in _DOMAINS:
            raise ValueError(f"unknown operator {kind!r}")
        _checked_t(t, _DOMAINS[kind])
    beta_g = float(g_singular_exponent)
    if not alpha - beta_g > 0.0:  # NaN fails too
        raise ConditionHError(
            f"forcing singularity exponent {beta_g} is not below the order"
            f" {alpha}; the Green integral diverges"
        )
    keep = (t > 0.0) & ((t < 1.0) | ("dalpha" in kinds))
    order = np.argsort(t, axis=None, kind="stable")
    order = order[keep.ravel()[order]]  # the flat indices of the kept targets
    results = tuple(np.zeros(t.shape) for _ in kinds)
    if order.size and kinds:  # else there is nothing to integrate
        panels = _SharedPanels.build(_panel_edges(mesh.nodes), beta_g, g_regular, alpha)
        ts = t.ravel()[order]
        # t^e of the kinds with a left bracket
        te = {
            kind: ts**_bracket_exponent(kind, alpha) for kind in kinds if kind != "dalpha"
        }
        lo = np.searchsorted(panels.nodes, ts, side="left")
        cut = np.searchsorted(panels.nodes, EPS * ts, side="right") - 1
        total = _own_sums(kinds, ts, te, lo, cut, g_regular, panels)
        runs = total.pop("right")
        b = [_series_coefficients(_bracket_exponent(kind, alpha)) for kind in te]
        far = dict(zip(te, _far_series(tuple(te), ts, cut, b, panels))) if te else {}
        for kind, out in zip(kinds, results):
            if kind == "dalpha":
                a = np.where(cut == 0, 0, lo - 1)
                left = panels.left_sums[a]
            else:
                a = cut
                left = far[kind] if kind == "u" else panels.left_sums[a] - far[kind]
            scale = te.get(kind, 1.0)
            right = runs + panels.right_sums[np.maximum(a, 1)]
            out.flat[order] = total[kind] + scale * left + scale * right
    for kind, out in zip(kinds, results):
        if kind == "u":
            out[t == 1.0] = 0.0
            out /= gamma(alpha)
        elif kind == "du":
            out *= alpha - 1.0
            out /= gamma(alpha)
    return tuple(_as_result(out) for out in results)


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
# top once 128 KiB lie free there; with temporaries of 128**2 doubles, and
# in some heap layouts from 104**2 up, every temporary faulted in fresh
# pages: about 70k-80k minor faults per n = 2048 solve, against about 1.3k
# at 96**2.
_BUDGET = 96**2
_BLOCK_PIECES = 4 * _BUDGET // GAUSS_ORDER
# Only the pieces the targets own go in row blocks: _own_sums takes the
# sorted targets in blocks of _BUDGET // GAUSS_ORDER = 768 rows, whose
# pieces _own_pieces yields in items of at most as many (_graded_pieces
# cuts their graded pieces and geometric runs in runs of 768), so each
# (row, Gauss point) array holds at most _BUDGET doubles.  g_regular takes
# the points of a batch of a block's items in one call; a batch ends with
# its block, or before it would pass _BLOCK_PIECES pieces, 4 _BUDGET
# points.  Blocks of 96 rows took 6 g_regular calls for classify's 531
# targets and 22 for an n = 2048 solve, where 768 rows take 1 and 3:
# classify ran 0.79x as long and an n = 2048 solve 0.83x.  A target owns 1
# to 3 pieces, and a few next to 1 more: the blocks of an n = 2048 solve
# and of classify hold at most 1,742, one batch each.  A target deep in
# the first panel owns a run of about log2(t_1/t) pieces, 1,000 at t =
# 1e-300: 768 targets at 1e-200 in one batch traced 180 MiB at n = 512,
# in batches 2.0 MiB.  One batch across blocks put an n = 2048 solve's
# own pieces in one call of 28,884 points and ran 1.07x as long (in
# process, one 2.0 GHz Xeon vCPU, 400 interleaved pairs).  The far
# field takes all targets in one call: it builds its prefix moments in
# runs of chunks of panels whose power tables, and copies its targets'
# moment rows into a buffer whose rows, hold at most _BUDGET doubles
# (_far_series).

# The cut.  Each target t sums the shared panels below its cut, the last
# edge t_c <= EPS*t, from power moments, and for u and u' owns [t_c, t],
# whose piece at s = t spans at most t/2 (_own_pieces).  A lower cut
# shortens the series (O(n M): M is at most 84 at 0.6, 120 at 0.7) and
# lengthens what each target owns; below 0.5 a cut-0 target's origin piece
# [0, t/2] would leave [0, t_1].  At cuts 0.5 / 0.55 / 0.6 / 0.65 / 0.7,
# with the piece at s = t bounded by t/2, or by the cut alone:
# - max nodal error of the margin-0.01 weight t^-1.89 at alpha = 1.9,
#   n = 32 to 512: 7.1e-15 / 8.9e-15 / 8.9e-15 / 7.1e-15 / 8.9e-15
#   bounded, 4.8e-11 / 1.6e-11 / 1.1e-13 / 7.1e-15 / 8.9e-15 not;
# - time of an n = 2048 solve against the unbounded 0.7, in process,
#   interleaved, on one 2.0 GHz Xeon vCPU: 0.85 / 0.83 / 0.87 / 0.92 / 1.00
#   bounded, 0.79 / 0.83 / 0.87 / 0.91 / 1 not;
# - bounded, that solve is off a 40-digit reference by 8.9e-16 at 0.5 and
#   7.8e-16 from 0.55 up.
EPS = 0.6
# The series in s/t keeps the terms before the first index M whose tail
# bound |b_M| EPS^M / (1 - EPS) is below this.
_SERIES_TAIL = 2.0**-60
# |b_m| <= 1, so the tail test holds by index 84 at EPS = 0.6 for every e.
_SERIES_CAP = math.ceil(math.log(_SERIES_TAIL * (1.0 - EPS)) / math.log(EPS))
# The panel tops of one chunk of prefix moments have binary exponents
# (frexp) within this many of each other.  With 2^E above the highest, each
# target's cut t_c >= 2^(E-3), so 2^E/t <= 8 EPS and no factor (2^E/t)^m
# exceeds (8 EPS)^84, about 1.7e57.
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

    The record of one pass: the helpers of apply_operators read from here
    the split edges ``nodes``, the forcing's exponent ``beta_g`` and the
    order ``alpha`` the panels were built from.  Row j is panel j.  The
    weights carry s^(-beta_g); row 0, the origin panel, takes the
    Gauss-Jacobi rule ``origin`` of the weight s^(1-beta_g), its weights
    divided by s (_origin_panel), so that it integrates every left kernel,
    which vanishes like s, as kernel/s times g.  The last row,
    the panel ending at 1, takes the Gauss-Jacobi rule of the weight
    (1-s)^(alpha-1), whose weights hold that whole factor; only right_sums
    reads that row.  ``own`` is the Gauss-Jacobi rule of the weight
    (1+x)^(alpha-2), which the targets' pieces up to t take (_own_pieces);
    the three rules are built once per (beta_g, alpha) (_rules).  ``wg``
    holds the weights times g.  The t-free kernels over these panels
    reduce to suffix sums, right_sums[k] = sum over rows >= k of
    (1-s)^(alpha-1) w g (the right part of all three operators), and prefix
    sums, left_sums[k] = sum over rows < k of ((1-s)^(alpha-1) - 1) w g
    (the left part of D^(alpha-1)u, and a part of the far field of u'),
    formed on first use, so only for u' and D^(alpha-1)u.
    """

    nodes: np.ndarray
    beta_g: float
    alpha: float
    origin: tuple
    own: tuple
    s: np.ndarray
    wg: np.ndarray
    right_sums: np.ndarray

    @classmethod
    def build(cls, nodes, beta_g, g_regular, alpha) -> "_SharedPanels":
        s, w = _gauss(nodes[:-1], nodes[1:])
        origin, last, own = _rules(beta_g, alpha)
        s[:1], w[:1] = _origin_panel(nodes[1:2], origin, beta_g)
        s[-1:], w[-1:], _ = _jacobi_pieces(nodes[-2:-1], nodes[-1:], alpha - 1.0, last)
        w[1:] *= np.power(s[1:], -beta_g)
        wg = w * g_regular(s)
        # the last row's weights hold (1-s)^(alpha-1) already
        pow_s = np.power(1.0 - s, alpha - 1.0)
        pow_s[-1] = 1.0
        right_sums = np.append(np.cumsum(np.sum(pow_s * wg, axis=1)[::-1])[::-1], 0.0)
        return cls(nodes, beta_g, alpha, origin, own, s, wg, right_sums)

    @cached_property
    def left_sums(self) -> np.ndarray:
        kernel = _dalpha_bracket(self.s, self.alpha)
        kernel[-1] = 0.0
        kernel *= self.wg
        return np.append(0.0, np.cumsum(np.sum(kernel, axis=1)))


# Entries kept by each cache of rules and series coefficients below.  A
# Picard solve makes one pass per sweep, all with the same (beta_g, alpha),
# so all but its first pass read them from the cache.
_CACHE_SIZE = 64


@lru_cache(maxsize=_CACHE_SIZE)
def _rules(beta_g: float, alpha: float) -> tuple:
    """The Gauss-Jacobi rules (x, w) at s = 0, s = 1 and s = t, read-only.

    Their weights are (1+x)^(1-beta_g), (1+x)^(alpha-1) and
    (1+x)^(alpha-2) (_SharedPanels).  One stacked eigh builds all three.
    """
    x, w = _gauss_jacobi(GAUSS_ORDER, (1.0 - beta_g, alpha - 1.0, alpha - 2.0))
    x.setflags(write=False)
    w.setflags(write=False)
    return tuple(zip(x, w))


@lru_cache(maxsize=_CACHE_SIZE)
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
    b = b[:int(np.argmax(below))]
    b.setflags(write=False)
    return b


def _far_series(kinds, t, cuts, b, panels):
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
    for j0, scale, moments in _prefix_moments(int(cuts[-1]), m, panels):
        # the targets whose last far panel c-1 lies in this chunk
        end = int(np.searchsorted(cuts, j0 + len(moments), side="right"))
        while q + k < end:
            r = slice(q + k, min(end, q + len(x)))
            rows = slice(k, k + r.stop - r.start)
            np.take(moments, cuts[r] - 1 - j0, axis=0, out=x[rows], mode="clip")
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


def _prefix_moments(count, m, panels):
    # The prefix moments over the shared panels j = 0..count-1, in chunks of
    # consecutive panels: for each chunk (j0, 2^E, C), C[i] = sum over the
    # points of panels 0..j0+i of (s/2^E)^m w g, E the frexp exponent of the
    # highest panel top of the chunk.  The tops of a chunk span at most
    # _EXPONENT_SPAN exponents; C carries over to the next chunk rescaled
    # exactly, by 2^(-m dE).  Every power s/2^E is below 1, so nothing
    # overflows, and what underflows lies below the double range once
    # scaled by 2^E/t.  With r = s/2^E, r^m = r^(8q) r^(j+1) for m = 8q +
    # j + 1: two tables of products, fine[j] = fine[j-1] r = r^(j+1) and
    # coarse[q] = coarse[q-1] r^8 = r^(8q), give all M powers in about
    # M/8 + 8 roundings (exp(m log r) lost about m |log r| eps), a batched
    # matmul a panel's moments, and np.cumsum over the panels of a chunk,
    # plus the carry, the rows of C.  The tables lie as (power, panel,
    # point), so each product runs over all the points of a run, not over
    # the 8 to 10 powers of one point.  They and that matmul are formed for
    # runs of consecutive chunks of at most ``size`` panels in all, whose
    # coarse table holds at most _BUDGET doubles, each panel scaled by its
    # own chunk's 2^E, so that small chunks share their fixed cost.
    n_coarse = (len(m) + 7) // 8
    exps = np.frexp(panels.nodes[1:count + 1])[1]
    size = min(max(1, _BUDGET // (GAUSS_ORDER * n_coarse)), count)
    # the chunks, panels edges[i]..edges[i+1]-1, and the E of each chunk
    # and of each panel
    edges = [0]
    while edges[-1] < count:
        span = np.searchsorted(exps, exps[edges[-1]] + _EXPONENT_SPAN, side="right")
        edges.append(min(edges[-1] + size, int(span)))
    tops = exps[np.subtract(edges[1:], 1)]
    panel_tops = np.repeat(tops, np.diff(edges))[:, None]
    tops = tops.tolist()
    carry, e_prev, i = np.zeros(len(m)), 0, 0
    m_int = m.astype(int)
    while i < len(edges) - 1:
        k = i + 1  # the run of chunks i..k-1
        while k < len(edges) - 1 and edges[k + 1] - edges[i] <= size:
            k += 1
        j0, j1 = edges[i], edges[k]
        fine = np.empty((8, j1 - j0, GAUSS_ORDER))
        coarse = np.empty((n_coarse, j1 - j0, GAUSS_ORDER))
        r = np.ldexp(panels.s[j0:j1], -panel_tops[j0:j1], out=fine[0])
        for j in range(1, 8):
            np.multiply(fine[j - 1], r, out=fine[j])
        coarse[0] = 1.0
        for q in range(1, n_coarse):
            np.multiply(coarse[q - 1], fine[7], out=coarse[q])
        fine *= panels.wg[j0:j1]
        panel_moments = (coarse.transpose(1, 0, 2) @ fine.transpose(1, 2, 0)).reshape(
            j1 - j0, -1
        )
        for a, b, top in zip(edges[i:k], edges[i + 1:k + 1], tops[i:k]):
            carry = np.ldexp(carry, (e_prev - top) * m_int)
            c = np.cumsum(panel_moments[a - j0:b - j0, :len(m)], axis=0)
            c += carry
            yield a, 2.0**top, c
            carry, e_prev = c[-1], top
        i = k


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


def _own_sums(kinds, t, te, lo, cut, g_regular, panels):
    """Each kind's sums over the pieces each target owns.

    The ascending targets go in row blocks of _BUDGET // GAUSS_ORDER rows,
    whose pieces _own_pieces builds item by item.  g_regular is evaluated
    in one call per batch of a block's items, at all their points
    (_add_piece_sums); a batch ends with its block, or before it would
    pass _BLOCK_PIECES pieces.  Returns {kind: sums}, with "right" the sum
    of the right kernel (1-s)^(alpha-1) w g over the geometric run
    [t/2, t_1] of the targets that own one, 0 elsewhere.
    """
    total = {kind: np.zeros(len(t)) for kind in (*kinds, "right")}
    rows = _BUDGET // GAUSS_ORDER
    for r0 in range(0, len(t), rows):
        batch, size = [], 0
        for item in _own_pieces(kinds, t, te, lo, cut, panels, slice(r0, r0 + rows)):
            if batch and size + len(item[0]) > _BLOCK_PIECES:
                _add_piece_sums(total, batch, g_regular)
                batch, size = [], 0
            batch.append(item)
            size += len(item[0])
        _add_piece_sums(total, batch, g_regular)
    return total


def _add_piece_sums(total, batch, g_regular):
    # Each kind's sums over the pieces of a batch of (points, parts) items,
    # with g_regular at all their points in one call.  A weight array sits
    # on the first rows of its item's points.  A row repeats only among the
    # graded pieces and runs, whose rows are an index array, and there
    # np.add.at adds each of them in order; rows given by a slice are
    # unique and take +=, to the same bits.
    g = g_regular(np.concatenate([points for points, _ in batch]))
    p = 0
    for points, parts in batch:
        for kind, rows, kw in parts:
            sums = np.sum(kw * g[p:p + len(kw)], axis=1)
            if isinstance(rows, slice):
                total[kind][rows] += sums
            else:
                np.add.at(total[kind], rows, sums)
        p += len(points)


def _own_pieces(kinds, t, te, lo, cut, panels, block):
    """The pieces the targets t[block] own, item by item.

    For u and u' a target t with its cut c >= 1, the last edge t_c <=
    EPS*t, owns the piece [t_c, t] under the Gauss-Jacobi rule
    ``panels.own`` of the weight (t-s)^(alpha-2) (_jacobi_pieces).  It
    holds the whole term -(t-s)^e of u' (e = alpha-2), and of u (e =
    alpha-1) with the exact distance t - s as integrand, so u and u' share
    its points and the piece evaluates no kernel.  Where t - t_c exceeds
    t/2 or 1 - t, that piece is [t - d, t], d the smaller of the two, and
    the term -(t-s)^e over [t_c, t - d] takes Gauss-Legendre pieces that
    double away from t (_graded_pieces): the piece at s = t spans a ratio
    of at most 2, and no piece reaches s = 1.  Their t-free term
    t^e (1-s)^(alpha-1) over [t_c, t], and their right part, is
    panels.right_sums[c].  A target with c = 0 (t < t_1/EPS) has no far
    field: it owns the origin piece [0, t/2], under the Gauss-Jacobi rule
    of the shared origin panel (_origin_panel), and the piece [t/2, t]
    under ``panels.own``.  As the origin row's weights serve only kernels
    that vanish like s, its t-free term takes the geometric run
    [t/2, t_1] (_graded_pieces), then panels.right_sums[1].

    D^(alpha-1)u subtracts the integral of g over the left piece [a, t],
    a = nodes[lo-1], under Gauss-Legendre, from panels.left_sums[lo-1] +
    panels.right_sums[lo-1].  A target with c = 0 takes a = t/2 instead,
    and owns the origin piece and the run above, then panels.right_sums[1].

    Yields (points, parts) items, points a (pieces, GAUSS_ORDER) array, in
    this order: the origin piece and the runs, if a target owns them, the
    left pieces of D^(alpha-1)u, if it is asked for, and the Gauss-Jacobi
    and graded pieces of u and u', if one of them is; so every row's sums
    are added in that order.  ``parts`` holds (kind, rows, kernel times
    weight) triples, "right" for the right kernel, with ``rows`` into the
    whole target array; the rows of the runs and the graded pieces repeat.
    The targets that own a run are a prefix of the ascending block.  The
    weights carry s^(-beta_g); ``te`` maps each of u and u' that is asked
    for to t^e, e the exponent of its left bracket.
    """
    nodes, beta_g, alpha = panels.nodes, panels.beta_g, panels.alpha
    r0 = block.start
    t, lo, cut = t[block], lo[block], cut[block]
    te = {kind: x[block] for kind, x in te.items()}
    m = int(np.count_nonzero(cut == 0))  # the targets without a far field
    if m:
        s0, w0 = _origin_panel(0.5 * t[:m], panels.origin, beta_g)
        parts = []
        if "dalpha" in kinds:
            parts.append(("dalpha", slice(r0, r0 + m), _dalpha_bracket(s0, alpha) * w0))
        for kind in te:
            e = _bracket_exponent(kind, alpha)
            k0 = bracket_values(t[:m, None], s0, alpha, e, te[kind][:m, None])
            parts.append((kind, slice(r0, r0 + m), k0 * w0))
        yield s0, parts
        # the right kernel over the geometric run [t/2, t_1]
        for s1, w1, rows1 in _graded_pieces(0.5 * t[:m], np.full(m, nodes[1])):
            w1 *= np.power(s1, -beta_g)
            yield s1, [("right", r0 + rows1, np.power(1.0 - s1, alpha - 1.0) * w1)]
    if "dalpha" in kinds:  # the left piece [a, t], a = t/2 without a far field
        s3, w3 = _gauss(np.where(cut == 0, 0.5 * t, nodes[lo - 1]), t)
        w3 *= np.power(s3, -beta_g)
        yield s3, [("dalpha", block, -w3)]
    if te:
        # the lower end of the pieces of u and u', t_c or t/2, and the span
        # d = min(t - start, 1 - t, t/2) of their piece at s = t; t = 1,
        # where u is 0, keeps t - start
        start = np.where(cut == 0, 0.5 * t, nodes[cut])
        d = np.minimum(np.minimum(t - start, 1.0 - t), 0.5 * t)
        d = np.where(t < 1.0, d, t - start)
        # the piece at s = t spans d, and the graded pieces the rest of
        # [start, t]
        s4, w4, d4 = _jacobi_pieces(t - d, t, alpha - 2.0, panels.own)
        w4 *= -np.power(s4, -beta_g)
        yield s4, [(kind, block, w4 * d4 if kind == "u" else w4) for kind in te]
        # t - (t - d) is the width _jacobi_pieces gives that piece, so the
        # graded pieces abut it.  Each is no longer than its distance to t
        # or to s = 1, and the distances keep the digits that t - s loses.
        for d5, w5, rows5 in _graded_pieces(t - (t - d), t - start):
            s5 = t[rows5, None] - d5
            w5 *= -np.power(s5, -beta_g) * np.power(d5, alpha - 2.0)
            rows5 += r0
            yield s5, [(kind, rows5, w5 * d5 if kind == "u" else w5) for kind in te]


def _graded_pieces(near, span):
    # Gauss-Legendre points, weights and rows of the pieces that cover
    # [near_i, span_i]: [2^k near_i, 2^(k+1) near_i], k = 0, 1, ..., the
    # last one ending at span_i, so each spans a ratio of at most 2.  The
    # caller places them: as distances from t, or as points s themselves.
    # A row with span_i <= near_i has no piece; the rows ascend.  The
    # pieces come in runs of at most _BUDGET // GAUSS_ORDER, each of which
    # finds its rows on the cumulative piece counts; a row's pieces may
    # straddle two runs, but stay in order.
    count = _piece_count(near, span)
    ends, total = np.cumsum(count), int(count.sum())
    size = _BUDGET // GAUSS_ORDER
    for p in range(0, total, size):
        piece = np.arange(p, min(p + size, total))
        r = np.searchsorted(ends, piece, side="right")
        k = piece - (ends[r] - count[r])
        lo = np.ldexp(near[r], k)
        hi = np.where(k == count[r] - 1, span[r], 2.0 * lo)
        yield *_gauss(lo, hi), r


def _piece_count(near, span):
    # the number of pieces of ratio at most 2 that _graded_pieces lays over
    # [near_i, span_i]
    return np.ceil(np.log2(span / near)).astype(int).clip(0)
