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
they are evaluated through the expm1/log1p brackets so that cancellation
does not destroy that product structure.

Three constructions replace adaptivity:

* panels follow a graded mesh t_i = (i/n)^grading, refined toward 0;
* the first panel [0, e] is mapped by s = tau^m, m = ceil(2/(alpha-beta_g)),
  which turns the leading s^(margin-1)-type behaviour into a smooth power;
* the panel ending at s = t (for the kernels with a kink or an
  (t-s)^(alpha-2) blow-up there) is mapped by s = t - tau^(1/(alpha-1)),
  which absorbs the singular factor into the Jacobian exactly.

Fixed-order Gauss-Legendre (12 points) is used on every transformed panel:
once the integrands are regularized, panel count - not order - controls the
error.

The three operators share one assembly and accept any array of targets in
one pass.  g_reg is evaluated once at each quadrature point: in one call on
the plain panels between mesh nodes, which all targets share, and in one
call per block of targets on the 3 x 12 points of the panels each target
owns (origin panel, left panel ending at t, right panel starting at t).  Over the shared panels the parts
that do not depend on t reduce to prefix and suffix sums: (1-s)^(alpha-1)
in the right parts of u and u', and both kernels of D^(alpha-1)u.  Only the
left brackets of u and u' remain a dense lower-triangular block, built in
fixed square tiles so that memory stays bounded for any n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gammafn import gamma
from .green import bracket_values
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
    alpha = _checked_alpha(alpha)
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
    alpha = _checked_alpha(alpha)
    t = _checked_t(t, "[0, 1]")
    out = np.zeros(t.shape)
    inner = (t > 0.0) & (t < 1.0)
    out[inner] = _green_integrals(
        "u", t[inner], g_singular_exponent, g_regular, alpha, mesh
    )
    return _as_result(out / gamma(alpha))


def apply_green_derivative(t, g_singular_exponent, g_regular, alpha, mesh):
    """u'(t) of the Green representation for t (scalar or array) in (0, 1)."""
    alpha = _checked_alpha(alpha)
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
    alpha = _checked_alpha(alpha)
    t = _checked_t(t, "(0, 1]")
    total = _green_integrals(
        "dalpha", t.ravel(), g_singular_exponent, g_regular, alpha, mesh
    )
    return _as_result(total.reshape(t.shape))


# --- internals ---------------------------------------------------------------

# Side of the square tiles in which the dense left-bracket block is built;
# it bounds every temporary of that block at _TILE**2 doubles.  glibc mmaps
# blocks of 128 KiB (its default mmap threshold; 128**2 doubles exactly)
# and trims the heap top once 128 KiB lie free there, so at 128, and in
# some heap layouts from 104 up, every tile faults in fresh pages: about
# 70k-80k minor faults per n = 2048 solve, against about 1.3k at 96 (72 KiB
# per temporary).  Smaller tiles are slower: 64 takes about 14% longer.
_TILE = 96


def _checked_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"order must lie in (1, 2], got {alpha!r}")
    return alpha


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


def _derivative_bracket(t, s, alpha):
    # t^(a-2)(1-s)^(a-1) - (t-s)^(a-2); always negative on (0, t).
    a1 = alpha - 1.0
    a2 = alpha - 2.0
    pp = t**a2 * np.power(1.0 - s, a1)
    xp = np.power(t - s, a2)
    with np.errstate(divide="ignore"):
        d = a1 * np.log1p(-s) + (2.0 - alpha) * np.log1p(-s / t)
    # d <= 0 always; |d| <= log 2 marks the cancellation regime.
    return np.where(d > -0.6931, xp * np.expm1(d), pp - xp)


def _dalpha_bracket(t, s, alpha):
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
    are shared by all targets; each target also owns three panels (see
    _own_panels).  Targets are taken in ascending row blocks of _TILE.
    """
    if t.size == 0:
        return t
    beta_g = float(beta_g)
    m = _origin_substitution_order(alpha, beta_g)
    a1 = alpha - 1.0
    nodes = mesh.nodes
    left_kernel = {
        "u": bracket_values, "du": _derivative_bracket, "dalpha": _dalpha_bracket,
    }[kind]

    # Shared panels [nodes[j], nodes[j+1]], j = 1..n-1 (row j-1).  Their
    # t-free kernels reduce to prefix sums (left part of D^(alpha-1)u) and
    # suffix sums (int (1-s)^(alpha-1) g ds, the right part of all three).
    sf, wf = _gauss(nodes[1:-1], nodes[2:])
    wgf = wf * np.power(sf, -beta_g) * g_regular(sf.ravel()).reshape(sf.shape)
    left_panels = np.sum(_dalpha_bracket(None, sf, alpha) * wgf, axis=1)
    left_sums = np.append(0.0, np.cumsum(left_panels))
    right_panels = np.sum(np.power(1.0 - sf, a1) * wgf, axis=1)
    right_sums = np.append(np.cumsum(right_panels[::-1])[::-1], 0.0)
    sf, wgf = sf.ravel(), wgf.ravel()

    order = np.argsort(t, kind="stable")
    out = np.empty(len(t))
    for r0 in range(0, len(t), _TILE):
        rows = order[r0:r0 + _TILE]
        tb = t[rows]
        # nodes[:lo] < t <= nodes[lo]; nodes[hi] is the first node above t.
        lo = np.searchsorted(nodes, tb, side="left")
        hi = np.minimum(np.searchsorted(nodes, tb, side="right"), mesh.n)
        s, w, k = _own_panels(kind, left_kernel, tb, lo, hi, nodes, m, beta_g, alpha)
        g = np.split(g_regular(np.concatenate([x.ravel() for x in s])), 3)
        origin, tail, right = (
            np.sum(kj * wj * gj.reshape(kj.shape), axis=1)
            for wj, kj, gj in zip(w, k, g)
        )
        right += right_sums[hi - 1]
        total = origin + tail
        shared = np.maximum(lo - 2, 0)  # shared left panels j = 1..lo-2
        if kind == "dalpha":
            out[rows] = total + left_sums[shared] + right
            continue
        # The left bracket of u and u' depends on t: a dense lower-triangular
        # block over the shared points, in _TILE x _TILE tiles.
        count = GAUSS_ORDER * shared
        for c0 in range(0, count[-1], _TILE):
            cols = slice(c0, c0 + _TILE)
            if c0 + _TILE <= count[0]:
                # every row of the ascending block owns these columns
                total += left_kernel(tb[:, None], sf[None, cols], alpha) @ wgf[cols]
                continue
            # columns at or past a row's count may have s >= t
            with np.errstate(invalid="ignore", divide="ignore"):
                kern = left_kernel(tb[:, None], sf[None, cols], alpha)
            mine = np.arange(c0, c0 + kern.shape[1]) < count[:, None]
            total += np.where(mine, kern, 0.0) @ wgf[cols]
        out[rows] = total + tb ** (a1 if kind == "u" else alpha - 2.0) * right
    return out


def _own_panels(kind, left_kernel, t, lo, hi, nodes, m, beta_g, alpha):
    """Points, weights and kernel values of the panels each target owns.

    Three (len(t), GAUSS_ORDER) arrays each, for: the origin panel, the left
    panel ending at t, and the right panel [t, nodes[hi]].  The weights
    carry s^(-beta_g) and the Jacobians; the right kernel is (1-s)^(alpha-1).
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
    k0 = left_kernel(tc, s0, alpha)

    # Left panel ending at t.  For u and u' it is mapped by s = t - tau^p,
    # p = 1/(alpha-1): (t-s)^(alpha-1) becomes tau, and (t-s)^(alpha-2) ds
    # reduces to dtau/(alpha-1).
    if kind == "dalpha":
        s1, w1 = _gauss(tail_start, t)
        w1 = w1 * np.power(s1, -beta_g)
        k1 = left_kernel(tc, s1, alpha)
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
            k1 = tc ** (alpha - 2.0) * np.power(1.0 - s1, a1) * np.power(tau, p - 1.0)
            k1 -= 1.0

    s2, w2 = _gauss(t, nodes[hi])
    w2 = w2 * np.power(s2, -beta_g)
    k2 = np.power(1.0 - s2, a1)
    return (s0, s1, s2), (w0, w1, w2), (k0, k1, k2)
