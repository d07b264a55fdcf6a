"""Boundary-regularity profiles and membership classification.

Two weighted profiles of the solution u(t) = int G(t,s) g(s) ds are probed
as t -> 0:

    q(t) = t^(alpha-1) * D^(alpha-1) u(t)      (membership in E_alpha)
    p(t) = t^(2-alpha) * u'(t)                 (membership in C^1_(2-alpha))

Both spaces ask the weighted quantity to extend continuously to [0, 1].
Every forcing is a power sum g = sum_l a_l t^l, so the verdicts follow from
its exponents l, not from samples.  Near 0 the solution is

    u(t) = C t^(alpha-1) + sum_l A_l t^(l+alpha)

(Diethelm, The Analysis of Fractional Differential Equations, LNM 2004,
2010), hence q has the exponents {alpha-1} and {l+alpha}, and p has {0}
and {l+1}.  At l = -1 the forcing resonates with the kernel and u gains a
t^(alpha-1) log t term: q then gains t^(alpha-1) log t and p gains log t.
A profile is "yes" when every exponent is >= 0 and its log term, if any,
has a power > 0, and "no" otherwise.  Condition (H), l > -alpha, keeps
every exponent of q positive.

The limit of a "yes" profile is the t^0 coefficient of a least-squares fit
of its samples at the probes t_j = PROBE_T0 * PROBE_RATIO^j on t^0, its
powers of t and its log term.  The fit's relative residual is reported
with it: the samples check the exponents rather than decide.

Norms are reported as maxima over a 512-point graded grid joined with the
probe samples - grid maxima, hence lower bounds of the true suprema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# apply_green is not called here but stays importable by this name, like
# q_profile and p_profile, where perfbench's tracer looks the three up.
from .quadrature import (
    GradedMesh,
    WeightSpec,
    apply_dalpha_minus_1,
    apply_green,
    apply_green_derivative,
    apply_operators,
    as_weight_spec,
    build_mesh,
)

__all__ = [
    "YES",
    "NO",
    "GreenProblem",
    "RegularityReport",
    "q_profile",
    "p_profile",
    "classify",
]

YES = "yes"
NO = "no"

# The probes t_j = PROBE_T0 * PROBE_RATIO^j, j < PROBES.
PROBE_T0 = 0.25
PROBE_RATIO = 0.5
PROBES = 20
NORM_GRID_PANELS = 512


@dataclass(frozen=True, eq=False)
class GreenProblem:
    """A linear problem D^alpha u + g = 0 bundled with its quadrature mesh."""

    weight: WeightSpec
    alpha: float
    mesh: GradedMesh

    @classmethod
    def build(cls, forcing, alpha: float, n: int = 512) -> "GreenProblem":
        w = as_weight_spec(forcing)
        return cls(weight=w, alpha=alpha, mesh=build_mesh(n, w, alpha))

    def decomposition(self):
        return self.weight.singular_decomposition()


@dataclass(frozen=True)
class RegularityReport:
    """Membership verdicts, limits, fit residuals and grid norms for one problem.

    A verdict is "yes" or "no", from the forcing's exponents.  For "yes" the
    limit is the t^0 coefficient of the least-squares fit of the probe
    samples, and the fit residual is ||A c - x|| / ||x||; both are NaN when
    a sample is not finite.  For "no" the limit, the residual and the norm
    are None (the weighted sup is infinite).
    """

    q_limit_estimate: Optional[float]
    p_limit_estimate: Optional[float]
    q_fit_residual: Optional[float]
    p_fit_residual: Optional[float]
    in_E_alpha: str
    in_C1_2ma: str
    e_alpha_norm: Optional[float]
    c1_norm: Optional[float]
    samples: tuple[tuple[float, float, float], ...]


def q_profile(problem: GreenProblem, t_list: Sequence[float]) -> list[tuple[float, float]]:
    """Samples of q(t) = t^(alpha-1) D^(alpha-1) u(t)."""
    beta_g, regular = problem.decomposition()
    alpha, mesh = problem.alpha, problem.mesh
    t = np.asarray(t_list, dtype=float)
    q = t ** (alpha - 1.0) * apply_dalpha_minus_1(t, beta_g, regular, alpha, mesh)
    return list(zip(t.tolist(), q.tolist()))


def p_profile(problem: GreenProblem, t_list: Sequence[float]) -> list[tuple[float, float]]:
    """Samples of p(t) = t^(2-alpha) u'(t)."""
    beta_g, regular = problem.decomposition()
    alpha, mesh = problem.alpha, problem.mesh
    t = np.asarray(t_list, dtype=float)
    p = t ** (2.0 - alpha) * apply_green_derivative(t, beta_g, regular, alpha, mesh)
    return list(zip(t.tolist(), p.tolist()))


def classify(problem: GreenProblem) -> RegularityReport:
    """Classify the solution against E_alpha and C^1_(2-alpha) toward t = 0."""
    bases = _profile_bases(problem)
    if any(len(exponents) + (log is not None) >= PROBES for exponents, log in bases):
        raise ValueError(f"the forcing has too many exponents to fit on {PROBES} probes")

    ts = [PROBE_T0 * PROBE_RATIO**j for j in range(PROBES)]
    beta_g, regular = problem.decomposition()
    alpha, mesh = problem.alpha, problem.mesh
    grid = GradedMesh.from_grading(NORM_GRID_PANELS, mesh.grading).nodes
    # The probe points join the norm grid with their exact floats, so each
    # profile is evaluated once and the probes are rows of it.  Sorted and
    # deduplicated by hand: np.unique imports numpy.ma (about 20 ms) on
    # first use.
    pts = np.sort(np.concatenate((grid[(grid > 0.0) & (grid < 1.0)], ts)))
    pts = pts[np.append(True, pts[1:] != pts[:-1])]
    probes = np.searchsorted(pts, ts)
    # u, q and p from one assembly pass: the values of apply_green,
    # q_profile and p_profile at pts.
    u, dalpha, du = apply_operators(
        ("u", "dalpha", "du"), pts, beta_g, regular, alpha, mesh
    )
    q = pts ** (alpha - 1.0) * dalpha
    p = pts ** (2.0 - alpha) * du

    (verdict_q, q_limit, q_residual), (verdict_p, p_limit, p_residual) = (
        _judge(np.array(ts), x[probes], basis) for x, basis in zip((q, p), bases)
    )

    u_max = float(np.max(np.abs(u)))
    q_max = float(np.max(np.abs(q)))
    p_max = float(np.max(np.abs(p)))

    return RegularityReport(
        q_limit_estimate=q_limit,
        p_limit_estimate=p_limit,
        q_fit_residual=q_residual,
        p_fit_residual=p_residual,
        in_E_alpha=verdict_q,
        in_C1_2ma=verdict_p,
        e_alpha_norm=(u_max + q_max) if verdict_q == YES else None,
        c1_norm=(u_max + p_max) if verdict_p == YES else None,
        samples=tuple(zip(ts, q[probes].tolist(), p[probes].tolist())),
    )


def _profile_bases(problem: GreenProblem):
    """The exponents of q and of p near 0, each with its log term's power.

    Each profile is an ascending exponent list, which always holds 0 (the
    limit's column), and the power of its log term or None.  The forcing's
    exponents come rounded by PowerSum, so equal exponents merge exactly.
    """
    w, alpha = problem.weight, problem.alpha
    ls = w.regular.times_power(-w.beta).exponents
    resonant = -1.0 in ls
    q = sorted({0.0, alpha - 1.0, *(lam + alpha for lam in ls)})
    p = sorted({0.0, *(lam + 1.0 for lam in ls)})
    return (q, alpha - 1.0 if resonant else None), (p, 0.0 if resonant else None)


def _judge(ts: np.ndarray, xs: np.ndarray, basis):
    """Verdict, limit and relative fit residual of one profile's samples."""
    exponents, log = basis
    if exponents[0] < 0.0 or (log is not None and log <= 0.0):
        return NO, None, None
    if not np.all(np.isfinite(xs)):
        return YES, np.nan, np.nan
    s = ts / PROBE_T0
    columns = [s**g for g in exponents]
    if log is not None:
        columns.append(s**log * np.log(s))
    a = np.column_stack(columns)
    c = np.linalg.lstsq(a, xs, rcond=None)[0]
    size = np.linalg.norm(xs)
    residual = np.linalg.norm(a @ c - xs) / size if size else 0.0
    return YES, float(c[0]), float(residual)
