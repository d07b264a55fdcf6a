"""Boundary-regularity profiles and membership classification.

Two weighted profiles of the solution u(t) = int G(t,s) g(s) ds are probed
as t -> 0:

    q(t) = t^(alpha-1) * D^(alpha-1) u(t)      (membership in E_alpha)
    p(t) = t^(2-alpha) * u'(t)                 (membership in C^1_(2-alpha))

Both spaces ask the weighted quantity to extend continuously to [0, 1], so
the classifier samples geometrically, t_j = t0 * r^j, and inspects the
successive differences: a power tail x(t) ~ L + c t^sigma produces constant
difference ratios r^sigma, so ratios bounded away from 1 certify
stabilization while a strictly growing |x| past a fixed multiple of its
starting size certifies blow-up.  Near-critical exponents cannot be decided
numerically and come back as "inconclusive" rather than being forced.

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
    "INCONCLUSIVE",
    "GreenProblem",
    "RegularityReport",
    "q_profile",
    "p_profile",
    "classify",
]

YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"

# Stabilization: the last RATIO_TAIL difference ratios must sit below
# RATIO_BOUND.  Divergence: some |x| beyond DIVERGENCE_FACTOR times
# max(1, |x(t0)|) with |x| strictly increasing over the last DIVERGENCE_TAIL
# samples.
RATIO_BOUND = 0.9
RATIO_TAIL = 5
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_TAIL = 5
NORM_GRID_PANELS = 512


@dataclass(frozen=True, eq=False)
class GreenProblem:
    """A linear problem D^alpha u + g = 0 bundled with its quadrature mesh."""

    weight: object  # WeightSpec
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
    """Limit estimates, membership verdicts and grid norms for one problem.

    Limit estimates are geometric-tail extrapolations when the profile
    stabilizes and None otherwise; norms are None when the corresponding
    membership verdict is "no" (the weighted sup is infinite).
    """

    q_limit_estimate: Optional[float]
    p_limit_estimate: Optional[float]
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


def classify(
    problem: GreenProblem,
    t0: float = 0.25,
    r: float = 0.5,
    J: int = 20,
) -> RegularityReport:
    """Classify the solution against E_alpha and C^1_(2-alpha) toward t = 0."""
    if not 0.0 < t0 < 1.0:
        raise ValueError(f"t0 must lie in (0, 1), got {t0!r}")
    if not 0.0 < r < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {r!r}")
    if J < RATIO_TAIL + 2:
        raise ValueError(f"need at least {RATIO_TAIL + 2} samples, got {J}")

    ts = [t0 * r**j for j in range(J)]
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
    qs, ps = q[probes].tolist(), p[probes].tolist()

    verdict_q, q_limit = _stabilization_verdict(qs)
    verdict_p, p_limit = _stabilization_verdict(ps)

    u_max = float(np.max(np.abs(u)))
    q_max = float(np.max(np.abs(q)))
    p_max = float(np.max(np.abs(p)))

    return RegularityReport(
        q_limit_estimate=q_limit,
        p_limit_estimate=p_limit,
        in_E_alpha=verdict_q,
        in_C1_2ma=verdict_p,
        e_alpha_norm=(u_max + q_max) if verdict_q != NO else None,
        c1_norm=(u_max + p_max) if verdict_p != NO else None,
        samples=tuple(zip(ts, qs, ps)),
    )


def _stabilization_verdict(xs: Sequence[float]) -> tuple[str, Optional[float]]:
    x = np.asarray(xs, dtype=float)
    absx = np.abs(x)
    threshold = DIVERGENCE_FACTOR * max(1.0, absx[0])
    tail_increasing = bool(np.all(np.diff(absx[-DIVERGENCE_TAIL:]) > 0.0))
    if np.any(absx > threshold) and tail_increasing:
        return NO, None

    diffs = np.abs(np.diff(x))
    ratios = np.empty(len(diffs) - 1)
    for j in range(1, len(diffs)):
        if diffs[j - 1] == 0.0:
            ratios[j - 1] = 0.0 if diffs[j] == 0.0 else np.inf
        else:
            ratios[j - 1] = diffs[j] / diffs[j - 1]
    if (
        len(ratios) >= RATIO_TAIL
        and np.max(ratios[-RATIO_TAIL:]) <= RATIO_BOUND
        and not np.any(absx > threshold)
    ):
        return YES, _geometric_limit(x, diffs)
    return INCONCLUSIVE, None


def _geometric_limit(x: np.ndarray, diffs: np.ndarray) -> float:
    # x(t_j) ~ L + c rho^j: sum the geometric tail of the increments.
    step = x[-1] - x[-2]
    if diffs[-2] == 0.0 or step == 0.0:
        return float(x[-1])
    rho = diffs[-1] / diffs[-2]
    return float(x[-1] + step * rho / (1.0 - rho))
