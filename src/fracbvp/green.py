"""Green's function of D^alpha with homogeneous Dirichlet data on (0, 1).

For order alpha in (1, 2] the kernel is

    G(t, s) = [ (t*(1-s))^(alpha-1) - (t-s)^(alpha-1) ] / Gamma(alpha),  s <= t
    G(t, s) =   (t*(1-s))^(alpha-1) / Gamma(alpha),                      t <= s

Both branches agree at s = t, G vanishes on t in {0, 1}, and G >= 0.

The left branch is one case of the bracket

    B_e(t, s) = t^e (1-s)^(alpha-1) - (t-s)^e,   0 <= s < t <= 1,

with e = alpha-1 for G (and the Green integral u) and e = alpha-2 for the
left kernel of u'.  The delicate regime is s << t, where the two terms
agree to O(s/t) and naive subtraction loses every digit; the Green
integral of a forcing that blows up like s^(-beta) at the origin leans
exactly on that cancellation.  The bracket is therefore evaluated through
the exact identity

    B_e = (t-s)^e * expm1(d),     d = (alpha-1)*log1p(-s) - e*log1p(-s/t),
    (t-s)^e = t^e * exp(e*log1p(-s/t)),

which keeps full relative accuracy all the way down to s = 0.  With t^e per
row and log1p(-s), (1-s)^(alpha-1) per column, an element costs one log1p,
one exp and one expm1.  Where |d| >= ln 2 the two terms differ by at least
a factor of two and there is nothing to cancel; there the direct
difference t^e (1-s)^(alpha-1) - (t-s)^e is taken with the exact t - s,
which keeps the digits of (t-s)^e that rounding s/t loses once 1 - s/t is
small.
"""

from __future__ import annotations

import numpy as np

from .gammafn import gamma

__all__ = ["green_eval", "green_values"]


def column_terms(s, alpha: float):
    """((alpha-1)*log1p(-s), (1-s)^(alpha-1)): the t-free factors of B_e."""
    return (alpha - 1.0) * np.log1p(-s), np.power(1.0 - s, alpha - 1.0)


def bracket_values(t, s, alpha: float, e: float, t_e=None, s_terms=None):
    """B_e(t, s) = t^e (1-s)^(alpha-1) - (t-s)^e, cancellation-safe.

    Internal helper shared with the quadrature module.  ``t`` and ``s``
    broadcast against each other with 0 < t <= 1 and 0 <= s < t
    elementwise; ``e`` is alpha-1 or alpha-2.  ``t_e = t**e`` and
    ``s_terms = column_terms(s, alpha)`` may be passed when the caller
    already holds them.
    """
    if t_e is None:
        t_e = np.power(t, e)
    log_s, pow_s = column_terms(s, alpha) if s_terms is None else s_terms
    x = np.divide(s, np.negative(t))
    np.log1p(x, out=x)
    x *= e
    d = np.subtract(log_s, x)
    np.exp(x, out=x)
    x *= t_e  # (t-s)^e
    np.expm1(d, out=d)
    # log1p(-s/t) <= log1p(-s) <= 0 for t <= 1, so d >= 0 for e = alpha-1
    # and d <= 0 for e = alpha-2; |d| >= ln 2 then means expm1(d) >= 1 or
    # expm1(d) <= -1/2.
    far = d >= 1.0 if e > 0.0 else d <= -0.5
    d *= x
    if far.any():  # the direct difference, with the exact t - s
        np.subtract(t, s, out=x, where=far)
        np.power(x, e, out=x, where=far)
        np.multiply(t_e, pow_s, out=d, where=far)
        np.subtract(d, x, out=d, where=far)
    return d


def green_values(t: float, s: np.ndarray, alpha: float) -> np.ndarray:
    """Vectorized G(t, s) over an array of s for fixed t; no validation."""
    s = np.asarray(s, dtype=float)
    a1 = alpha - 1.0
    out = np.power(t * (1.0 - s), a1)
    left = s < t
    if np.any(left):
        out[left] = bracket_values(t, s[left], alpha, a1)
    return out / gamma(alpha)


def green_eval(t: float, s: float, alpha: float) -> float:
    """G(t, s) for t, s in [0, 1] and order alpha in (1, 2]."""
    t = float(t)
    s = float(s)
    alpha = float(alpha)
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"order must lie in (1, 2], got {alpha!r}")
    if not (0.0 <= t <= 1.0 and 0.0 <= s <= 1.0):
        raise ValueError(f"(t, s) must lie in the unit square, got {(t, s)!r}")
    return float(green_values(t, np.array([s]), alpha)[0])
