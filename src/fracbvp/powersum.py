"""Exact Riemann-Liouville calculus on finite sums of real powers of t.

A :class:`PowerSum` is ``sum_i c_i * t**lam_i``.  On this class the
fractional integral and derivative act termwise through Gamma-function
ratios:

    I^mu t^lam = Gamma(lam+1) / Gamma(lam+mu+1) * t^(lam+mu)
    D^mu t^lam = Gamma(lam+1) / Gamma(lam-mu+1) * t^(lam-mu)

with the derivative dropping a term *exactly* whenever ``lam - mu + 1`` is a
nonpositive integer (a pole of Gamma), which is how the kernel powers
t^(mu-1), t^(mu-2) are annihilated.  This closed-form algebra is the
ground-truth oracle for the quadrature, solver and regularity modules.

Calculus *inputs* must have every exponent > -1 so the defining convolution
integrals exist.  Derivative *outputs* may leave that class (the derivative
of t^0.2 at order 1.5 carries t^-1.3); such sums remain first-class values
here - they can be evaluated at t > 0 and used as forcing terms - but are
rejected if fed back into the calculus.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator

import numpy as np

from .gammafn import gamma, reciprocal_gamma
from .green import checked_alpha

__all__ = [
    "ExponentRangeError",
    "SingularEvaluationError",
    "PowerSumParseError",
    "PowerSum",
    "ZERO",
    "ONE",
    "frac_integral",
    "frac_derivative",
    "classical_derivative",
    "exact_dirichlet_solution",
    "parse_power_sum",
    "format_power_sum",
]

# Exponents are rounded to this many decimals at construction; exponents of
# interest are short decimal literals, so equality after rounding is the
# term-merging criterion.
EXPONENT_DECIMALS = 12


class ExponentRangeError(ValueError):
    """An operation would need an exponent outside its admissible range."""


class SingularEvaluationError(ValueError):
    """Evaluation at t = 0 requested while negative exponents are present."""


class PowerSumParseError(ValueError):
    """Malformed power-sum, weight or nonlinearity text; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PowerSum:
    """Canonical finite linear combination of real powers of t.

    Terms are stored sorted by ascending exponent, exponents rounded to
    ``EXPONENT_DECIMALS`` decimals, equal exponents merged and zero
    coefficients dropped.  An exponent or merged coefficient that is not
    finite raises ValueError.  Instances are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[float, float]] = ()):
        merged: dict[float, float] = {}
        for coeff, expo in terms:
            expo = round(float(expo), EXPONENT_DECIMALS)
            merged[expo] = merged.get(expo, 0.0) + float(coeff)
        for lam, c in merged.items():
            if not (math.isfinite(lam) and math.isfinite(c)):
                raise ValueError(f"power-sum term {c!r}*t^{lam!r} is not finite")
        self._terms = tuple(
            (c, lam) for lam, c in sorted(merged.items()) if c != 0.0
        )

    @classmethod
    def monomial(cls, coeff: float, exponent: float) -> "PowerSum":
        return cls([(coeff, exponent)])

    @classmethod
    def constant(cls, value: float) -> "PowerSum":
        return cls([(value, 0.0)])

    @property
    def terms(self) -> tuple[tuple[float, float], ...]:
        """Canonical (coefficient, exponent) pairs, ascending in exponent."""
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def min_exponent(self) -> float:
        if not self._terms:
            raise ValueError("the zero PowerSum has no exponents")
        return self._terms[0][1]

    @property
    def exponents(self) -> tuple[float, ...]:
        return tuple(lam for _, lam in self._terms)

    @property
    def coefficients(self) -> tuple[float, ...]:
        return tuple(c for c, _ in self._terms)

    def times_power(self, delta: float) -> "PowerSum":
        """Multiply by t**delta (shift every exponent by delta)."""
        return PowerSum((c, lam + delta) for c, lam in self._terms)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "PowerSum") -> "PowerSum":
        if not isinstance(other, PowerSum):
            return NotImplemented
        return PowerSum(self._terms + other._terms)

    def __sub__(self, other: "PowerSum") -> "PowerSum":
        if not isinstance(other, PowerSum):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "PowerSum":
        return PowerSum((-c, lam) for c, lam in self._terms)

    def __mul__(self, scalar: float) -> "PowerSum":
        if isinstance(scalar, (int, float)):
            return PowerSum((c * scalar, lam) for c, lam in self._terms)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PowerSum) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __call__(self, t):
        """Evaluate at t >= 0: a float at a scalar, an array at an array.

        Any array-like t is taken as an array, a list included, and a 0-d
        array gives a float, as the quadrature's operators return.

        At t = 0 the value is defined only when every exponent is >= 0
        (with the 0**0 = 1 convention); a negative exponent raises
        :class:`SingularEvaluationError`.
        """
        arr = np.asarray(t, dtype=float)
        low = float(np.min(arr, initial=1.0))
        if low < 0.0:
            raise ValueError(f"PowerSum evaluation needs t >= 0, got {low!r}")
        if low == 0.0 and self._terms and self.min_exponent < 0.0:
            raise SingularEvaluationError(
                "negative exponent present, cannot evaluate at t = 0"
            )
        out = np.zeros_like(arr)
        for c, lam in self._terms:
            # t^0 = 1 for every t, 0 included: c * t^0 is c to the bit
            out += c if lam == 0.0 else c * np.power(arr, lam)
        return float(out) if out.ndim == 0 else out

    def __repr__(self) -> str:
        return f"PowerSum({list(self._terms)!r})"

    def __str__(self) -> str:
        return format_power_sum(self)


ZERO = PowerSum()
ONE = PowerSum.constant(1.0)


def _require_integrable(u: PowerSum, op: str) -> None:
    if not u.is_zero and u.min_exponent <= -1.0:
        raise ExponentRangeError(
            f"{op} needs every exponent > -1 (Riemann-Liouville integrability"
            f" on (0,1)); got minimum exponent {u.min_exponent}"
        )


def frac_integral(u: PowerSum, mu: float) -> PowerSum:
    """Riemann-Liouville fractional integral I^mu of order mu > 0."""
    mu = float(mu)
    if mu <= 0.0:
        raise ValueError(f"fractional integral needs mu > 0, got {mu!r}")
    _require_integrable(u, "frac_integral")
    return PowerSum(
        (c * gamma(lam + 1.0) / gamma(lam + mu + 1.0), lam + mu)
        for c, lam in u
    )


def frac_derivative(u: PowerSum, mu: float) -> PowerSum:
    """Riemann-Liouville fractional derivative D^mu, 0 < mu <= 2, termwise.

    Terms whose image hits a pole of 1/Gamma (the kernel powers
    t^(mu-1), t^(mu-2)) are dropped exactly.  The result may carry
    exponents <= -1; that is the forcing class of the singular problems.
    """
    mu = float(mu)
    if not 0.0 < mu <= 2.0:
        raise ValueError(f"fractional derivative needs 0 < mu <= 2, got {mu!r}")
    _require_integrable(u, "frac_derivative")
    out = []
    for c, lam in u:
        rg = reciprocal_gamma(lam - mu + 1.0)
        if rg == 0.0:
            continue
        out.append((c * gamma(lam + 1.0) * rg, lam - mu))
    return PowerSum(out)


def classical_derivative(u: PowerSum) -> PowerSum:
    """Ordinary derivative d/dt, termwise; constant terms vanish.

    Rejects inputs whose derivative would leave the representable class
    (a surviving exponent at or below -1).
    """
    out = []
    for c, lam in u:
        if lam == 0.0:
            continue
        if lam - 1.0 <= -1.0:
            raise ExponentRangeError(
                f"derivative of t^{lam} has exponent {lam - 1.0} <= -1"
            )
        out.append((c * lam, lam - 1.0))
    return PowerSum(out)


def exact_dirichlet_solution(g: PowerSum, alpha: float) -> PowerSum:
    """Closed-form solution of D^alpha u + g = 0, u(0) = u(1) = 0.

    Inverts the power rule termwise (each forcing term a*t^lam yields
    c*t^(lam+alpha) with c*Gamma(lam+alpha+1)/Gamma(lam+1) = -a) and adds
    the kernel power t^(alpha-1) that restores u(1) = 0.  Valid whenever
    every forcing exponent satisfies lam + alpha > 0 - which is exactly the
    termwise integrability condition at 0 - and no lam is a negative
    integer (resonance with the kernel).
    """
    alpha = checked_alpha(alpha)
    particular = []
    for a, lam in g:
        if lam + alpha <= 0.0:
            raise ExponentRangeError(
                f"forcing term t^{lam} is too singular for order {alpha}"
            )
        rg = reciprocal_gamma(lam + 1.0)
        if rg == 0.0:
            raise ExponentRangeError(
                f"forcing exponent {lam} resonates with the kernel; no"
                " power-sum solution"
            )
        particular.append((-a / (gamma(lam + alpha + 1.0) * rg), lam + alpha))
    u_p = PowerSum(particular)
    boundary = u_p(1.0)
    return u_p + PowerSum.monomial(-boundary, alpha - 1.0)


# --- textual form: "c1*t^l1 + c2*t^l2 + ..." --------------------------------

_FLOAT_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_WS_RE = re.compile(r"\s*")


def format_power_sum(u: PowerSum) -> str:
    """Canonical text form; ``parse_power_sum`` round-trips it exactly."""
    if u.is_zero:
        return "0"
    return " + ".join(f"{c!r}*t^{lam!r}" for c, lam in u)


def parse_power_sum(text: str) -> PowerSum:
    """Parse ``c1*t^l1 + c2*t^l2 + ...`` (also bare constants and ``t^l``)."""
    terms: list[tuple[float, float]] = []
    pos = _WS_RE.match(text).end()
    if pos == len(text):
        raise PowerSumParseError("empty power-sum expression", pos)
    if text[pos] == "0" and text[pos:].strip() == "0":
        return ZERO
    sign = 1.0
    if text[pos] in "+-":
        sign = -1.0 if text[pos] == "-" else 1.0
        pos = _WS_RE.match(text, pos + 1).end()
    while True:
        coeff, expo, pos = _parse_term(text, pos)
        terms.append((sign * coeff, expo))
        pos = _WS_RE.match(text, pos).end()
        if pos == len(text):
            return PowerSum(terms)
        if text[pos] not in "+-":
            raise PowerSumParseError(
                f"expected '+' or '-' between terms, found {text[pos]!r}", pos
            )
        sign = -1.0 if text[pos] == "-" else 1.0
        pos = _WS_RE.match(text, pos + 1).end()


def float_at(text: str, pos: int, what: str) -> tuple[float, int]:
    """The decimal literal at ``text[pos:]`` and the offset just past it.

    Reads the numbers of the power-sum, weight, forcing and nonlinearity
    grammars.  Raises :class:`PowerSumParseError` at ``pos`` naming
    ``what`` was expected when no literal starts there, and when the
    literal is too large for a double.
    """
    m = _FLOAT_RE.match(text, pos)
    if m is None:
        raise PowerSumParseError(f"expected {what}", pos)
    value = float(m.group())
    if not math.isfinite(value):
        raise PowerSumParseError(f"{m.group()} is too large for a double", pos)
    return value, m.end()


def _parse_term(text: str, pos: int) -> tuple[float, float, int]:
    if text.startswith("t^", pos):
        expo, pos = float_at(text, pos + 2, "exponent after 't^'")
        return 1.0, expo, pos
    coeff, pos = float_at(text, pos, "a coefficient")
    if not text.startswith("*t^", pos):
        return coeff, 0.0, pos
    expo, pos = float_at(text, pos + 3, "exponent after '*t^'")
    return coeff, expo, pos
