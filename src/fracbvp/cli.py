"""Command-line interface: solve, classify and the four-weight figure.

Problem grammar
---------------
Weights:  ``power:<beta>`` or ``power:<beta>*sum:<c1>,<l1>;<c2>,<l2>;...``
meaning h(t) = t^(-beta) * (c1 t^l1 + c2 t^l2 + ...) with decimal literals;
regular exponents must be nonnegative.  Forcings (``--forcing``) accept the
same grammar with signed coefficients, or a bare power-sum expression
``c1*t^l1 + c2*t^l2 + ...``; the Green representation is linear and
sign-agnostic, only the nonlinear path insists on a nonnegative weight.
Nonlinearities: ``const:<c>``, ``linear:<a>``, ``power:<p>``,
``affine:<a>,<b>``.

Exit codes are a stable contract: 0 success, 2 condition-(H) violation,
3 parse/validation error (a literal too large for a double included) or
an ``--out`` that cannot be written, 4 Picard nonconvergence (CSV still
written) or non-finite quadrature values: a solution, du or q of
``solve``, or a sample, limit, fit residual or norm of ``classify``
(whose CSV is still written).

CSV files are UTF-8, comma-separated with a header row, LF line endings and
17-significant-digit decimals, so reading a file back reproduces the floats
bit-exactly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .powersum import (
    ONE,
    PowerSum,
    PowerSumParseError,
    float_at,
    parse_power_sum,
)
# apply_green_derivative and apply_dalpha_minus_1 are not called here but
# stay importable by these names, where perfbench's tracer looks them up.
from .quadrature import (
    ConditionHError,
    WeightSpec,
    apply_dalpha_minus_1,
    apply_green_derivative,
    as_weight_spec,
)
from .regularity import GreenProblem, classify
from .solve import (
    LINEAR_QUADRATURE_PANELS,
    NonlinearitySpec,
    check_picard_controls,
    require_finite,
    solve_linear,
    solve_nonlinear,
)

__all__ = [
    "WeightParseError",
    "parse_weight",
    "parse_forcing",
    "parse_nonlinearity",
    "render_line_plot",
    "main",
]

EXIT_OK = 0
EXIT_CONDITION_H = 2
EXIT_PARSE = 3
EXIT_NO_CONVERGENCE = 4

# Weights, forcings and nonlinearities share the power-sum number grammar
# and its positioned parse error.
WeightParseError = PowerSumParseError


# --- grammar -----------------------------------------------------------------


def parse_weight(text: str) -> WeightSpec:
    """Parse ``power:<beta>`` or ``power:<beta>*sum:<c>,<l>;...``."""
    if not text.startswith("power:"):
        raise WeightParseError("expected 'power:' prefix", 0)
    beta, pos = float_at(text, len("power:"), "singularity exponent")
    if beta < 0.0:
        raise WeightParseError("singularity exponent must be >= 0", len("power:"))
    if pos == len(text):
        return WeightSpec(beta, ONE)
    if not text.startswith("*sum:", pos):
        raise WeightParseError("expected '*sum:' after the exponent", pos)
    pos += len("*sum:")
    terms = []
    while True:
        coeff, pos = float_at(text, pos, "a coefficient")
        if pos == len(text) or text[pos] != ",":
            raise WeightParseError("expected ',' between coefficient and exponent", pos)
        expo_pos = pos + 1
        expo, pos = float_at(text, expo_pos, "an exponent")
        if expo < 0.0:
            raise WeightParseError("negative regular exponents are rejected", expo_pos)
        terms.append((coeff, expo))
        if pos == len(text):
            return WeightSpec(beta, PowerSum(terms))
        if text[pos] != ";":
            raise WeightParseError("expected ';' between terms", pos)
        pos += 1


def parse_forcing(text: str) -> WeightSpec:
    """Forcing grammar: the weight grammar (signed) or a raw power sum."""
    if text.startswith("power:"):
        return parse_weight(text)
    return as_weight_spec(parse_power_sum(text))


def parse_nonlinearity(text: str) -> NonlinearitySpec:
    """Parse ``const:<c>``, ``linear:<a>``, ``power:<p>`` or ``affine:<a>,<b>``."""
    head, sep, _ = text.partition(":")
    if not sep:
        raise WeightParseError("expected ':' after the nonlinearity kind", len(head))
    params = []
    pos = len(head) + 1
    while True:
        value, pos = float_at(text, pos, "a parameter")
        params.append(value)
        if pos == len(text):
            break
        if text[pos] != ",":
            raise WeightParseError("expected ',' between parameters", pos)
        pos += 1
    kind = {"const": "constant"}.get(head, head)
    try:
        return NonlinearitySpec(kind, tuple(params))
    except ValueError as exc:
        # an unknown kind is wrong from its first character, a rejected
        # parameter from the first one after the colon
        pos = len(head) + 1 if kind in NonlinearitySpec.KINDS else 0
        raise WeightParseError(str(exc), pos) from exc


def _weight_or_forcing(args) -> WeightSpec:
    """The weight or the forcing, whichever of the two flags was given."""
    if (args.weight is None) == (args.forcing is None):
        raise WeightParseError("exactly one of --weight/--forcing is required", 0)
    if args.weight is not None:
        return parse_weight(args.weight)
    return parse_forcing(args.forcing)


# --- output helpers ----------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def render_line_plot(path: Path, curves, title: str = "") -> None:
    """Write a static overlay line plot of (label, x, y) curves as SVG."""
    width, height = 720, 480
    ml, mr, mt, mb = 64, 18, 36, 48
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in curves])
    y_lo = min(0.0, float(ys.min()))
    y_hi = float(ys.max())
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_hi += 0.05 * (y_hi - y_lo)

    def fx(x):
        return ml + x * (width - ml - mr)

    def fy(y):
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="{mt - 12}" text-anchor="middle"'
        f' font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for k in range(6):
        x = k / 5.0
        parts.append(
            f'<line x1="{fx(x):.2f}" y1="{fy(y_lo):.2f}" x2="{fx(x):.2f}"'
            f' y2="{fy(y_hi):.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{fx(x):.2f}" y="{height - mb + 18}" text-anchor="middle"'
            f' font-family="sans-serif" font-size="11">{x:g}</text>'
        )
        y = y_lo + k * (y_hi - y_lo) / 5.0
        parts.append(
            f'<line x1="{fx(0):.2f}" y1="{fy(y):.2f}" x2="{fx(1):.2f}"'
            f' y2="{fy(y):.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{fy(y) + 4:.2f}" text-anchor="end"'
            f' font-family="sans-serif" font-size="11">{y:.3g}</text>'
        )
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}"'
        f' height="{height - mt - mb}" fill="none" stroke="#333333"/>'
    )
    for k, (label, xs, ysc) in enumerate(curves):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(
            f"{fx(float(x)):.2f},{fy(float(y)):.2f}" for x, y in zip(xs, ysc)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}"'
            f' stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{ml + 12}" y="{mt + 20 + 16 * k}" fill="{color}"'
            f' font-family="sans-serif" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


# --- commands ----------------------------------------------------------------


def cmd_solve(args) -> int:
    w = _weight_or_forcing(args)
    alpha, out = args.alpha, Path(args.out)

    if args.forcing is not None:
        if args.f is not None:
            raise ValueError("--f applies to --weight; a --forcing solve is linear")
        # the Picard flags are unused on the linear path, but still checked
        check_picard_controls(args.tol, args.max_iter)
        solution = solve_linear(w, alpha, args.n)
        converged, status = True, "direct"
    else:
        if any(c < 0.0 for c in w.regular.coefficients):
            raise WeightParseError(
                "the nonlinear path needs a nonnegative weight; use --forcing"
                " for signed data",
                0,
            )
        f = parse_nonlinearity("const:1" if args.f is None else args.f)
        report = solve_nonlinear(
            w, f, alpha, args.n, tol=args.tol, max_iter=args.max_iter
        )
        solution = report.solution
        converged = report.converged
        status = (
            f"picard_iterations={report.picard_iterations}"
            f" final_update={report.final_update_sup_norm:.3e}"
            f" residual_median_rel={report.residual_median_rel:.3e}"
            + (" seeded" if report.seeded else "")
        )

    # du and q take u's own integrand and quadrature mesh, at its nodes
    nodes = solution.mesh.nodes
    du, dalpha = solution.operators(("du", "dalpha"), nodes[1:-1])
    q = np.zeros(len(nodes))
    q[1:-1] = nodes[1:-1] ** (alpha - 1.0) * dalpha
    # u' is not defined at t = 1; q(1) = D^(alpha-1)u(1)
    q[-1] = solution.operators(("dalpha",), 1.0)[0]
    require_finite(du, q)

    du_cells = [""] + [_fmt(v) for v in du] + [""]
    rows = (
        [_fmt(t), _fmt(v), d, _fmt(qv)]
        for t, v, d, qv in zip(nodes, solution.values, du_cells, q)
    )
    write_csv(out, ["t", "u", "du", "q"], rows)

    sup = solution.sup_norm
    e_alpha = sup + float(np.max(np.abs(q)))
    print(
        f"sup_norm={sup:.12g} e_alpha_norm_grid={e_alpha:.12g}"
        f" converged={converged} [{status}] -> {out}"
    )
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


def cmd_classify(args) -> int:
    out = Path(args.out)
    problem = GreenProblem.build(_weight_or_forcing(args), args.alpha, args.n)
    report = classify(problem)

    def show(limit, residual):
        # a limit and its fit residual exist only for the verdict "yes"
        if limit is None:
            return "divergent fit_residual=None"
        return f"{limit:.12g} fit_residual={residual:.3e}"

    print(
        f"in_E_alpha={report.in_E_alpha}"
        f" q_limit={show(report.q_limit_estimate, report.q_fit_residual)}"
    )
    print(
        f"in_C1_2ma={report.in_C1_2ma}"
        f" p_limit={show(report.p_limit_estimate, report.p_fit_residual)}"
    )
    print(
        f"e_alpha_norm={report.e_alpha_norm} c1_norm={report.c1_norm}"
        f" -> {out}"
    )
    rows = (
        [_fmt(t), _fmt(qv), _fmt(pv)] for t, qv, pv in report.samples
    )
    write_csv(out, ["t", "q", "p"], rows)
    values = [report.q_limit_estimate, report.p_limit_estimate,
              report.q_fit_residual, report.p_fit_residual,
              report.e_alpha_norm, report.c1_norm]
    require_finite([v for v in values if v is not None], report.samples)
    return EXIT_OK


FIGURE_ALPHA = 1.6
FIGURE_WEIGHTS = (
    ("h(t)=t^0.6", "hpow_+0.6", WeightSpec(0.0, PowerSum.monomial(1.0, 0.6))),
    ("h(t)=1", "hpow_+0.0", WeightSpec(0.0, ONE)),
    ("h(t)=t^-0.6", "hpow_-0.6", WeightSpec(0.6, ONE)),
    ("h(t)=t^-1.2", "hpow_-1.2", WeightSpec(1.2, ONE)),
)


def cmd_figure1(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    curves = []
    for label, slug, w in FIGURE_WEIGHTS:
        solution = solve_linear(w, FIGURE_ALPHA, args.n)
        nodes = solution.mesh.nodes
        write_csv(
            out_dir / f"{slug}.csv",
            ["t", "u"],
            ([_fmt(t), _fmt(v)] for t, v in zip(nodes, solution.values)),
        )
        curves.append((label, nodes, solution.values))
    plot = out_dir / "figure1.svg"
    render_line_plot(
        plot, curves, title=f"u(t) for four weights, alpha={FIGURE_ALPHA}"
    )
    print(f"wrote {len(curves)} CSV files and {plot}")
    return EXIT_OK


# --- argument parsing --------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Subcommand parsers are built from this class too.  No flag may be
    # abbreviated: a flag the command lacks, such as --f on classify, is a
    # usage error, not a prefix of --forcing.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _add_problem_flags(sub, out_default: str, n_help: str = "panel count") -> None:
    sub.add_argument("--alpha", type=float, required=True,
                     help="fractional order in (1, 2]")
    sub.add_argument("--weight", help="weight grammar power:<beta>[*sum:...]")
    sub.add_argument("--forcing",
                     help="signed forcing (weight grammar or c1*t^l1 + ...)")
    sub.add_argument("--n", type=int, default=512, help=n_help)
    sub.add_argument("--out", default=out_default, help="output CSV path")


_SOLVE_N_HELP = (
    "panel count: the output has n + 1 nodes; a linear solve integrates"
    f" on at most {LINEAR_QUADRATURE_PANELS} panels"
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fracbvp", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="solve and write t,u,du,q CSV")
    _add_problem_flags(solve, "solve.csv", _SOLVE_N_HELP)
    solve.add_argument("--f",
                       help="nonlinearity (const:/linear:/power:/affine:) of a"
                       " --weight solve; default const:1")
    solve.add_argument("--tol", type=float, default=1e-8,
                       help="Picard sup-norm stopping tolerance")
    solve.add_argument("--max-iter", type=int, default=200, dest="max_iter")
    solve.set_defaults(func=cmd_solve)

    cla = subs.add_parser("classify", help="regularity verdicts and profiles")
    _add_problem_flags(cla, "classify.csv")
    cla.set_defaults(func=cmd_classify)

    fig = subs.add_parser("figure1", help="four-weight overlay at alpha=1.6")
    fig.add_argument("--n", type=int, default=512, help=_SOLVE_N_HELP)
    fig.add_argument("--out", default="figure1", help="output directory")
    fig.set_defaults(func=cmd_figure1)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        # An overflow in the quadrature ends as inf or NaN in the values the
        # commands check (require_finite), which exit 4 with one error line;
        # numpy's warnings about it would only precede that line.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConditionHError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONDITION_H
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:  # OSError: an --out not writable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
