import dataclasses
import math
import re

import numpy as np
import pytest

from fracbvp import (
    ONE,
    PowerSum,
    WeightSpec,
    classical_derivative,
    classify,
    exact_dirichlet_solution,
    frac_derivative,
    solve_linear,
    solve_nonlinear,
)
from fracbvp.cli import (
    EXIT_CONDITION_H,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    WeightParseError,
    format_weight,
    main,
    parse_forcing,
    parse_nonlinearity,
    parse_weight,
)
from fracbvp.quadrature import apply_operators

from helpers import PAIRS, forcing


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# --- grammar -------------------------------------------------------------------


def test_parse_weight_bare_power():
    w = parse_weight("power:1.2")
    assert w.beta == 1.2
    assert w.regular == ONE


def test_parse_weight_zero_is_constant_weight():
    w = parse_weight("power:0")
    assert w.beta == 0.0
    assert w(0.5) == 1.0


def test_parse_weight_with_sum():
    w = parse_weight("power:0*sum:1,0.6")
    assert w.beta == 0.0
    assert w.regular.terms == ((1.0, 0.6),)
    w = parse_weight("power:0.5*sum:2,0;-1,1.5")
    assert w.regular.terms == ((2.0, 0.0), (-1.0, 1.5))


@pytest.mark.parametrize(
    "text,pos",
    [
        ("pow:1.2", 0),
        ("power:", 6),
        ("power:-1", 6),
        ("power:1.2*sum", 9),
        ("power:0*sum:1", 13),
        ("power:0*sum:1,-0.5", 14),
        ("power:0*sum:1,0.5;;", 18),
        ("power:0*sum:1,0x", 15),
    ],
)
def test_parse_weight_errors_carry_positions(text, pos):
    with pytest.raises(WeightParseError) as err:
        parse_weight(text)
    assert err.value.position == pos


def test_weight_format_round_trip_is_canonical():
    for text in ("power:1.2", "power:0*sum:1,0.6", "power:0.5*sum:-1,1.5;2,0"):
        canon = format_weight(parse_weight(text))
        assert format_weight(parse_weight(canon)) == canon


def test_parse_forcing_accepts_both_grammars():
    a = parse_forcing("power:0.7*sum:-0.5,0;1,1")
    assert a.beta == 0.7
    b = parse_forcing("-0.5*t^-0.7 + 1*t^0.3")
    assert b.beta == pytest.approx(0.7)
    s = np.array([0.3, 0.9])
    assert a(s) == pytest.approx(b(s), rel=1e-12)


def test_parse_nonlinearity():
    assert parse_nonlinearity("const:1").kind == "constant"
    assert parse_nonlinearity("linear:2.5").params == (2.5,)
    assert parse_nonlinearity("power:0.5").params == (0.5,)
    assert parse_nonlinearity("affine:0.5,1").params == (0.5, 1.0)
    for bad in ("cubic:1", "affine:1", "power:0", "const:1x"):
        with pytest.raises(WeightParseError):
            parse_nonlinearity(bad)


@pytest.mark.parametrize(
    "text,pos",
    [
        ("const", 5),
        ("const:", 6),
        ("const:1x", 7),
        ("affine:1,", 9),
        # NonlinearitySpec judges the parameters of each kind
        ("affine:1", 7),
        ("power:0", 6),
        # an unknown kind is at fault from its first character
        ("cubic:1", 0),
    ],
)
def test_parse_nonlinearity_errors_carry_positions(text, pos):
    with pytest.raises(WeightParseError) as err:
        parse_nonlinearity(text)
    assert err.value.position == pos


# --- usage and validation errors ------------------------------------------------


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["solve", "--weight", "power:0"], "required: --alpha"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["solve", "--alpha", "1.5", "--weight", "power:0", "--n", "abc"],
         "invalid int value: 'abc'"),
        # classify takes none of solve's Picard flags
        (["classify", "--alpha", "1.6", "--weight", "power:1.2", "--tol", "1e-6"],
         "unrecognized arguments: --tol 1e-6"),
        # and --f is not read as an abbreviation of --forcing
        (["classify", "--alpha", "1.6", "--f", "power:1.2"],
         "unrecognized arguments: --f power:1.2"),
        # Picard takes no damping: every supported f is nondecreasing, so
        # under-relaxation cannot turn divergence into convergence
        pytest.param(
            ["solve", "--alpha", "1.6", "--weight", "power:1.2", "--f", "power:0.5",
             "--damping", "0.5"],
            "unrecognized arguments: --damping 0.5",
            id="damping",
        ),
    ],
)
def test_usage_errors_exit_3_and_write_nothing(tmp_path, capsys, monkeypatch, argv, fragment):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    assert code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ")
    assert fragment in captured.err
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_classify_help_lists_only_its_flags(capsys):
    with pytest.raises(SystemExit):
        main(["classify", "--help"])
    flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert flags == {"--help", "--alpha", "--weight", "--forcing", "--n", "--out"}


@pytest.mark.parametrize("command", ["solve", "classify"])
@pytest.mark.parametrize(
    "flags,message",
    [
        (["--alpha", "2.5"], "error: order must lie in (1, 2], got 2.5"),
        (["--alpha", "1.5", "--n", "8"], "error: need at least 16 panels, got 8"),
    ],
)
def test_order_and_panel_count_are_checked_by_the_solver(tmp_path, capsys, command, flags, message):
    out = tmp_path / "x.csv"
    code = main([command, *flags, "--weight", "power:0", "--out", str(out)])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err.strip() == message
    assert not out.exists()


# --- solve command ----------------------------------------------------------------


def test_solve_classical_csv(tmp_path):
    out = tmp_path / "classical.csv"
    code = main([
        "solve", "--alpha", "2", "--weight", "power:0", "--f", "const:1",
        "--n", "128", "--out", str(out),
    ])
    assert code == EXIT_OK
    header, rows = _read_csv(out)
    assert header == ["t", "u", "du", "q"]
    assert len(rows) == 129
    t = np.array([float(r[0]) for r in rows])
    u = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(u - t * (1.0 - t) / 2.0)) <= 1e-8
    assert rows[0][2] == "" and rows[-1][2] == ""
    assert float(rows[0][3]) == 0.0


def test_solve_forcing_csv_round_trips_bit_exactly(tmp_path):
    out = tmp_path / "u3.csv"
    g = forcing("u3")
    text = " + ".join(f"{c!r}*t^{lam!r}" for c, lam in g)
    code = main([
        "solve", "--alpha", "1.5", "--forcing", text,
        "--n", "128", "--out", str(out),
    ])
    assert code == EXIT_OK
    _, rows = _read_csv(out)
    reread = np.array([float(r[1]) for r in rows])
    sol = solve_linear(g, 1.5, 128)
    assert np.array_equal(reread, sol.values)
    # and the text form itself is stable under rewrite
    for r in rows:
        assert format(float(r[1]), ".17g") == r[1]


def test_solve_recovers_u3_within_tolerance(tmp_path):
    out = tmp_path / "u3.csv"
    g = forcing("u3")
    text = " + ".join(f"{c!r}*t^{lam!r}" for c, lam in g)
    code = main([
        "solve", "--alpha", "1.5", "--forcing", text,
        "--n", "512", "--out", str(out),
    ])
    assert code == EXIT_OK
    _, rows = _read_csv(out)
    t = np.array([float(r[0]) for r in rows])
    u = np.array([float(r[1]) for r in rows])
    exact = t**0.2 * (1.0 - t)
    assert np.max(np.abs(u - exact)) <= 2e-3


def _check_du_and_q_columns(tmp_path, n):
    out = tmp_path / "u3.csv"
    g = forcing("u3")
    text = " + ".join(f"{c!r}*t^{lam!r}" for c, lam in g)
    code = main([
        "solve", "--alpha", "1.5", "--forcing", text,
        "--n", str(n), "--out", str(out),
    ])
    assert code == EXIT_OK
    _, rows = _read_csv(out)
    t = np.array([float(r[0]) for r in rows])
    q = np.array([float(r[3]) for r in rows])
    du = np.array([float(r[2]) for r in rows[1:-1]])
    u = PAIRS["u3"]
    # u' blows up like t^-0.8, so the first nodes are left out
    keep = t[1:-1] >= 1e-6
    du_exact = classical_derivative(u)(t[1:-1][keep])
    assert np.max(np.abs(du[keep] - du_exact) / np.abs(du_exact)) <= 1e-4
    q_exact = t[1:] ** 0.5 * frac_derivative(u, 0.5)(t[1:])
    assert q[0] == 0.0
    assert np.max(np.abs(q[1:] - q_exact)) <= 1e-4
    return t


def test_solve_du_and_q_columns_match_calculus(tmp_path):
    _check_du_and_q_columns(tmp_path, 128)


def test_solve_du_and_q_columns_past_512_panels_match_calculus(tmp_path):
    # u, du and q all take the rule of 512 panels, at the 1,025 nodes asked for
    assert len(_check_du_and_q_columns(tmp_path, 1024)) == 1025


def test_solve_weight_with_f_1_and_forcing_write_the_same_csv(tmp_path):
    # f = 1 makes the Picard solve the linear one (it converges in two
    # sweeps), and at n <= 512 both integrate on the same mesh, so the
    # integrands the two paths carry give u, du and q bit for bit alike.
    common = ["solve", "--alpha", "1.6", "--n", "128"]
    picard, direct = tmp_path / "picard.csv", tmp_path / "direct.csv"
    code = main(common + ["--weight", "power:1.2", "--f", "const:1", "--out", str(picard)])
    assert code == EXIT_OK
    assert main(common + ["--forcing", "power:1.2", "--out", str(direct)]) == EXIT_OK
    assert picard.read_bytes() == direct.read_bytes()


@pytest.mark.parametrize(
    "flag,value",
    [
        pytest.param("--tol", "nan", id="nan"),
        pytest.param("--tol", "inf", id="inf"),
        # --damping is no longer a flag: any value is a usage error, exit 3
        pytest.param("--damping", "nan", id="damping-nan"),
        pytest.param("--damping", "inf", id="damping-inf"),
        pytest.param("--alpha", "nan", id="alpha-nan"),
        pytest.param("--alpha", "inf", id="alpha-inf"),
    ],
)
def test_solve_rejects_non_finite_tol(tmp_path, flag, value):
    # a repeated --alpha takes the last value
    code = main([
        "solve", "--alpha", "1.5", "--weight", "power:0", "--f", "power:0.5",
        flag, value, "--out", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_PARSE


@pytest.mark.parametrize(
    "flag,value",
    # --damping is no longer a flag, so it fails as a usage error on both paths
    [("--tol", "nan"), ("--damping", "7"), ("--max-iter", "-3")],
)
def test_solve_forcing_checks_the_picard_flags(tmp_path, capsys, flag, value):
    # The linear path does not iterate, but a bad Picard flag is still the
    # validation error it is with --weight, and nothing is written.
    out = tmp_path / "x.csv"
    for problem in (["--forcing", "power:0"], ["--weight", "power:0"]):
        code = main(["solve", "--alpha", "1.5", *problem, flag, value, "--out", str(out)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,text", [("--weight", "power:abc"), ("--forcing", "1*t^")]
)
def test_solve_malformed_grammar_exits_with_position(tmp_path, capsys, flag, text):
    code = main([
        "solve", "--alpha", "1.5", flag, text, "--out", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_PARSE
    assert re.search(r"\(at position \d+\)", capsys.readouterr().err)


def test_solve_condition_h_violation_exit_code(tmp_path, capsys):
    code = main([
        "solve", "--alpha", "1.5", "--weight", "power:1.6",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_CONDITION_H
    err = capsys.readouterr().err
    assert "-0.1" in err


def test_solve_parse_error_exit_code(tmp_path):
    code = main([
        "solve", "--alpha", "1.5", "--weight", "power:abc",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_PARSE
    code = main([
        "solve", "--alpha", "2.5", "--weight", "power:0",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_PARSE
    code = main(["solve", "--alpha", "1.5", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_PARSE


def test_solve_nonconvergence_exit_code_with_csv(tmp_path):
    out = tmp_path / "diverge.csv"
    code = main([
        "solve", "--alpha", "1.5", "--weight", "power:0",
        "--f", "linear:25", "--max-iter", "40", "--out", str(out),
    ])
    assert code == EXIT_NO_CONVERGENCE
    assert out.exists()


def _nan_operator(t, *args):
    return np.full(np.shape(t), np.nan)


def _nan_operators(kinds, t, *args):
    return tuple(_nan_operator(t) for _ in kinds)


def _nan_at_one(kinds, t, *args):
    # the operators as they are, but NaN at t = 1 (where only q is taken)
    values = apply_operators(kinds, t, *args)
    return tuple(np.where(np.asarray(t) == 1.0, np.nan, v) for v in values)


@pytest.mark.parametrize(
    "flag,target,stub",
    [
        # the linear and the Picard path meet non-finite values of u
        ("--forcing", "fracbvp.solve.apply_green", _nan_operator),
        ("--weight", "fracbvp.solve.apply_green", _nan_operator),
        # a finite solution, non-finite du and q inside (0, 1), or q at
        # t = 1; GridFunction.operators looks apply_operators up in solve
        ("--weight", "fracbvp.solve.apply_operators", _nan_operators),
        ("--forcing", "fracbvp.solve.apply_operators", _nan_at_one),
    ],
    ids=[
        "--forcing-fracbvp.solve.apply_green",
        "--weight-fracbvp.solve.apply_green",
        "--weight-fracbvp.solve.apply_operators",
        "--forcing-fracbvp.solve.apply_operators-at-1",
    ],
)
def test_solve_non_finite_quadrature_exits_4(
    tmp_path, capsys, monkeypatch, flag, target, stub
):
    # A quadrature breakdown is exit 4 with its own message on both paths,
    # not a validation error (3) and not a status line holding a NaN.
    monkeypatch.setattr(target, stub)
    code = main([
        "solve", "--alpha", "1.6", flag, "power:1.2",
        "--n", "64", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_NO_CONVERGENCE
    captured = capsys.readouterr()
    assert "error: the quadrature produced non-finite values" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["solve", "classify"])
def test_tiny_margin_exits_0_with_an_empty_stderr(tmp_path, capsys, command):
    # Margin 1e-4: the origin panel's Gauss-Jacobi rule holds the weight
    # s^(1-beta_g) whole, so nothing overflows (RuntimeWarnings are errors
    # here), and classify's q_limit matches the closed form.
    out = tmp_path / "x.csv"
    code = main([
        command, "--alpha", "1.5", "--weight", "power:1.4999",
        "--n", "64", "--out", str(out),
    ])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert out.exists()
    if command == "classify":
        u = exact_dirichlet_solution(PowerSum([(1.0, -1.4999)]), 1.5)
        q = frac_derivative(u, 0.5).times_power(0.5)
        q0 = sum(c for c, lam in q if lam == 0.0)
        q_limit = re.search(r"q_limit=(\S+)", captured.out).group(1)
        assert float(q_limit) == pytest.approx(q0, abs=1e-9)


@pytest.mark.parametrize(
    "command,alpha,forcing,n",
    [
        ("solve", "1.5", "1e308*t^0", "16"),
        ("classify", "1.5", "1e308*t^0", "16"),
        ("solve", "1.6", "1e306*t^-1.2", "512"),
    ],
)
def test_overflowing_forcing_exits_4_with_only_the_error_line(
    tmp_path, capsys, command, alpha, forcing, n
):
    # A forcing near the top of the double range overflows inside the
    # quadrature (t^e times the right sums, the weights times g, the sums
    # over the panels) and in classify's verdicts.  That is exit 4 with its
    # message alone on stderr (RuntimeWarnings are errors here), and
    # classify still writes its CSV.
    out = tmp_path / "x.csv"
    code = main([
        command, "--alpha", alpha, "--forcing", forcing, "--n", n, "--out", str(out),
    ])
    assert code == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err == "error: the quadrature produced non-finite values\n"
    assert out.exists() == (command == "classify")


@pytest.mark.parametrize("flag", ["--forcing", "--weight"])
def test_solve_order_just_above_one(tmp_path, flag):
    # At alpha = 1.0005 the exponent alpha - 1 of u lies below 2^-10, where
    # 2^(1/(alpha-1)) overflows a double, and the rule at s = t has the
    # weight (t-s)^-0.9995.
    out = tmp_path / "x.csv"
    code = main([
        "solve", "--alpha", "1.0005", flag, "power:0.5",
        "--n", "64", "--out", str(out),
    ])
    assert code == EXIT_OK
    _, rows = _read_csv(out)
    u = np.array([float(r[1]) for r in rows])
    du = np.array([float(r[2]) for r in rows[1:-1]])
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(du))
    assert np.max(u) > 0.0


def test_solve_rejects_signed_weight_on_nonlinear_path(tmp_path):
    code = main([
        "solve", "--alpha", "1.5", "--weight", "power:0*sum:-1,0",
        "--f", "power:0.5", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_PARSE


# --- classify command --------------------------------------------------------------


def test_classify_command(tmp_path, capsys):
    out = tmp_path / "cls.csv"
    code = main([
        "classify", "--alpha", "1.6", "--weight", "power:1.2",
        "--n", "256", "--out", str(out),
    ])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "in_E_alpha=yes" in text
    assert "in_C1_2ma=no" in text
    header, rows = _read_csv(out)
    assert header == ["t", "q", "p"]
    assert len(rows) == 20


@pytest.mark.parametrize(
    "weight,line,verdict",
    [
        # q tends to 0 (exponents 0.6 and 0.4)
        ("power:1.2", 0, "in_E_alpha=yes"),
        # q tends to 0 (exponents 0.6 and 0.1), too slowly for a ratio test
        ("power:1.5", 0, "in_E_alpha=yes"),
        # p grows without bound
        ("power:1.2", 1, "in_C1_2ma=no"),
    ],
)
def test_classify_limit_labels_follow_the_verdict(
    tmp_path, capsys, weight, line, verdict
):
    code = main([
        "classify", "--alpha", "1.6", "--weight", weight,
        "--out", str(tmp_path / "cls.csv"),
    ])
    assert code == EXIT_OK
    head, limit, residual = capsys.readouterr().out.splitlines()[line].split(" ")
    assert head == verdict
    limit, residual = limit.split("=")[1], residual.removeprefix("fit_residual=")
    if verdict.endswith("=no"):
        assert (limit, residual) == ("divergent", "None")
    else:
        assert math.isfinite(float(limit)) and 0.0 <= float(residual) <= 1e-9


def test_classify_non_finite_report_exits_4(tmp_path, capsys, monkeypatch):
    # A NaN in any sample, limit or norm must not leave under exit 0.
    def with_nan_sample(problem):
        report = classify(problem)
        samples = ((report.samples[0][0], float("nan"), report.samples[0][2]),)
        return dataclasses.replace(report, samples=samples + report.samples[1:])

    monkeypatch.setattr("fracbvp.cli.classify", with_nan_sample)
    code = main([
        "classify", "--alpha", "1.6", "--weight", "power:1.2",
        "--n", "64", "--out", str(tmp_path / "cls.csv"),
    ])
    assert code == EXIT_NO_CONVERGENCE
    assert "non-finite" in capsys.readouterr().err
    assert (tmp_path / "cls.csv").exists()


def test_classify_at_margin_0_01_exits_0(tmp_path, capsys):
    # The README's margin-0.01 command: finite samples, no warning on
    # stderr, and the CSV written.
    out = tmp_path / "cls.csv"
    code = main([
        "classify", "--alpha", "1.9", "--weight", "power:1.89", "--out", str(out),
    ])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    assert out.exists()


def test_classify_continuous_weight(tmp_path, capsys):
    code = main([
        "classify", "--alpha", "1.6", "--weight", "power:0",
        "--n", "256", "--out", str(tmp_path / "cls.csv"),
    ])
    assert code == EXIT_OK
    assert "in_C1_2ma=yes" in capsys.readouterr().out


def test_classify_signed_forcing_lands_in_both_spaces(tmp_path, capsys):
    g = forcing("u2")
    text = " + ".join(f"{c!r}*t^{lam!r}" for c, lam in g)
    code = main([
        "classify", "--alpha", "1.5", "--forcing", text,
        "--n", "512", "--out", str(tmp_path / "cls.csv"),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "in_E_alpha=yes" in out
    assert "in_C1_2ma=yes" in out


# --- figure command ------------------------------------------------------------------


def test_figure1_outputs(tmp_path):
    out_dir = tmp_path / "fig"
    code = main(["figure1", "--n", "128", "--out", str(out_dir)])
    assert code == EXIT_OK
    csvs = sorted(out_dir.glob("*.csv"))
    assert len(csvs) == 4
    for path in csvs:
        _, rows = _read_csv(path)
        u = np.array([float(r[1]) for r in rows])
        assert u[0] == 0.0 and u[-1] == 0.0
        assert np.min(u) >= 0.0
    svg = (out_dir / "figure1.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 4
