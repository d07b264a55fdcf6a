"""The benchmark's workloads: fixed inputs, the timed operation, its gate.

``linear-large`` and ``classify`` solve with the weight h(t) = t^-1.2 at
order alpha = 1.6 (not in L^1; condition-(H) margin 0.4); ``cli-readme``
runs the README commands.  Problem inputs never depend on the seed; the seed only
orders the operations, so the accuracy metrics repeat exactly.

An operation is the list of steps :meth:`steps` returns; each step is timed
on its own.  :meth:`check` then compares the steps' outputs with the oracle
outside the timed region and returns the accuracy figures and the reasons,
if any, why the operation failed.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fracbvp.regularity as regularity
import fracbvp.solve as solve
from fracbvp import (
    ONE,
    PowerSum,
    WeightSpec,
    classical_derivative,
    exact_dirichlet_solution,
    frac_derivative,
)

from checkout import WORK, child_env

ALPHA = 1.6
WEIGHT = WeightSpec(1.2)
# exact_dirichlet_solution(t^-1.2, 1.6) = 6.5608 (t^0.4 - t^0.6)
EXACT = exact_dirichlet_solution(PowerSum.monomial(1.0, -1.2), ALPHA)

# Gates on every operation.  They catch a broken result, not a small loss
# of digits: the max_abs_err and first_node_rel_err metrics, with their
# bounds, catch that.
MAX_ABS_ERR_GATE = 1e-5
FIRST_NODE_REL_GATE = 1e-2
Q_LIMIT_GATE = 5e-3
GL_RESIDUAL_GATE = 0.05
CLI_TIMEOUT_S = 120.0


@dataclass
class Check:
    """Accuracy figures of one operation and why it failed, if it did."""

    max_abs_err: float = 0.0
    first_node_rel_err: float = 0.0
    extras: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def gate(self, ok: bool, reason: str) -> None:
        if not ok:
            self.failures.append(reason)


def _nodal_errors(check: Check, what: str, nodes, values, reference) -> None:
    """Max error over the nodes and relative error at t_1, gated."""
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if not np.all(np.isfinite(values)):
        check.failures.append(f"{what}: non-finite values")
        return
    err = float(np.max(np.abs(values - reference)))
    rel = abs(values[1] - reference[1]) / abs(reference[1])
    check.max_abs_err = max(check.max_abs_err, err)
    check.first_node_rel_err = max(check.first_node_rel_err, rel)
    check.gate(err <= MAX_ABS_ERR_GATE, f"{what}: max_abs_err {err:.3e}")
    check.gate(rel <= FIRST_NODE_REL_GATE, f"{what}: first_node_rel_err {rel:.3e}")


def _regularity_oracle(u: PowerSum, alpha: float):
    """q = t^(a-1) D^(a-1)u, q(0+), and the two verdicts, by exact calculus."""
    q = frac_derivative(u, alpha - 1.0).times_power(alpha - 1.0)
    p = classical_derivative(u).times_power(2.0 - alpha)
    q0 = sum(c for c, lam in q if lam == 0.0)
    verdict_q = "yes" if q.min_exponent >= 0.0 else "no"
    verdict_p = "yes" if p.min_exponent >= 0.0 else "no"
    return q, q0, verdict_q, verdict_p


class LinearLarge:
    """solve_linear on t^-1.2 at n = 2048, checked against the closed form."""

    name = "linear-large"

    def __init__(self, smoke: bool):
        self.n = 64 if smoke else 2048

    def steps(self, rng, tracer):
        return [lambda: solve.solve_linear(WEIGHT, ALPHA, self.n)]

    def check(self, outputs) -> Check:
        (u,) = outputs
        check = Check()
        nodes = u.mesh.nodes
        _nodal_errors(check, "u", nodes, u.values, EXACT(nodes))
        return check


class Classify:
    """regularity.classify on t^-1.2 at n = 512, against powersum calculus."""

    name = "classify"

    def __init__(self, smoke: bool):
        self.n = 64 if smoke else 512
        self.q, self.q0, self.verdict_q, self.verdict_p = _regularity_oracle(EXACT, ALPHA)

    def steps(self, rng, tracer):
        # The problem is built inside the operation, as a caller would, so
        # nothing computed for it can carry over to the next operation.
        return [
            lambda: regularity.classify(regularity.GreenProblem.build(WEIGHT, ALPHA, self.n))
        ]

    def check(self, outputs) -> Check:
        (report,) = outputs
        check = Check()
        t, q, _ = (np.array(col) for col in zip(*report.samples))
        check.gate(report.in_E_alpha == self.verdict_q, f"in_E_alpha={report.in_E_alpha}")
        check.gate(report.in_C1_2ma == self.verdict_p, f"in_C1_2ma={report.in_C1_2ma}")
        if report.q_limit_estimate is None or not np.all(np.isfinite(q)):
            check.failures.append("no finite q profile or limit")
            return check
        exact_q = self.q(t)
        q_limit_err = abs(report.q_limit_estimate - self.q0)
        # The profile's outputs are q at the probes and its limit at t = 0;
        # the probe nearest the origin stands in for t_1.
        check.max_abs_err = max(float(np.max(np.abs(q - exact_q))), q_limit_err)
        check.first_node_rel_err = abs(q[-1] - exact_q[-1]) / abs(exact_q[-1])
        check.extras["q_limit_err"] = q_limit_err
        check.gate(q_limit_err <= Q_LIMIT_GATE, f"q_limit_err {q_limit_err:.3e}")
        check.gate(
            check.first_node_rel_err <= FIRST_NODE_REL_GATE,
            f"first probe rel err {check.first_node_rel_err:.3e}",
        )
        return check


@dataclass
class CliRun:
    """One finished CLI command."""

    key: str
    returncode: int
    stdout: str
    stderr: str
    peak_rss_kb: int


class CliReadme:
    """The README commands as subprocesses, import included in their time.

    The nonlinear README example (about 9 s) is left out: too long a step
    for a steady median.
    """

    name = "cli-readme"
    FIGURE_BETAS = {"hpow_+0.6": -0.6, "hpow_+0.0": 0.0, "hpow_-0.6": 0.6, "hpow_-1.2": 1.2}
    FORCING = "power:0.7*sum:-0.31,0;1.87,1"

    def __init__(self, smoke: bool):
        n = ["--n", "32"] if smoke else []
        self.dir = WORK / "cli"
        self.commands = {
            "classical": ["solve", "--alpha", "2", "--weight", "power:0", "--f", "const:1",
                          "--n", "32" if smoke else "128", "--out", "sol.csv"],
            "forcing": ["solve", "--alpha", "1.5", "--forcing", self.FORCING, *n, "--out", "g.csv"],
            "classify": ["classify", "--alpha", "1.6", "--weight", "power:1.2", *n,
                         "--out", "cls.csv"],
            "figure1": ["figure1", "--n", "32" if smoke else "512", "--out", "figure1/"],
        }
        self.solutions = {
            "sol.csv": exact_dirichlet_solution(ONE, 2.0),
            "g.csv": exact_dirichlet_solution(PowerSum([(-0.31, -0.7), (1.87, 0.3)]), 1.5),
        }
        for slug, beta in self.FIGURE_BETAS.items():
            self.solutions[f"figure1/{slug}.csv"] = exact_dirichlet_solution(
                PowerSum.monomial(1.0, -beta), 1.6
            )
        _, self.q0, self.verdict_q, self.verdict_p = _regularity_oracle(EXACT, ALPHA)

    def steps(self, rng, tracer):
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        order = list(self.commands)
        rng.shuffle(order)
        return [functools.partial(self._run, key, tracer) for key in order]

    def _run(self, key: str, tracer) -> CliRun:
        argv = self.commands[key]
        spans_file = self.dir / f"{key}.spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "fracbvp.cli", *argv]
        else:
            tracer_py = Path(__file__).resolve().parent / "tracer.py"
            cmd = [sys.executable, str(tracer_py), str(spans_file), *argv]
        out_path, err_path = self.dir / f"{key}.stdout", self.dir / f"{key}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.dir, env=child_env(), stdout=out, stderr=err)
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                # wait4 reaps the child and reports its own peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if tracer is not None and spans_file.exists():
            tracer.extend(json.loads(spans_file.read_text(encoding="utf-8"))["spans"])
        return CliRun(
            key=key,
            returncode=proc.returncode,
            stdout=out_path.read_text(encoding="utf-8"),
            stderr=err_path.read_text(encoding="utf-8"),
            peak_rss_kb=usage.ru_maxrss,
        )

    def check(self, runs) -> Check:
        check = Check()
        for run in runs:
            if run.returncode != 0:
                tail = run.stderr.strip().splitlines()[-1:] or [""]
                check.failures.append(f"{run.key}: exit {run.returncode} {tail[0]}")
        check.extras["peak_rss_kb"] = max(run.peak_rss_kb for run in runs)
        if check.failures:
            return check
        for name, exact in self.solutions.items():
            t, u = _read_csv_columns(self.dir / name, 2)
            _nodal_errors(check, name, t, u, exact(t))
        svg = (self.dir / "figure1" / "figure1.svg").read_text(encoding="utf-8")
        check.gate(
            svg.startswith("<svg") and svg.count("<polyline") == len(self.FIGURE_BETAS),
            "figure1.svg is not a four-curve plot",
        )
        by_key = {run.key: run for run in runs}
        self._check_classify(check, by_key["classify"].stdout)
        # The classical solve is the only one that takes the Picard path.
        status = re.search(
            r"picard_iterations=(\d+) .*residual_median_rel=([-+.\deE]+)", by_key["classical"].stdout
        )
        if status is None:
            check.failures.append("classical: Picard status missing")
            return check
        check.extras["picard_sweeps"] = int(status.group(1))
        check.extras["gl_residual_rel"] = float(status.group(2))
        check.gate(
            float(status.group(2)) <= GL_RESIDUAL_GATE,
            f"classical: gl_residual_rel {status.group(2)}",
        )
        return check

    def _check_classify(self, check: Check, stdout: str) -> None:
        m_q = re.search(r"in_E_alpha=(\w+) q_limit=(\S+)", stdout)
        m_p = re.search(r"in_C1_2ma=(\w+)", stdout)
        if m_q is None or m_p is None:
            check.failures.append("classify: verdict lines missing")
            return
        check.gate(m_q.group(1) == self.verdict_q, f"classify: in_E_alpha={m_q.group(1)}")
        check.gate(m_p.group(1) == self.verdict_p, f"classify: in_C1_2ma={m_p.group(1)}")
        try:
            q_limit_err = abs(float(m_q.group(2)) - self.q0)
        except ValueError:
            check.failures.append(f"classify: q_limit={m_q.group(2)}")
            return
        check.extras["q_limit_err"] = q_limit_err
        check.gate(q_limit_err <= Q_LIMIT_GATE, f"classify: q_limit_err {q_limit_err:.3e}")
        t, q = _read_csv_columns(self.dir / "cls.csv", 2)
        check.gate(len(t) > 0 and np.all(np.isfinite(q)), "cls.csv: no finite q profile")


def _read_csv_columns(path: Path, count: int):
    """The first ``count`` columns of a CLI CSV as float arrays."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [np.array([float(row[k]) for row in rows]) for k in range(count)]


WORKLOADS = {cls.name: cls for cls in (LinearLarge, Classify, CliReadme)}
