"""fracbvp benchmark: time and accuracy on three workloads, with a layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload linear-large --seed 1 --seconds 35 --trace 0

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished and been checked.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics, per traced operation, plus
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` shrinks every problem so that a run takes seconds.

Every reported time is scaled by the host's speed (see clock.py); the raw
wall median is printed as well.

BLAS/OpenMP threads are pinned to one, and the process to one CPU (the
highest-numbered one it may use), here and in every child process: the two
vCPUs of the host this was built on drift in speed independently.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

from checkout import WORK, CheckoutError, child_env, use_checkout
from clock import scaled, slowness

PINNED_THREADS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
WORKLOAD_NAMES = ("linear-large", "classify", "cli-readme")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "max_abs_err": "abs",
    "first_node_rel_err": "ratio",
}
# Span name -> the per-layer figures taken from it.
SPAN_METRICS = {
    "quadrature.apply_green": ("calls", "self_s"),
    "quadrature.apply_green_derivative": ("calls", "self_s"),
    "quadrature.apply_dalpha_minus_1": ("calls", "self_s"),
    "green.bracket_values": ("calls", "points", "self_s"),
    "powersum.eval": ("calls", "points", "self_s"),
    "solve.interp.build": ("calls",),
    "solve.interp.eval": ("calls", "points", "self_s"),
    "solve.gl_residual": ("self_s",),
    "regularity.classify": ("self_s",),
    "regularity.q_profile": ("self_s",),
    "regularity.p_profile": ("self_s",),
    "cli.write_csv": ("self_s",),
    "cli.render_line_plot": ("self_s",),
    "gammafn.gamma": ("calls",),
}
FIGURE_UNITS = {"calls": "count", "points": "count", "self_s": "s"}
PER_LAYER = {
    **{
        f"{span}.{figure}": FIGURE_UNITS[figure]
        for span, figures in SPAN_METRICS.items()
        for figure in figures
    },
    "solve.sweep_s": "s",
    "green.bracket_values.points_per_sweep": "count",
    "solve.picard_sweeps": "count",
    "solve.gl_residual_rel": "ratio",
    "regularity.q_limit_err": "abs",
    "import.fracbvp_s": "s",
    "import.scipy_interpolate_s": "s",
    "trace.overhead_s": "s",
}


def _pin() -> int:
    """Pin BLAS/OpenMP threads and this process to one CPU; children inherit both.

    Must run before numpy is imported.  Returns the CPU.
    """
    os.environ.update(PINNED_THREADS)
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _setup_probe(name: str, smoke: bool) -> None:
    """Time, in this fresh process, importing fracbvp and building the workload."""
    t0 = time.perf_counter()
    use_checkout()
    import workloads

    workloads.WORKLOADS[name](smoke)
    wall_s = time.perf_counter() - t0
    # Measured after the import: the reference kernels import numpy themselves.
    now = slowness()
    print(repr(scaled(wall_s, now, now)))


def _measure_setup(name: str, smoke: bool) -> float:
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", name]
    if smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        out = subprocess.run(
            cmd, env=child_env(), capture_output=True, text=True,
            check=True, timeout=PROBE_TIMEOUT_S,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def _import_profile(smoke: bool) -> tuple[float, float]:
    """Cumulative import seconds of fracbvp and scipy.interpolate (-X importtime)."""
    fracbvp_s, interp_s = [], []
    for _ in range(1 if smoke else IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fracbvp"],
            env=child_env(), capture_output=True, text=True,
            check=True, timeout=PROBE_TIMEOUT_S,
        )
        cumulative = {}
        for line in out.stderr.splitlines():
            head, _, rest = line.partition("import time:")
            fields = rest.split("|")
            if head or len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
        fracbvp_s.append(cumulative.get("fracbvp", 0.0))
        interp_s.append(cumulative.get("scipy.interpolate", 0.0))
    return statistics.median(fracbvp_s), statistics.median(interp_s)


@dataclass
class Op:
    """One finished operation."""

    traced: bool
    seconds: float  # wall time scaled by host speed
    wall_s: float
    speed: float  # mean host speed over the operation's steps
    check: object  # workloads.Check


def _run_loop(workload, seed: int, seconds: float, trace: bool):
    """Closed loop for ``seconds``; traced and untraced operations alternate."""
    import workloads

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    rng = random.Random(seed)
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    while len(ops) < (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and len(ops) % 2 == 1
        if traced:
            tracer.op_id += 1
            tracer.install()
        failure = None
        outputs, op_s, wall_s = [], 0.0, 0.0
        try:
            # Each step is timed and scaled on its own.
            before = slowness()
            for step in workload.steps(rng, tracer if traced else None):
                t0 = time.perf_counter()
                try:
                    outputs.append(step())
                finally:
                    elapsed = time.perf_counter() - t0
                    after = slowness()
                    op_s += scaled(elapsed, before, after)
                    wall_s += elapsed
                    before = after
        except Exception:  # the loop must go on; the operation counts as failed
            failure = traceback.format_exc(limit=-3)
        finally:
            if traced:
                tracer.uninstall()
        if failure is None:
            try:
                check = workload.check(outputs)
            except Exception:
                check = workloads.Check(failures=[traceback.format_exc(limit=-3)])
        else:
            check = workloads.Check(failures=[failure])
        ops.append(Op(traced, op_s, wall_s, op_s / wall_s if wall_s else 1.0, check))
    return ops, tracer


def _end_to_end(ops, setup_s: float) -> dict:
    checks = [op.check for op in ops if not op.check.failures]
    # Operations that run in child processes report the children's peak.
    child_rss_kb = [c.extras["peak_rss_kb"] for c in checks if "peak_rss_kb" in c.extras]
    rss_kb = max(child_rss_kb, default=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return {
        "op_s": statistics.median(op.seconds for op in ops),
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "max_abs_err": max((c.max_abs_err for c in checks), default=0.0),
        "first_node_rel_err": max((c.first_node_rel_err for c in checks), default=0.0),
    }


def _per_layer(ops, tracer, smoke: bool) -> dict:
    import numpy as np

    traced = [op for op in ops if op.traced]
    per_op = 1.0 / len(traced)
    name_id, dur, self_s, parent, op_id, points = tracer.arrays()
    # Span times are scaled by their operation's mean host speed.
    speed = np.array([op.speed for op in traced])[op_id]
    dur, self_s = dur * speed, self_s * speed

    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name):
        return name_id == ids.get(name, -1)

    out = {}
    for span, figures in SPAN_METRICS.items():
        m = mask(span)
        values = {"calls": m.sum(), "points": points[m].sum(), "self_s": self_s[m].sum()}
        for figure in figures:
            out[f"{span}.{figure}"] = float(values[figure]) * per_op

    # A Picard sweep is the nonlinear solve minus its closing residual check.
    sweeps = sum(op.check.extras.get("picard_sweeps", 0) for op in traced)
    nonlinear = mask("solve.solve_nonlinear")
    residual_in_nonlinear = mask("solve.gl_residual") & (parent >= 0)
    residual_in_nonlinear[residual_in_nonlinear] = nonlinear[parent[residual_in_nonlinear]]
    inside = tracer.within("solve.solve_nonlinear")
    out["solve.sweep_s"] = (
        (dur[nonlinear].sum() - dur[residual_in_nonlinear].sum()) / sweeps if sweeps else 0.0
    )
    out["green.bracket_values.points_per_sweep"] = (
        float(points[mask("green.bracket_values") & inside].sum()) / sweeps if sweeps else 0.0
    )
    out["solve.picard_sweeps"] = float(sweeps) * per_op
    for key, extra in (
        ("solve.gl_residual_rel", "gl_residual_rel"),
        ("regularity.q_limit_err", "q_limit_err"),
    ):
        out[key] = max(float(op.check.extras.get(extra, 0.0)) for op in traced)
    out["import.fracbvp_s"], out["import.scipy_interpolate_s"] = _import_profile(smoke)
    out["trace.overhead_s"] = statistics.median(op.seconds for op in traced) - statistics.median(
        op.seconds for op in ops if not op.traced
    )
    return out


def _meta(args, cpu: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": PINNED_THREADS,
        "cpu": cpu,
        "clients": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny problem sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cpu = _pin()

    if args.setup_probe:
        _setup_probe(args.workload, args.smoke)
        return 0
    try:
        use_checkout()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.smoke)
    WORK.mkdir(exist_ok=True)
    setup_s = 0.0 if args.trace else _measure_setup(args.workload, args.smoke)
    ops, tracer = _run_loop(workload, args.seed, args.seconds, bool(args.trace))

    if args.trace:
        units, values = PER_LAYER, _per_layer(ops, tracer, args.smoke)
        if tracer.missing:
            print(f"warning: lookup sites not found: {tracer.missing}", file=sys.stderr)
        tracer.write_csv(WORK / f"spans-{args.workload}.csv")
    else:
        units, values = END_TO_END, _end_to_end(ops, setup_s)
    failed = [op.check for op in ops if op.check.failures]
    for check in failed[:3]:
        print(f"failed operation: {check.failures}", file=sys.stderr)
    wall_s = statistics.median(op.wall_s for op in ops)

    print("meta " + json.dumps(_meta(args, cpu)))
    print(
        f"attempted={len(ops)} failed={len(failed)} fail_frac={len(failed) / len(ops):.6g}"
        f" wall_op_s={wall_s:.6g}"
    )
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
