"""Outside-in span tracer for the fracbvp layers.

Wrappers are installed at the name each caller looks up, not where the
function is defined: ``from .quadrature import apply_green`` binds the name
in ``fracbvp.solve``, so patching ``fracbvp.quadrature.apply_green`` alone
would miss the solver's calls.  Every wrapper records one span (name, start,
end, parent span, operation id) in memory; the spans are written out when
the benchmark ends.  A span's self time is its duration minus the time its
child spans cover (calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import csv
import importlib
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute, span name, index of the argument whose size is the
# span's point count or None).  One span name may be looked up by several
# callers; each lookup site gets its own wrapper.
FUNCTION_SITES = (
    ("fracbvp.solve", "solve_linear", "solve.solve_linear", None),
    ("fracbvp.cli", "solve_linear", "solve.solve_linear", None),
    ("fracbvp.solve", "solve_nonlinear", "solve.solve_nonlinear", None),
    ("fracbvp.cli", "solve_nonlinear", "solve.solve_nonlinear", None),
    ("fracbvp.solve", "gl_residual", "solve.gl_residual", None),
    ("fracbvp.solve", "build_mesh", "quadrature.build_mesh", None),
    ("fracbvp.regularity", "build_mesh", "quadrature.build_mesh", None),
    ("fracbvp.solve", "apply_green", "quadrature.apply_green", None),
    ("fracbvp.regularity", "apply_green", "quadrature.apply_green", None),
    ("fracbvp.regularity", "apply_green_derivative", "quadrature.apply_green_derivative", None),
    ("fracbvp.cli", "apply_green_derivative", "quadrature.apply_green_derivative", None),
    ("fracbvp.regularity", "apply_dalpha_minus_1", "quadrature.apply_dalpha_minus_1", None),
    ("fracbvp.cli", "apply_dalpha_minus_1", "quadrature.apply_dalpha_minus_1", None),
    ("fracbvp.quadrature", "bracket_values", "green.bracket_values", 1),
    ("fracbvp.green", "bracket_values", "green.bracket_values", 1),
    ("fracbvp.quadrature", "gamma", "gammafn.gamma", None),
    ("fracbvp.green", "gamma", "gammafn.gamma", None),
    ("fracbvp.powersum", "gamma", "gammafn.gamma", None),
    ("fracbvp.powersum", "reciprocal_gamma", "gammafn.reciprocal_gamma", None),
    ("fracbvp.regularity", "q_profile", "regularity.q_profile", None),
    ("fracbvp.regularity", "p_profile", "regularity.p_profile", None),
    ("fracbvp.regularity", "classify", "regularity.classify", None),
    ("fracbvp.cli", "classify", "regularity.classify", None),
    ("fracbvp.cli", "write_csv", "cli.write_csv", None),
    ("fracbvp.cli", "render_line_plot", "cli.render_line_plot", None),
)
# Classes whose instances are called: construction and calls are separate spans.
CALLABLE_CLASS_SITES = (
    ("fracbvp.solve", "PchipInterpolator", "solve.interp.build", "solve.interp.eval"),
)
# Methods looked up on the class by every caller.
METHOD_SITES = (("fracbvp.powersum", "PowerSum", "__call__", "powersum.eval", 1),)


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.points: list[int] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # --- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, points_arg=None):
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.points.append(
                int(np.size(args[points_arg])) if points_arg is not None else 0
            )
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def extend(self, rows) -> None:
        """Append spans recorded elsewhere (a traced child process).

        ``rows`` are (name, start, end, parent, points) with parents indexing
        into ``rows``; they join the current operation.
        """
        base = len(self.start)
        for name, start, end, parent, points in rows:
            self.name_id.append(self._id(name))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(base + parent if parent >= 0 else -1)
            self.op.append(self.op_id)
            self.points.append(points)

    # --- patching ------------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Install every wrapper; a lookup site that no longer exists is noted."""
        self.missing = []
        for module, attr, name, points_arg in FUNCTION_SITES:
            owner = importlib.import_module(module)
            if hasattr(owner, attr):
                self._set(owner, attr, self.wrap(name, getattr(owner, attr), points_arg))
            else:
                self.missing.append(f"{module}.{attr}")
        for module, attr, build_name, call_name in CALLABLE_CLASS_SITES:
            owner = importlib.import_module(module)
            if not hasattr(owner, attr):
                self.missing.append(f"{module}.{attr}")
                continue
            cls = getattr(owner, attr)
            traced_cls = type(
                cls.__name__, (cls,), {"__call__": self.wrap(call_name, cls.__call__, 1)}
            )
            self._set(owner, attr, self.wrap(build_name, traced_cls))
        for module, cls_name, attr, name, points_arg in METHOD_SITES:
            cls = getattr(importlib.import_module(module), cls_name, None)
            if cls is None or attr not in vars(cls):
                self.missing.append(f"{module}.{cls_name}.{attr}")
                continue
            self._set(cls, attr, self.wrap(name, vars(cls)[attr], points_arg))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- analysis ------------------------------------------------------------

    def arrays(self):
        """(name id, duration, self time, parent, op id, points) as arrays."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return (
            np.asarray(self.name_id, dtype=np.int64),
            dur,
            dur - child,
            parent,
            np.asarray(self.op, dtype=np.int64),
            np.asarray(self.points, dtype=np.int64),
        )

    def within(self, ancestor: str) -> np.ndarray:
        """Mask of spans that are ``ancestor`` spans or lie below one."""
        target = self._ids.get(ancestor, -1)
        inside = np.zeros(len(self.start), dtype=bool)
        for i, (nid, p) in enumerate(zip(self.name_id, self.parent)):
            inside[i] = nid == target or (p >= 0 and inside[p])
        return inside

    def write_csv(self, path: Path) -> None:
        """Write every span, one row each, with self time computed."""
        nid, dur, self_s, parent, op, points = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start", "end", "parent", "op", "points", "self_s"])
            for i in range(len(dur)):
                out.writerow([
                    i, self.names[nid[i]], repr(self.start[i]), repr(self.end[i]),
                    int(parent[i]), int(op[i]), int(points[i]), repr(float(self_s[i])),
                ])

    def rows(self):
        """Spans as (name, start, end, parent, points) for :meth:`extend`."""
        return [
            (self.names[n], s, e, p, k)
            for n, s, e, p, k in zip(self.name_id, self.start, self.end, self.parent, self.points)
        ]


def _traced_cli(argv) -> int:
    """Run ``fracbvp.cli.main(argv[1:])`` traced; spans go to the JSON file argv[0]."""
    import json

    from checkout import use_checkout

    use_checkout()
    import fracbvp.cli

    tracer = Tracer()
    tracer.install()
    main = tracer.wrap("cli.main", fracbvp.cli.main)
    try:
        code = main(argv[1:])
    finally:
        tracer.uninstall()
        Path(argv[0]).write_text(
            json.dumps({"missing": tracer.missing, "spans": tracer.rows()}), encoding="utf-8"
        )
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1:]))
