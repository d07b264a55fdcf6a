"""The benchmark's span tracer must find every lookup site it patches, and
every import the package never reads must be one of those sites."""

import ast
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_site_resolves():
    # A function, class or method renamed or moved in fracbvp leaves its
    # span silently empty; install() notes each site it cannot find.
    tracer_module = _load_tracer()
    assert tracer_module.FUNCTION_SITES
    assert tracer_module.CALLABLE_CLASS_SITES
    assert tracer_module.METHOD_SITES
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_bracket_kernel_points_are_broadcast_sizes(monkeypatch):
    # The tracer books the size of the kernel's ``s`` argument as the span's
    # points.  Every caller passes an ``s`` as large as its broadcast against
    # ``t``, so the points are the kernel's element counts.  The kernel
    # takes the origin pieces of the targets without a far field, one call
    # per kind: here u and u' at targets one of which lies below t_1.
    import numpy as np

    from fracbvp import WeightSpec, build_mesh, quadrature
    from fracbvp.green import bracket_values

    sizes = []

    def counted(t, s, *args, **kwargs):
        sizes.append(np.broadcast(t, s).size)
        return bracket_values(t, s, *args, **kwargs)

    monkeypatch.setattr(quadrature, "bracket_values", counted)
    w, alpha = WeightSpec(1.2), 1.6
    mesh = build_mesh(512, w, alpha)
    t = np.append(0.5 * mesh.nodes[1], mesh.nodes[1:-1])
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        quadrature.apply_operators(("u", "du"), t, 1.2, w.regular, alpha, mesh)
    finally:
        tracer.uninstall()
    kernel = tracer.names.index("green.bracket_values")
    points = [p for nid, p in zip(tracer.name_id, tracer.points) if nid == kernel]
    assert len(sizes) > 1 and points == sizes


def _unread_imports(path):
    # Names bound by an import (not from __future__) that no expression of
    # the module reads.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return bound - read


def test_every_unread_import_is_a_tracer_site():
    # A module imports a name it never reads only so that the tracer can
    # patch the module's lookup of it; any other unread import is dead.
    # The package's __init__ imports to re-export and is exempt.
    tracer_module = _load_tracer()
    sites = {
        (module, attr)
        for module, attr, *_ in tracer_module.FUNCTION_SITES
        + tracer_module.CALLABLE_CLASS_SITES
    }
    package = TRACER.parent.parent / "src" / "fracbvp"
    unread = {
        (f"fracbvp.{path.stem}", name)
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unread_imports(path)
    }
    assert unread - sites == set()
