"""The benchmark's span tracer must find every lookup site it patches."""

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
