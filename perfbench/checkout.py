"""Locate the fracbvp sources of the checkout this benchmark sits in.

The benchmark always measures the code next to it: ``src/fracbvp`` under
the directory that holds ``perfbench/``, never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch output of runs (CLI outputs, span dumps); listed in .gitignore.
WORK = ROOT / ".perfbench_out"


class CheckoutError(RuntimeError):
    """The fracbvp sources are missing or another copy would be imported."""


def use_checkout() -> None:
    """Put the checkout's ``src`` first on sys.path and verify the import."""
    if not (SRC / "fracbvp" / "__init__.py").is_file():
        raise CheckoutError(f"no fracbvp sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fracbvp

    if Path(fracbvp.__file__).resolve().parent != SRC / "fracbvp":
        raise CheckoutError(f"fracbvp imported from {fracbvp.__file__}, not {SRC}")


def child_env() -> dict:
    """This process's environment with the checkout's ``src`` as PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": str(SRC)}
