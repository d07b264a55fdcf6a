"""The README's library example, run as it is written there."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs_as_documented():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    # the comments beside the example: err and off ~7.8e-16 (7.77e-16
    # measured for both), u in E_alpha but not in the weighted C^1 space
    assert namespace["err"] < 1e-13
    assert namespace["off"] < 1e-13
    report = namespace["report"]
    assert report.in_E_alpha == "yes"
    assert report.in_C1_2ma == "no"
