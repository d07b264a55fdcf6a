"""The README's library example, run as it is written there."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs_as_documented():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    # the comments beside the example: err ~1.2e-7 (1.21e-7 measured), u
    # in E_alpha but not in the weighted C^1 space
    assert namespace["err"] < 2e-7
    report = namespace["report"]
    assert report.in_E_alpha == "yes"
    assert report.in_C1_2ma == "no"
