"""The README's library example runs as written and prints the cone."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_the_cone(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == (
        "[{'x': '3/2', 'y': '3/4', 'sheet': 1}]\n"
    )
