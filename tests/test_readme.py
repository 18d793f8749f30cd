"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The Python block of the README's "Library quick start" section."""
    section = README.read_text().partition("## Library quick start")[2].partition("\n## ")[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 1, "the quick start should hold one python block"
    return blocks[0]


def test_quick_start_runs(capsys):
    exec(compile(quick_start(), f"{README}:quick start", "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "(33,) (396,)"  # the curve's extrema the README quotes
