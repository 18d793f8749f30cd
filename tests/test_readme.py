"""The README's library quick start runs as written, and its full config
file loads and runs."""

import re
from pathlib import Path

from pesvlab import cli, config

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The Python block of the README's "Library quick start" section."""
    section = README.read_text().partition("## Library quick start")[2].partition("\n## ")[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 1, "the quick start should hold one python block"
    return blocks[0]


def config_example() -> str:
    """The README's one ini block, its full config file."""
    blocks = re.findall(r"^```ini\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 1, "the README should hold one ini block"
    return blocks[0]


def test_quick_start_runs(capsys):
    exec(compile(quick_start(), f"{README}:quick start", "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "(33,) (396,)"  # the curve's extrema the README quotes


def test_config_example_loads_and_runs_bound(tmp_path, capsys):
    path = tmp_path / "readme.cfg"
    path.write_text(config_example())
    cfg = config.parse_config(path)
    assert cfg["network", "widths"] == [16] and cfg["bounds", "widths"] == list(range(1, 1001))
    out = tmp_path / "curve.csv"
    assert cli.main(["bound", "--config", str(path), "--out", str(out), "--no-timestamp"]) == 0
    assert len(out.read_text().splitlines()) == 1001  # a header and 1000 widths
    assert "local minima at widths: [33]" in capsys.readouterr().out


def test_config_example_names_every_key():
    """Each key of the table appears in its section, as a line or a comment."""
    named = set()
    for header, body in re.findall(r"^\[(\w+)\]\n(.*?)(?=^\[|\Z)", config_example(), re.M | re.S):
        named.update((header, key) for key in re.findall(r"^[# ]*(\w+) =", body, re.M))
    assert named == set(config.KEYS)
