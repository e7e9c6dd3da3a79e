"""Every ```python block of README.md runs as written, and every ``aps``
line of its ```sh blocks runs on the bundled corpus."""

import re
import shlex
from pathlib import Path

import pytest

from apspace.cli import run
from apspace.ingest import fixture_path

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.S | re.M)
APS_LINES = [line for block in re.findall(r"^```sh\n(.*?)^```$", TEXT,
                                          flags=re.S | re.M)
             for line in block.splitlines() if line.startswith("aps ")]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the tour writes its SVGs to the cwd
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_aps_lines():
    assert len(APS_LINES) >= 8


@pytest.mark.parametrize("line", APS_LINES,
                         ids=[f"line{i}" for i in range(len(APS_LINES))])
def test_readme_aps_line_runs(line, tmp_path, capsys):
    """The documented flags exist and work: the line's input and output
    paths are swapped for the corpus and a temporary directory."""
    args = shlex.split(line, comments=True)[1:]
    for flags, value in ((("-i", "--input"), fixture_path("thesis_scores.csv")),
                         (("-o", "--output-dir"), tmp_path)):
        given = [i for i, arg in enumerate(args) if arg in flags]
        for i in given:
            args[i + 1] = str(value)
        if not given:
            args += [flags[0], str(value)]
    assert run(args) == 0, capsys.readouterr().err
