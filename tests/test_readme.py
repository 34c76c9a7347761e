"""Every ```python block of README.md runs as written.

Each block runs in a fresh namespace, from a temporary directory that holds
a copy of ``scenarios/``, so that its relative paths resolve and the files
it writes land there.
"""

import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def python_blocks():
    """(first line number, source) of each ```python block of README.md."""
    text = README.read_text()
    return [
        (text.count("\n", 0, m.start(1)) + 1, m.group(1))
        for m in re.finditer(r"^```python\n(.*?)^```", text, re.S | re.M)
    ]


BLOCKS = python_blocks()


def test_readme_has_python_blocks():
    assert BLOCKS


# ids by position, so that editing the README above a block does not rename its test
IDS = [f"block-{i}" for i in range(1, len(BLOCKS) + 1)]


@pytest.mark.parametrize("line, source", BLOCKS, ids=IDS)
def test_readme_block_runs(line, source, tmp_path, monkeypatch):
    shutil.copytree(ROOT / "scenarios", tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    exec(compile(source, f"{README}:{line}", "exec"), {"__name__": "readme"})
