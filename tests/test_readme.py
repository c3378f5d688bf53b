"""Every ```python block of README.md runs as written, so the docs call no
function that the package no longer has."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# the first line of each block body -> the body
BLOCKS = {
    TEXT.count("\n", 0, match.start(1)) + 1: match.group(1)
    for match in re.finditer(r"^```python\n(.*?)^```", TEXT, re.S | re.M)
}


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line", sorted(BLOCKS), ids="line {}".format)
def test_readme_python_block_runs(line):
    # leading newlines give each line of the block its line in README.md,
    # so a traceback points into the README
    code = "\n" * (line - 1) + BLOCKS[line]
    exec(compile(code, str(README), "exec"), {})
