"""The README's library quick start and CLI block run as written."""

import re
import shlex
from pathlib import Path

import pytest

from qecc1wqc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def _cli_lines() -> list[str]:
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.DOTALL)
    return [line.split("#")[0].strip() for line in block[1].splitlines()
            if line.startswith("qecc1wqc ")]


def test_readme_cli_block_is_found():
    assert len(_cli_lines()) == 11


@pytest.mark.parametrize("line", _cli_lines())
def test_readme_cli_line_exits_zero(line):
    argv = shlex.split(line)[1:]
    assert main(argv + ["--quiet"]) == 0
