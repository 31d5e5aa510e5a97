"""The README's library quick start and CLI block run as written, and the
package names it cites exist."""

import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import qecc1wqc
from qecc1wqc.cli import main
from qecc1wqc.lattice import Lattice

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


MODULES = [importlib.import_module(name) for _, name, _ in
           pkgutil.walk_packages(qecc1wqc.__path__, "qecc1wqc.")
           if not name.endswith("__main__")]
# the first word of a dotted reference: a module by its last name, a class
# of the package, numpy as np, or the package itself
HEADS = {"qecc1wqc": qecc1wqc, "np": np}
HEADS.update((m.__name__.rpartition(".")[2], m) for m in MODULES)
HEADS.update((name, obj) for m in MODULES for name, obj in vars(m).items()
              if inspect.isclass(obj) and obj.__module__.startswith("qecc1wqc."))
# instance attributes are looked up on an instance
INSTANCES = {Lattice: Lattice(1, 1)}


def _references() -> list[str]:
    """Backticked dotted names, except file names, and constants."""
    quoted = set(re.findall(r"`([^`\n]+)`", README.read_text()))
    dotted = {q for q in quoted if re.fullmatch(r"\w+(\.\w+)+", q)
              and not re.search(r"\.(py|toml|md|json)$", q)}
    constants = {q for q in quoted if re.fullmatch(r"(?=.*_)_?[A-Z][A-Z0-9_]*", q)}
    return sorted(dotted | constants)


def _resolves(ref: str) -> bool:
    if "." not in ref:
        return any(hasattr(m, ref) for m in MODULES)
    head, *rest = ref.split(".")
    obj = HEADS.get(head)
    for name in rest:
        holder = INSTANCES.get(obj, obj) if inspect.isclass(obj) else obj
        if not hasattr(holder, name):
            return False
        obj = getattr(holder, name)
    return True


@pytest.mark.parametrize("ref", _references())
def test_readme_reference_exists(ref):
    assert _resolves(ref), f"README.md cites `{ref}`, which the package does not define"
