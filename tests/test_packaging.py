"""Distribution metadata in pyproject.toml agrees with the package."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import narekit as nk

tomllib = pytest.importorskip("tomllib")
TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"


def test_pyproject_names_the_package():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["name"] == "narekit"
    assert project["version"] == nk.__version__
    module, attr = project["scripts"]["narekit"].split(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_test_extra_declares_every_test_import():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    extra = project["optional-dependencies"]["test"]
    declared = {re.split(r"[^A-Za-z0-9_.-]", req, maxsplit=1)[0].lower()
                for req in project["dependencies"] + extra}
    assert {"pytest", "hypothesis"} <= declared
    local = {"narekit"} | {path.stem for path in TESTS.glob("*.py")}
    imported = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - local - set(sys.stdlib_module_names)
    assert third_party <= declared, third_party - declared
