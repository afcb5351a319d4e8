"""Distribution metadata in pyproject.toml agrees with the package."""

import importlib
from pathlib import Path

import pytest

import narekit as nk

tomllib = pytest.importorskip("tomllib")
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_names_the_package():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["name"] == "narekit"
    assert project["version"] == nk.__version__
    module, attr = project["scripts"]["narekit"].split(":")
    assert callable(getattr(importlib.import_module(module), attr))
