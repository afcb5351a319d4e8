"""Distribution metadata in pyproject.toml agrees with the package, every
error class is raised and documented with its CLI exit code, and the
modules keep their layering."""

import ast
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

import narekit as nk
from narekit import cli, errors

TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"
README = TESTS.parent / "README.md"
SRC = TESTS.parent / "src" / "narekit"


def _project():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    return tomllib.loads(PYPROJECT.read_text())["project"]


def test_pyproject_names_the_package():
    project = _project()
    assert project["name"] == "narekit"
    assert project["version"] == nk.__version__
    module, attr = project["scripts"]["narekit"].split(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_test_extra_declares_every_test_import():
    project = _project()
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


ERROR_CLASSES = sorted(
    name for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.NarekitError)
    and cls.__module__ == errors.__name__ and cls is not errors.NarekitError)


def _readme_exit_codes():
    """{class name: exit code} from README's error table, whose rows read
    | `Class` ... | diagnostics keys | exit code ... |."""
    rows = re.findall(r"^\| `(\w+)`[^|\n]*\|[^|\n]*\| (\d)", README.read_text(), re.M)
    return {name: int(code) for name, code in rows}


def test_every_error_class_is_raised():
    # a class no raise names is dead: fold it away instead of keeping it
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert set(ERROR_CLASSES) <= raised, set(ERROR_CLASSES) - raised


def test_readme_table_lists_every_error_class():
    assert set(_readme_exit_codes()) == set(ERROR_CLASSES)


@pytest.mark.parametrize("name", ERROR_CLASSES)
def test_exit_code_matches_readme(name, capsys, monkeypatch):
    # main dispatches through cli._COMMANDS; its solve entry is cmd_solve
    def cmd_solve(args):
        raise getattr(errors, name)("raised in place of a solve", {"key": 1})

    monkeypatch.setitem(cli._COMMANDS, "solve", cmd_solve)
    code = cli.main(["solve", "--family", "transport", "--n", "4", "--beta", "1e-3"])
    out, err = capsys.readouterr()
    assert code == _readme_exit_codes()[name]
    assert json.loads(out) == {"error": cli._EXIT_NAMES[code],
                               "message": "raised in place of a solve"}
    assert err == "narekit: raised in place of a solve\n"


def test_layering():
    # the solver modules do not import narekit.diagnostics, no other module
    # its private names; core, sda and shift call no dense QR, SVD or
    # ordered norm but kernel's, and fetch no LAPACK or BLAS routine
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "diagnostics":
            continue
        solver = path.stem in ("core", "kernel", "sda", "shift")
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and path.stem in ("core", "sda", "shift"):
                name = ast.unparse(node.func)
                ordered = len(node.args) > 1 or any(k.arg == "ord" for k in node.keywords)
                assert not (name in ("np.linalg.qr", "np.linalg.svd") or
                            name == "np.linalg.norm" and ordered or
                            name.split(".")[-1] in ("get_lapack_funcs", "get_blas_funcs")), (
                    f"{path}:{node.lineno} calls {name}; use narekit.kernel")
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                parts = ["narekit"] * (node.level > 0) + [node.module or ""]
                base = ".".join(part for part in parts if part)
                targets = [base] + [base + "." + alias.name for alias in node.names]
            else:
                continue
            for target in targets:
                inside = (target + ".").startswith("narekit.diagnostics.")
                private = target.startswith("narekit.diagnostics._")
                assert not (inside and (solver or private)), (
                    f"{path}:{node.lineno} imports {target}")
    # one rule for "too singular": lu_factor, which refuses only an exact
    # zero pivot, factors just the matrices the shift wants nearly singular
    # (M -/+ tau I, H); every matrix a solver inverts goes through
    # lu_factor_cond, whose cap, kernel.BREAKDOWN_COND, no other module
    # defines, imports or compares
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        assert "pivot_tol" not in path.read_text(), path
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and
                        ast.unparse(node.func).split(".")[-1] == "lu_factor"):
                    callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
                names = [getattr(node, "id", getattr(node, "attr", None))] + [
                    alias.name for alias in getattr(node, "names", ())]
                assert "BREAKDOWN_COND" not in names or path.stem == "kernel", (
                    f"{path}:{node.lineno} reads BREAKDOWN_COND outside kernel.py")
    assert callers == {"core.classify_mmatrix", "shift.compute_central_pair",
                       "shift.sushi_solve"}
