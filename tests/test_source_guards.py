"""Guards on the package source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lorentz3"


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assertions():
    # both vanish or mislead under python -O; checks belong in the verify
    # registry and the tests
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert) or _raises_assertion_error(node):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, offenders


def test_package_reads_no_environment():
    # how strict a check or a verdict is lives in the code: no variable in
    # the environment may change it
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if re.search(r"\b(environb?|getenvb?)\b", path.read_text(encoding="utf-8"))
    ]
    assert not offenders, offenders


def test_classify_and_curvature_do_not_load_scipy():
    # scipy backs the geodesic layer only; a fresh interpreter shows what
    # the other commands import
    code = (
        "import contextlib, io, sys\n"
        "from lorentz3.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['classify', '--b', '2']) == 0\n"
        "    assert main(['curvature', '--b', '2', '--point', '1,0,0']) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "False", out.stdout + out.stderr


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_closed_form_layer_never_imports_its_oracle():
    # findiff checks the closed forms; a closed form built on findiff would
    # make that comparison circular
    offenders = []
    for name in ("charts.py", "curvature.py", "killing.py", "transforms.py"):
        path = SRC / "geometry" / name
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if any("findiff" in module.split(".") for module in _imported_modules(tree)):
            offenders.append(name)
    assert not offenders, offenders
