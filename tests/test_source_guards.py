"""Guards on the package source itself."""

import ast
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
