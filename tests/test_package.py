"""Structural checks on the package source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "neuralfield"


def test_no_module_imports_a_private_name_of_a_sibling():
    # an underscore name belongs to its module; a sibling that needs the
    # behaviour calls a public function instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != PACKAGE.name:
                continue
            found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert found == []
