"""Structural checks on the package source."""

import ast
import json
import subprocess
import sys
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


def test_no_module_imports_scipy():
    # scipy is a test dependency only: the oracles use it, the package does not
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_commands_run_without_loading_scipy(tmp_path):
    doc = {"grid": {"nodes": [101]},
           "gainfield": {"crosscheck_nodes": 401},
           "schrodinger": {"nodes": 401, "n_states": 2}}
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    script = (
        "import sys\n"
        "import neuralfield.cli as cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "for command in ('gainfield', 'schrodinger'):\n"
        f"    assert cli.main([command, '--config', {str(config)!r},\n"
        f"                     '--out', {str(tmp_path)!r} + '/' + command]) == 0\n"
        "assert 'scipy' not in sys.modules, 'run'\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# Oracles that acceptance tests read; no command needs them.
TEST_ORACLES = {"reconstruct_kernel", "greens_identity_check", "gram", "j_error_bound",
                "estimate_lipschitz"}


def test_every_definition_is_referenced_outside_init():
    # a function, class or method that only tests (or the package's exports)
    # name is surface no command reaches; a reference inside its own body
    # does not count
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}

    def names_in(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    uses = {}
    for name, tree in trees.items():
        if name != "__init__.py":
            for used in names_in(tree):
                uses[used] = uses.get(used, 0) + 1
    unreached = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__") or node.name in TEST_ORACLES:
                continue
            own = sum(used == node.name for used in names_in(node))
            if uses.get(node.name, 0) - own <= 0:
                unreached.append(f"{name}:{node.lineno} {node.name}")
    assert unreached == []
