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


def _run_commands_then_check_unloaded(tmp_path, module):
    """Runs a tiny ``gainfield`` and ``schrodinger`` through ``cli.main`` in a
    fresh interpreter; fails if ``module`` is loaded by the import or the runs."""
    doc = {"grid": {"nodes": [101]},
           "gainfield": {"crosscheck_nodes": 401},
           "schrodinger": {"nodes": 401, "n_states": 2}}
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    script = (
        "import sys\n"
        "import neuralfield.cli as cli\n"
        f"assert {module!r} not in sys.modules, 'import'\n"
        "for command in ('gainfield', 'schrodinger'):\n"
        f"    assert cli.main([command, '--config', {str(config)!r},\n"
        f"                     '--out', {str(tmp_path)!r} + '/' + command]) == 0\n"
        f"assert {module!r} not in sys.modules, 'run'\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_commands_run_without_loading_scipy(tmp_path):
    _run_commands_then_check_unloaded(tmp_path, "scipy")


def test_commands_run_without_loading_numpy_random(tmp_path):
    # numpy imports numpy.random lazily, and that import (with secrets, hmac
    # and base64) costs about 15 ms of a cold run
    _run_commands_then_check_unloaded(tmp_path, "numpy.random")


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


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_constants_are_computed_only_in_cli_run():
    # one computation per run: every library function takes the constants
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                found += [(path.name, func.name) for node in ast.walk(func)
                          if isinstance(node, ast.Call) and _called_name(node) == "compute_constants"]
    assert found == [("cli.py", "run")]


# Defaults that no package call sets, on purpose: the oracles' resolution
# knobs, the test seam of parse_config, main's argv, and the command options
# that reach cmd_* through run's **options.
DEFAULTS_SET_OUTSIDE_CALLS = {
    "estimate_lipschitz.n", "greens_identity_check.test_values", "reconstruct_kernel.rank",
    "parse_config.environ", "main.argv", "cmd_stationary.method", "cmd_schrodinger.well",
    "cmd_schrodinger.lam",
}


def test_every_default_is_set_by_some_package_call():
    # a parameter whose default every package call keeps is a knob only
    # tests turn; a call sets it by keyword, by position, or through * / **
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    calls = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unset = []
    for tree in trees:
        methods = {id(sub): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for sub in node.body if isinstance(sub, ast.FunctionDef)}
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            args = func.args
            positional = args.posonlyargs + args.args
            # a class call reaches __init__; a method call passes self implicitly
            callee = methods[id(func)] if func.name == "__init__" else func.name
            skip = 1 if id(func) in methods else 0
            first_default = len(positional) - len(args.defaults)
            defaulted = [(i - skip, p.arg) for i, p in enumerate(positional) if i >= first_default]
            defaulted += [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for index, name in defaulted:
                if f"{func.name}.{name}" in DEFAULTS_SET_OUTSIDE_CALLS:
                    continue
                if not any(_called_name(call) == callee and (
                        any(k.arg in (name, None) for k in call.keywords)
                        or any(isinstance(a, ast.Starred) for a in call.args)
                        or (index is not None and len(call.args) > index))
                        for call in calls):
                    unset.append(f"{func.name}.{name}")
    assert unset == []
