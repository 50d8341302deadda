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


def _run_commands_then_check_unloaded(tmp_path, *modules):
    """Runs a tiny ``gainfield`` and ``schrodinger`` through ``cli.main`` in a
    fresh interpreter; fails if any of ``modules`` is loaded by the import or
    the runs."""
    doc = {"grid": {"nodes": [101]},
           "gainfield": {"crosscheck_nodes": 401},
           "schrodinger": {"nodes": 401, "n_states": 2}}
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    script = (
        "import sys\n"
        "import neuralfield.cli as cli\n"
        f"assert not {set(modules)!r} & set(sys.modules), 'import'\n"
        "for command in ('gainfield', 'schrodinger'):\n"
        f"    assert cli.main([command, '--config', {str(config)!r},\n"
        f"                     '--out', {str(tmp_path)!r} + '/' + command]) == 0\n"
        f"assert not {set(modules)!r} & set(sys.modules), 'run'\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_commands_run_without_loading_scipy(tmp_path):
    _run_commands_then_check_unloaded(tmp_path, "scipy")


def test_commands_run_without_loading_numpy_random(tmp_path):
    # numpy imports numpy.random lazily, and that import (with secrets, hmac
    # and base64) costs about 15 ms of a cold run
    _run_commands_then_check_unloaded(tmp_path, "numpy.random")


def test_commands_run_without_loading_argparse(tmp_path):
    # a scripted argv is read from the option table; argparse and its gettext
    # cost every run's process about 4 ms
    _run_commands_then_check_unloaded(tmp_path, "argparse", "gettext")


# Oracles that acceptance tests read; no command needs them.  sha256_file
# re-hashes an artifact on disk against its manifest entry (a run hashes as
# it writes), and the benchmark's tracer hooks it by name.
TEST_ORACLES = {"sha256_file"}


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


def _callers(name):
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                found += [(path.name, func.name) for node in ast.walk(func)
                          if isinstance(node, ast.Call) and _called_name(node) == name]
    return found


def test_constants_are_computed_only_in_cli_run():
    # one computation per run: every library function takes the constants
    assert _callers("compute_constants") == [("cli.py", "run")]


def test_operator_is_built_only_in_cli_run():
    # one operator per run: the constants and every command share it
    assert _callers("build_operator") == [("cli.py", "run")]


def test_trajectory_is_built_only_in_solve_global():
    # one lattice, one array: segments solve in place in the run's rows
    assert _callers("Trajectory") == [("solver.py", "solve_global")]


def test_artifacts_are_written_only_by_cli_run():
    # each command returns its artifacts; run writes them and then the
    # manifest, so the manifest lists exactly the files of its run
    assert _callers("write_csv") == [("cli.py", "run")]
    assert sorted(_callers("write_json")) == [("cli.py", "_emit_manifest"), ("cli.py", "run")]
    # and no artifact is read back to be hashed
    assert _callers("sha256_file") == []
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 6
    # no output directory: a command sees the config, operator and constants
    assert {arg.arg for func in commands for arg in func.args.args} == {
        "cfg", "op", "constants", "study_name"}


def test_config_is_walked_only_by_build_config():
    # one validation entry point: files, NF_ variables and flags all reach
    # the run through build_config, so nothing checks a section on the side
    assert set(_callers("_walk")) == {("config.py", "build_config"), ("config.py", "_walk")}


def test_operator_storage_is_read_only_by_the_operator():
    # W is the rule for a product: its spectrum or matrix is read only in
    # DiscreteOperator's methods and build_operator, so J, its bound and the
    # constants take one path for every kernel
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(sub) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) and node.name == "DiscreteOperator"
                   or isinstance(node, ast.FunctionDef) and node.name == "build_operator"
                   for sub in ast.walk(node)}
        found += [f"{path.name}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("spectrum", "matrix")
                  and id(node) not in allowed]
    assert found == []


# Defaults that no package call sets, on purpose: the test seam of
# parse_config and main's argv.
DEFAULTS_SET_OUTSIDE_CALLS = {"parse_config.environ", "main.argv"}


def test_every_default_is_set_by_some_package_call():
    # a parameter whose default every package call keeps is a knob only
    # tests turn; a call sets it by keyword, by position, or through * / **
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    calls = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unset = []
    seen = set()
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
                seen.add(f"{func.name}.{name}")
                if f"{func.name}.{name}" in DEFAULTS_SET_OUTSIDE_CALLS:
                    continue
                if not any(_called_name(call) == callee and (
                        any(k.arg in (name, None) for k in call.keywords)
                        or any(isinstance(a, ast.Starred) for a in call.args)
                        or (index is not None and len(call.args) > index))
                        for call in calls):
                    unset.append(f"{func.name}.{name}")
    assert unset == []
    # every exemption still names a defaulted parameter, so none outlives its reason
    assert DEFAULTS_SET_OUTSIDE_CALLS - seen == set()


# Dataclasses the manifest writes whole through dataclasses.asdict, and the
# call that dumps each: every field of theirs is read, by its name as a key.
DUMPED = {"asdict(constants)": "TheoryConstants", "asdict(seg)": "PicardSegment"}


def _class_of(annotation, classes):
    """The package dataclass an annotation names, ``X`` or ``X | None``."""
    if isinstance(annotation, ast.BinOp):
        return _class_of(annotation.left, classes) or _class_of(annotation.right, classes)
    return annotation.id if isinstance(annotation, ast.Name) and annotation.id in classes else None


def test_every_dataclass_field_is_read():
    # a field nothing reads is data computed to be dropped.  A read is
    # ``x.field`` anywhere in the package where x is not known to be of
    # another class: x's class comes from a parameter annotation, ``self``,
    # or the annotation of the field it was read from.  Reads in the class's
    # own methods count: an operator's storage is read only there
    # (test_operator_storage_is_read_only_by_the_operator)
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    defs = {node.name: node for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list)}
    classes = {name: {item.target.id: item.annotation for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
               for name, node in defs.items()}

    def class_of(expr, env):
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = class_of(expr.value, env)
            if owner is not None and expr.attr in classes[owner]:
                return _class_of(classes[owner][expr.attr], classes)
        return None

    receivers = {}  # id of an attribute read -> (node, its receiver's class)
    dumped = set()
    for tree in trees.values():
        owners = {id(sub): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  for sub in node.body if isinstance(sub, ast.FunctionDef)}
        scopes = [(tree, {})]
        for func in ast.walk(tree):  # outer functions first, so inner ones override
            if isinstance(func, ast.FunctionDef):
                params = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
                env = {p.arg: _class_of(p.annotation, classes) for p in params if p.annotation}
                if owners.get(id(func)) in classes and params:
                    env[params[0].arg] = owners[id(func)]
                scopes.append((func, env))
        for scope, env in scopes:
            for node in ast.walk(scope):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    receivers[id(node)] = (node, class_of(node.value, env))
                if isinstance(node, ast.Call) and _called_name(node) == "asdict":
                    dumped.add(ast.unparse(node))
    assert dumped == set(DUMPED)

    unread = []
    for name, fields in classes.items():
        read = {node.attr for node, owner in receivers.values() if owner in (None, name)}
        if name not in DUMPED.values():
            unread += [f"{name}.{field}" for field in fields if field not in read]
    assert unread == []
