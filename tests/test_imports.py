"""Every name a conefrac module imports is used in that module, and every
private module-level name is read somewhere in the package.

A binding kept only so that something outside the package can rebind it
(a tracer hook, say) is dead code to the package itself; this test keeps
such bindings, plain unused imports and private helpers that nothing calls
from coming back.  The package's third-party imports are exactly its
declared runtime dependencies."""

import ast
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conefrac

PACKAGE = Path(conefrac.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def unused_imports(tree: ast.Module) -> list:
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert unused_imports(tree) == []


def private_definitions(tree: ast.Module) -> set:
    """Private functions, classes and constants bound at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def names_read(tree: ast.Module) -> set:
    """Names loaded in the tree, bare or as an attribute of something."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_every_private_module_name_is_read():
    # a private helper, class or constant that no module of the package
    # reads is dead code, whatever a test or a tracer hook makes of it
    trees = {p.name: ast.parse(p.read_text(), filename=p.name)
             for p in PACKAGE.glob("*.py")}
    read = set().union(*(names_read(tree) for tree in trees.values()))
    unread = {f"{module}:{name}" for module, tree in trees.items()
              for name in private_definitions(tree) - read}
    assert sorted(unread) == []


def test_tracer_hook_targets_resolve():
    # bench/tracing.py counts each layer by rebinding the functions HOOKS
    # names, and reads 0 for a target that no longer resolves.  Four absent
    # ones left liouville when mass-only became a route of _L_field, three
    # more when the cutoff mass field's plateau form became one; any other
    # target that stops resolving silently zeroes a metric
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    absent = {target for target, _, _ in tracing.HOOKS
              if not tracer._targets(target)}
    assert absent == {"liouville:_mass_only_L", "liouville:_operator_batch",
                      "liouville:apply_L", "liouville:c_alpha",
                      "liouville:_CutoffMassField.L_pair",
                      "liouville:_CutoffMassField._plate",
                      "liouville:_CutoffMassField._frame_sums"}


def test_tracer_row_counts_read_the_points():
    # a hook built by _first_rows counts the rows of one positional
    # argument.  If the batch of points (X, or thetas for a density) moves
    # to another position, the hook counts one row per call without any
    # error; here that is a failure.  Probe arguments whose row counts equal
    # their positions give the position each hook reads
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    probe = tuple(np.zeros((i, 1)) for i in range(8))
    read = {}
    for target, _, counts in tracing.HOOKS:
        if counts is None or not counts.__qualname__.startswith("_first_rows."):
            continue
        pos = counts(probe, {}, None)["points"]
        for owner, attr in tracer._targets(target):
            params = list(inspect.signature(vars(owner)[attr]).parameters)
            read[f"{target} {owner.__name__}.{attr}"] = (
                params[pos] if pos < len(params) else None,
                "thetas" if attr == "_eval_unit" else "X")
    assert read
    assert {k: v for k, v in read.items() if v[0] != v[1]} == {}


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: the package itself must not pull it in
    code = ("import sys, conefrac; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=PACKAGE.parent,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "[]"


def test_runtime_dependencies_are_the_third_party_imports():
    # each third-party module the package imports is declared, and nothing
    # else is: a test-only package (scipy, the tests' oracle) stays out
    tomllib = pytest.importorskip("tomllib")
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps}
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"conefrac"}
    assert third_party == declared
