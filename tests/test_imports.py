"""Every name a conefrac module imports is used in that module.

A binding kept only so that something outside the package can rebind it
(a tracer hook, say) is dead code to the package itself; this test keeps
such bindings, and plain unused imports, from coming back."""

import ast
import importlib.util
from pathlib import Path

import pytest

import conefrac

PACKAGE = Path(conefrac.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
