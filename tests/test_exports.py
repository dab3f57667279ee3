import ast
import importlib
import importlib.util
import pkgutil

import pytest

import treatpolicy


def _module_names():
    names = ["treatpolicy"]
    for info in pkgutil.walk_packages(treatpolicy.__path__, prefix="treatpolicy."):
        names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("module_name", _module_names())
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{module_name}.__all__ lists a name twice"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("module_name", _module_names())
def test_every_imported_name_is_used(module_name):
    # a name the module imports but neither uses nor re-exports is left over
    with open(importlib.util.find_spec(module_name).origin, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used - exported)
    assert unused == [], f"{module_name} imports {unused} and never uses them"
