import importlib
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
