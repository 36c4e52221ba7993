import importlib
import pkgutil

import pytest

import compactpool

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(compactpool.__path__))


@pytest.mark.parametrize("module_name", ["compactpool", *(f"compactpool.{m}" for m in SUBMODULES)])
def test_every_exported_name_resolves_once(module_name):
    module = importlib.import_module(module_name)
    names = module.__all__
    assert len(names) == len(set(names)), f"{module_name}.__all__ repeats a name"
    missing = [n for n in names if not hasattr(module, n)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
