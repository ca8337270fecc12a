"""Every name that a module or the package exports in `__all__` resolves."""
import importlib
import pkgutil

import pytest

import circbound

MODULES = sorted(m.name for m in pkgutil.iter_modules(circbound.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"circbound.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_resolve():
    assert [n for n in circbound.__all__ if not hasattr(circbound, n)] == []
