"""Every name that a module or the package exports in `__all__` resolves, and
importing the package loads no scipy module."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import circbound

MODULES = sorted(m.name for m in pkgutil.iter_modules(circbound.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"circbound.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_resolve():
    assert [n for n in circbound.__all__ if not hasattr(circbound, n)] == []


def test_import_leaves_scipy_unloaded():
    # importing scipy.special about doubles the start-up time of every CLI
    # call; scipy serves only as the tests' oracle
    env = dict(os.environ, PYTHONPATH=str(Path(circbound.__file__).parents[1]))
    code = ("import sys, circbound, circbound.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
