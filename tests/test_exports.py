"""Every name that a module or the package exports in `__all__` resolves, as
does every name the benchmark looks up, the benchmark's calls bind to their
signatures, and importing the package loads no scipy module."""
import importlib
import inspect
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


# module attributes that perfbench/tracer.py wraps as spans or counters and
# perfbench/workloads.py calls; the tracer records a missing name as a missing
# span instead of failing, so a rename here would silently blank its metrics
BENCHMARK_NAMES = (
    "cli.main", "cli.emit", "wwb.wwb_value", "wwb.integrate", "wwb.dirichlet_kernel",
    "testpoints.dirichlet_kernel", "testpoints.build", "mapsim.run_monte_carlo",
    "mapsim._grid_peak", "mapsim._refine_peaks", "benchmarks.bcrb", "benchmarks.zzb",
)


def test_benchmark_names_resolve():
    def resolves(path):
        module, attr = path.split(".")
        return callable(getattr(importlib.import_module(f"circbound.{module}"), attr, None))

    assert [p for p in BENCHMARK_NAMES if not resolves(p)] == []


# the call shapes of perfbench/workloads.py, as (callable path, positional
# count, keywords); a signature change that breaks one would fail the
# benchmark, not the suite, without this check
BENCHMARK_CALLS = (
    ("mapsim.McConfig", 0, ("trials", "seed")),
    ("signal_model.SignalConfig", 0, ("K", "snr")),
    ("prior.VonMisesPrior", 0, ("mu", "kappa")),
    ("testpoints.TestPointConfig", 3, ()),
    ("testpoints.build", 2, ()),
    ("wwb.wwb_value", 3, ()),
    ("benchmarks.zzb", 3, ()),
    ("benchmarks.bcrb", 3, ()),
    ("mapsim.run_monte_carlo", 3, ()),
    ("cli.main", 1, ()),
)


@pytest.mark.parametrize("path, positional, keywords", BENCHMARK_CALLS,
                         ids=[call[0] for call in BENCHMARK_CALLS])
def test_benchmark_call_shapes_bind(path, positional, keywords):
    module, attr = path.split(".")
    target = getattr(importlib.import_module(f"circbound.{module}"), attr)
    inspect.signature(target).bind(*[None] * positional, **dict.fromkeys(keywords))


def test_import_leaves_scipy_unloaded():
    # importing scipy.special about doubles the start-up time of every CLI
    # call; scipy serves only as the tests' oracle
    env = dict(os.environ, PYTHONPATH=str(Path(circbound.__file__).parents[1]))
    code = ("import sys, circbound, circbound.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_wwb_commands_leave_numpy_ma_unloaded():
    # np.unique and np.isin import numpy.ma, which added about 1 MB of peak
    # memory to a sweep; the union of test-point sets, nested or not, must
    # not need it. numpy.random costs about 6 MB and 11-15 ms to import;
    # only the MAP kind may load it
    env = dict(os.environ, PYTHONPATH=str(Path(circbound.__file__).parents[1]))
    code = "\n".join([
        "import contextlib, io, sys",
        "from circbound import cli, wwb",
        "from circbound.prior import VonMisesPrior",
        "from circbound.testpoints import TestPointSet",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [cli.main(['sweep', '--figure', '8', '--snr-db=-20:10:5']),",
        "             cli.main(['wwb', '--s', '0.1,0.5']), cli.main(['zzb']),",
        "             cli.main(['bcrb'])]",
        "sets = [TestPointSet(h=h, provenance=('E', 'E')) for h in ([0.1, 2.0], [0.5, 2.0])]",
        "wwb.wwb_axis(VonMisesPrior(kappa=1.0), 20, sets, [1.0], [0.5])",
        "print(codes, sorted(m for m in sys.modules",
        "                    if m.split('.')[:2] in (['numpy', 'ma'], ['numpy', 'random'])))",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[0, 0, 0, 0] []"
