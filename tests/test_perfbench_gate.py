"""Every benchmark workload, run in-process, passes the benchmark's correctness gate.

perfbench/workloads.py and perfbench/gate.py are loaded without writing
bytecode, so nothing under perfbench/ changes. Each workload runs at seeds 0
and 1, which covers both SNR phases of the two WWB workloads.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _listing() -> list:
    return sorted((str(p), p.stat().st_mtime_ns) for p in PERFBENCH.rglob("*"))


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BEFORE = _listing()
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    workloads, gate = _load("workloads"), _load("gate")
finally:
    sys.dont_write_bytecode = _write_bytecode


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_passes_gate(name, seed):
    inputs = workloads.build_inputs(name, seed)
    if name == "validity_k20":
        rows, code = workloads.run_validity(inputs)[0], 0
    else:
        text, info = workloads.run_cli(inputs)
        rows, code = workloads.parse_cli_rows(text), info["exit_code"]
    reference = gate.load_reference(name, workloads.reference_phase(name, seed))
    attempted, failures = gate.check(reference, rows)
    assert code == 0
    assert failures == []
    assert attempted == len(rows) > 0


def test_nothing_written_under_perfbench():
    assert _listing() == BEFORE
