"""Self-test of the correctness gate.

    python3 perfbench/gate_selftest.py

For each workload it runs one untraced repetition of the program at seed 0
and checks that the gate passes it, then that the gate flags two
perturbations of those same rows: a bound value shifted by 1e-6 relative,
and (on validity_k20) a MAP MSE shifted by +10 and by -10 standard errors.
Exits 0 when every check holds.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import copy  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402


def _rows(name: str, seed: int) -> list[dict]:
    inputs = workloads.build_inputs(name, seed)
    if name == "validity_k20":
        return workloads.run_validity(inputs)[0]
    text, info = workloads.run_cli(inputs)
    assert info["exit_code"] == 0, info["stderr"]
    return workloads.parse_cli_rows(text)


def _map_shift(reference: dict, sigmas: float):
    """Move a MAP MSE by `sigmas` of the standard error the gate expects."""
    def shift(row):
        ref = reference[gate.row_key(row)]
        return row["value"] + sigmas * gate.expected_se(ref, row["trials"])
    return shift


def _shifted(rows: list[dict], kind: str, shift) -> list[dict]:
    out = copy.deepcopy(rows)
    for row in out:
        if row["kind"] == kind:
            row["value"] = shift(row)
    return out


def main() -> int:
    ok = True

    def expect(label: str, failures: list[str], want: int) -> None:
        nonlocal ok
        good = len(failures) == want
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {label}: {len(failures)} of {want} row(s) flagged"
              + (f", e.g. {failures[0]}" if failures else ""))

    seed = 0
    for name in workloads.WORKLOADS:
        reference = gate.load_reference(name, workloads.reference_phase(name, seed))
        rows = _rows(name, seed)
        expect(f"{name} seed output passes", gate.check(reference, rows)[1], 0)
        kinds = sorted({r["kind"] for r in rows})
        for kind in kinds:
            count = sum(r["kind"] == kind for r in rows)
            if kind == "MAP":
                for sign in (+1.0, -1.0):
                    moved = _shifted(rows, kind, _map_shift(reference, sign * 10.0))
                    expect(f"{name} every MAP MSE {sign * 10:+.0f} SE is flagged",
                           gate.check(reference, moved)[1], count)
            else:
                moved = _shifted(rows, kind, lambda r: r["value"] * (1.0 + 1e-6))
                expect(f"{name} every {kind} row x (1 + 1e-6) is flagged",
                       gate.check(reference, moved)[1], count)
        expect(f"{name} a missing row is flagged", gate.check(reference, rows[1:])[1], 1)
        if name == "wwb_s_search":
            moved = copy.deepcopy(rows)
            moved[0]["s"] = 0.4 if moved[0]["s"] != 0.4 else 0.6
            expect(f"{name} a different chosen s is flagged", gate.check(reference, moved)[1], 1)
    print("gate self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
