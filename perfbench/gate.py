"""Correctness gate: every result row against reference rows taken from the
seed commit (see make_reference.py).

- Bound rows (WWB, ZZB, BCRB) match the reference to BOUND_RTOL relative;
  s-search rows must also pick the same exponent s.
- MAP rows lie within MAP_Z combined standard errors of the reference MSE,
  and satisfy MSE >= WWB - MAP_Z * SE at the same grid point. SE is the
  standard error expected at the row's trial count, scaled from the
  reference's 10,000-trial SE. The row's own SE is only checked to be a
  finite number: in the threshold region outliers are rare, and a run with
  few of them underestimates its own SE several-fold.

A row fails when it is missing, non-finite, outside these limits or not in
the reference at all. The operation count is one per reference row plus one
per unexpected row.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# the tolerance ROADMAP item 3 sets for bound values that must not change
BOUND_RTOL = 1e-9

# Chosen from measured spread (make_reference.py --calibrate 40): over 40
# seeds x 31 points at 256 trials, |MAP - reference| had median 0.60 and
# maximum 3.41 combined SE, and (MAP - WWB) / SE was never below -2.98.
# Comparing two commits checks some 10^4 MAP rows, so 3 (test_08's margin)
# would false-alarm; a shift of 10 SE still lands above 6 at every point.
MAP_Z = 6.0


def row_key(row: dict) -> tuple:
    return (row["kind"], float(row["snr_db"]), int(row["k"]), float(row["kappa"]),
            float(row["mu"]), row["trio"])


def load_reference(workload: str, phase: str) -> dict[tuple, dict]:
    """Expand the stored series into one reference row per key."""
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        data = json.load(fh)
    rows = {}
    for series in data["phases"][phase]:
        n = len(series["snr_db"])
        for i in range(n):
            row = {
                "kind": series["kind"], "snr_db": series["snr_db"][i], "k": series["k"],
                "kappa": series["kappa"], "mu": series["mu"], "trio": series["trio"],
                "value": series["value"][i],
            }
            for extra in ("s", "se"):
                if extra in series:
                    row[extra] = series[extra][i]
            if "trials" in series:
                row["trials"] = series["trials"]
            rows[row_key(row)] = row
    return rows


def expected_se(ref: dict, trials: int) -> float:
    """Standard error of a MAP MSE over `trials` trials, from the reference's."""
    return ref["se"] * math.sqrt(ref["trials"] / trials)


def check(reference: dict[tuple, dict], rows: list[dict]) -> tuple[int, list[str]]:
    """Return (operations attempted, one message per failed operation)."""
    produced: dict[tuple, dict] = {}
    failures: list[str] = []
    extra = 0
    for row in rows:
        key = row_key(row)
        if key in produced or key not in reference:
            extra += 1
            failures.append(f"unexpected row {key}")
            continue
        produced[key] = row
    for key, ref in reference.items():
        row = produced.get(key)
        msg = _check_row(key, ref, row, reference)
        if msg:
            failures.append(msg)
    return len(reference) + extra, failures


def _check_row(key, ref, row, reference) -> str | None:
    if row is None:
        return f"missing row {key}"
    value = row["value"]
    if not math.isfinite(value):
        return f"non-finite value at {key}"
    if key[0] != "MAP":
        if abs(value - ref["value"]) > BOUND_RTOL * abs(ref["value"]):
            return f"{key}: {value!r} differs from reference {ref['value']!r}"
        if "s" in ref and row.get("s") != ref["s"]:
            return f"{key}: chose s={row.get('s')!r}, reference s={ref['s']!r}"
        return None
    own_se = row.get("se", math.nan)
    if not (math.isfinite(own_se) and own_se >= 0.0):
        return f"{key}: standard error {own_se!r} is not a finite non-negative number"
    se = expected_se(ref, row["trials"])
    combined = math.hypot(se, ref["se"])
    if abs(value - ref["value"]) > MAP_Z * combined:
        return (f"{key}: MAP MSE {value:.6g} is {(value - ref['value']) / combined:+.2f} "
                f"combined SE from reference {ref['value']:.6g}")
    wwb_ref = reference.get(("WWB",) + key[1:5] + ("2,9,10",))
    if wwb_ref is not None and value < wwb_ref["value"] - MAP_Z * se:
        return f"{key}: MAP MSE {value:.6g} below WWB {wwb_ref['value']:.6g} by more than {MAP_Z} SE"
    return None
