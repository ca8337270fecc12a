"""Write the reference rows the correctness gate compares against, or
calibrate the gate's MAP z.

    python3 perfbench/make_reference.py               # writes perfbench/reference/*.json
    python3 perfbench/make_reference.py --calibrate 40

The committed reference files were written at the seed commit of the
benchmark (git 1b818df); regenerating them on a later commit would make the
gate compare that commit with itself. The MAP reference uses the settings of
acceptance test_08: 10,000 trials, Monte Carlo seed 29 at every point.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
from dataclasses import replace  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402

REFERENCE_TRIALS = 10_000
REFERENCE_SEED = 29


def _series(rows: list[dict], with_s: bool, with_se: bool) -> list[dict]:
    groups: dict[tuple, dict] = {}
    for row in sorted(rows, key=gate.row_key):
        key = (row["kind"], row["k"], row["kappa"], row["mu"], row["trio"])
        series = groups.setdefault(key, {
            "kind": row["kind"], "k": row["k"], "kappa": row["kappa"], "mu": row["mu"],
            "trio": row["trio"], "snr_db": [], "value": [],
        })
        series["snr_db"].append(row["snr_db"])
        series["value"].append(row["value"])
        if with_s:
            series.setdefault("s", []).append(row["s"])
        if with_se and row["kind"] == "MAP":
            series.setdefault("se", []).append(row["se"])
            series["trials"] = row["trials"]
    return list(groups.values())


def _validity_rows() -> list[dict]:
    inputs = workloads.build_inputs("validity_k20", 0)
    inputs["points"] = [
        (snr_db, config, replace(mc, trials=REFERENCE_TRIALS, seed=REFERENCE_SEED))
        for snr_db, config, mc in inputs["points"]
    ]
    rows, _ = workloads.run_validity(inputs)
    return rows


def write_reference(out_dir: Path) -> None:
    out_dir.mkdir(exist_ok=True)
    source = "circbound 0.1.0 at git commit 1b818df"
    docs = {
        "validity_k20": {
            "source": source,
            "map_seed": REFERENCE_SEED,
            "phases": {"0": _series(_validity_rows(), with_s=False, with_se=True)},
        },
    }
    for name in ("wwb_snr_sweep", "wwb_s_search"):
        phases = {}
        for seed in range(len(workloads.SNR_PHASES_DB)):
            text, info = workloads.run_cli(workloads.build_inputs(name, seed))
            if info["exit_code"] != 0:
                raise SystemExit(f"{name}: cli exit {info['exit_code']}: {info['stderr']}")
            phases[workloads.reference_phase(name, seed)] = _series(
                workloads.parse_cli_rows(text), with_s=name == "wwb_s_search", with_se=False)
        docs[name] = {
            "source": source,
            "snr_phase_db": list(workloads.SNR_PHASES_DB),
            "phases": phases,
        }
    for name, doc in docs.items():
        with open(out_dir / f"{name}.json", "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


def calibrate(seeds: int) -> None:
    """Spread of the MAP rows of validity_k20 against the reference, per seed,
    in the gate's units: (MAP - reference) / combined SE, (MAP - WWB) / SE."""
    reference = gate.load_reference("validity_k20", "0")
    devs, margins = [], []
    for seed in range(seeds):
        rows, _ = workloads.run_validity(workloads.build_inputs("validity_k20", seed))
        for row in rows:
            if row["kind"] != "MAP":
                continue
            key = gate.row_key(row)
            ref = reference[key]
            wwb_ref = reference[("WWB",) + key[1:5] + ("2,9,10",)]
            se = gate.expected_se(ref, row["trials"])
            devs.append(((row["value"] - ref["value"]) / math.hypot(se, ref["se"]), seed, key[1]))
            margins.append(((row["value"] - wwb_ref["value"]) / se, seed, key[1]))
        worst = max(devs, key=lambda d: abs(d[0]))
        print(f"seed {seed}: worst dev {worst[0]:+.2f} combined SE (seed {worst[1]}, "
              f"{worst[2]} dB), worst (MAP - WWB)/SE {min(margins)[0]:+.2f}", flush=True)
    print(f"{len(devs)} MAP rows at {workloads.VALIDITY_TRIALS} trials: |dev| median "
          f"{statistics.median(abs(d[0]) for d in devs):.2f}, max {max(abs(d[0]) for d in devs):.2f}; "
          f"(MAP - WWB)/SE min {min(margins)[0]:.2f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--calibrate", type=int, default=0, metavar="SEEDS",
                    help="instead of writing, measure the MAP spread over this many seeds")
    args = ap.parse_args()
    if args.calibrate:
        calibrate(args.calibrate)
    else:
        write_reference(gate.REFERENCE_DIR)
    return 0


if __name__ == "__main__":
    sys.exit(main())
