"""One repetition of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --mode plain|trace|count

`plain` times the workload untraced; `trace` records spans around the calls
into each module; `count` only counts dirichlet_kernel calls. The last line
of standard output is one JSON object. time.monotonic() at the end of set-up
is reported so the parent, which noted the same clock before starting this
process, can compute the set-up time.

A speedometer (speedometer.py) samples the host's speed from the first line,
through set-up and, in `plain` mode, through the timed workload. For set-up
and for the workload the record gives the seconds spent in its slices, which
the times include, and the scale to the reference speed.
"""
from __future__ import annotations

import sys
from pathlib import Path

import speedometer  # standard library only, so it can start before the heavy imports

SPEEDO = speedometer.Speedometer()
SPEEDO.start()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import gate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def run_once(name: str, seed: int, mode: str) -> dict:
    inputs = workloads.build_inputs(name, seed)
    t_ready = time.monotonic()
    setup_slices_s, setup_scale = SPEEDO.window(0.0, time.perf_counter())
    SPEEDO.use(workloads.SPEED_SLICE[name])
    tracer = None
    if mode != "plain":
        SPEEDO.stop()
        tracer = tracing.Tracer()
        if mode == "trace":
            tracer.install_spans()
        else:
            tracer.install_counters()
    run = workloads.run_validity if name == "validity_k20" else workloads.run_cli
    error = None
    start = time.perf_counter()
    try:
        raw, info = run(inputs)
    except Exception as err:  # the whole repetition fails; the gate counts every row
        raw, info = None, {"emit_bytes": 0}
        error = f"{type(err).__name__}: {err}"
    stop = time.perf_counter()
    SPEEDO.stop()
    wall_slices_s, wall_scale = SPEEDO.window(start, stop)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()

    if raw is None:
        rows = []
    elif name == "validity_k20":
        rows = raw
    else:
        rows = workloads.parse_cli_rows(raw)
        if info["exit_code"] != 0:
            error = f"cli exit {info['exit_code']}: {info['stderr'].strip()}"
    reference = gate.load_reference(name, workloads.reference_phase(name, seed))
    attempted, failures = gate.check(reference, rows)
    out = {
        "t_ready": t_ready,
        "wall_s": stop - start - wall_slices_s,
        "wall_scale": wall_scale,
        "setup_slices_s": setup_slices_s,
        "setup_scale": setup_scale,
        "peak_rss_kb": peak_rss_kb,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "error": error,
    }
    if mode == "trace":
        map_trials = sum(r.get("trials", 0) for r in rows if r["kind"] == "MAP")
        out["layers"] = tracing.layer_metrics(tracer, map_trials, info["emit_bytes"])
        out["missing"] = tracer.missing
    elif mode == "count":
        out["dirichlet_calls"] = tracer.counts.get("numerics.dirichlet_kernel", 0.0)
        out["missing"] = tracer.missing
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "trace", "count"), default="plain")
    args = ap.parse_args()
    print(json.dumps(run_once(args.workload, args.seed, args.mode)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
