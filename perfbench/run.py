#!/usr/bin/env python3
"""circbound benchmark: three closed-loop workloads, each repetition in a
fresh process with BLAS and OpenMP pinned to one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 repeats the workload untraced for about S seconds (at least
MIN_REPS times). It reports the median over repetitions of wall_s, setup_s
and peak_rss_mb. The two times are rescaled to a reference host speed by the
speedometer each repetition runs (speedometer.py): the speed of this shared
host drifts by a quarter and more within minutes, and the rescaled times do
not follow it.
--trace 1 runs one counting pass, then alternates untraced and traced
repetitions, and reports per-layer metrics plus the tracing overhead.

Every repetition's result rows go through the correctness gate (gate.py).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the same numbers for
a reader, the failed-row fraction and the environment. Run it from the root
of a circbound checkout: the program is imported from ./src.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("validity_k20", "wwb_snr_sweep", "wwb_s_search")

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # every repetition compiles the same sources and nothing is written
    "PYTHONDONTWRITEBYTECODE": "1",
}
MIN_REPS = 3
# the whole run must end within 180 s; stop starting repetitions before that
DEADLINE_S = 165.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_flops_computed"):
        return "flop"
    if name.endswith("_bytes_computed") or name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_per_result", "_per_bound")):
        return "ratio"
    return "count"


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "pinned": PINNED_ENV,
    }


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.t_start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.missing: set[str] = set()

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start

    def spawn(self, mode: str) -> dict:
        """Run one repetition in a fresh interpreter and return its record."""
        remaining = DEADLINE_S + 10.0 - self.elapsed()
        if remaining <= 0:
            raise BenchError("out of time before a repetition could start")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        env = dict(os.environ, **PINNED_ENV)
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{mode} repetition did not finish in {remaining:.0f} s") from err
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} repetition exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        rec = json.loads(lines[-1])
        rec["setup_s"] = rec["t_ready"] - t_spawn - rec["setup_slices_s"]
        self.attempted += rec["attempted"]
        self.failed += rec["failed"]
        self.failures.extend(f"[{mode}] {msg}" for msg in rec["failures"])
        self.failures.extend([f"[{mode}] {rec['error']}"] if rec["error"] else [])
        self.missing.update(rec.get("missing", []))
        return rec

    def repeat(self, seconds: float, modes: tuple[str, ...], min_rounds: int) -> list[list[dict]]:
        """Rounds of one repetition per mode until the next round would overrun."""
        rounds = []
        t0 = self.elapsed()
        while True:
            rounds.append([self.spawn(mode) for mode in modes])
            used = self.elapsed() - t0
            per_round = used / len(rounds)
            if self.elapsed() + per_round > DEADLINE_S:
                break
            if len(rounds) >= min_rounds and used + per_round > seconds:
                break
        return rounds


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Metrics of the run plus lines that describe it for a reader."""
    med = statistics.median
    if not trace:
        reps = [r for (r,) in runner.repeat(seconds, ("plain",), MIN_REPS)]
        metrics = {
            "wall_s": med(r["wall_s"] * r["wall_scale"] for r in reps),
            "setup_s": med(r["setup_s"] * r["setup_scale"] for r in reps),
            "peak_rss_mb": med(r["peak_rss_kb"] for r in reps) / 1024.0,
        }
        notes = [f"repetitions: {len(reps)}"]
        for key in ("wall_s", "wall_scale", "setup_s", "setup_scale"):
            notes.append(f"raw {key} per repetition: " + " ".join(f"{r[key]:.3f}" for r in reps))
        return metrics, notes

    count = runner.spawn("count")
    rounds = runner.repeat(seconds - runner.elapsed(), ("plain", "trace"), 1)
    plain = [p for p, _ in rounds]
    traced = [t for _, t in rounds]
    metrics = {name: med(t["layers"][name] for t in traced) for name in traced[0]["layers"]}
    metrics["numerics.dirichlet_calls"] = count["dirichlet_calls"]
    metrics["trace.wall_s"] = med(t["wall_s"] for t in traced)
    metrics["trace.untraced_wall_s"] = med(p["wall_s"] for p in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    notes = [f"traced repetitions: {len(traced)} (each paired with an untraced one)"]
    notes += [f"span not found, reported as 0: {m}" for m in sorted(runner.missing)]
    return metrics, notes


def report(args, metrics: dict, notes: list[str], runner: Runner) -> dict:
    failed = runner.failed
    attempted = max(runner.attempted, 1)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} elapsed={runner.elapsed():.1f}s")
    for note in notes:
        print(note)
    units = {name: END_TO_END_UNITS.get(name) or _layer_unit(name) for name in metrics}
    trace_wall = metrics.get("trace.wall_s")
    for name, value in metrics.items():
        share = ""
        if trace_wall and units[name] == "s" and not name.startswith("trace."):
            share = f"  ({100.0 * value / trace_wall:5.1f} % of traced wall_s)"
        print(f"{name:32s} {value:16.6f} {units[name]}{share}")
    print(f"{'fail_frac':32s} {failed / attempted:16.6f} ratio  ({failed} of {attempted} rows)")
    for msg in runner.failures[:20]:
        print(f"gate: {msg}", file=sys.stderr)
    print("env " + json.dumps(environment(), sort_keys=True))
    return {
        "correct": not runner.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "circbound" / "__init__.py").is_file():
        print(f"error: no circbound sources under {root / 'src'}; "
              "run from the root of a circbound checkout", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    try:
        metrics, notes = measure(runner, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, metrics, notes, runner)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
