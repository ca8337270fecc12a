"""Spans and counters recorded from outside circbound.

Wrappers are installed on the module attribute that the caller looks up at
call time. circbound's modules use ``from .numerics import integrate``, so
the name to wrap is ``circbound.wwb.integrate``, not
``circbound.numerics.integrate``. A name that no longer exists is recorded as
missing instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import time
import warnings

# (label, module, attribute); the label is the span name used in the metrics
SPAN_TARGETS = (
    ("cli.main", "circbound.cli", "main"),
    ("wwb.wwb_value", "circbound.wwb", "wwb_value"),
    ("wwb.optimize_s", "circbound.wwb", "optimize_s"),
    ("wwb.build_q", "circbound.wwb", "build_q"),
    ("numerics.integrate", "circbound.wwb", "integrate"),
    ("numerics.spd_solve", "circbound.wwb", "spd_solve"),
    ("mapsim.run_monte_carlo", "circbound.mapsim", "run_monte_carlo"),
    ("mapsim.mse_standard_error", "circbound.mapsim", "mse_standard_error"),
    ("mapsim._grid_peak", "circbound.mapsim", "_grid_peak"),
    ("mapsim._refine_peaks", "circbound.mapsim", "_refine_peaks"),
    ("signal_model.generate", "circbound.mapsim", "generate"),
    ("prior.sample", "circbound.prior", "VonMisesPrior.sample"),
    ("testpoints.build", "circbound.testpoints", "build"),
    ("benchmarks.bcrb", "circbound.benchmarks", "bcrb"),
    ("benchmarks.zzb", "circbound.benchmarks", "zzb"),
    ("cli.emit", "circbound.cli", "emit"),
)

# dirichlet_kernel runs millions of times per sweep; wrapping it doubles the
# sweep's time, so it is only counted, in a separate untimed pass
COUNT_TARGETS = (
    ("numerics.dirichlet_kernel", "circbound.wwb", "dirichlet_kernel"),
    ("numerics.dirichlet_kernel", "circbound.testpoints", "dirichlet_kernel"),
)

MC_ENTRIES = ("mapsim.run_monte_carlo", "mapsim.mse_standard_error")


def _resolve(module_name: str, attr_path: str):
    """Return (owner, attribute name, current value) or None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, leaf = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, leaf, None)
    if not callable(value):
        return None
    return owner, leaf, value


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    """An argument of a wrapped call, by keyword or position; None if absent."""
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class Tracer:
    """In-memory span store: parallel lists of name id, start, end and parent."""

    def __init__(self):
        self.labels: list[str] = []
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.missing: list[str] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def span(self, label: str, fn, on_call=None, on_result=None, on_error=None):
        """Wrap `fn` so every call records one span under `label`."""
        if label not in self.labels:
            self.labels.append(label)
        nid = self.labels.index(label)
        perf = time.perf_counter
        stack, starts, ends = self._stack, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(starts)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                if on_error is not None:
                    on_error(err)
                raise
            finally:
                ends[idx] = perf()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _patch(self, label: str, module_name: str, attr_path: str, make):
        found = _resolve(module_name, attr_path)
        if found is None:
            self.missing.append(f"{label} ({module_name}.{attr_path})")
            return
        owner, leaf, value = found
        self._restore.append((owner, leaf, value))
        setattr(owner, leaf, make(value))

    def install_spans(self) -> None:
        hooks = {
            "wwb.wwb_value": dict(on_result=self._on_wwb_result),
            "wwb.build_q": dict(on_call=self._on_build_q),
            "numerics.spd_solve": dict(on_error=self._on_solve_error),
            "mapsim.run_monte_carlo": dict(on_call=self._on_mc_call),
            "mapsim.mse_standard_error": dict(on_call=self._on_mc_call),
            "mapsim._grid_peak": dict(on_call=self._on_grid_call),
        }
        for label, module_name, attr in SPAN_TARGETS:
            kw = hooks.get(label, {})
            if label == "wwb.optimize_s":
                self._patch(label, module_name, attr, self._wrap_optimize_s)
            else:
                self._patch(label, module_name, attr,
                            lambda fn, label=label, kw=kw: self.span(label, fn, **kw))

    def install_counters(self) -> None:
        for label, module_name, attr in COUNT_TARGETS:
            def make(fn, label=label):
                @functools.wraps(fn)
                def counted(*args, **kwargs):
                    self.counts[label] = self.counts.get(label, 0.0) + 1.0
                    return fn(*args, **kwargs)
                return counted
            self._patch(label, module_name, attr, make)

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, value = self._restore.pop()
            setattr(owner, leaf, value)

    # -- hooks: counts read from the arguments and results at the boundary

    def _wrap_optimize_s(self, fn):
        traced = self.span("wwb.optimize_s", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = traced(*args, **kwargs)
            failed = sum("bound evaluation failed" in str(w.message) for w in caught)
            self.add("wwb.s_failed", failed)
            return result

        return wrapper

    def _on_wwb_result(self, result) -> None:
        self.add("wwb.points_dropped", len(getattr(result, "dropped_points", ()) or ()))

    def _on_build_q(self, args, kwargs) -> None:
        points = _arg(args, kwargs, 2, "points")
        if points is not None:
            r = len(points)
            self.add("wwb.q_elements", r * (r + 1) // 2)

    def _on_solve_error(self, err) -> None:
        if type(err).__name__ == "SingularMatrixError":
            self.add("numerics.singular_pivots")

    def _on_mc_call(self, args, kwargs) -> None:
        mc = _arg(args, kwargs, 2, "mc")
        if mc is not None:
            self.add("mapsim.trials_generated", mc.trials)

    def _on_grid_call(self, args, kwargs) -> None:
        samples = _arg(args, kwargs, 2, "samples")
        grid = _arg(args, kwargs, 3, "grid")
        if samples is None or grid is None:
            return
        n, k = samples.shape
        g = len(grid)
        # complex matmul (n x K) @ (K x G): 8 real flops per multiply-add;
        # bytes are the operands and the product, computed from the shapes
        self.add("mapsim.grid_flops_computed", 8 * n * k * g)
        self.add("mapsim.grid_bytes_computed", 16 * (n * k + k * g + n * g))

    # -- aggregation

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per label: calls, total (inclusive) seconds and self seconds."""
        child_time = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out = {label: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for label in self.labels}
        for i, nid in enumerate(self.name_id):
            rec = out[self.labels[nid]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child_time[i]
        return out


def _cache_counts(tracer: Tracer) -> tuple[float, float]:
    """Hits and misses of the prior-integral caches in circbound.wwb."""
    import circbound.wwb as wwb

    hits = misses = 0.0
    for name in ("_gamma_i_cached", "_gamma_cross_cached"):
        info = getattr(getattr(wwb, name, None), "cache_info", None)
        if info is None:
            tracer.missing.append(f"wwb.gamma_cache (circbound.wwb.{name}.cache_info)")
            continue
        stats = info()
        hits += stats.hits
        misses += stats.misses
    return hits, misses


def layer_metrics(tracer: Tracer, map_trials: int, emit_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (dirichlet calls come from
    the counting pass and the wall times from the caller)."""
    spans = tracer.summarize()
    counts = tracer.counts

    def rec(label: str, field: str) -> float:
        return float(spans.get(label, {}).get(field, 0.0))

    hits, misses = _cache_counts(tracer)
    bound_evals = rec("wwb.wwb_value", "calls")
    solves = rec("numerics.spd_solve", "calls")
    trials = counts.get("mapsim.trials_generated", 0.0)
    return {
        "mapsim.grid_s": rec("mapsim._grid_peak", "total_s"),
        "mapsim.refine_s": rec("mapsim._refine_peaks", "total_s"),
        # the grid and refine spans only run inside the two entry points
        "mapsim.trialgen_s": sum(rec(label, "total_s") for label in MC_ENTRIES)
        - rec("mapsim._grid_peak", "total_s") - rec("mapsim._refine_peaks", "total_s"),
        "mapsim.mc_calls": sum(rec(label, "calls") for label in MC_ENTRIES),
        "mapsim.trials_generated": trials,
        "mapsim.trials_per_result": trials / map_trials if map_trials else 0.0,
        "mapsim.grid_flops_computed": counts.get("mapsim.grid_flops_computed", 0.0),
        "mapsim.grid_bytes_computed": counts.get("mapsim.grid_bytes_computed", 0.0),
        "prior.sample_calls": rec("prior.sample", "calls"),
        "prior.sample_s": rec("prior.sample", "total_s"),
        "signal_model.generate_calls": rec("signal_model.generate", "calls"),
        "signal_model.generate_s": rec("signal_model.generate", "total_s"),
        "numerics.integrate_calls": rec("numerics.integrate", "calls"),
        "numerics.integrate_s": rec("numerics.integrate", "total_s"),
        "numerics.spd_solve_calls": solves,
        "numerics.spd_solve_s": rec("numerics.spd_solve", "total_s"),
        "numerics.singular_pivots": counts.get("numerics.singular_pivots", 0.0),
        "wwb.gamma_cache_hits": hits,
        "wwb.gamma_cache_misses": misses,
        "wwb.gamma_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "wwb.bound_evals": bound_evals,
        "wwb.wwb_value_s": rec("wwb.wwb_value", "total_s"),
        "wwb.build_q_calls": rec("wwb.build_q", "calls"),
        "wwb.build_q_self_s": rec("wwb.build_q", "self_s"),
        "wwb.q_elements": counts.get("wwb.q_elements", 0.0),
        "wwb.points_dropped": counts.get("wwb.points_dropped", 0.0),
        "wwb.solves_per_bound": solves / bound_evals if bound_evals else 0.0,
        "wwb.optimize_s_calls": rec("wwb.optimize_s", "calls"),
        "wwb.s_failed": counts.get("wwb.s_failed", 0.0),
        "cli.sweep_self_s": rec("cli.main", "self_s"),
        "cli.emit_s": rec("cli.emit", "total_s"),
        "cli.emit_bytes": float(emit_bytes),
        "testpoints.build_calls": rec("testpoints.build", "calls"),
        "testpoints.build_s": rec("testpoints.build", "total_s"),
        "benchmarks.zzb_calls": rec("benchmarks.zzb", "calls"),
        "benchmarks.bcrb_calls": rec("benchmarks.bcrb", "calls"),
        "benchmarks.s": rec("benchmarks.zzb", "total_s") + rec("benchmarks.bcrb", "total_s"),
        "trace.spans": float(len(tracer.start)),
        "trace.missing_spans": float(len(tracer.missing)),
    }
