"""Command-line front end: parameter sweeps, of one bound kind or several,
figure-style presets, and CSV/JSON emission.

The math core works in normalized radians per sample; Hz enters only through
the optional --f-int conversion.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import numbers
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import benchmarks, mapsim, testpoints, wwb
from .prior import VonMisesPrior
from .signal_model import SignalConfig
from .testpoints import TestPointConfig

__all__ = ["SweepSpec", "run_sweep", "emit", "main"]

CSV_COLUMNS = [
    "kind", "snr_db", "k", "kappa", "mu_rad", "s", "trio",
    "value_rad2", "value_db", "extra",
]

KINDS = ("WWB", "BCRB", "ZZB", "MAP")


class SpecError(ValueError):
    """Sweep/flag validation failure; carries the offending field name."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"invalid {fieldname}: {message}")
        self.fieldname = fieldname


class WriteError(Exception):
    """The output file cannot be written."""


@dataclass
class SweepSpec:
    snr_db: list[float]
    k_values: list[int]
    kappa_values: list[float]
    mu_values: list[float]
    bound_kinds: list[str]
    trios: list[tuple[int, int, int]] = field(default_factory=lambda: [(2, 9, 10)])
    s_grid: list[float] = field(default_factory=lambda: [0.5])
    # WWB: one row per point at the s_grid value that maximizes the bound,
    # instead of one row per s
    maximize_s: bool = False
    seed: int = 0
    trials: int = 10_000
    # MAP: circular (wrapped) error scoring
    wrap: bool = True
    f_int_hz: float | None = None

    def validate(self):
        integers = [("k_values", k) for k in self.k_values] + [
            ("seed", self.seed), ("trials", self.trials)]
        for name, value in integers:  # a float K would label its rows with int(K)
            if not isinstance(value, numbers.Integral):
                raise SpecError(name, f"expected an integer, got {value!r}")
        if any(not (-45.0 <= v <= 30.0) for v in self.snr_db):
            raise SpecError("snr_db", "values must lie within [-45, 30] dB")
        if any(k < 1 for k in self.k_values):
            raise SpecError("k_values", "K must be >= 1")
        if any(not 0.0 <= k < math.inf for k in self.kappa_values):
            raise SpecError("kappa_values", "kappa must be finite and >= 0")
        if any(not (-math.pi <= m <= math.pi) for m in self.mu_values):
            raise SpecError("mu_values", "mu must lie in [-pi, pi]")
        if any(k not in KINDS for k in self.bound_kinds):
            raise SpecError("bound_kinds", f"kinds must be a subset of {KINDS}")
        if "BCRB" in self.bound_kinds and 1 in self.k_values and 0 in self.kappa_values:
            raise SpecError("kappa_values", "BCRB at K=1 needs kappa > 0: "
                            "neither the data nor the prior carries information")
        if "ZZB" in self.bound_kinds and any(k < 2 for k in self.k_values):
            raise SpecError("k_values", "ZZB needs K >= 2")
        if any(not (0.0 < s < 1.0) for s in self.s_grid):
            raise SpecError("s_grid", "values must lie in (0, 1)")
        if self.trials < 1:
            raise SpecError("trials", "must be >= 1")
        if self.seed < 0:
            raise SpecError("seed", "must be >= 0")
        if self.f_int_hz is not None and not 0.0 < self.f_int_hz < math.inf:
            raise SpecError("f_int_hz", "must be finite and > 0")
        for name, values in (("snr_db", self.snr_db), ("k_values", self.k_values),
                             ("kappa_values", self.kappa_values), ("mu_values", self.mu_values),
                             ("bound_kinds", self.bound_kinds), ("testpoint_trio", self.trios),
                             ("s_grid", self.s_grid)):
            if not values:
                raise SpecError(name, "empty list")
            repeated = [v for v, count in Counter(values).items() if count > 1]
            if repeated:  # a repeated value would repeat rows and their work
                raise SpecError(name, f"value {repeated[0]!r} is repeated")


def _trio_str(trio: tuple[int, int, int]) -> str:
    return f"{trio[0]},{trio[1]},{trio[2]}"


def _point_set(trio: tuple[int, int, int], k: int) -> testpoints.TestPointSet:
    try:
        return testpoints.build(TestPointConfig(*trio), k)
    except ValueError as err:
        raise SpecError("testpoint_trio", f"K={k}: {err}") from err


def _row(kind, snr_db, k, kappa, mu, s, trio, value, extra):
    return {
        "kind": kind,
        "snr_db": float(snr_db),
        "k": int(k),
        "kappa": float(kappa),
        "mu_rad": float(mu),
        "s": None if s is None else float(s),
        "trio": "" if trio is None else _trio_str(trio),
        "value_rad2": float(value),
        "value_db": 10.0 * math.log10(value) if value > 0.0 else -math.inf,
        "extra": extra or {},
    }


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the Cartesian product of sweep axes; one row per (kind, point).

    Every test-point set is built before any bound, so a trio that some K
    cannot supply fails before any work. Points are numbered in k x kappa x
    mu x SNR order. The MAP trials at point i use the seed
    SeedSequence([spec.seed, i]), so a MAP row does not depend on which
    other kinds the sweep evaluates. WWB is evaluated over
    the whole SNR axis per (k, kappa, mu) first; a failure it stores is
    raised when the loop reaches its grid point, so the first failure in
    loop order is the one reported.
    """
    spec.validate()
    trios = spec.trios if "WWB" in spec.bound_kinds else []
    point_sets = {k: {trio: _point_set(trio, k) for trio in trios} for k in spec.k_values}
    rows: list[dict] = []
    point_index = 0
    for k, kappa, mu in itertools.product(spec.k_values, spec.kappa_values, spec.mu_values):
        prior = VonMisesPrior(mu=mu, kappa=kappa)
        wwb_outcomes = _wwb_axis(spec, prior, k, point_sets[k])
        for snr_db, wwb_at_snr in zip(spec.snr_db, wwb_outcomes):
            for kind in spec.bound_kinds:
                try:
                    rows.extend(_eval_point(
                        kind, spec, prior, k, kappa, mu, snr_db, wwb_at_snr, point_index,
                    ))
                except (OverflowError, RuntimeError) as err:
                    where = f"kind={kind} K={k} kappa={kappa} mu={mu} snr_db={snr_db}"
                    raise RuntimeError(f"numerical failure at {where}: {err}") from err
            point_index += 1
    if spec.f_int_hz is not None:
        for row in rows:  # f_IF = theta * f_INT / (2 pi); RMS error converted the same way
            row["extra"]["rmse_hz"] = math.sqrt(row["value_rad2"]) * spec.f_int_hz / (2.0 * math.pi)
    rows.sort(
        key=lambda r: (r["kind"], r["k"], r["kappa"], r["mu_rad"], r["snr_db"],
                       r["trio"], -1.0 if r["s"] is None else r["s"])
    )
    return rows


def _wwb_axis(spec, prior, k, point_sets) -> list[tuple]:
    """WWB outcomes of every test-point set over the whole SNR axis, one tuple
    per SNR of spec.snr_db: (trio, result) in row order, or (trio, error)
    for an error that the grid point raises when the SNR loop reaches it."""
    snrs = [10.0 ** (snr_db / 10.0) for snr_db in spec.snr_db]
    columns = []
    for trio, points in point_sets.items():
        per_s = wwb.wwb_axis(prior, k, points, snrs, spec.s_grid)
        if spec.maximize_s:
            per_s = [[wwb.best_s(spec.s_grid, outcomes) for outcomes in zip(*per_s)]]
        columns.extend([(trio, outcome) for outcome in outcomes] for outcomes in per_s)
    return list(zip(*columns)) or [()] * len(snrs)


def _eval_point(kind, spec, prior, k, kappa, mu, snr_db, wwb_at_snr, point_index):
    snr = 10.0 ** (snr_db / 10.0)
    rows = []
    if kind == "WWB":
        for _, outcome in wwb_at_snr:
            if isinstance(outcome, Exception):
                raise outcome
        for trio, res in wwb_at_snr:
            extra = {"s_grid": list(spec.s_grid)} if spec.maximize_s else {}
            if res.dropped_points:
                extra["dropped_points"] = list(res.dropped_points)
            if res.s_failed:
                extra["s_failed"] = [list(pair) for pair in res.s_failed]
            rows.append(_row("WWB", snr_db, k, kappa, mu, res.s, trio, res.mse_bound, extra))
    elif kind in ("BCRB", "ZZB"):  # looked up per call, so a wrapper set on the module is seen
        bound = getattr(benchmarks, kind.lower())
        rows.append(_row(kind, snr_db, k, kappa, mu, None, None, bound(prior, k, snr), {}))
    elif kind == "MAP":
        point_seed = int(np.random.SeedSequence([spec.seed, point_index]).generate_state(1)[0])
        mc = mapsim.McConfig(trials=spec.trials, seed=point_seed)
        res = mapsim.run_monte_carlo(SignalConfig(K=k, snr=snr), prior, mc, wrap=spec.wrap)
        rows.append(_row("MAP", snr_db, k, kappa, mu, None, None, res.mse,
                         {"trials": mc.trials,
                          "outlier_fraction": res.outlier_fraction,
                          "mse_se": res.mse_se}))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _csv(header: list[str], records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(value) for value in record] for record in records)
    return buf.getvalue()


def emit(rows: list[dict], fmt: str, path: str) -> None:
    """Serialize result rows as CSV or JSON; floats carry 17 significant digits."""
    if fmt not in ("csv", "json"):
        raise SpecError("output_format", "must be csv or json")
    if not rows:
        raise SpecError("table", "no rows to emit")
    if fmt == "csv":
        text = _csv(CSV_COLUMNS, ([row[column] for column in CSV_COLUMNS] for row in rows))
    else:
        text = json.dumps(rows, sort_keys=True, indent=1) + "\n"
    _write(text, path)


def _write(text: str, path: str) -> None:
    """Write `text` to `path`, or to stdout for '-'."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise WriteError(f"cannot write {path}: {err}") from err


# ---------------------------------------------------------------------------
# argument parsing

def _float(text: str, fieldname: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SpecError(fieldname, f"expected a number, got {text!r}") from None


def _floats(text: str, fieldname: str) -> list[float]:
    return [_float(v, fieldname) for v in text.split(",") if v.strip() != ""]


def _int(text: str, fieldname: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecError(fieldname, f"expected an integer, got {text!r}") from None


def _ints(text: str, fieldname: str) -> list[int]:
    return [_int(v, fieldname) for v in text.split(",") if v.strip() != ""]


_SNR_POINTS_MAX = 10**6


def _snr_axis(text: str) -> list[float]:
    """Either 'start:stop:step' or a comma list of dB values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise SpecError("snr_db", f"expected start:stop:step, got {text!r}")
        start, stop, step = (_float(p, "snr_db") for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise SpecError("snr_db", f"start, stop and step must be finite, got {text!r}")
        if step <= 0:
            raise SpecError("snr_db", "step must be > 0")
        # the last point is the largest start + i step not past stop; the
        # slack absorbs rounding of (stop - start) / step on exact multiples
        last = (stop - start) / step + 1e-9
        if last >= _SNR_POINTS_MAX:  # counted before any point is built
            raise SpecError("snr_db", f"an axis holds at most {_SNR_POINTS_MAX} points")
        return [start + i * step for i in range(math.floor(last) + 1)]
    return _floats(text, "snr_db")


def _trio(text: str) -> tuple[int, int, int]:
    vals = _ints(text, "testpoint_trio")
    if len(vals) != 3:
        raise SpecError("testpoint_trio", f"expected C,S,E, got {text!r}")
    return (vals[0], vals[1], vals[2])


_FIGURE_SNR = "-20:10:1"
_KAPPA_FAMILY = "0,1,2,5,20"

# preset axes for the figure-style sweeps; None marks a value the figure
# caption leaves unstated, which must then come from an explicit flag
FIGURE_PRESETS = {
    6: dict(kinds="WWB", k="20,40,60", kappa="2", mu="0", trios=["2,9,0"], s="0.1,0.5"),
    7: dict(kinds="WWB", k="20", kappa=None, mu="0", trios=["2,9,0", "2,9,10"], s="0.5"),
    8: dict(kinds="WWB", k="20", kappa="0,1,2,5", mu="0,1.5707963267948966",
            trios=["2,1,0", "2,3,0", "2,5,0", "2,7,0", "2,9,0"], s="0.5"),
    11: dict(kinds="WWB,BCRB,MAP", k="20", kappa=_KAPPA_FAMILY, mu="0",
             trios=["2,9,10"], s="0.5"),
    12: dict(kinds="WWB,ZZB", k="20", kappa=_KAPPA_FAMILY, mu="0",
             trios=["2,9,10"], s="0.5"),
    13: dict(kinds="WWB,ZZB,MAP", k="20", kappa="1", mu="0",
             trios=["2,9,10"], s="0.5"),
}


def _build_parser() -> argparse.ArgumentParser:
    # the flags of every subcommand
    io_flags = argparse.ArgumentParser(add_help=False)
    io_flags.add_argument("--out", "-o", default="-", help="output path, '-' for stdout")

    # every flag of a sweep. wwb, bcrb, zzb and map-sim are sweeps of their
    # one kind; the defaults that depend on the command are chosen in
    # _make_spec, because subparsers share the parent's actions
    sweep_flags = argparse.ArgumentParser(add_help=False, parents=[io_flags])
    sweep_flags.add_argument("--seed", default="0", help="master seed for all randomness")
    sweep_flags.add_argument("--format", default="csv", choices=("csv", "json"))
    sweep_flags.add_argument("--f-int", default=None, help="integration rate in Hz for unit columns")
    sweep_flags.add_argument("--snr-db", default=None,
                             help="start:stop:step or comma list (default 0, sweep -20:10:1)")
    sweep_flags.add_argument("--k", default=None)
    sweep_flags.add_argument("--kappa", default=None)
    sweep_flags.add_argument("--mu", default=None)
    sweep_flags.add_argument("--trio", default=None, help="C,S,E test point counts")
    sweep_flags.add_argument("--s", default=None,
                             help="exponent value or comma grid (wwb: grid -> maximize)")
    sweep_flags.add_argument("--trials", default="10000")
    sweep_flags.add_argument("--linear-error", action="store_true",
                             help="score estimate - truth without circular wrapping")

    # `circbound wwb @flags.txt` reads flags from a file, split at white
    # space, with `#` starting a comment; flags after the file win
    parser = argparse.ArgumentParser(
        prog="circbound",
        description="Bayesian lower bounds on circular frequency estimation error",
        fromfile_prefix_chars="@",
    )
    parser.convert_arg_line_to_args = lambda line: line.split("#", 1)[0].split()
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("wwb", "evaluate the analytic bound"), ("bcrb", "evaluate the BCRB"),
                       ("zzb", "evaluate the ZZB"), ("map-sim", "Monte Carlo MAP estimator MSE")):
        sub.add_parser(name, parents=[sweep_flags], help=text)

    p = sub.add_parser("testpoints", parents=[io_flags], help="print a test point set")
    p.add_argument("--k", default="20")
    p.add_argument("--config", default="2,9,10", help="C,S,E counts")

    p = sub.add_parser("sweep", parents=[sweep_flags], help="grid sweep / figure presets")
    p.add_argument("--figure", default=None, type=int, choices=sorted(FIGURE_PRESETS))
    p.add_argument("--kinds", default=None, help="comma subset of WWB,BCRB,ZZB,MAP")
    return parser


def _make_spec(args) -> SweepSpec:
    """The sweep of a command line. wwb, bcrb, zzb and map-sim sweep their one
    kind at 0 dB unless --snr-db says otherwise, and wwb maximizes the bound
    over an s grid of several values."""
    sweep = args.command == "sweep"
    preset = FIGURE_PRESETS.get(args.figure, {}) if sweep else {}

    def pick(flag_value, preset_key, fallback):
        if flag_value is not None:
            return flag_value
        value = preset.get(preset_key, fallback) if preset else fallback
        if value is None:
            raise SpecError(
                preset_key,
                f"figure {args.figure} leaves this unstated; pass --{preset_key} explicitly",
            )
        return value

    # a one-kind command names its kind: wwb, bcrb, zzb, map(-sim)
    kinds = pick(args.kinds, "kinds", "WWB").split(",") if sweep else [args.command.split("-")[0]]
    trios = [_trio(args.trio)] if args.trio is not None else [
        _trio(t) for t in preset.get("trios", ["2,9,10"])
    ]
    snr_default = _FIGURE_SNR if sweep else "0"
    s_grid = _floats(pick(args.s, "s", "0.5"), "s_grid")
    return SweepSpec(
        snr_db=_snr_axis(args.snr_db if args.snr_db is not None else snr_default),
        k_values=_ints(pick(args.k, "k", "20"), "k_values"),
        kappa_values=_floats(pick(args.kappa, "kappa", "1"), "kappa_values"),
        mu_values=_floats(pick(args.mu, "mu", "0"), "mu_values"),
        bound_kinds=[k.strip().upper() for k in kinds],
        trios=trios,
        s_grid=s_grid,
        maximize_s=args.command == "wwb" and len(s_grid) > 1,
        seed=_int(args.seed, "seed"),
        trials=_int(args.trials, "trials"),
        wrap=not args.linear_error,
        f_int_hz=_float(args.f_int, "f_int_hz") if args.f_int is not None else None,
    )


def _cmd_testpoints(args) -> int:
    trio, k = _trio(args.config), _int(args.k, "k")
    if k < 1:
        raise SpecError("k", "K must be >= 1")
    points = _point_set(trio, k)
    records = ((h, h / math.pi, tag) for h, tag in zip(points.h, points.provenance))
    _write(_csv(["h_rad", "h_over_pi", "provenance"], records), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(sys.argv[1:] if argv is None else argv)
        if args.command == "testpoints":
            return _cmd_testpoints(args)
        emit(run_sweep(_make_spec(args)), args.format, args.out)
        return 0
    except SystemExit as err:  # argparse's exit: 2 for a usage error, 0 after --help
        return err.code
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OverflowError, RuntimeError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 3
    except WriteError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
