"""The three workloads: inputs built from a seed, the calls into circbound,
and the result rows the correctness gate checks.

Every call goes through a module attribute (``wwb.wwb_value``, not a name
bound at import), so wrappers installed by the tracer see it.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math

import numpy as np

from circbound import benchmarks, cli, mapsim, testpoints, wwb
from circbound.prior import VonMisesPrior
from circbound.signal_model import SignalConfig
from circbound.testpoints import TestPointConfig

WORKLOADS = ("validity_k20", "wwb_snr_sweep", "wwb_s_search")
# the speedometer slice (speedometer.SLICES) that does the same kind of work
# as each workload's hot path: the MAP Monte Carlo, the Python loops that
# assemble the score matrix, and numpy quadrature
SPEED_SLICE = {"validity_k20": "map", "wwb_snr_sweep": "python", "wwb_s_search": "quadrature"}

# validity_k20: the reference grid of acceptance test_08 with fewer trials
VALIDITY_K = 20
VALIDITY_KAPPA = 1.0
VALIDITY_MU = 0.0
VALIDITY_TRIO = (2, 9, 10)
VALIDITY_SNR_DB = tuple(float(v) for v in range(-20, 11))
VALIDITY_TRIALS = 256

# the WWB workloads shift their SNR axis by a seed-chosen phase, so a seed
# changes the bound values while the amount of work stays the same
SNR_PHASES_DB = (0.0, 0.25)
SWEEP_SNR_STEP_DB = 0.5
SWEEP_KAPPAS = ("0", "1", "2", "5")
SWEEP_MUS = ("0", "1.5707963267948966")
S_GRID = ("0.1", "0.3", "0.5", "0.7", "0.9")
S_SEARCH_KAPPAS = ("0", "1", "2", "5", "20")
S_SEARCH_SNR_DB = (-10.0, -5.0, 0.0)

# names under which a one-pass Monte Carlo result may carry its own MSE
# standard error; when none is present the separate SE pass is called
_SE_FIELDS = ("mse_se", "se", "standard_error", "mse_standard_error")


def phase_index(seed: int) -> int:
    return seed % len(SNR_PHASES_DB)


def reference_phase(name: str, seed: int) -> str:
    """Key of the reference rows that a run with this seed must reproduce."""
    return "0" if name == "validity_k20" else str(phase_index(seed))


def _permuted(values, rng) -> list:
    return [values[i] for i in rng.permutation(len(values))]


def build_inputs(name: str, seed: int) -> dict:
    """Everything a workload needs before its first call into circbound."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "validity_k20":
        seeds = [
            int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
            for i in range(len(VALIDITY_SNR_DB))
        ]
        return {
            "prior": VonMisesPrior(mu=VALIDITY_MU, kappa=VALIDITY_KAPPA),
            "trio": TestPointConfig(*VALIDITY_TRIO),
            "points": [
                (snr_db, SignalConfig(K=VALIDITY_K, snr=10.0 ** (snr_db / 10.0)),
                 mapsim.McConfig(trials=VALIDITY_TRIALS, seed=s))
                for snr_db, s in zip(VALIDITY_SNR_DB, seeds)
            ],
        }
    offset = SNR_PHASES_DB[phase_index(seed)]
    if name == "wwb_snr_sweep":
        argv = [
            "sweep", "--figure", "8",
            f"--snr-db={-20.0 + offset!r}:{10.0 + offset!r}:{SWEEP_SNR_STEP_DB!r}",
            "--kappa=" + ",".join(_permuted(SWEEP_KAPPAS, rng)),
            "--mu=" + ",".join(_permuted(SWEEP_MUS, rng)),
        ]
    elif name == "wwb_s_search":
        snrs = [repr(v + offset) for v in S_SEARCH_SNR_DB]
        argv = [
            "wwb", "--k", "20",
            "--s", ",".join(_permuted(S_GRID, rng)),
            "--kappa=" + ",".join(_permuted(S_SEARCH_KAPPAS, rng)),
            "--snr-db=" + ",".join(_permuted(snrs, rng)),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return {"argv": argv}


def _row(kind, snr_db, k, kappa, mu, trio, value, s=None, **extra) -> dict:
    return dict(kind=kind, snr_db=float(snr_db), k=int(k), kappa=float(kappa),
                mu=float(mu), trio=trio, value=float(value), s=s, **extra)


def _standard_error(res, config, prior, mc) -> float:
    for name in _SE_FIELDS:
        value = getattr(res, name, None)
        if isinstance(value, float):
            return value
    return mapsim.mse_standard_error(config, prior, mc)


def run_validity(inputs: dict) -> tuple[list[dict], dict]:
    """Per SNR point: WWB, ZZB, BCRB, then the MAP Monte Carlo with its SE.

    A call that raises yields a NaN row, which the gate counts as failed.
    """
    prior = inputs["prior"]
    trio_cfg = inputs["trio"]
    trio = ",".join(str(v) for v in trio_cfg.trio)
    rows = []
    points = testpoints.build(trio_cfg, VALIDITY_K)
    for snr_db, config, mc in inputs["points"]:
        common = (snr_db, config.K, prior.kappa, prior.mu)
        calls = (
            ("WWB", trio, lambda: wwb.wwb_value(prior, config, points).mse_bound),
            ("ZZB", "", lambda: benchmarks.zzb(prior, config.K, config.snr)),
            ("BCRB", "", lambda: benchmarks.bcrb(prior, config.K, config.snr)),
        )
        for kind, row_trio, call in calls:
            try:
                value = call()
            except Exception:  # a raising call is one failed operation
                value = math.nan
            rows.append(_row(kind, *common, row_trio, value))
        try:
            res = mapsim.run_monte_carlo(config, prior, mc)
            mse, se = res.mse, _standard_error(res, config, prior, mc)
        except Exception:
            mse = se = math.nan
        rows.append(_row("MAP", *common, "", mse, se=se, trials=mc.trials))
    return rows, {"emit_bytes": 0}


def run_cli(inputs: dict) -> tuple[str, dict]:
    """One `circbound` invocation through cli.main, its CSV captured in memory."""
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli.main(list(inputs["argv"]))
    text = buf.getvalue()
    return text, {"exit_code": code, "stderr": err.getvalue()[-2000:],
                  "emit_bytes": len(text.encode())}


def parse_cli_rows(text: str) -> list[dict]:
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        rows.append(_row(
            rec["kind"], float(rec["snr_db"]), int(rec["k"]), float(rec["kappa"]),
            float(rec["mu_rad"]), rec["trio"], float(rec["value_rad2"]),
            s=float(rec["s"]) if rec["s"] else None,
        ))
    return rows
