#!/usr/bin/env python3
"""Compare Monte Carlo MAP estimator RMSE against the analytic bounds.

Runs the MAP simulation on an SNR grid and prints RMSE in dB next to the
WWB, ZZB, and BCRB, plus the Monte Carlo standard error so the reader can
judge whether an apparent bound violation is just noise.

Usage:
    python3 scripts/map_vs_bounds.py [--kappa 1] [--k 20] [--trials 5000]
                                     [--seed 0] [--snr-min -20] [--snr-max 10]
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from circbound.benchmarks import bcrb, zzb
from circbound.mapsim import McConfig, run_monte_carlo
from circbound.prior import VonMisesPrior
from circbound.signal_model import SignalConfig
from circbound.testpoints import TestPointConfig, build
from circbound.wwb import wwb_value


def run(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kappa", type=float, default=1.0)
    ap.add_argument("--mu", type=float, default=0.0)
    ap.add_argument("--k", type=int, default=20)
    ap.add_argument("--trials", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--snr-min", type=float, default=-20.0)
    ap.add_argument("--snr-max", type=float, default=10.0)
    ap.add_argument("--step", type=float, default=2.0)
    args = ap.parse_args(argv)

    prior = VonMisesPrior(mu=args.mu, kappa=args.kappa)
    points = build(TestPointConfig(c_count=2, s_count=9, e_count=10), args.k)
    grid = np.arange(args.snr_min, args.snr_max + 1e-9, args.step)

    print(f"{'snr_db':>8} {'map_rmse_db':>12} {'+/-':>6} {'wwb_db':>8}"
          f" {'zzb_db':>8} {'bcrb_db':>8} {'outliers':>9}")
    for snr_db in grid:
        config = SignalConfig(K=args.k, snr=10.0 ** (snr_db / 10.0))
        result = run_monte_carlo(config, prior, McConfig(trials=args.trials, seed=args.seed))
        se = result.mse_se
        se_db = 5.0 * (math.log10(result.mse + se) - math.log10(result.mse))
        w = wwb_value(prior, config, points).mse_bound
        z = zzb(prior, config.K, config.snr)
        b = bcrb(prior, config.K, config.snr)
        print(f"{snr_db:8.1f} {result.rmse_db:12.3f} {se_db:6.3f}"
              f" {5 * math.log10(w):8.3f} {5 * math.log10(z):8.3f}"
              f" {5 * math.log10(b):8.3f} {result.outlier_fraction:9.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
