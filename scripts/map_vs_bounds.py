#!/usr/bin/env python3
"""Compare Monte Carlo MAP estimator RMSE against the analytic bounds.

Runs the MAP simulation on an SNR grid and prints RMSE in dB next to the
WWB, ZZB, and BCRB, plus the Monte Carlo standard error so the reader can
judge whether an apparent bound violation is just noise.

Usage:
    python3 scripts/map_vs_bounds.py [--kappa 1] [--mu 0] [--k 20] [--trials 5000]
                                     [--seed 0] [--snr-min -20] [--snr-max 10]
                                     [--step 2]
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from circbound.cli import SweepSpec, run_sweep


def _db(value: float) -> float:
    """RMSE in dB of a mean squared error."""
    return 5.0 * math.log10(value)


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

    grid = np.arange(args.snr_min, args.snr_max + 1e-9, args.step)
    # WWB at the default trio (2,9,10) and s = 0.5; the MAP trials at the
    # i-th SNR are seeded from SeedSequence([seed, i]), as in `circbound map-sim`
    kinds = ["MAP", "WWB", "ZZB", "BCRB"]
    rows = run_sweep(SweepSpec(snr_db=grid.tolist(), k_values=[args.k],
                               kappa_values=[args.kappa], mu_values=[args.mu],
                               bound_kinds=kinds, trials=args.trials, seed=args.seed))
    columns = [[r for r in rows if r["kind"] == kind] for kind in kinds]

    print(f"{'snr_db':>8} {'map_rmse_db':>12} {'+/-':>6} {'wwb_db':>8}"
          f" {'zzb_db':>8} {'bcrb_db':>8} {'outliers':>9}")
    for snr_db, mc, w, z, b in zip(grid, *columns):
        mse, se = mc["value_rad2"], mc["extra"]["mse_se"]
        se_db = 5.0 * (math.log10(mse + se) - math.log10(mse))
        print(f"{snr_db:8.1f} {_db(mse):12.3f} {se_db:6.3f}"
              f" {_db(w['value_rad2']):8.3f} {_db(z['value_rad2']):8.3f}"
              f" {_db(b['value_rad2']):8.3f} {mc['extra']['outlier_fraction']:9.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
