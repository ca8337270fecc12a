#!/usr/bin/env python3
"""Scan the RMSE-dB gap between the analytic bound and the ZZB versus SNR.

Prints, for each K, the gap 5*log10(WWB/ZZB) on a fine SNR grid, the peak
gap in the threshold region, and the SNR at which the sign changes.  This
is the diagnostic behind the crossover acceptance check.

Usage:
    python3 scripts/bound_gap_scan.py [--k 20,40,60] [--kappa 1]
                                      [--snr-min -12] [--snr-max 0] [--step 0.25]
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from circbound.cli import SweepSpec, run_sweep


def run(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", default="20,40,60")
    ap.add_argument("--kappa", type=float, default=1.0)
    ap.add_argument("--snr-min", type=float, default=-12.0)
    ap.add_argument("--snr-max", type=float, default=0.0)
    ap.add_argument("--step", type=float, default=0.25)
    args = ap.parse_args(argv)

    grid = np.arange(args.snr_min, args.snr_max + 1e-9, args.step)
    ks = [int(v) for v in args.k.split(",")]
    # WWB at the default trio (2,9,10) and s = 0.5; rows come back sorted by
    # kind, K and SNR
    rows = run_sweep(SweepSpec(snr_db=grid.tolist(), k_values=ks, kappa_values=[args.kappa],
                               mu_values=[0.0], bound_kinds=["WWB", "ZZB"]))

    for K in ks:
        wwb, zzb = ([r["value_rad2"] for r in rows if r["kind"] == kind and r["k"] == K]
                    for kind in ("WWB", "ZZB"))
        print(f"\nK={K}, kappa={args.kappa}")
        print(f"{'snr_db':>8} {'wwb_db':>10} {'zzb_db':>10} {'gap_rmse_db':>12}")
        gaps = []
        for snr_db, w, z in zip(grid, wwb, zzb):
            gap = 5.0 * math.log10(w / z)
            gaps.append(gap)
            print(f"{snr_db:8.2f} {5 * math.log10(w):10.3f}"
                  f" {5 * math.log10(z):10.3f} {gap:12.3f}")
        gaps = np.asarray(gaps)
        i = int(np.argmax(gaps))
        print(f"peak gap {gaps[i]:.3f} RMSE-dB at {grid[i]:g} dB SNR")
        for j in range(len(grid) - 1):
            if gaps[j] > 0.0 >= gaps[j + 1]:
                frac = gaps[j] / (gaps[j] - gaps[j + 1])
                print(f"sign change near {grid[j] + frac * args.step:.2f} dB SNR")
                break
        else:
            print("no sign change on this grid")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
