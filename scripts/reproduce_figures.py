#!/usr/bin/env python3
"""Run every figure preset of the circbound CLI and write one CSV per figure.

Usage:
    python3 scripts/reproduce_figures.py [--outdir OUT] [--trials N] [--seed S]

Figures that include a Monte Carlo MAP curve (11 and 13) honour --trials;
the analytic-only presets ignore it.  Figure 7 needs an explicit prior
concentration, which the preset deliberately leaves unset; we pass the
uniform prior (kappa=0) here because that is the setting under which the
legacy-versus-extended point-set comparison is usually shown.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from circbound.cli import FIGURE_PRESETS, main as cli_main


def run(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="figures_out")
    ap.add_argument("--trials", default="2000")
    ap.add_argument("--seed", default="0")
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for fig in sorted(FIGURE_PRESETS):
        out = outdir / f"figure_{fig:02d}.csv"
        cmd = ["sweep", "--figure", str(fig), "--seed", args.seed,
               "--trials", args.trials, "--out", str(out)]
        if fig == 7:
            cmd += ["--kappa", "0"]
        print(f"figure {fig}: circbound {' '.join(cmd)}")
        rc = cli_main(cmd)
        if rc != 0:
            print(f"figure {fig} failed with exit code {rc}", file=sys.stderr)
            return rc
        print(f"  wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
