"""Acceptance suite: the ten headline behaviors, one verdict line each.

dB convention for curve comparisons: the reference curves plot root mean
square error in dB, so gaps between two bounds are measured as the
difference of 10*log10(RMSE) values, i.e. 5*log10 of the MSE ratio.
"""
import math
import time

import numpy as np
import pytest

from circbound.benchmarks import bcrb, zzb
from circbound.cli import main
from circbound.mapsim import McConfig, run_monte_carlo
from circbound.prior import VonMisesPrior
from circbound.signal_model import SignalConfig
from circbound.testpoints import TestPointConfig, build, sidelobe_points
from circbound.wwb import best_s, wwb_axis, wwb_value

from conftest import build_q, q_element_mc_oracle


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def _rmse_db(mse: float) -> float:
    return 5.0 * math.log10(mse)


def test_01_exponent_optimality_and_symmetry():
    start = time.monotonic()
    prior = VonMisesPrior(mu=0.0, kappa=2.0)
    points = build(TestPointConfig(2, 9, 0), 20)
    snrs = [10.0 ** (snr_db / 10.0) for snr_db in (-15.0, -10.0, -5.0, 0.0, 5.0)]
    s_grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    per_s = wwb_axis(prior, 20, [points], snrs, s_grid)[0]
    winners = [best_s(s_grid, outcomes).s for outcomes in zip(*per_s)]
    sym_errs = []
    for i in range(4):  # s = 0.1 .. 0.4 against 1 - s = 0.9 .. 0.6
        for lo, hi in zip(per_s[i], per_s[-1 - i]):
            sym_errs.append(abs(lo.mse_bound - hi.mse_bound) / hi.mse_bound)
    elapsed = time.monotonic() - start
    ok = all(s == 0.5 for s in winners) and max(sym_errs) < 1e-9 and elapsed < 60.0
    _verdict(1, ok, f"s*={sorted(set(winners))}, max reflection error "
                    f"{max(sym_errs):.2e}, {elapsed:.1f}s")
    assert all(s == 0.5 for s in winners)
    assert max(sym_errs) < 1e-9
    assert elapsed < 60.0


def test_02_extra_points_gain_over_legacy():
    snr_grid = np.arange(-10.0, 2.5, 1.0)
    legacy = build(TestPointConfig(2, 9, 0), 20)
    proposed = build(TestPointConfig(2, 9, 10), 20)
    matches = []
    for kappa in (0.0, 1.0, 2.0, 5.0):
        prior = VonMisesPrior(mu=0.0, kappa=kappa)
        gains = []
        for snr_db in snr_grid:
            config = SignalConfig(K=20, snr=10.0 ** (snr_db / 10.0))
            gain = _rmse_db(wwb_value(prior, config, proposed).mse_bound) - _rmse_db(
                wwb_value(prior, config, legacy).mse_bound
            )
            gains.append(gain)
        best = int(np.argmax(gains))
        peak, at = gains[best], float(snr_grid[best])
        if abs(peak - 0.95) <= 0.3 and abs(at - (-4.0)) <= 2.0:
            matches.append((kappa, peak, at))
    ok = bool(matches)
    detail = (f"kappa={matches[0][0]:g}: gain {matches[0][1]:.3f} dB at "
              f"{matches[0][2]:g} dB" if matches else "no concentration matched")
    _verdict(2, ok, detail)
    assert matches, "no kappa in {0,1,2,5} gave a 0.95 +/- 0.3 dB peak near -4 dB"


def test_03_sidelobe_census():
    count = sidelobe_points(20).size
    _verdict(3, count == 9, f"K=20 has {count} positive side-lobe peaks")
    assert count == 9


def test_04_test_point_monotonicity():
    snr_grid = np.arange(-20.0, 11.0, 1.0)
    combos = [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0), (0.0, 5.0),
              (math.pi / 2.0, 0.0), (math.pi / 2.0, 1.0),
              (math.pi / 2.0, 2.0), (math.pi / 2.0, 5.0)]
    worst = 0.0
    for mu, kappa in combos:
        prior = VonMisesPrior(mu=mu, kappa=kappa)
        sets = [build(TestPointConfig(2, n, 0), 20) for n in (1, 3, 5, 7, 9)]
        for snr_db in snr_grid:
            config = SignalConfig(K=20, snr=10.0 ** (snr_db / 10.0))
            vals = [wwb_value(prior, config, pts).mse_bound for pts in sets]
            for a, b in zip(vals, vals[1:]):
                worst = max(worst, a - b)
    ok = worst <= 1e-10
    _verdict(4, ok, f"largest monotonicity violation {worst:.2e} rad^2 "
                    f"over {len(combos)} prior combos x 31 SNRs")
    assert worst <= 1e-10


def test_05_crossover_against_zzb():
    prior = VonMisesPrior(mu=0.0, kappa=1.0)
    proposed = build(TestPointConfig(2, 9, 10), 20)

    def arms(K):
        pts = build(TestPointConfig(2, 9, 10), K)
        grid = np.arange(-12.0, 0.25, 0.25)
        gaps = []
        for snr_db in grid:
            snr = 10.0 ** (snr_db / 10.0)
            config = SignalConfig(K=K, snr=snr)
            gaps.append(
                _rmse_db(wwb_value(prior, config, pts).mse_bound)
                - _rmse_db(zzb(prior, K, snr))
            )
        gaps = np.array(gaps)
        window = (grid >= -10.0) & (grid <= -4.0)
        positive = bool(np.all(gaps[window] > 0.0))
        peak_idx = int(np.argmax(gaps))
        peak, peak_at = float(gaps[peak_idx]), float(grid[peak_idx])
        peak_ok = abs(peak - 1.5) <= 0.5 and abs(peak_at - (-8.0)) <= 2.0
        crossover = None
        for i in range(peak_idx, len(grid) - 1):
            if gaps[i] > 0.0 >= gaps[i + 1]:
                frac = gaps[i] / (gaps[i] - gaps[i + 1])
                crossover = float(grid[i] + frac * (grid[i + 1] - grid[i]))
                break
        cross_ok = crossover is not None and -4.5 <= crossover <= -2.5
        return positive, peak, peak_at, peak_ok, crossover, cross_ok

    positive, peak, peak_at, peak_ok, crossover, cross_ok = arms(20)
    chosen = 20
    if not peak_ok and not cross_ok:
        # both tolerance arms failed at K=20: scan the documented alternatives
        for K in (40, 60):
            positive, peak, peak_at, peak_ok, crossover, cross_ok = arms(K)
            if positive and peak_ok and cross_ok:
                chosen = K
                break
    ok = positive and peak_ok and cross_ok
    _verdict(5, ok, f"K={chosen}: peak {peak:.2f} dB at {peak_at:g} dB, "
                    f"crossover {crossover if crossover is None else round(crossover, 2)} dB, "
                    f"positive throughout [-10,-4]: {positive}")
    assert peak_ok, f"peak {peak:.2f} dB at {peak_at:g} dB outside 1.5 +/- 0.5 near -8"
    assert cross_ok, f"sign change at {crossover} outside [-4.5, -2.5]"
    assert positive, "gap not positive throughout [-10, -4] dB"


def test_06_asymptotic_convergence():
    prior = VonMisesPrior(mu=0.0, kappa=1.0)
    snr = 10.0
    config = SignalConfig(K=20, snr=snr)
    w = 10.0 * math.log10(wwb_value(prior, config, build(TestPointConfig(2, 9, 10), 20)).mse_bound)
    z = 10.0 * math.log10(zzb(prior, 20, snr))
    b = 10.0 * math.log10(bcrb(prior, 20, snr))
    spread = max(abs(w - z), abs(w - b), abs(z - b))
    ok = spread < 0.5
    _verdict(6, ok, f"at +10 dB: WWB {w:.2f}, ZZB {z:.2f}, BCRB {b:.2f} "
                    f"(max pairwise {spread:.3f} dB)")
    assert spread < 0.5


def test_07_no_information_floor():
    snr = 1e-4  # -40 dB
    config = SignalConfig(K=20, snr=snr)
    offsets = []
    for kappa in (0.0, 1.0, 5.0):
        prior = VonMisesPrior(mu=0.0, kappa=kappa)
        floor_db = 10.0 * math.log10(prior.variance())
        w = 10.0 * math.log10(wwb_value(prior, config, build(TestPointConfig(2, 9, 10), 20)).mse_bound)
        z = 10.0 * math.log10(zzb(prior, 20, snr))
        m = 10.0 * math.log10(run_monte_carlo(config, prior, McConfig(trials=10_000, seed=17)).mse)
        offsets.extend(abs(v - floor_db) for v in (w, z, m))
    worst = max(offsets)
    ok = worst < 1.5
    _verdict(7, ok, f"largest deviation from prior-variance floor {worst:.2f} dB "
                    f"across WWB/ZZB/MAP, kappa in {{0,1,5}}")
    assert worst < 1.5


def test_08_bound_validity_on_reference_grid():
    start = time.monotonic()
    prior = VonMisesPrior(mu=0.0, kappa=1.0)
    points = build(TestPointConfig(2, 9, 10), 20)
    margins = []
    for snr_db in np.arange(-20.0, 11.0, 1.0):
        snr = 10.0 ** (snr_db / 10.0)
        config = SignalConfig(K=20, snr=snr)
        bound = wwb_value(prior, config, points).mse_bound
        res = run_monte_carlo(config, prior, McConfig(trials=10_000, seed=29))
        margins.append(res.mse - (bound - 3.0 * res.mse_se))
    elapsed = time.monotonic() - start
    ok = min(margins) >= 0.0 and elapsed < 600.0
    _verdict(8, ok, f"min(MAP MSE - (WWB - 3 SE)) = {min(margins):.3e} rad^2 "
                    f"over 31 points, {elapsed:.0f}s")
    assert min(margins) >= 0.0
    assert elapsed < 600.0


def test_09_oracle_suites():
    from scipy.integrate import quad

    from circbound.numerics import dirichlet_kernel
    from circbound.testpoints import TestPointSet
    from circbound.wwb import _log_integrals, _products, _supports

    from conftest import (
        CROSS_LAYOUTS,
        dirichlet_sum_oracle,
        prior_power_integral_oracle,
        von_mises_pdf,
    )

    def gamma(prior, si, sj, h_i, h_j):
        # prior log-integrals of the four score products; sj = 0, h_j = h_i
        # makes the first one the single-point normalizer of h_i
        return _log_integrals(prior, *_supports(*_products(si, sj, h_i, h_j)))

    checks = []

    # (a) whole-entry Monte Carlo oracle at two samples
    prior = VonMisesPrior(mu=0.0, kappa=0.0)
    config = SignalConfig(K=2, snr=1.0)
    h = 0.3 * math.pi
    est, se = q_element_mc_oracle(h, h, 0.5, prior, config, 1_000_000, 123)
    q = build_q(prior, config, TestPointSet(h=np.array([h]), provenance=("E",)))
    checks.append(("a", abs(q[0, 0] - est) <= 3.0 * se))

    # (b) every prior integral vs direct-pdf quadrature
    prior_b = VonMisesPrior(mu=0.3, kappa=2.0)
    ok_b = True
    si, sj, h_i, h_j = 0.6, 0.4, 0.45 * math.pi, 0.2 * math.pi
    want = prior_power_integral_oracle(prior_b, (1.0 - si, si), (0.0, h_i))
    ok_b &= abs(gamma(prior_b, si, 0.0, h_i, h_i)[0] - want) < 1e-12
    got = gamma(prior_b, si, sj, h_i, h_j)
    for term in (1, 2, 3, 4):
        weights, offsets = CROSS_LAYOUTS[term](si, sj, h_i, h_j)
        want = prior_power_integral_oracle(prior_b, weights, offsets)
        ok_b &= abs(got[term - 1] - want) < 1e-12
    checks.append(("b", bool(ok_b)))

    # (c) uniform-prior closed forms
    flat = VonMisesPrior(kappa=0.0)
    ok_c = abs(
        gamma(flat, 0.5, 0.0, 0.1 * math.pi, 0.1 * math.pi)[0] - math.log(0.95)
    ) < 1e-10 and abs(
        gamma(flat, 0.5, 0.5, 0.4 * math.pi, 0.15 * math.pi)[1]
        - math.log((2.0 * math.pi - 0.55 * math.pi) / (2.0 * math.pi))
    ) < 1e-10
    checks.append(("c", bool(ok_c)))

    # (d) kernel vs direct sum
    rng = np.random.default_rng(77)
    ok_d = all(
        abs(dirichlet_kernel(hh, kk)[0] - dirichlet_sum_oracle(hh, kk)) < 1e-10
        for hh, kk in zip(rng.uniform(-2 * math.pi, 2 * math.pi, 200),
                          rng.integers(1, 200, 200))
    )
    checks.append(("d", bool(ok_d)))

    # (e) prior information term vs quadrature
    prior_e = VonMisesPrior(mu=0.0, kappa=2.0)
    pdf_e = von_mises_pdf(prior_e)
    integrand = lambda t: 2.0 * np.cos(t) * pdf_e(t)
    want, _ = quad(integrand, -math.pi, math.pi, epsabs=1e-13, epsrel=1e-12)
    checks.append(("e", abs(prior_e.kappa * prior_e.bessel_ratio() - want) < 1e-8))

    # (f) transition-factor limits of the closed-form comparison bound
    from circbound.benchmarks import fisher_information
    prior_f = VonMisesPrior(kappa=1.0)
    hi_ok = abs(zzb(prior_f, 20, 3.0) * fisher_information(20, 3.0) - 1.0) < 1e-3
    lo_ok = abs(zzb(prior_f, 20, 5e-8) / prior_f.variance() - 1.0) < 1e-3
    checks.append(("f", hi_ok and lo_ok))

    ok = all(flag for _, flag in checks)
    _verdict(9, ok, "suites " + ", ".join(f"{name}:{'ok' if flag else 'FAIL'}"
                                          for name, flag in checks))
    assert ok, checks


def test_10_sweep_determinism(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    # full-trial runs take ~1 minute each; a reduced trial count exercises the
    # identical code paths (per-point seed derivation, chunked batching,
    # 17-digit serialization) that determinism depends on
    argv = ["sweep", "--figure", "13", "--seed", "7", "--trials", "500"]
    rc1 = main(argv + ["--out", str(first)])
    rc2 = main(argv + ["--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical
    _verdict(10, ok, f"two figure-13 sweeps, {first.stat().st_size} bytes, "
                     f"byte-identical: {identical}")
    assert rc1 == 0 and rc2 == 0
    assert identical
