"""Shared independent oracles used across the test suite, single-observation
helpers for the MAP Monte Carlo, and a reader for the CLI's CSV output.

Every oracle here is implemented from first principles (series, quadrature,
direct sums, Monte Carlo expectations) so it cannot share a bug with the
library code it checks. The single-observation helpers are the batch
routines of the library applied to one row, so per-trial references can be
written without a per-observation API in the library; `build_q` is the
library's array path at one SNR, so the oracles can check whole score
matrices. `grid_peak_oracle` scores every grid point by one full product: the
plain search that the MAP grid step must reproduce. `sidelobe_oracle` refines
each side lobe by its own scalar golden-section search, the per-lobe form that
the array search of `testpoints.sidelobe_points` must match bit for bit.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math

import numpy as np

from circbound import mapsim, wwb
from circbound.numerics import dirichlet_kernel
from circbound.prior import VonMisesPrior, wrap_angle
from circbound.signal_model import SignalConfig, synthesize


def bessel_series_oracle(x: float, order: int) -> float:
    """Defining power series sum_m (x/2)^{2m+order} / (m! (m+order)!).

    Terms are accumulated with compensated summation; the running-product
    form keeps every intermediate within double range up to x ~ 700.
    """
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    half = 0.5 * x
    term = half**order / math.factorial(order)
    terms = [term]
    m = 1
    while True:
        term *= half * half / (m * (m + order))
        terms.append(term)
        if term < 1e-20 * math.fsum(terms):
            return math.fsum(terms)
        m += 1


def von_mises_pdf(prior: VonMisesPrior):
    """The prior density theta -> e^{kappa cos(theta - mu)} / (2 pi I0(kappa)) on
    [-pi, pi], 0 outside, for scalars or arrays; I0 comes from the series."""
    norm = 2.0 * math.pi * bessel_series_oracle(prior.kappa, 0)

    def pdf(theta):
        theta = np.asarray(theta, dtype=float)
        inside = (theta >= -math.pi) & (theta <= math.pi)
        return np.where(inside, np.exp(prior.kappa * np.cos(theta - prior.mu)) / norm, 0.0)

    return pdf


def dirichlet_sum_oracle(h: float, K: int) -> float:
    """Direct O(K) cosine sum, the definition."""
    return float(sum(math.cos(h * k) for k in range(K)))


def mu_exponent_oracle(weights, offsets, K: int, snr: float) -> float:
    """Gaussian product-integral value of the data exponents.

    For weights w_l summing to 1 and complex means m_l(k) = A e^{i(theta+a_l)k},
    integral_x prod_l p(x|theta+a_l)^{w_l} dx = exp(sum_k snr (|sum_l w_l
    e^{i a_l k}|^2 - 1)), independent of theta. Derived from completing the
    square in the Gaussian exponent -- entirely independent of the kernel
    algebra in the library.
    """
    k = np.arange(K)
    acc = np.zeros(K, dtype=complex)
    for w, a in zip(weights, offsets):
        acc += w * np.exp(1j * a * k)
    return snr * float(np.sum(np.abs(acc) ** 2 - 1.0))


# weight/offset layouts of the four cross score-product expectations
CROSS_LAYOUTS = {
    1: lambda si, sj, hi, hj: (((1 - si - sj), si, sj), (0.0, hi, hj)),
    2: lambda si, sj, hi, hj: (((si - sj), sj, (1 - si)), (0.0, hj, -hi)),
    3: lambda si, sj, hi, hj: (((sj - si), si, (1 - sj)), (0.0, hi, -hj)),
    4: lambda si, sj, hi, hj: (((si + sj - 1), (1 - si), (1 - sj)), (0.0, -hi, -hj)),
}


def prior_power_integral_oracle(prior: VonMisesPrior, weights, offsets) -> float:
    """ln of integral of prod_l pdf(theta + a_l)^{w_l} over the common support.

    Written directly in terms of density calls and adaptive quadrature, so the
    support limits and the integrand both come from the density itself.
    """
    from scipy.integrate import quad

    lo = max(-math.pi - min(offsets), -math.pi)
    hi = min(math.pi - max(offsets), math.pi)
    if hi <= lo:
        return -math.inf
    pdf = von_mises_pdf(prior)

    def f(theta: float) -> float:
        out = 1.0
        for w, a in zip(weights, offsets):
            out *= float(pdf(theta + a)) ** w
        return out

    val, _ = quad(f, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-12)
    return math.log(val)


def q_element_mc_oracle(
    h_i: float,
    h_j: float,
    s: float,
    prior: VonMisesPrior,
    config: SignalConfig,
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the defining score-product expectation ratio.

    Draws theta from the prior and x from the likelihood, forms the two
    likelihood-ratio score differences directly from joint-density ratios,
    and averages. Returns (estimate, standard error of the estimate).
    """
    rng = np.random.default_rng(seed)
    K, A = config.K, config.amplitude
    theta = wrap_angle(rng.vonmises(prior.mu, prior.kappa, trials))
    k = np.arange(K)
    clean = A * np.exp(1j * np.outer(theta, k))
    noise = rng.standard_normal((trials, K)) + 1j * rng.standard_normal((trials, K))
    x = clean + noise

    def ratio_pow(shift: float, p: float) -> np.ndarray:
        # [p(x, theta+shift) / p(x, theta)]^p, zero where the shifted
        # frequency leaves the prior support
        t2 = theta + shift
        inside = (t2 >= -math.pi) & (t2 <= math.pi)
        m2 = A * np.exp(1j * np.outer(t2, k))
        log_lik = (
            np.sum(np.abs(x - clean) ** 2, axis=1)
            - np.sum(np.abs(x - m2) ** 2, axis=1)
        ) / 2.0
        log_prior = prior.kappa * (np.cos(t2 - prior.mu) - np.cos(theta - prior.mu))
        return np.where(inside, np.exp(p * (log_lik + log_prior)), 0.0)

    score_i = ratio_pow(h_i, s) - ratio_pow(-h_i, 1.0 - s)
    score_j = ratio_pow(h_j, s) - ratio_pow(-h_j, 1.0 - s)
    prod = score_i * score_j
    den = ratio_pow(h_i, s).mean() * ratio_pow(h_j, s).mean()
    est = float(prod.mean() / den)
    se = float(prod.std(ddof=1) / math.sqrt(trials) / den)
    return est, se


def observe(config: SignalConfig, theta: float, rng) -> np.ndarray:
    """One observation's K complex samples at frequency `theta`, drawing K real
    and then K imaginary noise parts from `rng`; one Monte Carlo trial's share
    of the noise stream."""
    normals = rng.standard_normal((1, 2, config.K))
    return synthesize(config, np.array([theta], dtype=float), normals)[0]


def draw_theta(prior: VonMisesPrior, rng) -> float:
    """One frequency from the prior, wrapped into [-pi, pi]; one Monte Carlo
    trial's share of the truth stream."""
    return float(wrap_angle(rng.vonmises(prior.mu, prior.kappa)))


def trials_of(config: SignalConfig, prior: VonMisesPrior, mc: mapsim.McConfig) -> tuple:
    """Truths (N,) and samples (N, K) of every trial of a run: the chunks
    that `mapsim._trials` draws, joined."""
    truths, samples = zip(*mapsim._trials(config, prior, mc))
    return np.concatenate(truths), np.concatenate(samples)


def estimate_one(config: SignalConfig, prior: VonMisesPrior, samples,
                 grid_size: int = 4096, refine: bool = True) -> float:
    """MAP estimate from one observation: grid search, then refinement, both
    on the `_fold` coefficients."""
    z = mapsim._fold(config, prior, np.asarray(samples)[None, :])
    peak = mapsim._grid_peak(z, grid_size)
    if refine:
        peak = mapsim._refine_peaks(z, peak, 2.0 * math.pi / grid_size)
    return float(peak[0])


@functools.lru_cache(maxsize=2)
def _oracle_table(K: int, grid_size: int):
    grid = -math.pi + 2.0 * math.pi * np.arange(grid_size) / grid_size
    kg = np.outer(np.arange(K), grid)
    return grid, np.cos(kg), np.sin(kg)


def grid_peak_oracle(config: SignalConfig, prior: VonMisesPrior, samples, grid_size: int):
    """The MAP objective scored at every grid point as one full product, the
    data term Re z @ cos(k g) + Im z @ sin(k g) plus kappa cos(g - mu), then
    argmax. Returns the grid value per row, and a mask of the rows whose two
    best scores lie within 1e-12 relative, where rounding may pick either."""
    grid, cos, sin = _oracle_table(config.K, grid_size)
    z = np.asarray(samples) * (2.0 * config.snr / config.amplitude)
    scores = z.real @ cos + z.imag @ sin + prior.kappa * np.cos(grid - prior.mu)
    second, first = np.partition(scores, -2, axis=1)[:, -2:].T
    near_tie = first - second <= 1e-12 * np.abs(first)
    return grid[np.argmax(scores, axis=1)], near_tie


def _scalar_golden_max(f, a: float, b: float, tol: float = 1e-8) -> float:
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - golden * (b - a)
    x2 = a + golden * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + golden * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - golden * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def sidelobe_oracle(K: int, grid_step: float) -> np.ndarray:
    """Side-lobe peaks of D(h) = sum cos(h k) beyond the first null, one scalar
    golden-section search per grid maximum, and a separate search of the last
    grid step when D still rises into pi, where that lobe keeps pi unless the
    search found a higher value."""
    first_null = 2.0 * math.pi / K
    if first_null >= math.pi:
        return np.empty(0)
    grid = np.arange(first_null + grid_step, math.pi + 0.5 * grid_step, grid_step)
    grid[-1] = math.pi
    vals = dirichlet_kernel(grid, K)

    def d(h: float) -> float:
        return dirichlet_kernel(h, K)

    peaks = []
    for i in range(1, len(grid) - 1):
        if vals[i] >= vals[i - 1] and vals[i] > vals[i + 1]:
            peak = _scalar_golden_max(d, grid[i - 1], grid[i + 1])
            if d(peak) > 0.0:
                peaks.append(min(peak, math.pi))
    if vals[-1] > vals[-2] and vals[-1] > 0.0:
        peak = _scalar_golden_max(d, grid[-2], math.pi)
        if math.pi - peak < 2.0 * grid_step:
            peak = math.pi if d(math.pi) >= d(peak) else peak
        peaks.append(peak)
    return np.array(sorted(peaks))


def build_q(prior: VonMisesPrior, config: SignalConfig, points, s=0.5) -> np.ndarray:
    """The full symmetric score matrix of a test-point set at the exponent s
    and the SNR of `config`: Q_ab = C_ab exp(half_a + half_b)."""
    core, gamma = wwb._set_parts(config.K, tuple(points.h.tolist()), s, prior)
    (c,), (half,) = wwb._combine(core, gamma, np.array([config.snr]))
    return c * np.exp(half[:, None] + half[None, :])


def parse_rows(text: str) -> list[dict]:
    """Rows of a CSV table written by cli.emit(), with its column types."""
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        rows.append({
            "kind": rec["kind"],
            "snr_db": float(rec["snr_db"]),
            "k": int(rec["k"]),
            "kappa": float(rec["kappa"]),
            "mu_rad": float(rec["mu_rad"]),
            "s": float(rec["s"]) if rec["s"] else None,
            "trio": rec["trio"],
            "value_rad2": float(rec["value_rad2"]),
            "value_db": float(rec["value_db"]),
            "extra": json.loads(rec["extra"]),
        })
    return rows
