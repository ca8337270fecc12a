"""MAP estimator and the Monte Carlo harness that validates the bounds.

The MAP objective is one trigonometric polynomial whose coefficients hold the
samples and the prior; only `_fold` knows how. Each chunk of trials is folded
once, and both stages take just the coefficients: the objective is maximised
over a grid by scoring every S-th point and then only the cells that can
still hold the maximum, in cache-sized blocks of trial rows (`_grid_peak`),
and each grid peak is refined by Newton steps (`_refine_peaks`).

The randomness of a run comes from two streams seeded by (seed, 0) and
(seed, 1): truths are drawn from the first by von Mises draws and the noise
from the second by normal draws, chunk by chunk in trial order. A chunked draw
equals one whole draw, so trial t is the same in every run of t + 1 or more
trials. The draws and the estimates follow the chunk; the errors of every
trial, their squares and np.std's temporary take about 24 bytes per trial.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .prior import VonMisesPrior, wrap_angle
from .signal_model import SignalConfig, _count, synthesize

__all__ = ["McConfig", "McResult", "run_monte_carlo"]

_NEWTON_STEPS = 4
_TRIAL_CHUNK = 1024  # trials drawn and estimated at once: bounds every per-trial temporary
_BLOCK_VALUES = 1 << 17  # values per block of scores or kept cells: about 1 MiB, reduced in cache


@dataclass(frozen=True)
class McConfig:
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        for name, least in (("trials", 1), ("seed", 0)):
            object.__setattr__(self, name, _count(name, getattr(self, name), least))


@dataclass(frozen=True)
class McResult:
    mse: float
    outlier_fraction: float
    mse_se: float  # std(err^2)/sqrt(N); inf for a single trial


def _fold(config: SignalConfig, prior: VonMisesPrior, samples: np.ndarray) -> np.ndarray:
    """Coefficients z, (n, max(K, 2)), of the MAP objective written as one
    trigonometric polynomial f(theta) = Re sum_k z_k e^{-j theta k}: z_k =
    2 snr x_k / A, and z_1 also holds the prior, since
    kappa cos(theta - mu) = Re(kappa e^{j mu} e^{-j theta})."""
    z = np.zeros((samples.shape[0], max(config.K, 2)), dtype=complex)
    z[:, :config.K] = samples * (2.0 * config.snr / config.amplitude)
    z[:, 1] += prior.kappa * np.exp(1j * prior.mu)
    return z


# one table: `run_sweep` walks K outermost, so the MAP points of one K run in a row
@functools.lru_cache(maxsize=1)
def _grid_table(n_coef: int, grid_size: int) -> tuple:
    """Read-only tables of the grid search for `_fold` coefficients of that
    count, k < n_coef: the grid g (G,) on [-pi, pi); the stride S, the
    largest divisor of G no greater than G / (8 n_coef) and sqrt(G), or 1;
    [cos(k g); sin(k g)] (2 n_coef, G/S) at every S-th point; e^{-j k g}
    (G/S, n_coef) at those points if S > 1, else None; and the offset table
    (2 n_coef, S - 1) of cos(k d) in even and sin(k d) in odd rows, d = 2 pi
    j / G for 0 < j < S."""
    grid = -math.pi + 2.0 * math.pi * np.arange(grid_size) / grid_size
    limit = max(1, min(grid_size // (8 * n_coef), math.isqrt(grid_size)))
    stride = max(s for s in range(1, limit + 1) if grid_size % s == 0)
    coarse = np.empty((2 * n_coef, grid_size // stride))
    kg = np.multiply.outer(np.arange(n_coef), grid[::stride], out=coarse[:n_coef])
    phasors = np.exp(-1j * kg.T) if stride > 1 else None
    np.sin(kg, out=coarse[n_coef:])
    np.cos(kg, out=kg)  # in place: the table is built without a copy
    kd = np.outer(np.arange(n_coef), 2.0 * math.pi * np.arange(1, stride) / grid_size)
    offsets = np.empty((2 * n_coef, stride - 1))
    offsets[0::2], offsets[1::2] = np.cos(kd), np.sin(kd)
    for array in (grid, coarse, phasors, offsets):
        if array is not None:
            array.flags.writeable = False
    return grid, stride, coarse, phasors, offsets


def _grid_peak(z: np.ndarray, grid_size: int) -> np.ndarray:
    """Argmax of the objective with `_fold` coefficients z over the
    `_grid_table` grid, per row of z, the first in grid order among equal
    scores; only the cells that can hold it are scored in full.

    The product [Re z | Im z] @ [cos; sin] scores every S-th point, in blocks
    of about `_BLOCK_VALUES` scores. Cell c runs from point cS to (c + 1)S,
    the last one to point 0. As |f''| <= M2 = sum k^2 |z_k|, f within a cell
    of width D = 2 pi S / G exceeds the higher of its ends by at most
    M2 D^2 / 8. A cell is kept when that bound, plus a rounding margin of
    1e-12 sum (|Re z_k| + |Im z_k|), reaches the best scored point; the cell
    holding the maximum always is. Each kept cell's S - 1 inner points are
    scored by z_k e^{-j k g_c}, z rotated to the cell's start, times the
    offset table, in chunks of about `_BLOCK_VALUES` values."""
    n_coef = z.shape[1]
    grid, stride, coarse, phasors, offsets = _grid_table(n_coef, grid_size)
    cells = grid_size // stride
    bend = np.arange(n_coef) ** 2.0 * (2.0 * math.pi * stride / grid_size) ** 2 / 8.0
    rows = max(1, _BLOCK_VALUES // cells)
    # a kept cell takes about 8 n_coef + S values: its gathered, rotated and
    # interleaved coefficients, its scores and its indices
    pairs = max(1, _BLOCK_VALUES // (8 * n_coef + stride))
    scores = np.empty((min(rows, len(z)), cells))
    best = np.empty(len(z), dtype=np.intp)
    for i in range(0, len(z), rows):
        block = z[i:i + rows]
        parts = np.concatenate([block.real, block.imag], axis=1)
        coarse_scores = np.matmul(parts, coarse, out=scores[:len(block)])
        top = np.argmax(coarse_scores, axis=1)
        value = np.take_along_axis(coarse_scores, top[:, None], axis=1)[:, 0]
        index = top * stride
        if stride > 1:
            slack = np.abs(block) @ bend + 1e-12 * np.abs(parts).sum(axis=1)
            near = coarse_scores >= (value - slack)[:, None]
            kept = np.flatnonzero(near | np.roll(near, -1, axis=1))
            for j in range(0, len(kept), pairs):
                row, cell = np.divmod(kept[j:j + pairs], cells)
                fine = (block[row] * phasors[cell]).view(np.float64) @ offsets
                at = np.argmax(fine, axis=1)
                peak = np.take_along_axis(fine, at[:, None], axis=1)[:, 0]
                at += cell * stride + 1
                # each row's highest point so far, the first in grid order among equals
                high = value.copy()
                np.maximum.at(high, row, peak)
                index[high > value] = grid_size
                tied = peak == high[row]
                np.minimum.at(index, row[tied], at[tied])
                value = high
        best[i:i + rows] = index
    return grid[best]


def _refine_peaks(z: np.ndarray, centers: np.ndarray, cell: float) -> np.ndarray:
    """Maximize the objective with `_fold` coefficients z within +/- one grid
    cell of each center by Newton steps on f' = sum k Im w_k, f'' = -sum k^2
    Re w_k, w_k = z_k e^{-j theta k} (the powers of e^{-j theta} by cumulative
    product), inside a bracket narrowed by the sign of f' and bisected when
    f'' >= 0 or a step leaves it. A window whose f rises (falls) all the way
    across ends at its right (left) edge."""
    k = np.arange(z.shape[1])
    # weights @ [Re w_0, Im w_0, Re w_1, ...] = (f, f', f''), summed by einsum: a
    # BLAS product rounds a row differently with the number of rows beside it
    weights = np.zeros((3, 2 * len(k)))
    weights[0, 0::2], weights[1, 1::2], weights[2, 0::2] = 1.0, k, -k**2.0

    def derivatives(theta):  # f, f', f'' at theta of shape (..., n)
        w = np.empty(theta.shape + k.shape, dtype=complex)
        w[..., 0] = 1.0
        w[..., 1:] = np.exp(-1j * theta)[..., None]
        np.cumprod(w, axis=-1, out=w)
        w *= z
        return np.einsum("...i,ji->j...", w.view(np.float64), weights)

    lo, hi = centers - cell, centers + cell
    f, d1, _ = derivatives(np.stack([lo, hi]))
    at_hi = (d1[1] >= 0.0) & ((d1[0] > 0.0) | (f[1] > f[0]))
    at_lo = (d1[0] <= 0.0) & ~at_hi
    lo, hi = np.where(at_hi, hi, lo), np.where(at_lo, lo, hi)
    x = np.where(at_lo | at_hi, lo, centers)
    for _ in range(_NEWTON_STEPS):
        _, d1, d2 = derivatives(x)
        lo, hi = np.where(d1 > 0.0, x, lo), np.where(d1 < 0.0, x, hi)
        newton = x - d1 / np.where(d2 < 0.0, d2, -1.0)
        # a step landing exactly on a bracket end is kept: converged rows stay put
        x = np.where((d2 < 0.0) & (lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))
    return x


def _trials(config: SignalConfig, prior: VonMisesPrior, mc: McConfig):
    """Truths (n,) and samples (n, K) of the `mc.trials` trials, chunk by
    chunk of at most `_TRIAL_CHUNK` trials: the truths are wrapped
    default_rng([seed, 0]).vonmises(mu, kappa, n) draws and the noise
    default_rng([seed, 1]).standard_normal((n, 2, K)) draws. Both streams are
    drawn in trial order, so the trials equal those of one whole draw, and the
    first n trials of any run of N >= n trials are those of an n-trial run."""
    truth_rng, noise_rng = (np.random.default_rng([mc.seed, i]) for i in (0, 1))
    for i in range(0, mc.trials, _TRIAL_CHUNK):
        n = min(_TRIAL_CHUNK, mc.trials - i)
        truths = wrap_angle(truth_rng.vonmises(prior.mu, prior.kappa, n))
        yield truths, synthesize(config, truths, noise_rng.standard_normal((n, 2, config.K)))


def run_monte_carlo(
    config: SignalConfig, prior: VonMisesPrior, mc: McConfig, wrap: bool = True
) -> McResult:
    """Bayesian MSE of the MAP estimator over `mc.trials` independent trials.

    Each trial draws theta from the prior, generates observations, estimates,
    and scores the wrapped error (the plain difference without `wrap`); the
    MSE and its standard error come from the same scored errors. The draws
    come from the two streams of `_trials`, seeded by (mc.seed, 0) and
    (mc.seed, 1). The grid of the search has max(4096, 4K) points, at least
    four per main-lobe width 2 pi / K, and each grid peak is refined.
    """
    grid_size = max(4096, 4 * config.K)
    errors = np.empty(mc.trials)
    i = 0
    for truths, samples in _trials(config, prior, mc):
        z = _fold(config, prior, samples)
        estimates = _refine_peaks(z, _grid_peak(z, grid_size), 2.0 * math.pi / grid_size)
        errors[i:i + len(z)] = wrap_angle(estimates - truths) if wrap else estimates - truths
        i += len(z)

    sq = errors**2
    mse = float(np.mean(sq))
    return McResult(
        mse=mse,
        outlier_fraction=float(np.mean(np.abs(errors) > 0.5 * math.pi)),
        mse_se=float(np.std(sq, ddof=1) / math.sqrt(mc.trials)) if mc.trials > 1 else math.inf,
    )
