"""MAP estimator and the Monte Carlo harness that validates the bounds.

The MAP objective is one trigonometric polynomial whose coefficients hold the
samples and the prior (`_fold`). It is maximised over a grid, scored in
cache-sized blocks of trial rows (`_grid_peak`), and each grid peak is refined
by Newton steps (`_refine_peaks`).

The randomness of a run comes from two streams seeded by (seed, 0) and
(seed, 1): truths are drawn from the first as one von Mises array and the noise
from the second as one normal array, both filled in trial order. So trial t is
the same in every run of t + 1 or more trials, and results do not depend on how
the trials are split into estimation chunks.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .prior import VonMisesPrior, wrap_angle
from .signal_model import SignalConfig, synthesize

__all__ = ["McConfig", "McResult", "wrap_error", "run_monte_carlo"]

_NEWTON_STEPS = 4
_TRIAL_CHUNK = 1024  # fixed chunk size keeps batched results order-independent
_BLOCK_VALUES = 1 << 17  # grid scores per block: about 1 MiB, reduced while in cache


@dataclass(frozen=True)
class McConfig:
    trials: int = 10_000
    grid_size: int = 4096
    refine: bool = True
    seed: int = 0

    def __post_init__(self):
        try:
            seed = operator.index(self.seed)
        except TypeError:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}") from None
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        object.__setattr__(self, "seed", seed)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.grid_size < 64:
            raise ValueError(f"grid_size must be >= 64, got {self.grid_size}")


@dataclass(frozen=True)
class McResult:
    mse: float
    trials_used: int
    outlier_fraction: float
    mse_se: float  # std(err^2)/sqrt(N); inf for a single trial


def wrap_error(estimate, truth):
    """Wrapped (circular) error in [-pi, pi); accepts scalars or arrays."""
    return wrap_angle(np.asarray(estimate) - truth)


def _fold(config: SignalConfig, prior: VonMisesPrior, samples: np.ndarray) -> np.ndarray:
    """Coefficients z, (n, max(K, 2)), of the MAP objective written as one
    trigonometric polynomial f(theta) = Re sum_k z_k e^{-j theta k}: z_k =
    2 snr e^{-j phi} x_k / A, and z_1 also holds the prior, since
    kappa cos(theta - mu) = Re(kappa e^{j mu} e^{-j theta})."""
    z = np.zeros((samples.shape[0], max(config.K, 2)), dtype=complex)
    z[:, :config.K] = samples * (2.0 * config.snr / config.amplitude * np.exp(-1j * config.phi))
    z[:, 1] += prior.kappa * np.exp(1j * prior.mu)
    return z


@functools.lru_cache(maxsize=4)
def _grid_table(K: int, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only grid g (G,) on [-pi, pi) and [cos(k g); sin(k g)] (2 max(K, 2), G),
    matching the `_fold` coefficients."""
    grid = -math.pi + 2.0 * math.pi * np.arange(grid_size) / grid_size
    kg = np.outer(np.arange(max(K, 2)), grid)
    table = np.concatenate([np.cos(kg), np.sin(kg)])
    grid.flags.writeable = table.flags.writeable = False
    return grid, table


def _grid_peak(
    config: SignalConfig, prior: VonMisesPrior, samples: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """Argmax of the objective over the `_grid_table` grid, per trial row: the
    product [Re z | Im z] @ [cos; sin], taken in blocks of about `_BLOCK_VALUES`
    scores, each reduced by argmax while it is still in cache."""
    table = _grid_table(config.K, len(grid))[1]
    z = _fold(config, prior, samples)
    parts = np.concatenate([z.real, z.imag], axis=1)
    rows = max(1, _BLOCK_VALUES // len(grid))
    scores = np.empty((min(rows, len(parts)), len(grid)))
    best = np.empty(len(parts), dtype=np.intp)
    for i in range(0, len(parts), rows):
        chunk = parts[i:i + rows]
        np.matmul(chunk, table, out=scores[:len(chunk)])
        np.argmax(scores[:len(chunk)], axis=1, out=best[i:i + rows])
    return grid[best]


def _refine_peaks(
    config: SignalConfig, prior: VonMisesPrior, samples: np.ndarray,
    centers: np.ndarray, cell: float,
) -> np.ndarray:
    """Maximize the objective within +/- one grid cell of each center by Newton
    steps on f' = sum k Im w_k, f'' = -sum k^2 Re w_k, w_k = z_k e^{-j theta k}
    (the powers of e^{-j theta} by cumulative product), inside a bracket
    narrowed by the sign of f' and bisected when f'' >= 0 or a step leaves it.
    A window whose f rises (falls) all the way across ends at its right (left)
    edge."""
    z = _fold(config, prior, samples)
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


def _estimate_batch(
    config: SignalConfig, prior: VonMisesPrior, samples: np.ndarray, grid_size: int, refine: bool
) -> np.ndarray:
    peaks = _grid_peak(config, prior, samples, _grid_table(config.K, grid_size)[0])
    if refine:
        peaks = _refine_peaks(config, prior, samples, peaks, 2.0 * math.pi / grid_size)
    return peaks


def _trials(config: SignalConfig, prior: VonMisesPrior, mc: McConfig, theta_fixed) -> tuple:
    """Truths (N,) and samples (N, K) of `mc.trials` trials: the truths are
    wrap_angle(default_rng([seed, 0]).vonmises(mu, kappa, N)), unless theta is
    fixed, and the noise is default_rng([seed, 1]).standard_normal((N, 2, K)).
    Both are filled in trial order, so the first n trials of any run of N >= n
    trials are those of an n-trial run."""
    n = mc.trials
    if theta_fixed is None:
        truths = wrap_angle(np.random.default_rng([mc.seed, 0]).vonmises(prior.mu, prior.kappa, n))
    else:
        truths = np.full(n, float(theta_fixed))
    normals = np.random.default_rng([mc.seed, 1]).standard_normal((n, 2, config.K))
    return truths, synthesize(config, truths, normals)


def run_monte_carlo(
    config: SignalConfig,
    prior: VonMisesPrior,
    mc: McConfig,
    theta_fixed: float | None = None,
    wrap: bool = True,
) -> McResult:
    """Bayesian MSE of the MAP estimator over `mc.trials` independent trials.

    Each trial draws theta from the prior (or uses `theta_fixed`), generates
    observations, estimates, and scores the wrapped error; the MSE and its
    standard error come from the same scored errors. The draws come from the
    two streams of `_trials`, seeded by (mc.seed, 0) and (mc.seed, 1).
    """
    truths, samples = _trials(config, prior, mc, theta_fixed)
    estimates = np.concatenate([
        _estimate_batch(config, prior, samples[i:i + _TRIAL_CHUNK], mc.grid_size, mc.refine)
        for i in range(0, mc.trials, _TRIAL_CHUNK)
    ])

    errors = wrap_error(estimates, truths) if wrap else estimates - truths
    sq = errors**2
    mse = float(np.mean(sq))
    return McResult(
        mse=mse,
        trials_used=mc.trials,
        outlier_fraction=float(np.mean(np.abs(errors) > 0.5 * math.pi)),
        mse_se=float(np.std(sq, ddof=1) / math.sqrt(mc.trials)) if mc.trials > 1 else math.inf,
    )
