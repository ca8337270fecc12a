"""MAP estimator and the Monte Carlo harness that validates the bounds.

Per-trial random streams derive deterministically from (seed, trial index),
so results are identical regardless of execution order or parallelism.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .prior import VonMisesPrior
from .signal_model import ObservationVector, SignalConfig, generate

__all__ = ["McConfig", "McResult", "map_estimate", "wrap_error", "run_monte_carlo"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_ITERS = 48
_TRIAL_CHUNK = 1024  # fixed chunk size keeps batched results order-independent


@dataclass(frozen=True)
class McConfig:
    trials: int = 10_000
    grid_size: int = 4096
    refine: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.grid_size < 64:
            raise ValueError(f"grid_size must be >= 64, got {self.grid_size}")


@dataclass(frozen=True)
class McResult:
    mse: float
    rmse_db: float
    trials_used: int
    outlier_fraction: float
    mse_se: float  # std(err^2)/sqrt(N); inf for a single trial


def wrap_error(estimate, truth):
    """Wrapped (circular) error in [-pi, pi); accepts scalars or arrays."""
    return np.mod(np.asarray(estimate) - truth + math.pi, 2.0 * math.pi) - math.pi


def _objective(
    config: SignalConfig, prior: VonMisesPrior, samples: np.ndarray, thetas: np.ndarray
) -> np.ndarray:
    """Log-posterior objective per trial at per-trial frequencies.

    samples: (n, K) complex, thetas: (n,). Returns (n,).
    """
    k = np.arange(config.K)
    basis = np.exp(-1j * thetas[:, None] * k[None, :])
    coherent = np.sum(samples * basis, axis=1) / (config.amplitude * config.K)
    data = 2.0 * config.K * config.snr * np.real(np.exp(-1j * config.phi) * coherent)
    return data + prior.kappa * np.cos(thetas - prior.mu)


def _grid_peak(
    config: SignalConfig, prior: VonMisesPrior, samples: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """Argmax of the objective over a shared grid, per trial row."""
    k = np.arange(config.K)
    basis = np.exp(-1j * np.outer(k, grid))  # (K, G)
    prior_term = prior.kappa * np.cos(grid - prior.mu)
    scores = (
        2.0 * config.snr * np.real(np.exp(-1j * config.phi) * (samples @ basis))
        / config.amplitude
        + prior_term[None, :]
    )
    return grid[np.argmax(scores, axis=1)]


def _refine_peaks(
    config: SignalConfig,
    prior: VonMisesPrior,
    samples: np.ndarray,
    centers: np.ndarray,
    cell: float,
) -> np.ndarray:
    """Vectorized golden-section refinement within +/- one grid cell."""
    a = centers - cell
    b = centers + cell
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = _objective(config, prior, samples, x1)
    f2 = _objective(config, prior, samples, x2)
    for _ in range(_REFINE_ITERS):
        right = f1 < f2  # maximum lies in [x1, b]
        a = np.where(right, x1, a)
        b = np.where(right, b, x2)
        x1_new = np.where(right, x2, b - _GOLDEN * (b - a))
        x2_new = np.where(right, a + _GOLDEN * (b - a), x1)
        f_new = _objective(config, prior, samples, np.where(right, x2_new, x1_new))
        f1, f2 = np.where(right, f2, f_new), np.where(right, f_new, f1)
        x1, x2 = x1_new, x2_new
    return 0.5 * (a + b)


def _estimate_batch(
    config: SignalConfig,
    prior: VonMisesPrior,
    samples: np.ndarray,
    grid_size: int,
    refine: bool,
) -> np.ndarray:
    grid = -math.pi + 2.0 * math.pi * np.arange(grid_size) / grid_size
    peaks = _grid_peak(config, prior, samples, grid)
    if refine:
        cell = 2.0 * math.pi / grid_size
        peaks = _refine_peaks(config, prior, samples, peaks, cell)
    return peaks


def map_estimate(
    config: SignalConfig,
    prior: VonMisesPrior,
    obs: ObservationVector,
    grid_size: int = 4096,
    refine: bool = True,
) -> float:
    """MAP frequency estimate: grid search then golden-section refinement."""
    if grid_size < 64:
        raise ValueError(f"grid_size must be >= 64, got {grid_size}")
    samples = np.asarray(obs.samples)[None, :]
    return float(_estimate_batch(config, prior, samples, grid_size, refine)[0])


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
    standard error come from the same scored errors. Trial t uses the random
    stream seeded by (mc.seed, t).
    """
    truths = np.empty(mc.trials)
    samples = np.empty((mc.trials, config.K), dtype=complex)
    for t in range(mc.trials):
        rng = np.random.default_rng([mc.seed, t])
        theta = theta_fixed if theta_fixed is not None else float(prior.sample(rng))
        obs = generate(config, theta, rng)
        truths[t] = theta
        samples[t] = obs.samples

    estimates = np.empty(mc.trials)
    for start in range(0, mc.trials, _TRIAL_CHUNK):
        stop = min(start + _TRIAL_CHUNK, mc.trials)
        estimates[start:stop] = _estimate_batch(
            config, prior, samples[start:stop], mc.grid_size, mc.refine
        )

    errors = wrap_error(estimates, truths) if wrap else estimates - truths
    sq = errors**2
    mse = float(np.mean(sq))
    return McResult(
        mse=mse,
        rmse_db=10.0 * math.log10(mse) if mse > 0.0 else -math.inf,
        trials_used=mc.trials,
        outlier_fraction=float(np.mean(np.abs(errors) > 0.5 * math.pi)),
        mse_se=float(np.std(sq, ddof=1) / math.sqrt(mc.trials)) if mc.trials > 1 else math.inf,
    )
