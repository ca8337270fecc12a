"""MAP estimator and the Monte Carlo harness that validates the bounds.

The MAP objective is one trigonometric polynomial whose coefficients hold the
samples and the prior (`_fold`). It is maximised over a grid, scored in
cache-sized blocks of trial rows (`_grid_peak`), and each grid peak is refined
by Newton steps (`_refine_peaks`).

Trial t draws from the stream np.random.default_rng([seed, t]), so results are
identical regardless of execution order or parallelism. That stream is produced
without building it: the SeedSequence hash of every (seed, t) is computed in one
array pass, turned into the PCG64 state that seeding would set, and assigned to
one reused Generator.
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

# numpy.random.SeedSequence (a port of O'Neill's seed_seq, pool size 4) and the
# PCG64 multiplier; uint32 arithmetic is done in uint64 arrays masked to 32 bits
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
    # [Re w_0, Im w_0, Re w_1, ...] @ weights = (f, f', f'')
    weights = np.zeros((2 * len(k), 3))
    weights[0::2, 0], weights[1::2, 1], weights[0::2, 2] = 1.0, k, -k**2.0

    def derivatives(theta):  # f, f', f'' at theta of shape (..., n)
        w = np.empty(theta.shape + k.shape, dtype=complex)
        w[..., 0] = 1.0
        w[..., 1:] = np.exp(-1j * theta)[..., None]
        np.cumprod(w, axis=-1, out=w)
        w *= z
        return np.moveaxis(w.view(np.float64) @ weights, -1, 0)

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


def _hasher(const: int, mult: int):
    """numpy's SeedSequence hashmix with its own running constant: each call XORs
    the constant in, steps it by `mult` and multiplies it in, all mod 2**32."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> _XSHIFT
    return hashmix


def _seed_words(seed: int, t: np.ndarray) -> np.ndarray:
    """SeedSequence([seed, t]).generate_state(4, np.uint64) for each t, shape (n, 4).

    The entropy is the 32-bit words of `seed` (little-endian, at least one)
    followed by t, which is one word (t < 2**32)."""
    entropy = [np.full(t.shape, seed >> 32 * i & _MASK32, dtype=np.uint64)
               for i in range(max(1, (seed.bit_length() + 31) // 32))] + [t.astype(np.uint64)]
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(word) for word in (entropy + [np.zeros_like(t, dtype=np.uint64)] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_out = _hasher(_INIT_B, _MULT_B)
    state = [hash_out(pool[i % 4]) for i in range(8)]  # uint32 words, little-endian pairs
    return np.stack([state[i] | state[i + 1] << 32 for i in range(0, 8, 2)], axis=1)


def _pcg64_states(words: np.ndarray) -> tuple[list[int], list[int]]:
    """PCG64 (state, inc) that seeding from `words` rows (s_hi, s_lo, i_hi, i_lo)
    sets: inc = 2i + 1 and state = (inc + s) * multiplier + inc, mod 2**128."""
    w = words.astype(object)  # Python ints: exact 128-bit arithmetic
    inc = (w[:, 2] << 65 | w[:, 3] << 1 | 1) & _MASK128
    state = (((w[:, 0] << 64 | w[:, 1]) + inc) * _PCG64_MULT + inc) & _MASK128
    return state.tolist(), inc.tolist()


def _trials(config: SignalConfig, prior: VonMisesPrior, mc: McConfig, theta_fixed) -> tuple:
    """Truths (N,) and samples (N, K): trial t draws its theta (unless fixed), then
    its noise, from the stream default_rng([mc.seed, t]).

    The stream is not built per trial: `_seed_words` hashes every trial's seed at
    once, `_pcg64_states` turns each row into the PCG64 state that default_rng
    would set, and one Generator is re-seated on it before the trial's draws."""
    truths = np.empty(mc.trials) if theta_fixed is None else np.full(mc.trials, float(theta_fixed))
    normals = np.empty((mc.trials, 2, config.K))
    gen = np.random.Generator(np.random.PCG64(0))  # fixed seed: no OS entropy is read
    states, incs = _pcg64_states(_seed_words(mc.seed, np.arange(mc.trials)))
    for t, (state, inc) in enumerate(zip(states, incs)):
        gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        if theta_fixed is None:
            truths[t] = gen.vonmises(prior.mu, prior.kappa)
        gen.standard_normal(out=normals[t])
    if theta_fixed is None:
        truths = wrap_angle(truths)
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
    standard error come from the same scored errors. Trial t uses the random
    stream seeded by (mc.seed, t).
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
