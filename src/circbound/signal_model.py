"""Discrete observation model for the normalized circular frequency.

x_k = A e^{i theta k} + n_k, k = 0..K-1, with circular complex white
Gaussian noise of variance 2 per sample (unit real and imaginary parts) and
A = sqrt(2 SNR).
Everything is in normalized radians per sample; Hz appears only in the CLI.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["SignalConfig", "synthesize"]


def _count(name: str, value, least: int) -> int:
    """`value` as an int, or a ValueError naming `name` if it is no integer >= `least`."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}") from None
    if count < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {count}")
    return count


@dataclass(frozen=True)
class SignalConfig:
    """K coherent samples at linear power ratio `snr`."""

    K: int
    snr: float

    def __post_init__(self):
        _count("K", self.K, 1)
        if not 0.0 < self.snr < math.inf:
            raise ValueError(f"snr must be finite and > 0, got {self.snr}")

    @property
    def amplitude(self) -> float:
        """A = sqrt(2 SNR); derived, never stored."""
        return math.sqrt(2.0 * self.snr)


def synthesize(config: SignalConfig, thetas: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Rows A e^{i theta k} + u_k + i v_k; normals (n, 2, K) hold (u, v)."""
    outside = thetas[~((thetas >= -math.pi) & (thetas <= math.pi))]
    if outside.size:
        raise ValueError(f"theta outside [-pi, pi]: {outside[0]}")
    x = thetas[:, None] * np.arange(config.K)
    # A cos(x) + u and A sin(x) + v, the bits of A e^{ix} + (u + iv) without
    # a complex exponential per sample
    rows = np.empty(x.shape, dtype=complex)
    re, im = rows.real, rows.imag
    np.cos(x, out=re)
    re *= config.amplitude
    re += normals[:, 0]
    np.sin(x, out=im)
    im *= config.amplitude
    im += normals[:, 1]
    return rows

