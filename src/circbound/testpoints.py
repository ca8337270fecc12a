"""Construction of the bound's test-point vector.

Three families of positive frequency offsets: 'C' points hugging the main
lobe, 'S' points at the positive side-lobe peaks of the K-sample coherent-sum
pattern, and 'E' points evenly spaced across [0.1 pi, pi]. A set holds only
offsets and their provenance: the bound's other hyperparameter, the exponent
s, is an argument of `wwb.wwb_axis`, which evaluates one set over a whole
(s, SNR) grid as one stack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, dirichlet_kernel

__all__ = [
    "TestPointConfig",
    "TestPointSet",
    "close_points",
    "sidelobe_points",
    "even_points",
    "build",
]

# offsets closer than this are considered duplicates; duplicate rows make the
# bound matrix singular
DEDUP_TOL = 1e-6

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TestPointConfig:
    """(C, S, E) counts."""

    c_count: int = 2
    s_count: int = 9
    e_count: int = 10

    def __post_init__(self):
        if min(self.c_count, self.s_count, self.e_count) < 0:
            raise ValueError("test point counts must be >= 0")
        if self.c_count + self.s_count + self.e_count < 1:
            raise ValueError("at least one test point is required")
        if self.c_count > 2:
            raise ValueError(f"at most 2 close points are defined, got {self.c_count}")

    @property
    def trio(self) -> tuple[int, int, int]:
        return (self.c_count, self.s_count, self.e_count)


@dataclass(frozen=True)
class TestPointSet:
    """Strictly increasing offsets in (0, pi] with per-point provenance tags."""

    h: np.ndarray
    provenance: tuple[str, ...]

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.size == 0:
            raise ValueError("empty test point set")
        if np.any(h <= 0.0) or np.any(h > math.pi):
            raise ValueError("test points must lie in (0, pi]")
        if np.any(np.diff(h) <= 0.0):
            raise ValueError("test points must be strictly increasing")
        if len(self.provenance) != h.size:
            raise ValueError("provenance length mismatch")

    def __len__(self) -> int:
        return int(self.h.size)


def close_points() -> np.ndarray:
    """The two near-main-lobe offsets, ascending."""
    return np.array([0.001 * math.pi, 0.01 * math.pi])


def _golden_max(f, a: float, b: float, tol: float = 1e-8) -> float:
    """Golden-section search for the maximizer of f on [a, b]."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def sidelobe_points(K: int, grid_step: float | None = None) -> np.ndarray:
    """Positive-valued side-lobe peak locations of D(h) = sum cos(h k) on (0, pi].

    Fine-grid scan beyond the first null at 2 pi / K, then golden-section
    refinement of each bracketed local maximum to 1e-8 rad.
    """
    if K < 2:
        raise DomainError(f"no side lobes exist for K < 2, got K={K}")
    if grid_step is None:
        grid_step = math.pi / (64 * K)
    first_null = 2.0 * math.pi / K
    if first_null >= math.pi:  # K = 2: the main lobe fills (0, pi]
        return np.empty(0)
    grid = np.arange(first_null + grid_step, math.pi + 0.5 * grid_step, grid_step)
    grid[-1] = math.pi
    vals = dirichlet_kernel(grid, K)

    def d(h: float) -> float:
        return dirichlet_kernel(h, K)

    peaks = []
    for i in range(1, len(grid) - 1):
        if vals[i] >= vals[i - 1] and vals[i] > vals[i + 1]:
            peak = _golden_max(d, grid[i - 1], grid[i + 1])
            if d(peak) > 0.0:
                peaks.append(min(peak, math.pi))
    # a lobe can peak exactly at the pi boundary (odd K)
    if vals[-1] > vals[-2] and vals[-1] > 0.0:
        peak = _golden_max(d, grid[-2], math.pi)
        if math.pi - peak < 2.0 * grid_step:
            peak = math.pi if d(math.pi) >= d(peak) else peak
        peaks.append(peak)
    return np.array(sorted(peaks))


def even_points(n: int) -> np.ndarray:
    """n points linearly spaced on [0.1 pi, pi], endpoints included."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return np.array([0.1 * math.pi])
    return np.linspace(0.1 * math.pi, math.pi, n)


def build(config: TestPointConfig, K: int) -> TestPointSet:
    """Assemble the (C, S, E) test-point set for K samples, sorted and deduplicated."""
    entries: list[tuple[float, str]] = []
    if config.c_count:
        for h in close_points()[: config.c_count]:
            entries.append((float(h), "C"))
    if config.s_count:
        lobes = sidelobe_points(K)
        if config.s_count > lobes.size:
            raise ValueError(
                f"requested {config.s_count} side-lobe points but only "
                f"{lobes.size} exist for K={K}"
            )
        for h in lobes[: config.s_count]:
            entries.append((float(h), "S"))
    if config.e_count:
        for h in even_points(config.e_count):
            entries.append((float(h), "E"))

    entries.sort(key=lambda e: e[0])
    kept: list[tuple[float, str]] = []
    for h, tag in entries:
        if kept and h - kept[-1][0] < DEDUP_TOL:
            continue
        kept.append((h, tag))
    return TestPointSet(
        h=np.array([h for h, _ in kept]),
        provenance=tuple(tag for _, tag in kept),
    )
