"""Construction of the bound's test-point vector.

Three families of positive frequency offsets: 'C' points hugging the main
lobe, 'S' points at the positive side-lobe peaks of the K-sample coherent-sum
pattern, and 'E' points evenly spaced across [0.1 pi, pi]. The side-lobe
peaks come from one golden-section search whose lanes are the lobes, a lobe
peaking at pi included; each lane takes the steps of a scalar search. A set
holds only offsets and their provenance: the bound's other hyperparameter,
the exponent s, is an argument of `wwb.wwb_axis`, which evaluates the sets
of one K over a whole (s, SNR) grid as masks of one pool, their union.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import dirichlet_kernel

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
_GOLDEN_TOL = 1e-8  # width at which a golden-section bracket stops
_SCAN_POINTS = 64  # side-lobe scan points per pi / K


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


@dataclass(frozen=True, eq=False)
class TestPointSet:
    """Strictly increasing offsets in (0, pi] with per-point provenance tags.

    `h` is stored as a read-only float64 copy of the offsets given. Sets
    compare and hash by identity, as an array field cannot by value.
    """

    h: np.ndarray
    provenance: tuple[str, ...]

    def __post_init__(self):
        h = np.array(self.h, dtype=float)
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        if h.size == 0:
            raise ValueError("empty test point set")
        if not np.all((h > 0.0) & (h <= math.pi)):  # NaN fails both comparisons
            raise ValueError("test points must be finite and lie in (0, pi]")
        if np.any(np.diff(h) <= 0.0):
            raise ValueError("test points must be strictly increasing")
        if len(self.provenance) != h.size:
            raise ValueError("provenance length mismatch")

    def __len__(self) -> int:
        return int(self.h.size)


def close_points() -> np.ndarray:
    """The two near-main-lobe offsets, ascending."""
    return np.array([0.001 * math.pi, 0.01 * math.pi])


def _golden_max(f, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Golden-section search for the maximizer of f on every bracket [a, b] at once.

    Each lane takes exactly the steps of a scalar search, with one call of f on
    all lanes per step. Only a and b stop once a lane is no wider than _GOLDEN_TOL:
    whether a lane still searches depends on b - a alone, so a finished lane's
    probes may move on without effect.
    """
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = np.split(f(np.concatenate([x1, x2])), 2)
    live = b - a > _GOLDEN_TOL
    while live.any():
        up = f1 < f2
        a = np.where(live & up, x1, a)
        b = np.where(live & ~up, x2, b)
        x1, x2 = np.where(up, x2, b - _GOLDEN * (b - a)), np.where(up, a + _GOLDEN * (b - a), x1)
        fx = f(np.where(up, x2, x1))
        f1, f2 = np.where(up, f2, fx), np.where(up, fx, f1)
        live = b - a > _GOLDEN_TOL
    return 0.5 * (a + b)


# the last K's peaks are kept: a sweep builds every trio of one K in a row
@lru_cache(maxsize=1)
def sidelobe_points(K: int) -> np.ndarray:
    """Positive-valued side-lobe peak locations of D(h) = sum cos(h k) on (0, pi].

    Fine-grid scan beyond the first null at 2 pi / K, then one golden-section
    search that refines the bracket of every grid maximum to 1e-8 rad. The
    last grid point, pi, is one more lane when D still rises into it (a lobe
    of odd K peaks there): that lane keeps pi unless the search beat it.
    The array is shared, read-only.
    """
    if K < 2:
        raise ValueError(f"no side lobes exist for K < 2, got K={K}")
    step = math.pi / (_SCAN_POINTS * K)
    first_null = 2.0 * math.pi / K
    if first_null >= math.pi:  # K = 2: the main lobe fills (0, pi]
        return _read_only(np.empty(0))
    grid = np.arange(first_null + step, math.pi + 0.5 * step, step)
    grid[-1] = math.pi
    vals = dirichlet_kernel(grid, K)
    last = grid.size - 1
    i = 1 + np.flatnonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] > vals[2:]))
    if vals[-1] > vals[-2]:
        i = np.append(i, last)
    peak = _golden_max(lambda h: dirichlet_kernel(h, K), grid[i - 1], grid[np.minimum(i + 1, last)])
    d_peak = dirichlet_kernel(peak, K)
    at_pi = i == last
    peak = np.where(at_pi & (vals[-1] >= d_peak), math.pi, peak)
    return _read_only(np.sort(peak[np.where(at_pi, vals[-1], d_peak) > 0.0]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def even_points(n: int) -> np.ndarray:
    """n points linearly spaced on [0.1 pi, pi], endpoints included (0.1 pi alone for n = 1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return np.linspace(0.1 * math.pi, math.pi, n)


def build(config: TestPointConfig, K: int) -> TestPointSet:
    """Assemble the (C, S, E) test-point set for K samples, sorted and deduplicated.

    The sort is stable, so of equal offsets the C point, then the S point, is
    kept; a point closer than DEDUP_TOL to the last kept one is dropped.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got K={K}")
    lobes = sidelobe_points(K) if config.s_count else np.empty(0)
    if config.s_count > lobes.size:
        raise ValueError(
            f"requested {config.s_count} side-lobe points but only "
            f"{lobes.size} exist for K={K}"
        )
    evens = even_points(config.e_count) if config.e_count else np.empty(0)
    entries = sorted(
        [(h, "C") for h in close_points()[: config.c_count].tolist()]
        + [(h, "S") for h in lobes[: config.s_count].tolist()]
        + [(h, "E") for h in evens.tolist()],
        key=lambda e: e[0],
    )
    kept = entries[:1]
    for h, tag in entries[1:]:
        if h - kept[-1][0] >= DEDUP_TOL:
            kept.append((h, tag))
    return TestPointSet(h=np.array([h for h, _ in kept]), provenance=tuple(tag for _, tag in kept))
