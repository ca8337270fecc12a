"""Analytic Weiss-Weinstein-type lower bound for circular frequency estimation.

The four score products are laid out once, as (weights, offsets) in
`_products`; their closed-form data exponents (Dirichlet-kernel sums) and
their prior-only log integrals over the von Mises support derive from that
table. The exponents of Q are snr * core + gamma: the data cores and the prior
log-integrals gamma are computed once per test-point set and exponent s, as
arrays. `wwb_axis` forms the correlation matrices of Q in the exponent at
every (s, SNR) of its grid and eliminates them as one stack, which drops the
points of singular pivots; the bound h Q^{-1} h^T sits on that stack.
`best_s` picks the maximizing s at one SNR, and `wwb_value` is the bound at
s = 0.5 and one SNR.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .numerics import (
    DEFAULT_QUAD,
    QuadratureError,
    QuadratureSpec,
    dirichlet_kernel,
    integrate,
    inverse_form,
)
from .prior import VonMisesPrior
from .signal_model import SignalConfig
from .testpoints import TestPointSet

__all__ = ["WwbResult", "wwb_axis", "wwb_value", "best_s"]

# test-point sets whose SNR-free parts are kept; a sweep revisits the few
# sets of its current (kappa, mu) at every SNR
_SET_CACHE_SIZE = 64
# a bound below the smallest normal double has lost digits or is 0
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class WwbResult:
    mse_bound: float
    s: float
    dropped_points: tuple[int, ...]
    # (s, message) for every exponent of a `best_s` grid that failed
    s_failed: tuple[tuple[float, str], ...] = ()


def _products(s_i, s_j, h_i, h_j) -> tuple[np.ndarray, np.ndarray]:
    """Weights w and offsets o, each 4 x 3 x ..., of the four score products.

    Product t is the expectation of prod_l p(x, theta + o[t, l])^{w[t, l]} over
    x and theta, with weights summing to 1 (Van Trees & Bell, Bayesian Bounds,
    2007). Arguments broadcast. With s_j = 0 the first product is the
    single-point normalizer of h_i.
    """
    s_i, s_j, h_i, h_j = np.broadcast_arrays(s_i, s_j, h_i, h_j)
    zero = np.zeros(h_i.shape)
    w = np.array([[1.0 - s_i - s_j, s_i, s_j], [s_i - s_j, s_j, 1.0 - s_i],
                  [s_j - s_i, s_i, 1.0 - s_j], [s_i + s_j - 1.0, 1.0 - s_i, 1.0 - s_j]])
    o = np.array([[zero, h_i, h_j], [zero, h_j, -h_i], [zero, h_i, -h_j], [zero, -h_i, -h_j]])
    return w, o


def _cores(w: np.ndarray, o: np.ndarray, K: int) -> np.ndarray:
    """Data exponents at snr = 1 of `_products` rows: -2 sum_{l<m} w_l w_m (K - D(o_l - o_m))."""
    pairs = ((0, 1), (0, 2), (1, 2))
    d = dirichlet_kernel(np.stack([o[:, l] - o[:, m] for l, m in pairs]), K)
    return -2.0 * sum(w[:, l] * w[:, m] * (K - d[p]) for p, (l, m) in enumerate(pairs))


def _supports(w: np.ndarray, o: np.ndarray):
    """Prior integrals of `_products` rows as (z, lo, hi).

    Product t integrates exp(kappa Re(z_t e^{i(theta - mu)})) over [lo_t, hi_t]:
    z_t = sum_l w_l e^{i o_l}, and the limits are the set where every shifted
    argument theta + o_l stays inside [-pi, pi].
    """
    z = np.sum(w * np.exp(1j * o), axis=1)
    return z, -math.pi - np.min(o, axis=1), math.pi - np.max(o, axis=1)


def _log_integrals(prior: VonMisesPrior, z, lo, hi, quad: QuadratureSpec) -> np.ndarray:
    """ln of the integral over [lo, hi] of exp(kappa Re(z e^{i(theta - mu)})) / (2 pi I0), per entry.

    A flat array, -inf on empty intervals. The exponent kappa |z| cos(theta - mu
    + arg z) takes one cosine per node; its maximum over the interval is
    factored out for stability at large kappa. Each integral starts from
    half the panels its length and curvature ask for, ceil(4 + L sqrt(amp))
    with amp = kappa |z|, so its first doubling reaches them; the start is
    capped at 8 node_count, the most panels a start at node_count reaches.
    The scaled integrand peaks at exactly 1 on its interval, so a zero sum
    means every node missed the peak: that raises QuadratureError.
    """
    z, lo, hi = np.ravel(z), np.ravel(lo), np.ravel(hi)
    out = np.full(z.shape, -np.inf)
    live = lo < hi
    z, lo, hi = z[live], lo[live], hi[live]
    amp = prior.kappa * np.abs(z)
    phase = np.angle(z) - prior.mu
    # the cosine peaks where theta + phase is a multiple of 2 pi
    x_lo, x_hi = lo + phase, hi + phase
    peak_inside = 2.0 * math.pi * np.ceil(x_lo / (2.0 * math.pi)) <= x_hi
    shift = amp * np.where(peak_inside, 1.0, np.maximum(np.cos(x_lo), np.cos(x_hi)))
    start = np.minimum(np.ceil(0.5 * (4.0 + (hi - lo) * np.sqrt(amp))), 8 * quad.node_count)

    def f(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # in place, so a pass holds few node-sized temporaries
        x = np.cos(theta + phase[rows])
        x *= amp[rows]
        x -= shift[rows]
        return np.exp(x, out=x)

    sums = integrate(f, lo, hi, quad, start.astype(int))
    if not np.all(sums > 0.0):
        i = np.argmin(sums > 0.0)
        raise QuadratureError(f"integral on [{lo[i]}, {hi[i]}] underflows at every quadrature "
                              "node: its peak is narrower than the node spacing")
    out[live] = shift + np.log(sums) - prior.log_norm
    return out


def _product_exponents(
    prior: VonMisesPrior, K: int, s_i, s_j, h_i, h_j, quad: QuadratureSpec = DEFAULT_QUAD
) -> tuple[np.ndarray, np.ndarray]:
    """Data cores at snr = 1 and prior log-integrals, each of shape (4,), of the
    four score products at one (s_i, s_j, h_i, h_j), before normalization."""
    w, o = _products(s_i, s_j, h_i, h_j)
    return _cores(w, o, K), _log_integrals(prior, *_supports(w, o), quad)


@lru_cache(maxsize=_SET_CACHE_SIZE)
def _set_parts(
    K: int, h: tuple[float, ...], s: float, prior: VonMisesPrior, quad: QuadratureSpec
) -> tuple[np.ndarray, np.ndarray]:
    """SNR-free parts (core, gamma), each 4 x r x r, of the score matrix of the points `h`.

    Product t of entry (a, b) has the exponent snr * core[t, a, b] + gamma[t, a, b]
    relative to the normalizers of h[a] and h[b]. The arrays are shared, read-only.
    """
    hv = np.array(h)
    r = hv.size
    a, b = np.triu_indices(r)
    n = a.size
    # the n entries in canonical order h_i >= h_j, then the r single-point
    # normalizers, which are the first product with s_j = 0
    h_i = np.concatenate([np.maximum(hv[a], hv[b]), hv])
    h_j = np.concatenate([np.minimum(hv[a], hv[b]), hv])
    s_j = np.concatenate([np.full(n, s), np.zeros(r)])
    w, o = _products(s, s_j, h_i, h_j)
    cores = _cores(w, o, K)
    supports = (np.concatenate([x[:, :n].ravel(), x[0, n:]]) for x in _supports(w, o))
    logs = _log_integrals(prior, *supports, quad)
    parts = []
    for entries, norm in ((cores[:, :n], cores[0, n:]), (logs[:4 * n].reshape(4, n), logs[4 * n:])):
        full = np.empty((4, r, r))
        full[:, a, b] = full[:, b, a] = entries - (norm[a] + norm[b])
        full.setflags(write=False)
        parts.append(full)
    return parts[0], parts[1]


def _combine(core: np.ndarray, gamma: np.ndarray, snr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Correlation matrices C, a stack (n, r, r), and half log-diagonals, (n, r),
    of the score matrices whose four products have the exponents
    snr * core + gamma at each of the n SNRs.

    Q_ab = C_ab exp(half_a + half_b) with half_a = 1/2 log Q_aa. The products
    enter with signs +, -, -, + and share a factored-out maximum m, and C_ab
    takes the exponent m - (half_a + half_b): |C_ab| <= 1, so nothing
    overflows even when the exponents scale like K * SNR. An entry whose
    products all have empty support is 0; a non-positive diagonal entry
    leaves a NaN on C's diagonal.
    """
    e = snr[:, None, None, None] * core + gamma
    m = np.max(e, axis=1)
    t = np.exp(e - np.where(m > -np.inf, m, 0.0)[:, None])
    diff = t[:, 0] - t[:, 1] - t[:, 2] + t[:, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        half = 0.5 * (np.diagonal(m, axis1=1, axis2=2)
                      + np.log(np.diagonal(diff, axis1=1, axis2=2)))
        c = np.exp(m - (half[:, :, None] + half[:, None, :])) * diff
    return c, half


def _outcome(s: float, bound: float, keep: list[bool]) -> WwbResult | RuntimeError:
    """The result at exponent s of a bound over the kept points, or the error it fails with."""
    dropped = tuple(i for i, kept_i in enumerate(keep) if not kept_i)
    if len(dropped) == len(keep):
        return RuntimeError("all test points dropped; bound undefined")
    if not bound >= _TINY:
        return RuntimeError(f"bound value {bound:.3g} underflows double precision")
    return WwbResult(mse_bound=bound, s=s, dropped_points=dropped)


def wwb_axis(
    prior: VonMisesPrior,
    K: int,
    points: TestPointSet,
    snr,
    s_grid,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> list[list[WwbResult | RuntimeError]]:
    """The bound h Q^{-1} h^T of a fixed test-point set at every exponent of
    `s_grid` and every linear SNR of the sequence `snr`: per s, a list over
    SNR of the result or the error that point fails with.

    The bound is solved as g C^{-1} g^T, with C the correlation matrix of Q
    and g_a = h_a / sqrt(Q_aa), by one elimination over the stack of every
    (s, SNR). Near-duplicate or redundant test points make C numerically
    singular; each matrix drops the points whose pivots fail, as if their
    rows and columns were deleted, and records them in its result. A point
    holds a RuntimeError when every test point drops or the bound
    underflows; an s whose score matrix cannot be built, for instance
    because its quadrature does not converge, holds its error at every SNR.
    """
    s_grid = list(s_grid)
    if not s_grid or any(not (0.0 < s < 1.0) for s in s_grid):
        raise ValueError("s_grid must be non-empty with all values in (0, 1)")
    snr = np.asarray(snr, dtype=float)
    h = tuple(points.h.tolist())
    stacks, failed = [], {}
    for s in s_grid:
        try:
            stacks.append(_combine(*_set_parts(K, h, s, prior, quad), snr))
        except RuntimeError as err:
            failed[s] = err
    if stacks:
        c, half = (np.concatenate(parts) for parts in zip(*stacks))
        values, kept = inverse_form(c, points.h * np.exp(-half))
        solved = iter(zip(values.tolist(), kept.tolist()))
    return [[failed[s]] * snr.size if s in failed else [_outcome(s, *next(solved)) for _ in snr]
            for s in s_grid]


def wwb_value(
    prior: VonMisesPrior,
    config: SignalConfig,
    points: TestPointSet,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> WwbResult:
    """The bound h Q^{-1} h^T for a fixed test-point set: `wwb_axis` at
    s = 0.5 and the one SNR of `config`, with its error raised."""
    ((res,),) = wwb_axis(prior, config.K, points, [config.snr], [0.5], quad)
    if isinstance(res, Exception):
        raise res
    return res


def best_s(s_grid, outcomes) -> WwbResult | RuntimeError:
    """Of the outcomes at one SNR, one per exponent of `s_grid`, the result
    that maximizes the bound, or the RuntimeError of every s failing.

    Ties are broken toward s = 0.5, then toward smaller s. The failing
    exponents are recorded with their messages in the result's `s_failed`.
    """
    results = [r for r in outcomes if isinstance(r, WwbResult)]
    failed = tuple((s, str(r)) for s, r in zip(s_grid, outcomes) if not isinstance(r, WwbResult))
    if not results:
        return RuntimeError(
            "bound evaluation failed at every s grid point: "
            + "; ".join(f"s={s}: {msg}" for s, msg in failed)
        )
    best_val = max(r.mse_bound for r in results)
    tied = [r for r in results if r.mse_bound >= best_val * (1.0 - 1e-12)]
    # the distance is rounded, so that 0.3 and 0.7 lie equally far from 0.5
    best = min(tied, key=lambda r: (round(abs(r.s - 0.5), 12), r.s))
    return replace(best, s_failed=failed)
