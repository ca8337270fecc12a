"""Analytic Weiss-Weinstein-type lower bound for circular frequency estimation.

The four score products are laid out once, as (weights, offsets) in
`_products`; their closed-form data exponents (Dirichlet-kernel sums) and
their prior-only log integrals over the von Mises support derive from that
table. The exponents of Q are snr * core + gamma: the data cores and the prior
log-integrals gamma are computed once per pool of test-point sets and
exponent s, as arrays. `wwb_axis` takes the sets of one K; their pool is the
union of their offsets, and each set is a boolean mask of it (`_union`). It
forms the correlation matrices of Q in the exponent at every (s, SNR) of its
grid once, slices out each set by its mask and eliminates the set's matrices
as one stack, which drops the points of singular pivots; the bound
h Q^{-1} h^T sits on that stack. `best_s` picks the maximizing s at one SNR,
and `wwb_value` is the bound of one set at s = 0.5 and one SNR.

Under an even prior (kappa = 0, or mu = 0 or +-pi) the mirror theta -> -theta
maps product t at s onto product 3 - t at 1 - s, and the single-point
normalizers at s onto those at 1 - s, so the bound at s equals the bound at
1 - s (Van Trees & Bell, 2007; Renaux et al., IEEE TSP 56(11), 2008).
`wwb_axis` then solves each mirror pair of its grid once, and `_set_parts`
integrates only products 0 and 1 at s = 1/2, its own mirror.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .numerics import _MAX_START, QuadratureError, dirichlet_kernel, integrate, inverse_form
from .prior import VonMisesPrior
from .signal_model import SignalConfig
from .testpoints import TestPointSet

__all__ = ["WwbResult", "wwb_axis", "wwb_value", "best_s"]

# a bound below the smallest normal double has lost digits or is 0
_TINY = float(np.finfo(float).tiny)
# exponents whose sum is within this of 1 are a mirror pair: a few ulps, so
# that 0.1 pairs with the 0.9000000000000001 of np.arange(0.05, 1.0, 0.05)
_MIRROR_TOL = 4.0 * float(np.finfo(float).eps)


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


def _log_integrals(prior: VonMisesPrior, z, lo, hi) -> np.ndarray:
    """ln of the integral over [lo, hi] of exp(kappa Re(z e^{i(theta - mu)})) / (2 pi I0), per entry.

    A flat array, -inf on empty intervals. The exponent kappa |z| cos(theta - mu
    + arg z) takes one cosine per node; its maximum over the interval is
    factored out for stability at large kappa. Each integral starts from
    half the panels its length and curvature ask for, ceil(4 + L sqrt(amp))
    with amp = kappa |z|, so its first doubling reaches them; the start is
    capped at _MAX_START, which leaves doublings below `integrate`'s ceiling.
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
    start = np.minimum(np.ceil(0.5 * (4.0 + (hi - lo) * np.sqrt(amp))), _MAX_START)

    def f(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # in place, so a pass holds few node-sized temporaries
        x = np.cos(theta + phase[rows])
        x *= amp[rows]
        x -= shift[rows]
        return np.exp(x, out=x)

    sums = integrate(f, lo, hi, start.astype(int))
    if not np.all(sums > 0.0):
        i = np.argmin(sums > 0.0)
        raise QuadratureError(f"integral on [{lo[i]}, {hi[i]}] underflows at every quadrature "
                              "node: its peak is narrower than the node spacing")
    out[live] = shift + np.log(sums) - prior.log_norm
    return out


def _even(prior: VonMisesPrior) -> bool:
    """Whether the prior density is even in theta, so the bound is symmetric in s about 1/2."""
    return prior.kappa == 0.0 or abs(prior.mu) in (0.0, math.pi)


# the last set's parts are kept: `wwb_value` along an SNR axis reuses them
@lru_cache(maxsize=1)
def _set_parts(
    K: int, h: tuple[float, ...], s: float, prior: VonMisesPrior
) -> tuple[np.ndarray, np.ndarray]:
    """SNR-free parts (core, gamma), each 4 x r x r, of the score matrix of the
    ascending points `h`.

    Product t of entry (a, b) has the exponent snr * core[t, a, b] + gamma[t, a, b]
    relative to the normalizers of h[a] and h[b]. The arrays are shared, read-only.
    At s = 1/2 under an even prior, products 3 and 2 are the mirror images of
    products 0 and 1, whose prior integrals they take: only those two are integrated.
    """
    hv = np.array(h)
    r = hv.size
    a, b = np.triu_indices(r)
    n = a.size
    # the n entries in canonical order h_i >= h_j (a <= b, and h ascends),
    # then the r single-point normalizers, the first product with s_j = 0
    h_i = np.concatenate([hv[b], hv])
    h_j = np.concatenate([hv[a], hv])
    s_j = np.concatenate([np.full(n, s), np.zeros(r)])
    w, o = _products(s, s_j, h_i, h_j)
    cores = _cores(w, o, K)
    # the products integrated: 2 at a mirror-symmetric s = 1/2
    integrated = 2 if s == 0.5 and _even(prior) else 4
    supports = (np.concatenate([x[:integrated, :n].ravel(), x[0, n:]]) for x in _supports(w, o))
    logs = _log_integrals(prior, *supports)
    gamma = logs[:integrated * n].reshape(integrated, n)
    if integrated == 2:
        gamma = gamma[[0, 1, 1, 0]]
    parts = []
    for entries, norm in ((cores[:, :n], cores[0, n:]), (gamma, logs[integrated * n:])):
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


def _union(sets: list[TestPointSet]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The pool of the test-point sets, their offsets sorted with each value
    once, and a boolean mask of each set's offsets in it. The masks come from
    a binary search: np.unique and np.isin import numpy.ma."""
    h = np.sort(np.concatenate([points.h for points in sets]))
    pool = h[np.diff(h, prepend=-np.inf) > 0.0]
    masks = [np.zeros(pool.size, dtype=bool) for _ in sets]
    for mask, points in zip(masks, sets):
        mask[np.searchsorted(pool, points.h)] = True
    return pool, masks


def _representatives(s_grid: list[float], prior: VonMisesPrior) -> list[int]:
    """The index of the exponent each s of the grid is solved at: under an
    even prior, the smaller s of a mirror pair whose sum is 1 within
    _MIRROR_TOL, else its own."""
    reps = list(range(len(s_grid)))
    if _even(prior):
        solved = []
        for k in sorted(reps, key=s_grid.__getitem__):
            reps[k] = next((j for j in solved if abs(s_grid[j] + s_grid[k] - 1.0) <= _MIRROR_TOL), k)
            if reps[k] == k:
                solved.append(k)
    return reps


def wwb_axis(
    prior: VonMisesPrior, K: int, sets: list[TestPointSet], snr, s_grid
) -> list[list[list[WwbResult | RuntimeError]]]:
    """The bound h Q^{-1} h^T of each fixed test-point set of the sequence
    `sets` at every exponent of `s_grid` and every linear SNR of the
    sequence `snr`, each finite and >= 0 (0 gives the prior-only bound):
    per set, per s, a list over SNR of the result or the error that point
    fails with.

    The bound is solved as g C^{-1} g^T, with C the correlation matrix of Q
    and g_a = h_a / sqrt(Q_aa). C and g are built once per s for the pool,
    the union of the sets' offsets (`_union`); a set takes the rows and
    columns of its mask, which are its own C and g, and one elimination runs
    over the stack of all its (s, SNR). Near-duplicate or redundant test points
    make C numerically singular; each matrix drops the points whose pivots
    fail, as if their rows and columns were deleted, and records them in
    its result. A point holds a RuntimeError when every test point drops or
    the bound underflows; an s whose score matrix cannot be built, for
    instance because its quadrature does not converge, holds its error at
    every SNR. When the pool fails at some s, each set that is not the
    whole pool is built alone over the whole grid, so that it holds the
    error it fails with on its own.

    Under an even prior, each mirror pair s, 1 - s of the grid is built,
    combined and eliminated once, at its smaller s (`_representatives`);
    the partner's outcomes are made from the representative's values with
    its own s, so its value, dropped points and errors are the representative's.
    """
    s_grid = list(s_grid)
    if not s_grid or any(not (0.0 < s < 1.0) for s in s_grid):
        raise ValueError("s_grid must be non-empty with all values in (0, 1)")
    snr = np.asarray(snr, dtype=float)
    if not np.all((snr >= 0.0) & (snr < np.inf)):
        raise ValueError(f"snr must be finite and >= 0, got {snr.tolist()}")
    if not sets:
        return []

    pool, masks = _union(sets)
    reps = _representatives(s_grid, prior)
    solved, stacks, failed = [], [], {}
    for k in sorted(set(reps)):
        try:
            stacks.append(_combine(*_set_parts(K, tuple(pool.tolist()), s_grid[k], prior), snr))
        except RuntimeError as err:
            failed[k] = err
        else:
            solved.append(k)
    if solved:
        c, half = (np.concatenate(parts) for parts in zip(*stacks))
        g = pool * np.exp(-half)
    out = []
    for points, mask in zip(sets, masks):
        if failed and not mask.all():  # built alone, to fail as it does alone
            out.append(wwb_axis(prior, K, [points], snr, s_grid)[0])
            continue
        at = {}
        if solved:
            values, kept = inverse_form(c[:, mask][:, :, mask], g[:, mask])
            at = dict(zip(solved, zip(values.reshape(len(solved), snr.size).tolist(),
                                      kept.reshape(len(solved), snr.size, -1).tolist())))
        out.append([[failed[rep]] * snr.size if rep in failed
                    else [_outcome(s, *pair) for pair in zip(*at[rep])]
                    for s, rep in zip(s_grid, reps)])
    return out


def wwb_value(prior: VonMisesPrior, config: SignalConfig, points: TestPointSet) -> WwbResult:
    """The bound h Q^{-1} h^T for a fixed test-point set: `wwb_axis` at
    s = 0.5 and the one SNR of `config`, with its error raised."""
    (((res,),),) = wwb_axis(prior, config.K, [points], [config.snr], [0.5])
    if isinstance(res, Exception):
        raise res
    return res


def best_s(s_grid, outcomes) -> WwbResult | RuntimeError:
    """Of the outcomes at one SNR, one per exponent of `s_grid`, the result
    that maximizes the bound, or the RuntimeError of every s failing.

    Ties are broken toward s = 0.5, then toward smaller s; under an even
    prior the two s of a mirror pair tie exactly, so the smaller wins. The
    failing exponents are recorded with their messages in the result's
    `s_failed`.
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
