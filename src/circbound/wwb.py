"""Analytic Weiss-Weinstein-type lower bound for circular frequency estimation.

Closed-form data exponents (Dirichlet-kernel combinations), prior-only log
integrals over the von Mises support, assembly of the score matrix, the
scalar bound h Q^{-1} h^T, and the grid search over the shared exponent s.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import (
    DEFAULT_QUAD,
    QuadratureSpec,
    SingularMatrixError,
    dirichlet_kernel,
    integrate,
    spd_solve,
)
from .prior import VonMisesPrior
from .signal_model import SignalConfig
from .testpoints import TestPointSet

__all__ = [
    "QMatrix",
    "WwbResult",
    "mu_i",
    "gamma_i",
    "mu_cross",
    "gamma_cross",
    "q_element",
    "build_q",
    "wwb_value",
    "optimize_s",
    "DEFAULT_S_GRID",
]

DEFAULT_S_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))

# largest residual exponent tolerated after factoring out the maximum;
# beyond this exp() overflows double precision
_EXP_LIMIT = 700.0


@dataclass(frozen=True)
class QMatrix:
    """Symmetric score matrix with its test-point row vector and shared exponent."""

    q: np.ndarray
    h: np.ndarray
    s: float


@dataclass(frozen=True)
class WwbResult:
    mse_bound: float
    db: float
    dropped_points: tuple[int, ...]


def mu_i(s: float, h: float, K: int, snr: float) -> float:
    """Data exponent of the single-point normalizer: -s(1-s) 2K SNR (1 - D(h)/K)."""
    return -s * (1.0 - s) * 2.0 * K * snr * (1.0 - dirichlet_kernel(h, K) / K)


def _vm_log_integral(
    kappa: float,
    mu: float,
    coeffs: tuple[tuple[float, float], ...],
    lo: float,
    hi: float,
    quad: QuadratureSpec,
) -> float:
    """ln of integral over [lo, hi] of exp(kappa * sum_c c * cos(theta + off - mu)) / (2 pi I0).

    `coeffs` is a tuple of (weight, offset) pairs. Returns -inf on an empty
    interval. The overall exponent maximum is factored out for stability at
    large kappa.
    """
    if hi <= lo:
        return -math.inf
    from .numerics import bessel_i0

    log_norm = math.log(2.0 * math.pi * bessel_i0(kappa))

    def exponent(theta: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(theta)
        for w, off in coeffs:
            acc += w * np.cos(theta + off - mu)
        return kappa * acc

    # probe the exponent on a coarse grid to find a stable shift
    probe = np.linspace(lo, hi, 257)
    shift = float(np.max(exponent(probe)))

    def f(theta: np.ndarray) -> np.ndarray:
        return np.exp(exponent(theta) - shift)

    val = integrate(f, lo, hi, quad)
    return shift - log_norm + math.log(val)


@lru_cache(maxsize=200_000)
def _gamma_i_cached(
    kappa: float, mu: float, s: float, h: float, node_count: int, rel_tol: float
) -> float:
    quad = QuadratureSpec(node_count=node_count, rel_tol=rel_tol)
    coeffs = ((1.0 - s, 0.0), (s, h))
    return _vm_log_integral(kappa, mu, coeffs, -math.pi, math.pi - h, quad)


def gamma_i(prior: VonMisesPrior, s: float, h: float, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Prior exponent of the single-point normalizer (log integral over [-pi, pi-h])."""
    return _gamma_i_cached(prior.kappa, prior.mu, s, h, quad.node_count, quad.rel_tol)


def mu_cross(term: int, s_i: float, s_j: float, h_i: float, h_j: float, K: int, snr: float) -> float:
    """Data exponent of the four score-product expectations; requires h_i >= h_j."""
    if h_i < h_j:
        raise ValueError("canonical ordering requires h_i >= h_j")
    d = lambda h: dirichlet_kernel(h, K)
    if term == 1:
        core = (
            K * ((s_i + s_j - 1.0) ** 2 + s_i**2 + s_j**2 - 1.0)
            + 2.0 * s_i * s_j * d(h_i - h_j)
            - 2.0 * (s_i + s_j - 1.0) * s_i * d(h_i)
            - 2.0 * (s_i + s_j - 1.0) * s_j * d(h_j)
        )
    elif term == 2:
        core = (
            K * (s_j**2 + (s_i - 1.0) ** 2 + (s_i - s_j) ** 2 - 1.0)
            - 2.0 * s_j * (s_i - 1.0) * d(h_i + h_j)
            + 2.0 * s_j * (s_i - s_j) * d(h_j)
            - 2.0 * (s_i - 1.0) * (s_i - s_j) * d(h_i)
        )
    elif term == 3:
        core = (
            K * (s_i**2 + (s_j - 1.0) ** 2 + (s_i - s_j) ** 2 - 1.0)
            - 2.0 * s_i * (s_j - 1.0) * d(h_i + h_j)
            + 2.0 * s_i * (s_j - s_i) * d(h_i)
            - 2.0 * (s_j - 1.0) * (s_j - s_i) * d(h_j)
        )
    elif term == 4:
        core = (
            K * ((s_i + s_j - 1.0) ** 2 + (s_i - 1.0) ** 2 + (s_j - 1.0) ** 2 - 1.0)
            - 2.0 * (s_i + s_j - 1.0) * (s_i - 1.0) * d(h_i)
            - 2.0 * (s_i + s_j - 1.0) * (s_j - 1.0) * d(h_j)
            + 2.0 * (s_i - 1.0) * (s_j - 1.0) * d(h_i - h_j)
        )
    else:
        raise ValueError(f"term must be 1..4, got {term}")
    return snr * core


# support-rule integration limits and cosine-weight layouts for the four
# prior-only integrals; entries are (weight_expr, offset_expr) pairs
def _gamma_cross_coeffs(term: int, s_i: float, s_j: float, h_i: float, h_j: float):
    if term == 1:
        coeffs = ((1.0 - s_i - s_j, 0.0), (s_i, h_i), (s_j, h_j))
        lo, hi = -math.pi, math.pi - h_i
    elif term == 2:
        coeffs = ((s_i - s_j, 0.0), (s_j, h_j), (1.0 - s_i, -h_i))
        lo, hi = -math.pi + h_i, math.pi - h_j
    elif term == 3:
        coeffs = ((s_j - s_i, 0.0), (s_i, h_i), (1.0 - s_j, -h_j))
        lo, hi = -math.pi + h_j, math.pi - h_i
    elif term == 4:
        coeffs = ((s_i + s_j - 1.0, 0.0), (1.0 - s_i, -h_i), (1.0 - s_j, -h_j))
        lo, hi = -math.pi + h_i, math.pi
    else:
        raise ValueError(f"term must be 1..4, got {term}")
    return coeffs, lo, hi


@lru_cache(maxsize=200_000)
def _gamma_cross_cached(
    kappa: float,
    mu: float,
    term: int,
    s_i: float,
    s_j: float,
    h_i: float,
    h_j: float,
    node_count: int,
    rel_tol: float,
) -> float:
    quad = QuadratureSpec(node_count=node_count, rel_tol=rel_tol)
    coeffs, lo, hi = _gamma_cross_coeffs(term, s_i, s_j, h_i, h_j)
    return _vm_log_integral(kappa, mu, coeffs, lo, hi, quad)


def gamma_cross(
    term: int,
    prior: VonMisesPrior,
    s_i: float,
    s_j: float,
    h_i: float,
    h_j: float,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Log of the prior-only integral for one of the four score products.

    Integration limits follow the support rule: the integrand contains shifted
    densities and the limits are exactly the set where every shifted argument
    stays inside [-pi, pi]. Requires h_i >= h_j. Returns -inf when the support
    interval is empty.
    """
    if h_i < h_j:
        raise ValueError("canonical ordering requires h_i >= h_j")
    return _gamma_cross_cached(
        prior.kappa, prior.mu, term, s_i, s_j, h_i, h_j, quad.node_count, quad.rel_tol
    )


def q_element(
    h_a: float,
    h_b: float,
    s: float,
    prior: VonMisesPrior,
    config: SignalConfig,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """One entry of the score matrix for test points (h_a, h_b) at shared exponent s.

    The four numerator exponentials share a factored-out maximum so the ratio
    never overflows even when the exponents scale like K * SNR.
    """
    # the matrix is symmetric; evaluate in the canonical h_i >= h_j ordering
    h_i, h_j = (h_a, h_b) if h_a >= h_b else (h_b, h_a)
    exps = []
    signs = (1.0, -1.0, -1.0, 1.0)
    for term in (1, 2, 3, 4):
        e = mu_cross(term, s, s, h_i, h_j, config.K, config.snr) + gamma_cross(
            term, prior, s, s, h_i, h_j, quad
        )
        exps.append(e)
    den = (
        mu_i(s, h_i, config.K, config.snr)
        + gamma_i(prior, s, h_i, quad)
        + mu_i(s, h_j, config.K, config.snr)
        + gamma_i(prior, s, h_j, quad)
    )
    m = max(exps)
    if m == -math.inf:
        return 0.0
    if m - den > _EXP_LIMIT:
        raise OverflowError(
            f"score-matrix exponent {m - den:.1f} exceeds {_EXP_LIMIT} after factoring"
        )
    acc = sum(sign * math.exp(e - m) for sign, e in zip(signs, exps))
    return math.exp(m - den) * acc


def build_q(
    prior: VonMisesPrior,
    config: SignalConfig,
    points: TestPointSet,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> QMatrix:
    """Assemble the full symmetric score matrix for a test-point set."""
    r = len(points)
    q = np.empty((r, r))
    for a in range(r):
        for b in range(a, r):
            q[a, b] = q[b, a] = q_element(
                float(points.h[a]), float(points.h[b]), points.s, prior, config, quad
            )
    return QMatrix(q=q, h=points.h.copy(), s=points.s)


def wwb_value(
    prior: VonMisesPrior,
    config: SignalConfig,
    points: TestPointSet,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> WwbResult:
    """Evaluate the bound h Q^{-1} h^T for a fixed test-point set.

    Near-duplicate or redundant test points make Q numerically singular; the
    offending point (smallest factorization pivot) is dropped and the solve
    retried, with drops recorded in the result.
    """
    active = points
    index_map = list(range(len(points)))
    dropped: list[int] = []
    while True:
        qm = build_q(prior, config, active, quad)
        try:
            x = spd_solve(qm.q, qm.h)
        except SingularMatrixError as err:
            dropped.append(index_map.pop(err.index))
            if not index_map:
                raise RuntimeError("all test points dropped; bound undefined") from err
            active = active.drop(err.index)
            continue
        bound = float(qm.h @ x)
        if bound <= 0.0:
            raise RuntimeError(f"non-positive bound value {bound}; Q assembly invalid")
        return WwbResult(
            mse_bound=bound,
            db=10.0 * math.log10(bound),
            dropped_points=tuple(sorted(dropped)),
        )


def optimize_s(
    prior: VonMisesPrior,
    config: SignalConfig,
    points: TestPointSet,
    s_grid=DEFAULT_S_GRID,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> tuple[float, WwbResult]:
    """Grid search over the shared exponent; returns the maximizing (s, result).

    Ties are broken toward s = 0.5, then toward smaller s. A failing grid
    point is skipped with a warning; all points failing raises.
    """
    s_grid = list(s_grid)
    if not s_grid or any(not (0.0 < s < 1.0) for s in s_grid):
        raise ValueError("s_grid must be non-empty with all values in (0, 1)")
    results: list[tuple[float, WwbResult]] = []
    for s in s_grid:
        try:
            results.append((s, wwb_value(prior, config, points.with_exponent(s), quad)))
        except (RuntimeError, OverflowError) as err:
            warnings.warn(f"bound evaluation failed at s={s}: {err}")
    if not results:
        raise RuntimeError("bound evaluation failed at every s grid point")
    best_val = max(r.mse_bound for _, r in results)
    tied = [(s, r) for s, r in results if r.mse_bound >= best_val * (1.0 - 1e-12)]
    tied.sort(key=lambda sr: (abs(sr[0] - 0.5), sr[0]))
    return tied[0]
