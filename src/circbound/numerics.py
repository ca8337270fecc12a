"""Special functions, quadrature, and small linear algebra shared by the bound modules.

Everything here is pure and thread-safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUAD",
    "DomainError",
    "QuadratureError",
    "SingularMatrixError",
    "bessel_i0",
    "bessel_i1",
    "dirichlet_kernel",
    "integrate",
    "normal_tail",
    "regularized_lower_gamma",
    "spd_solve",
]


class DomainError(ValueError):
    """Argument outside the supported domain."""


class QuadratureError(RuntimeError):
    """Composite quadrature failed to converge under node doubling."""


class SingularMatrixError(RuntimeError):
    """Symmetric factorization hit a pivot below the conditioning threshold."""

    def __init__(self, index: int, pivot: float):
        super().__init__(f"numerically singular matrix: pivot {pivot:.3e} at index {index}")
        self.index = index
        self.pivot = pivot


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre rule: `node_count` panels, convergence at `rel_tol`."""

    node_count: int = 32
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.node_count < 16:
            raise ValueError(f"node_count must be >= 16, got {self.node_count}")
        if not (0.0 < self.rel_tol <= 1e-6):
            raise ValueError(f"rel_tol must be in (0, 1e-6], got {self.rel_tol}")


DEFAULT_QUAD = QuadratureSpec()

# order of the Gauss-Legendre rule inside each panel
_GL_ORDER = 8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


def _bessel_series(x: float, order: int) -> float:
    # power series sum_m (x/2)^{2m+order} / (m! (m+order)!)
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    half = 0.5 * x
    term = half**order / math.factorial(order)
    total = term
    m = 1
    while True:
        term *= half * half / (m * (m + order))
        total += term
        if term < 1e-18 * total:
            return total
        m += 1


def _bessel_asymptotic(x: float, order: int) -> float:
    # e^x / sqrt(2 pi x) * sum_k t_k,  t_k = t_{k-1} (4 nu^2 - (2k-1)^2)/(-8 k x)
    nu4 = 4.0 * order * order
    term = 1.0
    total = 1.0
    for k in range(1, 40):
        term *= (nu4 - (2 * k - 1) ** 2) / (-8.0 * k * x)
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    return math.exp(x) / math.sqrt(2.0 * math.pi * x) * total


def _bessel_i(x: float, order: int) -> float:
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"modified Bessel argument must be finite and >= 0, got {x}")
    if x > 500.0:
        raise DomainError(f"modified Bessel argument must be <= 500, got {x}")
    if x < 15.0:
        return _bessel_series(x, order)
    return _bessel_asymptotic(x, order)


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order 0."""
    return _bessel_i(x, 0)


def bessel_i1(x: float) -> float:
    """Modified Bessel function of the first kind, order 1."""
    return _bessel_i(x, 1)


def dirichlet_kernel(h: float, K: int) -> float:
    """sum_{k=0}^{K-1} cos(h k), evaluated in closed form away from the 0/0 points.

    Near h = 2 pi m the closed form is 0/0 and loses accuracy well before the
    exact singularity (the ratio amplifies rounding by ~K/sin^2); fall back to
    the direct sum, which is the definition, wherever the closed form cannot
    deliver 1e-10 absolute accuracy for K up to a few hundred.
    """
    if not math.isfinite(h):
        raise DomainError(f"kernel offset must be finite, got {h}")
    if K < 1:
        raise DomainError(f"sample count must be >= 1, got {K}")
    s = math.sin(0.5 * h)
    if abs(s) < 5e-3:
        k = np.arange(K)
        return float(np.sum(np.cos(h * k)))
    return math.cos(0.5 * h * (K - 1)) * math.sin(0.5 * h * K) / s


def _composite_gl(f, a: float, b: float, panels: int) -> float:
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    # all nodes at once: shape (panels, order)
    nodes = mid[:, None] + half * _GL_NODES[None, :]
    vals = f(nodes.ravel()).reshape(panels, _GL_ORDER)
    return float(half * np.sum(vals @ _GL_WEIGHTS))


def integrate(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Composite Gauss-Legendre integral of `f` over [a, b].

    `f` must accept an ndarray of abscissae. Convergence is declared when one
    node-count doubling changes the result by less than `rel_tol` relatively;
    two further doublings are tried before signalling QuadratureError.
    """
    if a > b:
        raise DomainError(f"integration interval requires a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0
    panels = spec.node_count
    prev = _composite_gl(f, a, b, panels)
    for _ in range(3):
        panels *= 2
        cur = _composite_gl(f, a, b, panels)
        if abs(cur - prev) <= spec.rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureError(
        f"integral on [{a}, {b}] did not converge to rel_tol={spec.rel_tol} "
        f"after {panels} panels"
    )


def normal_tail(z: float) -> float:
    """P(N(0,1) > z), via the complementary error function."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def regularized_lower_gamma(a: float, z: float) -> float:
    """(1/Gamma(a)) * integral_0^z e^{-v} v^{a-1} dv."""
    if a <= 0.0:
        raise DomainError(f"shape parameter must be > 0, got {a}")
    if z < 0.0:
        raise DomainError(f"upper limit must be >= 0, got {z}")
    return float(gammainc(a, z))


def spd_solve(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve M x = v for symmetric positive definite M via Cholesky.

    The system is diagonally equilibrated first: valid score matrices have
    diagonal entries spanning hundreds of orders of magnitude at high SNR, so
    a raw largest-diagonal pivot test would flag healthy rows. After scaling,
    a pivot below 1e-14 (of the unit scaled diagonal) signals genuine rank
    deficiency; SingularMatrixError carries the offending index so the caller
    can drop that row/column and retry.
    """
    m = np.asarray(m, dtype=float)
    v = np.asarray(v, dtype=float)
    n = m.shape[0]
    scale = max(np.max(np.abs(m)), 1e-300)
    if np.max(np.abs(m - m.T)) > 1e-9 * scale:
        raise DomainError("matrix is not symmetric within 1e-9 relative")
    diag = np.diag(m)
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        bad = int(np.argmin(np.where(np.isfinite(diag), diag, -np.inf)))
        raise SingularMatrixError(bad, float(diag[bad]))
    d_scale = 1.0 / np.sqrt(diag)
    ms = m * np.outer(d_scale, d_scale)
    low = np.zeros_like(ms)
    for k in range(n):
        d = ms[k, k] - low[k, :k] @ low[k, :k]
        if d <= 1e-14:
            raise SingularMatrixError(k, float(d))
        low[k, k] = math.sqrt(d)
        if k + 1 < n:
            low[k + 1:, k] = (ms[k + 1:, k] - low[k + 1:, :k] @ low[k, :k]) / low[k, k]
    # forward then backward substitution on the scaled system
    vs = v * d_scale
    y = np.zeros(n)
    for k in range(n):
        y[k] = (vs[k] - low[k, :k] @ y[:k]) / low[k, k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (y[k] - low[k + 1:, k] @ x[k + 1:]) / low[k, k]
    return x * d_scale
