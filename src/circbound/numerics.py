"""Dirichlet kernel, quadrature, and the inverse quadratic form shared by the bound modules.

Everything here is pure and thread-safe.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "QuadratureError",
    "dirichlet_kernel",
    "gamma_p_3_2",
    "integrate",
    "inverse_form",
]


class QuadratureError(RuntimeError):
    """Composite quadrature failed to converge under node doubling."""


# order of the Gauss-Legendre rule inside each panel
_GL_ORDER = 8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


def dirichlet_kernel(h, K: int):
    """sum_{k=0}^{K-1} cos(h k), evaluated in closed form away from the 0/0 points.

    `h` is evaluated entry by entry; a scalar gives a one-entry array. Near
    h = 2 pi m the closed form is 0/0 and loses accuracy well before the
    exact singularity (the ratio amplifies rounding by ~K/sin^2); fall back
    to the direct sum, which is the definition, wherever the closed form
    cannot deliver 1e-10 absolute accuracy for K up to a few hundred.
    """
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if np.count_nonzero(np.isfinite(h)) != h.size:
        raise ValueError(f"kernel offset must be finite, got {h}")
    if K < 1:
        raise ValueError(f"sample count must be >= 1, got {K}")
    s = np.sin(0.5 * h)
    near = np.abs(s) < 5e-3
    # adding `near` keeps the divisor of the entries replaced below nonzero
    out = np.cos(0.5 * h * (K - 1)) * np.sin(0.5 * h * K) / (s + near)
    if np.count_nonzero(near):
        out[near] = np.sum(np.cos(np.multiply.outer(h[near], np.arange(K))), axis=-1)
    return out


# nodes of one flattened pass of a batched integral: entries are evaluated
# together until their nodes reach it (an entry with more is evaluated
# alone); it bounds the node-sized temporaries of a pass at 64 KiB each
_CHUNK_NODES = 8192
# an integral converges when one doubling of its panels moves it by at most this, relatively
_REL_TOL = 1e-10
# the cap on a start that a caller sizes, such as the prior integrals of the WWB
_MAX_START = 256
# an integral still moving at this many panels fails: six doublings past the largest start
_MAX_PANELS = 64 * _MAX_START


def _composite_gl(f, a, b, rows: np.ndarray, panels: np.ndarray) -> np.ndarray:
    # one row of _GL_ORDER nodes per panel; entry i owns panels[i] consecutive rows
    starts = np.cumsum(panels) - panels
    width = (b[rows] - a[rows]) / panels
    step = np.repeat(width, panels)
    index = np.arange(starts[-1] + panels[-1]) - np.repeat(starts, panels)
    left = np.repeat(a[rows], panels) + step * index
    theta = left[:, None] + step[:, None] * (0.5 + 0.5 * _GL_NODES)
    vals = f(theta.ravel(), np.repeat(rows, panels * _GL_ORDER)).reshape(theta.shape)
    return 0.5 * width * np.add.reduceat(vals @ _GL_WEIGHTS, starts)


def _panel_sums(f, a, b, rows: np.ndarray, panels: np.ndarray) -> np.ndarray:
    """The composite rule of every entry in `rows` at its own panel count, in
    flat passes of at most _CHUNK_NODES nodes."""
    out = np.empty(rows.size)
    nodes = panels * _GL_ORDER
    ends = np.cumsum(nodes)
    lo = 0
    while lo < rows.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - nodes[lo] + _CHUNK_NODES, "right")))
        out[lo:hi] = _composite_gl(f, a, b, rows[lo:hi], panels[lo:hi])
        lo = hi
    return out


def integrate(f, a, b, panels):
    """Composite Gauss-Legendre integrals of `f` over [a_i, b_i] for the 1-D
    arrays `a` and `b`: `f(theta, rows)` gets a flat array of abscissae and
    the equally long array of the entries they belong to, and `panels` gives
    each entry its starting panel count. Each entry converges on its own,
    when one doubling of its panels changes it by at most _REL_TOL
    relatively; one still moving once its panels reach _MAX_PANELS signals
    QuadratureError."""
    a, b, start = np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(panels)
    if a.ndim != 1 or b.shape != a.shape:
        raise ValueError(f"integration limits must be 1-D arrays of one shape, got {a} and {b}")
    if np.any(a > b):
        raise ValueError(f"integration interval requires a <= b, got [{a}, {b}]")
    if start.shape != a.shape or not np.issubdtype(start.dtype, np.integer) or np.any(start < 1):
        raise ValueError(f"starting panels must be positive integers, one per entry, got {start}")
    out = np.zeros(a.shape)
    rows = np.flatnonzero(a < b)
    panels = start[rows]
    prev = _panel_sums(f, a, b, rows, panels)
    while rows.size:
        panels = 2 * panels
        cur = _panel_sums(f, a, b, rows, panels)
        done = np.abs(cur - prev) <= _REL_TOL * np.maximum(np.abs(cur), 1e-300)
        out[rows[done]] = cur[done]
        spent = ~done & (panels >= _MAX_PANELS)
        if np.any(spent):
            i = np.argmax(spent)
            raise QuadratureError(
                f"integral on [{a[rows[i]]}, {b[rows[i]]}] did not converge to "
                f"rel_tol={_REL_TOL} after {panels[i]} panels"
            )
        rows, panels, prev = rows[~done], panels[~done], cur[~done]
    return out


def gamma_p_3_2(z: float) -> float:
    """P(3/2, z) = (1/Gamma(3/2)) * integral_0^z e^{-v} v^{1/2} dv, the regularized
    lower incomplete gamma function: erf(sqrt z) - 2 sqrt(z/pi) e^-z, or below
    z = 0.5, where that difference cancels, its series
    z^{3/2} e^-z / Gamma(5/2) * sum_n z^n / ((5/2)(7/2)...(n + 3/2))."""
    if z < 0.0:
        raise ValueError(f"upper limit must be >= 0, got {z}")
    if z >= 0.5:
        z = min(z, 1e3)  # P rounds to 1 long before; the cap keeps z = inf off inf * 0
        return math.erf(math.sqrt(z)) - 2.0 * math.sqrt(z / math.pi) * math.exp(-z)
    series = 1.0 + float(np.sum(np.cumprod(z / (np.arange(1, 21) + 1.5))))
    return 4.0 / (3.0 * math.sqrt(math.pi)) * z * math.sqrt(z) * math.exp(-z) * series


def inverse_form(c: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g C^{-1} g^T of every symmetric matrix of the stack `c` (n, r, r), over
    the points it keeps, and the (n, r) mask of kept points.

    `g` is one row (r,), shared by the stack, or one per matrix (n, r). The
    bordered matrices [[C, g^T], [g, 0]] are eliminated a column at a time:
    a pivot at or below 1e-14, or not finite, marks rank deficiency of a
    matrix with unit diagonal, such as a correlation matrix, and its column
    is skipped, which equals deleting that point's row and column. Every
    kept pivot subtracts its scaled column's outer product from the
    trailing block, which leaves -g C^{-1} g^T in the corner. The
    operations are elementwise across the stack, so no matrix's result
    depends on the others.
    """
    c = np.asarray(c, dtype=float)
    n, r = c.shape[0], c.shape[-1]
    # the stack is the last, contiguous axis of the bordered matrices
    a = np.zeros((r + 1, r + 1, n))
    a[:r, :r] = c.transpose(1, 2, 0)
    a[r, :r] = a[:r, r] = np.broadcast_to(g, (n, r)).T
    kept = []
    # a point whose score-matrix diagonal is not positive has NaN or inf in
    # its row and column of C; its pivot is skipped, which removes them
    with np.errstate(invalid="ignore"):
        scale = np.maximum(np.max(np.abs(c), axis=(1, 2)), 1e-300)
        if np.any(np.max(np.abs(c - c.transpose(0, 2, 1)), axis=(1, 2)) > 1e-9 * scale):
            raise ValueError("matrix is not symmetric within 1e-9 relative")
        for j in range(r):
            pivot = a[j, j]
            keep = np.isfinite(pivot) & (pivot > 1e-14)
            kept.append(keep)
            # scaled by the reciprocal root, as LAPACK's Cholesky scales its
            # columns, so the near-zero pivots of near-duplicate points round alike
            inv_root = 1.0 / np.sqrt(np.where(keep, pivot, 1.0))
            col = np.where(keep, a[j + 1:, j] * inv_root, 0.0)
            a[j + 1:, j + 1:] -= col[:, None] * col
    # subtracted from +0, so a form that underflows or keeps no point is +0, not -0
    return 0.0 - a[r, r], np.array(kept).T
