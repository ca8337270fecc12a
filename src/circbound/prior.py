"""Von Mises prior on the normalized circular frequency.

Log normalizer, Bessel ratio, and the variance surrogate used by the
Ziv-Zakai closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["VonMisesPrior", "UNIFORM_VARIANCE", "wrap_angle"]

# variance of the uniform distribution on [-pi, pi]; the normal-approximation
# surrogate -2 ln(I1/I0) diverges as kappa -> 0, so it is clamped here
UNIFORM_VARIANCE = math.pi**2 / 3.0


def wrap_angle(theta):
    """Angles wrapped into [-pi, pi]; accepts scalars or arrays."""
    return np.mod(theta + math.pi, 2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class VonMisesPrior:
    """Location `mu` (radians in [-pi, pi]) and finite concentration `kappa` >= 0."""

    mu: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        if not (-math.pi <= self.mu <= math.pi):
            raise ValueError(f"mu must lie in [-pi, pi], got {self.mu}")
        # kappa is the argument of the Bessel functions I0 and I1
        if not (0.0 <= self.kappa < math.inf):
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")

    @cached_property
    def scaled_bessel(self) -> tuple[float, float, float]:
        """(e^-kappa I0(kappa), e^-kappa I1(kappa), e^-kappa (I0 - I1)(kappa)).

        Up to kappa = 1e4, the exponentially convergent periodic trapezoid rule
        (Trefethen & Weideman, SIAM Review 56(3), 2014) with 16 + sqrt(80 kappa)
        nodes, symmetric about the peak t = 0, applied to f = e^{-2 kappa sin^2(t/2)},
        (by parts) to kappa f sin^2 t and to f 2 sin^2(t/2): positive terms, so no
        digits cancel at any kappa. Above, Hankel's series to five terms, the
        difference term by term.
        """
        kappa = self.kappa
        if kappa > 1e4:
            terms = np.cumprod([[((2 * k - 1) ** 2 - four_nu2) / (8.0 * k * kappa)
                                 for k in range(1, 5)] for four_nu2 in (0.0, 4.0)], axis=1)
            # 1/sqrt(2 pi kappa) as two factors: 2 pi kappa overflows near the largest double
            sums = np.append(1.0 + terms.sum(axis=1), (terms[0] - terms[1]).sum())
            i0e, i1e, gap = sums / math.sqrt(2.0 * math.pi) / math.sqrt(kappa)
            return float(i0e), float(i1e), float(gap)
        n = 16 + int(math.sqrt(80.0 * kappa))
        t = (np.arange(n) - n // 2) * (2.0 * math.pi / n)
        half = np.sin(0.5 * t) ** 2
        f = np.exp(-2.0 * kappa * half)
        return (float(np.mean(f)), kappa * float(np.mean(f * np.sin(t) ** 2)),
                2.0 * float(np.mean(f * half)))

    @property
    def log_norm(self) -> float:
        """ln(2 pi I0(kappa)), the log normalizing constant; ln I0 = ln(e^-kappa I0) + kappa."""
        return math.log(2.0 * math.pi * self.scaled_bessel[0]) + self.kappa

    def bessel_ratio(self) -> float:
        """I1(kappa) / I0(kappa), in [0, 1)."""
        i0e, i1e, _ = self.scaled_bessel
        return i1e / i0e

    def variance(self) -> float:
        """Variance surrogate used by the ZZB closed form.

        The normal-approximation value -2 ln(I1/I0) clamped at the uniform
        variance pi^2/3 (it diverges as kappa -> 0 while the true circular
        spread is bounded). It is formed as -2 log1p(-(I0 - I1)/I0) from the
        directly computed difference, since ln of the ratio would amplify its
        rounding about 2 kappa-fold.
        """
        i0e, _, gap = self.scaled_bessel
        drop = gap / i0e
        return min(-2.0 * math.log1p(-drop), UNIFORM_VARIANCE) if drop < 1.0 else UNIFORM_VARIANCE
