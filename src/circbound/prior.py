"""Von Mises prior on the normalized circular frequency.

Log normalizer, Bessel ratio, and the variance surrogate used by the
Ziv-Zakai closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e, i1e

from .numerics import DomainError

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
            raise DomainError(f"kappa must be finite and >= 0, got {self.kappa}")

    @property
    def log_norm(self) -> float:
        """ln(2 pi I0(kappa)), the log normalizing constant; ln I0 = ln i0e(kappa) + kappa."""
        return math.log(2.0 * math.pi * float(i0e(self.kappa))) + self.kappa

    def bessel_ratio(self) -> float:
        """I1(kappa) / I0(kappa), in [0, 1)."""
        if self.kappa == 0.0:
            return 0.0
        return float(i1e(self.kappa) / i0e(self.kappa))

    def variance(self) -> float:
        """Variance surrogate used by the ZZB closed form.

        The normal-approximation value -2 ln(I1/I0) clamped at the uniform
        variance pi^2/3 (it diverges as kappa -> 0 while the true circular
        spread is bounded).
        """
        if self.kappa == 0.0:
            return UNIFORM_VARIANCE
        return min(-2.0 * math.log(self.bessel_ratio()), UNIFORM_VARIANCE)
