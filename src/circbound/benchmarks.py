"""Benchmark bounds: Bayesian Cramer-Rao and the Ziv-Zakai closed form."""
from __future__ import annotations

import math

from .numerics import gamma_p_3_2
from .prior import VonMisesPrior
from .signal_model import SignalConfig

__all__ = ["fisher_information", "bcrb", "zzb"]


def fisher_information(K: int, snr: float) -> float:
    """SNR * K(K-1)(2K-1)/3, i.e. 2 SNR sum_{k=0}^{K-1} k^2."""
    SignalConfig(K, snr)  # an integer K >= 1 and 0 < snr < inf
    return snr * K * (K - 1) * (2 * K - 1) / 3.0


def bcrb(prior: VonMisesPrior, K: int, snr: float) -> float:
    """1 / (J_F + kappa I1(kappa)/I0(kappa)).

    At K=1 the bound is about 2/kappa^2, which exceeds the largest double
    below kappa ~ 1e-154: that raises OverflowError instead of returning inf.
    """
    denom = fisher_information(K, snr) + prior.kappa * prior.bessel_ratio()
    if prior.kappa == 0.0 and denom == 0.0:
        raise ZeroDivisionError("no data or prior information (K=1, kappa=0)")
    bound = 1.0 / denom if denom > 0.0 else math.inf
    if bound == math.inf:
        raise OverflowError(f"BCRB exceeds the largest double: information {denom!r}")
    return bound


def zzb(prior: VonMisesPrior, K: int, snr: float) -> float:
    """Closed-form Ziv-Zakai bound.

    J_F^{-1} Gamma_{1.5}(0.5 K SNR) + sigma_theta^2 * 2 Q(sqrt(K SNR)), with Q
    the standard normal tail and sigma_theta^2 the clamped prior variance surrogate.
    """
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    ks = K * snr
    asymptotic = gamma_p_3_2(0.5 * ks) / fisher_information(K, snr)
    # 2 Q(x) = erfc(x / sqrt 2)
    floor = prior.variance() * math.erfc(math.sqrt(ks) / math.sqrt(2.0))
    return asymptotic + floor
