"""Bayesian lower bounds (Weiss-Weinstein family, Bayesian Cramer-Rao,
Ziv-Zakai) on circular frequency estimation error under a von Mises prior,
with a MAP Monte Carlo validation harness."""

from .benchmarks import bcrb, fisher_information, zzb
from .mapsim import McConfig, McResult, run_monte_carlo
from .prior import VonMisesPrior
from .signal_model import SignalConfig
from .testpoints import TestPointConfig, TestPointSet, build, even_points, sidelobe_points
from .wwb import WwbResult, wwb_value

__all__ = [
    "bcrb", "fisher_information", "zzb",
    "McConfig", "McResult", "run_monte_carlo",
    "VonMisesPrior", "SignalConfig",
    "TestPointConfig", "TestPointSet", "build", "even_points", "sidelobe_points",
    "WwbResult", "wwb_value",
]

__version__ = "0.1.0"
