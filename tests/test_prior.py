"""Von Mises prior: normalizer, sampling, and variance surrogate.

The density e^{kappa cos(theta - mu) - log_norm} is the one the bound's prior
integrals use; the oracle density of conftest normalizes by the I0 series.
The prior is sampled only by the MAP Monte Carlo, so the sampling checks run
on the truths that `mapsim._trials` draws.
"""
import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from circbound.mapsim import McConfig
from circbound.prior import UNIFORM_VARIANCE, VonMisesPrior
from circbound.signal_model import SignalConfig

from conftest import bessel_series_oracle, trials_of, von_mises_pdf


class TestConstruction:
    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            VonMisesPrior(mu=0.0, kappa=-0.1)

    def test_mu_outside_circle_rejected(self):
        with pytest.raises(ValueError):
            VonMisesPrior(mu=3.5, kappa=1.0)

    @pytest.mark.parametrize("kappa", [0.0, 1.0, 2.0, 5.0, 20.0])
    @pytest.mark.parametrize("mu", [-math.pi / 2.0, 0.0, math.pi / 2.0])
    def test_pdf_normalizes(self, kappa, mu):
        prior = VonMisesPrior(mu=mu, kappa=kappa)
        mass, _ = quad(lambda t: math.exp(kappa * math.cos(t - mu) - prior.log_norm), -math.pi, math.pi,
                       epsabs=1e-13, epsrel=1e-13)
        assert mass == pytest.approx(1.0, abs=1e-8)


class TestPdf:
    def test_uniform_reduction(self):
        prior = VonMisesPrior(mu=0.0, kappa=0.0)
        assert math.exp(-prior.log_norm) == pytest.approx(1.0 / (2.0 * math.pi))

    def test_peak_value_vs_normalization_oracle(self):
        prior = VonMisesPrior(mu=0.0, kappa=2.0)
        # normalize the unnormalized kernel by quadrature instead of I0
        kernel = lambda t: math.exp(2.0 * math.cos(t))
        norm, _ = quad(kernel, -math.pi, math.pi, epsabs=0.0, epsrel=1e-13)
        assert math.exp(2.0 - prior.log_norm) == pytest.approx(math.exp(2.0) / norm, rel=1e-9)


class TestLogPdf:
    def test_uniform_value(self):
        prior = VonMisesPrior(mu=0.0, kappa=0.0)
        assert -prior.log_norm == pytest.approx(-math.log(2.0 * math.pi))

    def test_concentrated_peak_value(self):
        prior = VonMisesPrior(mu=0.0, kappa=5.0)
        want = 5.0 - math.log(2.0 * math.pi * bessel_series_oracle(5.0, 0))
        assert 5.0 - prior.log_norm == pytest.approx(want, rel=1e-12)

    def test_consistent_with_pdf(self):
        prior = VonMisesPrior(mu=0.9, kappa=2.5)
        pdf = von_mises_pdf(prior)
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-math.pi, math.pi, 100):
            log_pdf = prior.kappa * math.cos(theta - prior.mu) - prior.log_norm
            assert math.exp(log_pdf) == pytest.approx(float(pdf(theta)), rel=1e-12)


def _draws(prior: VonMisesPrior, seed: int, trials: int) -> np.ndarray:
    """The true frequencies of `trials` Monte Carlo trials at master seed `seed`."""
    truths, _ = trials_of(SignalConfig(K=1, snr=1.0), prior,
                          McConfig(trials=trials, seed=seed))
    return truths


class TestSampling:
    def test_uniform_case_ks(self):
        prior = VonMisesPrior(mu=0.0, kappa=0.0)
        draws = _draws(prior, 11, 100_000)
        result = stats.kstest(draws, stats.uniform(-math.pi, 2.0 * math.pi).cdf)
        assert result.pvalue > 0.01

    def test_concentrated_circular_mean(self):
        prior = VonMisesPrior(mu=0.0, kappa=20.0)
        draws = _draws(prior, 12, 100_000)
        mean_angle = math.atan2(np.mean(np.sin(draws)), np.mean(np.cos(draws)))
        assert abs(mean_angle) < 0.02

    def test_histogram_chi_square(self):
        prior = VonMisesPrior(mu=math.pi / 2.0, kappa=2.0)
        draws = _draws(prior, 13, 100_000)
        edges = np.linspace(-math.pi, math.pi, 41)
        observed, _ = np.histogram(draws, bins=edges)
        expected = np.array([
            quad(von_mises_pdf(prior), a, b, epsabs=1e-13, epsrel=1e-12)[0]
            for a, b in zip(edges[:-1], edges[1:])
        ]) * draws.size
        result = stats.chisquare(observed, expected * observed.sum() / expected.sum())
        assert result.pvalue > 0.01

    def test_all_draws_in_support(self):
        prior = VonMisesPrior(mu=math.pi, kappa=4.0)
        draws = _draws(prior, 14, 10_000)
        assert np.all(draws >= -math.pi) and np.all(draws <= math.pi)

    def test_deterministic_given_seed(self):
        prior = VonMisesPrior(mu=0.3, kappa=1.0)
        a = _draws(prior, 7, 100)
        b = _draws(prior, 7, 100)
        assert np.array_equal(a, b)


class TestBesselRatio:
    def test_at_zero(self):
        assert VonMisesPrior(kappa=0.0).bessel_ratio() == 0.0

    def test_large_concentration_limit(self):
        assert VonMisesPrior(kappa=100.0).bessel_ratio() == pytest.approx(1.0, abs=0.01)

    def test_vs_series_oracle(self):
        want = bessel_series_oracle(2.0, 1) / bessel_series_oracle(2.0, 0)
        assert VonMisesPrior(kappa=2.0).bessel_ratio() == pytest.approx(want, rel=1e-12)


class TestVariance:
    def test_uniform_value(self):
        assert VonMisesPrior(kappa=0.0).variance() == UNIFORM_VARIANCE

    def test_subnormal_concentration_clamped(self):
        # I1/I0 = kappa/2 rounds to 0 here, and -2 ln 0 would be a domain error
        assert VonMisesPrior(kappa=5e-324).variance() == UNIFORM_VARIANCE

    def test_concentrated_value(self):
        prior = VonMisesPrior(kappa=20.0)
        want = -2.0 * math.log(
            bessel_series_oracle(20.0, 1) / bessel_series_oracle(20.0, 0)
        )
        assert prior.variance() == pytest.approx(want, rel=1e-12)
        assert prior.variance() < UNIFORM_VARIANCE

    @pytest.mark.parametrize("kappa", [1.0, 20.0, 600.0, 1e4, 1e5, 1e6])
    def test_matches_mpmath(self, kappa):
        # -2 ln(I1/I0) to 50 digits; the ratio of two rounded values would be
        # off by about 2 kappa ulps here
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            x = mpmath.mpf(kappa)
            want = float(-2 * mpmath.log(mpmath.besseli(1, x) / mpmath.besseli(0, x)))
        assert VonMisesPrior(kappa=kappa).variance() == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_monotone_non_increasing_in_concentration(self):
        kappas = np.arange(0.0, 20.5, 0.5)
        vals = [VonMisesPrior(kappa=float(k)).variance() for k in kappas]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_bounded(self):
        for kappa in (0.0, 0.01, 0.5, 1.0, 5.0, 50.0):
            v = VonMisesPrior(kappa=kappa).variance()
            assert 0.0 < v <= UNIFORM_VARIANCE
