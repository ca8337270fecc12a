"""Comparison bounds: Fisher information, BCRB, and the Ziv-Zakai closed form."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from circbound.benchmarks import bcrb, fisher_information, zzb
from circbound.prior import VonMisesPrior

from conftest import von_mises_pdf


class TestFisherInformation:
    def test_single_sample(self):
        assert fisher_information(1, 1.0) == 0.0

    def test_reference_value(self):
        assert fisher_information(20, 1.0) == pytest.approx(4940.0)

    def test_equals_twice_snr_times_sum_of_squares(self):
        for K in range(1, 101):
            want = 2.0 * 0.7 * sum(k * k for k in range(K))
            assert fisher_information(K, 0.7) == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        # K is an integer >= 1 and 0 < snr < inf
        for K, snr in [(0, 1.0), (10, 0.0), (2.5, 1.0), (20, math.inf), (20, math.nan)]:
            with pytest.raises(ValueError):
                fisher_information(K, snr)

    @pytest.mark.parametrize("bound", [bcrb, zzb])
    @pytest.mark.parametrize("snr", [math.inf, math.nan])
    def test_bounds_reject_non_finite_snr(self, bound, snr):
        with pytest.raises(ValueError):
            bound(VonMisesPrior(kappa=1.0), 20, snr)


class TestBcrb:
    def test_uniform_prior_reduces_to_data_term(self):
        assert bcrb(VonMisesPrior(kappa=0.0), 20, 1.0) == pytest.approx(1.0 / 4940.0)

    def test_small_concentration_limit(self):
        loose = bcrb(VonMisesPrior(kappa=1e-9), 20, 1.0)
        assert loose == pytest.approx(1.0 / fisher_information(20, 1.0), rel=1e-9)

    def test_prior_term_vs_quadrature_oracle(self):
        # the prior information term is the expectation of the curvature of
        # the log-prior: integral of kappa cos(theta - mu) times the pdf
        kappa = 2.0
        prior = VonMisesPrior(mu=0.0, kappa=kappa)
        pdf = von_mises_pdf(prior)
        integrand = lambda t: kappa * np.cos(t - prior.mu) * pdf(t)
        want, _ = quad(integrand, -math.pi, math.pi, epsabs=1e-13, epsrel=1e-12)
        got = prior.kappa * prior.bessel_ratio()
        assert got == pytest.approx(want, abs=1e-8)

    def test_never_looser_than_data_only(self):
        for kappa in (0.0, 0.5, 2.0, 20.0):
            assert bcrb(VonMisesPrior(kappa=kappa), 20, 0.3) <= 1.0 / fisher_information(20, 0.3)

    def test_strictly_decreasing_in_concentration(self):
        vals = [bcrb(VonMisesPrior(kappa=k), 20, 0.1) for k in (0.0, 1.0, 2.0, 5.0, 20.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_no_information_at_all(self):
        with pytest.raises(ZeroDivisionError):
            bcrb(VonMisesPrior(kappa=0.0), 1, 1.0)

    @pytest.mark.parametrize("kappa", [1e-200, 1e-160])
    def test_single_sample_past_largest_double_overflows(self, kappa):
        # at K=1 the bound is about 2/kappa^2: past 1.8e308 below kappa ~ 1e-154
        with pytest.raises(OverflowError, match="exceeds the largest double"):
            bcrb(VonMisesPrior(kappa=kappa), 1, 1.0)

    def test_single_sample_tiny_concentration_value(self):
        assert bcrb(VonMisesPrior(kappa=1e-150), 1, 1.0) == 1.9999999999999998e+300


class TestZzb:
    def test_high_snr_limit(self):
        # K*SNR >= 60: the transition factor saturates and the tail vanishes
        prior = VonMisesPrior(kappa=1.0)
        val = zzb(prior, 20, 3.0)
        assert val == pytest.approx(1.0 / fisher_information(20, 3.0), rel=1e-3)

    def test_no_information_limit(self):
        prior = VonMisesPrior(kappa=1.0)
        val = zzb(prior, 20, 1e-6 / 20.0)
        assert val == pytest.approx(prior.variance(), rel=1e-3)

    def test_monotone_non_increasing_in_snr(self):
        prior = VonMisesPrior(kappa=1.0)
        snrs = [10.0 ** (db / 10.0) for db in np.arange(-20.0, 15.5, 0.5)]
        vals = [zzb(prior, 20, s) for s in snrs]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_converges_to_bcrb(self):
        prior = VonMisesPrior(kappa=1.0)
        snr = 100.0 / 20.0  # K*SNR = 100
        assert zzb(prior, 20, snr) / bcrb(prior, 20, snr) == pytest.approx(1.0, abs=0.01)

    def test_decreasing_in_concentration(self):
        snr = 10.0 ** (-1.5)
        vals = [zzb(VonMisesPrior(kappa=k), 20, snr) for k in (0.0, 1.0, 5.0, 20.0)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            zzb(VonMisesPrior(kappa=1.0), 1, 1.0)

    @pytest.mark.parametrize("kappa", [0.0, 1.0, 5.0])
    def test_matches_scipy_closed_form(self, kappa):
        # P(3/2, KS/2) / J_F + variance * 2 Q(sqrt(KS)), with scipy's
        # incomplete gamma and normal tail and J_F = 2 SNR sum k^2
        from scipy.special import gammainc
        from scipy.stats import norm

        K, prior = 20, VonMisesPrior(kappa=kappa)
        for snr_db in np.arange(-20.0, 10.25, 0.25):
            snr = 10.0 ** (snr_db / 10.0)
            ks = K * snr
            j_f = 2.0 * snr * sum(k * k for k in range(K))
            want = gammainc(1.5, 0.5 * ks) / j_f + prior.variance() * 2.0 * norm.sf(math.sqrt(ks))
            assert zzb(prior, K, snr) == pytest.approx(want, rel=1e-13, abs=0.0), snr_db
