"""Observation model: configuration and synthesis of one observation."""
import math

import numpy as np
import pytest

from circbound.signal_model import SignalConfig, synthesize

from conftest import observe


class _ZeroNoise:
    """Random-stream stand-in whose Gaussian draws are all zero."""

    def standard_normal(self, size):
        return np.zeros(size)


class TestConfig:
    def test_amplitude_derivation(self):
        cfg = SignalConfig(K=20, snr=2.0)
        assert cfg.amplitude == pytest.approx(2.0)

    def test_validation(self):
        # K is an integer >= 1 and 0 < snr < inf
        for K, snr in [(0, 1.0), (10, 0.0), (2.5, 1.0), (20.0, 1.0), ("20", 1.0),
                       (20, math.inf), (20, math.nan)]:
            with pytest.raises(ValueError):
                SignalConfig(K=K, snr=snr)


class TestGenerate:
    def test_noiseless_samples_exact(self):
        cfg = SignalConfig(K=8, snr=3.0)
        theta = 0.4 * math.pi
        samples = observe(cfg, theta, _ZeroNoise())
        k = np.arange(8)
        want = cfg.amplitude * np.exp(1j * theta * k)
        assert np.allclose(samples, want, atol=1e-15)

    def test_deterministic_given_seed(self):
        cfg = SignalConfig(K=16, snr=1.0)
        a = observe(cfg, 0.1, np.random.default_rng(42))
        b = observe(cfg, 0.1, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_stream_order_real_then_imaginary_draws(self):
        # one trial's stream: K real noise parts, then K imaginary parts
        cfg = SignalConfig(K=6, snr=0.7)
        got = observe(cfg, 0.2, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        re, im = rng.standard_normal(6), rng.standard_normal(6)
        clean = cfg.amplitude * np.exp(1j * 0.2 * np.arange(6))
        assert np.array_equal(got, clean + (re + 1j * im))

    @pytest.mark.parametrize("K", [1, 20, 200])
    def test_rows_equal_the_complex_exponential_form(self, K):
        # cos and sin per sample give the bits of A e^{i theta k} + (u + iv)
        cfg = SignalConfig(K=K, snr=0.37)
        rng = np.random.default_rng(K)
        thetas = np.concatenate([rng.uniform(-math.pi, math.pi, 500), [-math.pi, 0.0, math.pi]])
        normals = rng.standard_normal((len(thetas), 2, K))
        x = thetas[:, None] * np.arange(K)
        want = cfg.amplitude * np.exp(1j * x) + (normals[:, 0] + 1j * normals[:, 1])
        assert np.array_equal(synthesize(cfg, thetas, normals), want)

    def test_noise_variance(self):
        n = 1_000_000
        big = SignalConfig(K=n, snr=1.0)
        samples = observe(big, 0.0, np.random.default_rng(8))
        k = np.arange(n)
        resid = samples - big.amplitude * np.exp(1j * 0.0 * k)
        var = float(np.mean(np.abs(resid) ** 2))
        assert var == pytest.approx(2.0, rel=0.01)

    def test_noise_whiteness(self):
        n = 1_000_000
        big = SignalConfig(K=n, snr=1.0)
        samples = observe(big, 0.0, np.random.default_rng(9))
        resid = samples - big.amplitude
        lag1 = np.mean(resid[1:] * np.conj(resid[:-1]))
        assert abs(lag1) < 5.0 * 2.0 / math.sqrt(n)

    def test_empirical_snr(self):
        n = 1_000_000
        big = SignalConfig(K=n, snr=2.5)
        samples = observe(big, 0.0, np.random.default_rng(10))
        resid = samples - big.amplitude
        snr_hat = big.amplitude**2 / float(np.mean(np.abs(resid) ** 2))
        assert snr_hat == pytest.approx(2.5, rel=0.02)

    def test_frequency_outside_circle_rejected(self):
        with pytest.raises(ValueError):
            observe(SignalConfig(K=4, snr=1.0), 3.5, np.random.default_rng(0))
