"""MAP estimator and the Monte Carlo validation harness."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circbound import mapsim
from circbound.benchmarks import bcrb
from circbound.mapsim import McConfig, run_monte_carlo, wrap_error
from circbound.prior import VonMisesPrior
from circbound.signal_model import SignalConfig

from conftest import draw_theta, estimate_one, grid_peak_oracle, observe


class _ZeroNoise:
    def standard_normal(self, size):
        return np.zeros(size)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_CELL = 2.0 * math.pi / 4096


def _rise(config, prior, samples, x0, delta):
    """f(x0 + delta) - f(x0) per row, f(theta) = Re sum_k z_k e^{-j theta k} +
    kappa cos(theta - mu) with z = 2 snr e^{-j phi} x / A.

    Summed from terms that vanish with delta, so differences near a peak stay
    accurate where f itself is flat to rounding.
    """
    k = np.arange(config.K)
    z = samples * (2.0 * config.snr / config.amplitude * np.exp(-1j * config.phi))
    w0 = z * np.exp(-1j * x0[:, None] * k)
    kd = k * delta[:, None]
    data = (w0.imag * np.sin(kd) - 2.0 * w0.real * np.sin(0.5 * kd) ** 2).sum(axis=1)
    u = x0 - prior.mu
    prior_rise = np.sin(u) * np.sin(delta) + 2.0 * np.cos(u) * np.sin(0.5 * delta) ** 2
    return data - prior.kappa * prior_rise


def _dense_golden_peak(config, prior, samples, centers, cell):
    """Best of 201 evenly spaced offsets within +/- cell, polished by golden
    section between its neighbours; returns (best point, offset)."""
    offsets = np.linspace(-cell, cell, 201)
    rises = np.stack([_rise(config, prior, samples, centers, np.full(centers.size, o))
                      for o in offsets], axis=1)
    best = np.argmax(rises, axis=1)
    x0, step = centers + offsets[best], offsets[1] - offsets[0]
    a = np.maximum(-step, -cell - offsets[best])
    b = np.minimum(step, cell - offsets[best])
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = _rise(config, prior, samples, x0, x1), _rise(config, prior, samples, x0, x2)
    for _ in range(120):
        right = f1 < f2
        a, b = np.where(right, x1, a), np.where(right, b, x2)
        x1, x2 = (np.where(right, x2, b - _GOLDEN * (b - a)),
                  np.where(right, a + _GOLDEN * (b - a), x1))
        f_new = _rise(config, prior, samples, x0, np.where(right, x2, x1))
        f1, f2 = np.where(right, f2, f_new), np.where(right, f_new, f1)
    return x0, 0.5 * (a + b)


class TestWrapError:
    def test_small_error_unchanged(self):
        assert wrap_error(0.1, 0.0) == pytest.approx(0.1)

    def test_three_half_pi_wraps(self):
        assert wrap_error(1.5 * math.pi, 0.0) == pytest.approx(-0.5 * math.pi)

    def test_seam_shortest_arc(self):
        got = wrap_error(math.pi - 0.01, -math.pi + 0.01)
        assert got == pytest.approx(-0.02)

    @given(
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=300, deadline=None)
    def test_range_and_zero_property(self, est, truth):
        err = float(wrap_error(est, truth))
        assert -math.pi <= err < math.pi
        assert float(wrap_error(truth, truth)) == 0.0

    @given(
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=300, deadline=None)
    def test_congruent_inputs_agree(self, est, truth):
        a = float(wrap_error(est, truth))
        b = float(wrap_error(est + 2.0 * math.pi, truth))
        assert a == pytest.approx(b, abs=1e-9)


class TestMapEstimate:
    def test_noiseless_matched_filter(self):
        config = SignalConfig(K=20, snr=1.0)
        theta = 0.4 * math.pi
        samples = observe(config, theta, _ZeroNoise())
        got = estimate_one(config, VonMisesPrior(kappa=0.0), samples, grid_size=4096)
        assert abs(got - theta) <= 2.0 * math.pi / 4096

    def test_refinement_beats_grid(self):
        config = SignalConfig(K=20, snr=1.0)
        theta = 0.123456
        samples = observe(config, theta, _ZeroNoise())
        prior = VonMisesPrior(kappa=0.0)
        coarse = estimate_one(config, prior, samples, grid_size=256, refine=False)
        refined = estimate_one(config, prior, samples, grid_size=256, refine=True)
        assert abs(refined - theta) < abs(coarse - theta)
        assert abs(refined - theta) < 1e-6

    def test_dominant_prior_pulls_to_location(self):
        prior = VonMisesPrior(mu=0.8, kappa=500.0)
        config = SignalConfig(K=20, snr=0.01)
        samples = observe(config, -0.5, np.random.default_rng(4))
        got = estimate_one(config, prior, samples)
        assert abs(got - 0.8) < 0.05

    def test_uniform_prior_equals_maximum_likelihood(self):
        config = SignalConfig(K=20, snr=1.0)
        samples = observe(config, 0.3, np.random.default_rng(5))
        flat = estimate_one(config, VonMisesPrior(mu=1.0, kappa=0.0), samples)
        also_flat = estimate_one(config, VonMisesPrior(mu=-2.0, kappa=0.0), samples)
        assert flat == pytest.approx(also_flat, abs=1e-12)


class TestGridPeak:
    @pytest.mark.parametrize("K", [1, 2, 20, 200])
    @pytest.mark.parametrize("grid_size", [64, 65, 4096, 4097])
    def test_matches_full_product_oracle(self, K, grid_size):
        # at G 4096 and 4097 a block holds 32 and 31 rows, so 1,031 rows cross block boundaries
        config = SignalConfig(K=K, snr=10.0 ** -0.5, phi=0.3)
        grid = mapsim._grid_table(K, grid_size)[0]
        for kappa in (0.0, 1.0, 50.0):
            for mu in (-math.pi, 0.0, 0.7):
                prior = VonMisesPrior(mu=mu, kappa=kappa)
                for trials in (1, 1031):
                    mc = McConfig(trials=trials, seed=K + grid_size + trials)
                    _, samples = mapsim._trials(config, prior, mc, None)
                    want, near_tie = grid_peak_oracle(config, prior, samples, grid_size)
                    got = mapsim._grid_peak(config, prior, samples, grid)
                    assert np.all((got == want) | near_tie)
                    # at K=1 the data term is flat, so kappa cos(g - mu) alone
                    # ties the two points next to mu = 0 on an odd grid
                    assert K == 1 or near_tie.mean() < 0.01

    @pytest.mark.parametrize("grid_size", [64, 65, 4096])
    def test_flat_objective_takes_first_point(self, grid_size):
        # zero samples and kappa = 0 tie every grid point: argmax keeps -pi
        config = SignalConfig(K=20, snr=1.0)
        grid = mapsim._grid_table(20, grid_size)[0]
        got = mapsim._grid_peak(config, VonMisesPrior(), np.zeros((3, 20), complex), grid)
        assert np.array_equal(got, np.full(3, -math.pi))

    def test_no_score_matrix_per_chunk(self):
        # a 1,024 x 4,096 float64 score matrix alone is 32 MiB
        config = SignalConfig(K=20, snr=1.0)
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        _, samples = mapsim._trials(config, prior, McConfig(trials=1024, seed=1), None)
        grid = mapsim._grid_table(20, 4096)[0]
        mapsim._grid_peak(config, prior, samples, grid)  # fills the caches
        tracemalloc.start()
        try:
            mapsim._grid_peak(config, prior, samples, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestRefinePeaks:
    @pytest.mark.parametrize("K", [5, 20, 60, 200])
    @pytest.mark.parametrize("kappa", [0.0, 1.0, 50.0])
    def test_matches_dense_golden_section(self, K, kappa):
        prior = VonMisesPrior(mu=0.7, kappa=kappa)
        for snr_db in range(-20, 11, 5):
            config = SignalConfig(K=K, snr=10.0 ** (snr_db / 10.0))
            mc = McConfig(trials=32, seed=100 * K + snr_db + 20)
            _, samples = mapsim._trials(config, prior, mc, None)
            centers = mapsim._grid_peak(config, prior, samples, mapsim._grid_table(K, 4096)[0])
            got = mapsim._refine_peaks(config, prior, samples, centers, _CELL)
            x0, offset = _dense_golden_peak(config, prior, samples, centers, _CELL)
            np.testing.assert_allclose(got, x0 + offset, rtol=0.0, atol=1e-9)
            # never lower than the reference, up to rounding of the rise itself
            slack = 1e-15 * (np.abs(samples).sum(axis=1) + kappa)
            assert np.all(_rise(config, prior, samples, x0, got - x0)
                          >= _rise(config, prior, samples, x0, offset) - slack)

    @pytest.mark.parametrize("K", [5, 20, 200])
    def test_rows_refine_alone(self, K):
        # a row's estimate must not depend on the rows batched with it, or
        # MAP rows would change with the chunk size
        config = SignalConfig(K=K, snr=10.0 ** -0.3)
        prior = VonMisesPrior(mu=0.7, kappa=1.0)
        _, samples = mapsim._trials(config, prior, McConfig(trials=1031, seed=K), None)
        centers = mapsim._grid_peak(config, prior, samples, mapsim._grid_table(K, 4096)[0])
        batch = mapsim._refine_peaks(config, prior, samples, centers, _CELL)
        for size in (1, 7):
            parts = [mapsim._refine_peaks(config, prior, samples[i:i + size],
                                          centers[i:i + size], _CELL)
                     for i in range(0, 63, size)]
            assert np.array_equal(np.concatenate(parts), batch[:63])

    def test_monotone_window_ends_at_its_edge(self):
        # the grid peak lies within half a cell of the maximum, so windows
        # shifted by 1.5 cells see f fall (or rise) all the way across
        config = SignalConfig(K=20, snr=1.0)
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        _, samples = mapsim._trials(config, prior, McConfig(trials=64, seed=4), None)
        centers = mapsim._grid_peak(config, prior, samples, mapsim._grid_table(20, 4096)[0])
        above, below = centers + 1.5 * _CELL, centers - 1.5 * _CELL
        got_above = mapsim._refine_peaks(config, prior, samples, above, _CELL)
        got_below = mapsim._refine_peaks(config, prior, samples, below, _CELL)
        np.testing.assert_allclose(got_above, above - _CELL, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got_below, below + _CELL, rtol=0.0, atol=1e-12)

    def test_flat_objective_stays_finite(self):
        # zero samples and kappa = 0 make f, f' and f'' vanish everywhere
        config = SignalConfig(K=20, snr=1.0)
        centers = np.array([-1.0, 0.0, 2.5])
        with np.errstate(all="raise"):
            got = mapsim._refine_peaks(config, VonMisesPrior(), np.zeros((3, 20), complex),
                                       centers, _CELL)
        # no end is higher, so the left one is kept, as golden section does
        assert np.array_equal(got, centers - _CELL)


class TestMonteCarlo:
    @pytest.mark.parametrize("theta_fixed", [None, 0.4])
    def test_trial_streams_match_per_trial_generation(self, theta_fixed):
        # reference: trial by trial, theta from the (seed, 0) stream and the
        # noise from the (seed, 1) stream; kappa 1e7 takes numpy's
        # wrapped-normal branch of vonmises
        for kappa in (0.0, 2.0, 800.0, 1e7):
            config = SignalConfig(K=7, snr=0.3, phi=0.2)
            prior = VonMisesPrior(mu=0.5, kappa=kappa)
            mc = McConfig(trials=50, seed=12)
            truths, samples = mapsim._trials(config, prior, mc, theta_fixed)
            truth_rng, noise_rng = (np.random.default_rng([mc.seed, i]) for i in (0, 1))
            for t in range(mc.trials):
                theta = draw_theta(prior, truth_rng) if theta_fixed is None else theta_fixed
                assert truths[t] == theta
                assert np.array_equal(samples[t], observe(config, theta, noise_rng))

    @pytest.mark.parametrize("theta_fixed", [None, 0.4])
    def test_trials_are_a_prefix_of_longer_runs(self, theta_fixed):
        config = SignalConfig(K=20, snr=0.5)
        prior = VonMisesPrior(mu=-1.0, kappa=3.0)
        truths, samples = mapsim._trials(config, prior, McConfig(trials=300, seed=21), theta_fixed)
        for n in (1, 37, 299):
            head, head_samples = mapsim._trials(config, prior, McConfig(trials=n, seed=21),
                                                theta_fixed)
            assert np.array_equal(head, truths[:n])
            assert np.array_equal(head_samples, samples[:n])

    @pytest.mark.parametrize("trials", [1, 4096])
    def test_two_generators_whatever_the_trial_count(self, monkeypatch, trials):
        # guards against a return to seeding one generator per trial
        calls = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            calls.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        config = SignalConfig(K=20, snr=1.0)
        mapsim._trials(config, VonMisesPrior(kappa=1.0), McConfig(trials=trials, seed=3), None)
        assert calls == [([3, 0],), ([3, 1],)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=0)
        with pytest.raises(ValueError):
            McConfig(grid_size=32)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            McConfig(seed=seed)

    def test_numpy_integer_seed_is_taken_as_int(self):
        mc = McConfig(trials=3, seed=np.uint32(5))
        assert type(mc.seed) is int and mc == McConfig(trials=3, seed=5)

    def test_single_trial_reproducible(self):
        config = SignalConfig(K=20, snr=1.0)
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        mc = McConfig(trials=1, seed=42)
        a = run_monte_carlo(config, prior, mc)
        b = run_monte_carlo(config, prior, mc)
        assert a == b
        assert a.mse_se == math.inf  # no spread estimate from one trial

    def test_deterministic_full_run(self):
        config = SignalConfig(K=20, snr=0.1)
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        mc = McConfig(trials=300, seed=7)
        assert run_monte_carlo(config, prior, mc) == run_monte_carlo(config, prior, mc)

    def test_chunking_invariant(self, monkeypatch):
        # the result must not depend on how trials split into estimation
        # batches, since every trial is drawn before the split
        config = SignalConfig(K=20, snr=10.0 ** -0.2)
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        mc = McConfig(trials=300, seed=3)
        default = run_monte_carlo(config, prior, mc)
        monkeypatch.setattr(mapsim, "_TRIAL_CHUNK", 7)
        assert run_monte_carlo(config, prior, mc) == default

    def test_standard_error_matches_per_trial_rescoring(self):
        # reference: draw each trial in turn from the two streams, estimate it
        # alone, and take std(err^2)/sqrt(N) of the wrapped errors
        config = SignalConfig(K=20, snr=0.5)
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        mc = McConfig(trials=40, seed=8)
        truth_rng, noise_rng = (np.random.default_rng([mc.seed, i]) for i in (0, 1))
        sq = []
        for _ in range(mc.trials):
            theta = draw_theta(prior, truth_rng)
            est = estimate_one(config, prior, observe(config, theta, noise_rng))
            sq.append(float(wrap_error(est, theta)) ** 2)
        res = run_monte_carlo(config, prior, mc)
        assert res.mse == pytest.approx(np.mean(sq), rel=1e-9)
        assert res.mse_se == pytest.approx(np.std(sq, ddof=1) / math.sqrt(mc.trials), rel=1e-9)

    def test_high_snr_tracks_bcrb(self):
        config = SignalConfig(K=20, snr=10.0)
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        res = run_monte_carlo(config, prior, McConfig(trials=2000, seed=1))
        want_db = 10.0 * math.log10(bcrb(prior, 20, 10.0))
        assert abs(10.0 * math.log10(res.mse) - want_db) < 1.0

    def test_no_information_floor(self):
        config = SignalConfig(K=20, snr=0.01)
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        res = run_monte_carlo(config, prior, McConfig(trials=2000, seed=2))
        floor_db = 10.0 * math.log10(prior.variance())
        assert abs(10.0 * math.log10(res.mse) - floor_db) < 1.5

    def test_outlier_fraction_declines_with_snr(self):
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        fractions = []
        for snr_db in (-20.0, -10.0, 0.0, 10.0):
            config = SignalConfig(K=20, snr=10.0 ** (snr_db / 10.0))
            res = run_monte_carlo(config, prior, McConfig(trials=500, seed=9))
            fractions.append(res.outlier_fraction)
        violations = sum(b > a for a, b in zip(fractions, fractions[1:]))
        assert violations <= 1
        assert fractions[-1] == 0.0

    def test_fixed_truth_mode(self):
        config = SignalConfig(K=20, snr=10.0)
        prior = VonMisesPrior(mu=0.0, kappa=0.0)
        res = run_monte_carlo(config, prior, McConfig(trials=200, seed=5), theta_fixed=0.4)
        assert res.mse < 1e-3

    def test_linear_error_escape_hatch(self):
        config = SignalConfig(K=20, snr=0.01)
        prior = VonMisesPrior(mu=0.0, kappa=0.0)
        mc = McConfig(trials=500, seed=6)
        wrapped = run_monte_carlo(config, prior, mc, wrap=True)
        linear = run_monte_carlo(config, prior, mc, wrap=False)
        assert linear.mse >= wrapped.mse
