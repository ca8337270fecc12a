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
from circbound.signal_model import SignalConfig, synthesize

from conftest import draw_theta, estimate_one, grid_peak_oracle, observe, trials_of


class _ZeroNoise:
    def standard_normal(self, size):
        return np.zeros(size)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_CELL = 2.0 * math.pi / 4096


def _rise(config, prior, samples, x0, delta):
    """f(x0 + delta) - f(x0) per row, f(theta) = Re sum_k z_k e^{-j theta k} +
    kappa cos(theta - mu) with z = 2 snr x / A.

    Summed from terms that vanish with delta, so differences near a peak stay
    accurate where f itself is flat to rounding.
    """
    k = np.arange(config.K)
    z = samples * (2.0 * config.snr / config.amplitude)
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
    @pytest.mark.parametrize("K", [1, 2, 5, 20, 60, 200])
    @pytest.mark.parametrize("grid_size", [64, 65, 4096, 4097, 4099])
    def test_matches_full_product_oracle(self, K, grid_size):
        # at G 4096 and 4097 a coarse block holds 512 and 543 rows at K=20 and 64
        # and 31 at K=200, so 1,031 rows cross block boundaries
        config = SignalConfig(K=K, snr=10.0 ** -0.5)
        for kappa in (0.0, 1.0, 50.0):
            for mu in (-math.pi, 0.0, 0.7):
                prior = VonMisesPrior(mu=mu, kappa=kappa)
                for trials in (1, 1031):
                    mc = McConfig(trials=trials, seed=K + grid_size + trials)
                    _, samples = trials_of(config, prior, mc)
                    want, near_tie = grid_peak_oracle(config, prior, samples, grid_size)
                    got = mapsim._grid_peak(mapsim._fold(config, prior, samples), grid_size)
                    assert np.all((got == want) | near_tie)
                    # at K=1 the data term is flat, so kappa cos(g - mu) alone
                    # ties the two points next to mu = 0 on an odd grid
                    assert K == 1 or near_tie.mean() < 0.01

    @pytest.mark.parametrize("grid_size", [64, 65, 4096])
    def test_flat_objective_takes_first_point(self, grid_size):
        # zero coefficients tie every grid point: argmax keeps -pi
        got = mapsim._grid_peak(np.zeros((3, 20), complex), grid_size)
        assert np.array_equal(got, np.full(3, -math.pi))

    @pytest.mark.parametrize(("n_coef", "grid_size", "stride"), [
        (2, 4096, 64), (5, 4096, 64), (20, 4096, 16), (60, 4096, 8), (200, 4096, 2),
        (256, 4096, 2), (257, 4096, 1), (20, 64, 1), (2, 64, 4), (2, 65, 1),
        (8, 4098, 6), (20, 4097, 17), (2, 4097, 17), (20, 4099, 1)])
    def test_stride_rule(self, n_coef, grid_size, stride):
        # the largest divisor of G no greater than G / (8 n_coef) and sqrt(G)
        got = mapsim._grid_table(n_coef, grid_size)[1]
        assert got == stride
        assert grid_size % got == 0

    @pytest.mark.parametrize("K", [256, 257])
    def test_matches_oracle_either_side_of_the_full_grid(self, K):
        # at G 4096, K 256 is the largest count scored at stride 2; K 257 takes
        # every point (stride 1) and has no inner points to score
        config = SignalConfig(K=K, snr=10.0 ** -0.8)
        prior = VonMisesPrior(mu=0.7, kappa=1.0)
        _, samples = trials_of(config, prior, McConfig(trials=200, seed=K))
        want, near_tie = grid_peak_oracle(config, prior, samples, 4096)
        got = mapsim._grid_peak(mapsim._fold(config, prior, samples), 4096)
        assert np.all((got == want) | near_tie)

    @pytest.mark.parametrize(("K", "grid_size"), [(8, 4096), (20, 4096), (20, 4097), (60, 4096)])
    def test_near_tied_lobes(self, K, grid_size):
        # two tones whose amplitudes differ by 1e-11 to 1e-3 relative, either
        # one the larger: the two lobes tie within the cell bound, so cells
        # around both are kept and scored
        config = SignalConfig(K=K, snr=1.0)
        prior = VonMisesPrior(kappa=0.0)
        k = np.arange(K)
        gap = np.concatenate([-np.logspace(-11, -3, 60), np.logspace(-11, -3, 60)])[:, None]
        tones = np.exp(0.9j * k) + (1.0 + gap) * np.exp(-2.1j * k)
        noise = 1e-3 * np.random.default_rng(K).standard_normal((len(gap), 2, K))
        samples = tones + noise[:, 0] + 1j * noise[:, 1]
        want, near_tie = grid_peak_oracle(config, prior, samples, grid_size)
        got = mapsim._grid_peak(mapsim._fold(config, prior, samples), grid_size)
        assert np.all((got == want) | near_tie)
        # both lobes win some rows
        assert np.any(np.abs(want - 0.9) < 0.1) and np.any(np.abs(want + 2.1) < 0.1)

    @pytest.mark.parametrize("mu", [-math.pi, math.pi])
    @pytest.mark.parametrize(("K", "grid_size"), [(5, 4096), (20, 4096), (20, 4097)])
    def test_maximum_in_the_wrap_around_cell(self, K, mu, grid_size):
        # truths within a few cells of pi and a prior centred there: the
        # maximum falls in the last cell, whose far end is grid point 0, -pi
        config = SignalConfig(K=K, snr=10.0)
        prior = VonMisesPrior(mu=mu, kappa=20.0)
        step = 2.0 * math.pi / grid_size
        grid, stride = mapsim._grid_table(K, grid_size)[:2]
        thetas = math.pi - np.linspace(0.0, (stride + 1.5) * step, 301)
        noise = 1e-6 * np.random.default_rng(K).standard_normal((len(thetas), 2, K))
        samples = synthesize(config, thetas, noise)
        want, near_tie = grid_peak_oracle(config, prior, samples, grid_size)
        got = mapsim._grid_peak(mapsim._fold(config, prior, samples), grid_size)
        assert np.all((got == want) | near_tie)
        index = np.searchsorted(grid, got)
        assert np.any(index == 0) and np.any(index > grid_size - stride)

    def test_flat_chunk_stays_in_blocks(self):
        # zero coefficients keep every cell, so every grid point is scored,
        # still in blocks: a 1,024 x 4,096 float64 score matrix alone is 32 MiB
        z = np.zeros((1024, 20), complex)
        mapsim._grid_peak(z, 4096)  # fills the caches
        tracemalloc.start()
        try:
            got = mapsim._grid_peak(z, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert np.array_equal(got, np.full(1024, -math.pi))

    def test_no_score_matrix_per_chunk(self):
        # a 1,024 x 4,096 float64 score matrix alone is 32 MiB
        config = SignalConfig(K=20, snr=1.0)
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        _, samples = trials_of(config, prior, McConfig(trials=1024, seed=1))
        z = mapsim._fold(config, prior, samples)
        mapsim._grid_peak(z, 4096)  # fills the caches
        tracemalloc.start()
        try:
            mapsim._grid_peak(z, 4096)
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
            _, samples = trials_of(config, prior, mc)
            z = mapsim._fold(config, prior, samples)
            centers = mapsim._grid_peak(z, 4096)
            got = mapsim._refine_peaks(z, centers, _CELL)
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
        _, samples = trials_of(config, prior, McConfig(trials=1031, seed=K))
        z = mapsim._fold(config, prior, samples)
        centers = mapsim._grid_peak(z, 4096)
        batch = mapsim._refine_peaks(z, centers, _CELL)
        for size in (1, 7):
            parts = [mapsim._refine_peaks(z[i:i + size], centers[i:i + size], _CELL)
                     for i in range(0, 63, size)]
            assert np.array_equal(np.concatenate(parts), batch[:63])

    def test_monotone_window_ends_at_its_edge(self):
        # the grid peak lies within half a cell of the maximum, so windows
        # shifted by 1.5 cells see f fall (or rise) all the way across
        config = SignalConfig(K=20, snr=1.0)
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        _, samples = trials_of(config, prior, McConfig(trials=64, seed=4))
        z = mapsim._fold(config, prior, samples)
        centers = mapsim._grid_peak(z, 4096)
        above, below = centers + 1.5 * _CELL, centers - 1.5 * _CELL
        got_above = mapsim._refine_peaks(z, above, _CELL)
        got_below = mapsim._refine_peaks(z, below, _CELL)
        np.testing.assert_allclose(got_above, above - _CELL, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got_below, below + _CELL, rtol=0.0, atol=1e-12)

    def test_flat_objective_stays_finite(self):
        # zero coefficients make f, f' and f'' vanish everywhere
        centers = np.array([-1.0, 0.0, 2.5])
        with np.errstate(all="raise"):
            got = mapsim._refine_peaks(np.zeros((3, 20), complex), centers, _CELL)
        # no end is higher, so the left one is kept, as golden section does
        assert np.array_equal(got, centers - _CELL)


class TestMonteCarlo:
    def test_trial_streams_match_per_trial_generation(self, monkeypatch):
        # reference: trial by trial, theta from the (seed, 0) stream and the
        # noise from the (seed, 1) stream; kappa 1e7 takes numpy's
        # wrapped-normal branch of vonmises. Chunks of 7 put seams in the draws
        monkeypatch.setattr(mapsim, "_TRIAL_CHUNK", 7)
        for kappa in (0.0, 2.0, 800.0, 1e7):
            config = SignalConfig(K=7, snr=0.3)
            prior = VonMisesPrior(mu=0.5, kappa=kappa)
            mc = McConfig(trials=50, seed=12)
            truths, samples = trials_of(config, prior, mc)
            truth_rng, noise_rng = (np.random.default_rng([mc.seed, i]) for i in (0, 1))
            for t in range(mc.trials):
                theta = draw_theta(prior, truth_rng)
                assert truths[t] == theta
                assert np.array_equal(samples[t], observe(config, theta, noise_rng))

    def test_trials_are_a_prefix_of_longer_runs(self):
        config = SignalConfig(K=20, snr=0.5)
        prior = VonMisesPrior(mu=-1.0, kappa=3.0)
        truths, samples = trials_of(config, prior, McConfig(trials=300, seed=21))
        for n in (1, 37, 299):
            head, head_samples = trials_of(config, prior, McConfig(trials=n, seed=21))
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
        trials_of(config, VonMisesPrior(kappa=1.0), McConfig(trials=trials, seed=3))
        assert calls == [([3, 0],), ([3, 1],)]

    def test_each_chunk_is_folded_once(self, monkeypatch):
        # the grid search and the refinement share one fold per trial chunk:
        # 2,500 trials are three chunks of at most 1,024
        calls = []
        fold = mapsim._fold

        def counting(config, prior, samples):
            calls.append(len(samples))
            return fold(config, prior, samples)

        monkeypatch.setattr(mapsim, "_fold", counting)
        config = SignalConfig(K=20, snr=1.0)
        run_monte_carlo(config, VonMisesPrior(kappa=1.0), McConfig(trials=2500, seed=3))
        assert calls == [1024, 1024, 452]

    def test_memory_follows_the_chunk_not_the_trials(self):
        # one whole draw of 20,480 trials at K=20 holds 13 MiB of noise and samples
        config = SignalConfig(K=20, snr=1.0)
        prior = VonMisesPrior(kappa=1.0)
        run_monte_carlo(config, prior, McConfig(trials=1))  # fills the caches
        tracemalloc.start()
        try:
            run_monte_carlo(config, prior, McConfig(trials=20_480, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(("K", "grid_size"), [
        (1, 4096), (20, 4096), (1024, 4096), (1025, 4100), (2048, 8192)])
    def test_grid_holds_four_points_per_main_lobe(self, K, grid_size, monkeypatch):
        # G = max(4096, 4K); at K=2048 the 4096-point grid missed main lobes
        # (MSE 5.5e-7 against 1.9e-9 at G=8192 and a BCRB of 1.75e-9)
        sizes = []

        def grid_peak(z, size):  # records G and skips the search
            sizes.append(size)
            return np.zeros(len(z))

        monkeypatch.setattr(mapsim, "_grid_peak", grid_peak)
        run_monte_carlo(SignalConfig(K=K, snr=1.0), VonMisesPrior(kappa=1.0), McConfig(trials=3))
        assert sizes == [grid_size]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            McConfig(seed=seed)

    def test_numpy_integer_seed_is_taken_as_int(self):
        mc = McConfig(trials=3, seed=np.uint32(5))
        assert type(mc.seed) is int and mc == McConfig(trials=3, seed=5)

    @pytest.mark.parametrize(("field", "value"), [
        ("trials", 10.5), ("trials", 1000.0), ("trials", "3"), ("trials", None)])
    def test_sizes_must_be_integers(self, field, value):
        # a float size used to pass here and fail later inside run_monte_carlo
        with pytest.raises(ValueError, match=field):
            McConfig(**{field: value})

    def test_numpy_integer_sizes_are_taken_as_int(self):
        mc = McConfig(trials=np.int64(3))
        assert type(mc.trials) is int and mc == McConfig(trials=3)

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
        # the result must not depend on how trials split into chunks, since
        # a chunked draw equals one whole draw and rows are estimated alone
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

    def test_linear_error_escape_hatch(self):
        config = SignalConfig(K=20, snr=0.01)
        prior = VonMisesPrior(mu=0.0, kappa=0.0)
        mc = McConfig(trials=500, seed=6)
        wrapped = run_monte_carlo(config, prior, mc, wrap=True)
        linear = run_monte_carlo(config, prior, mc, wrap=False)
        assert linear.mse >= wrapped.mse
