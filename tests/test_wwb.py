"""Analytic bound: exponents, score matrix, bound value, exponent search.

The strongest checks are against oracles derived from first principles:
a Gaussian product-integral identity for the data exponents, direct-pdf
adaptive quadrature for the prior integrals, and a Monte Carlo estimate of
the defining score-product expectation for whole matrix entries. The
exponents are read per score product from `_cores` and `_log_integrals` of
the `_products` rows; whole entries come from the score matrices (`conftest.build_q`) of one- and
two-point sets.
"""
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from circbound import wwb
from circbound.numerics import QuadratureError, integrate, inverse_form
from circbound.prior import VonMisesPrior
from circbound.signal_model import SignalConfig
from circbound.testpoints import TestPointConfig, TestPointSet, build
from circbound.wwb import (
    WwbResult,
    _combine,
    _cores,
    _log_integrals,
    _products,
    _set_parts,
    _supports,
    _union,
    best_s,
    wwb_axis,
    wwb_value,
)

from conftest import (
    CROSS_LAYOUTS,
    build_q,
    mu_exponent_oracle,
    prior_power_integral_oracle,
    q_element_mc_oracle,
)

S_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def mu_cross(term, s_i, s_j, h_i, h_j, K, snr):
    """Data exponent of score product `term` (1..4)."""
    return snr * float(_cores(*_products(s_i, s_j, h_i, h_j), K)[term - 1])


def mu_i(s, h, K, snr):
    """Data exponent of the single-point normalizer, the first product with s_j = 0."""
    return mu_cross(1, s, 0.0, h, h, K, snr)


def gamma_cross(term, prior, s_i, s_j, h_i, h_j):
    """Prior log-integral of score product `term` (1..4); -inf on empty support."""
    return float(_log_integrals(prior, *_supports(*_products(s_i, s_j, h_i, h_j)))[term - 1])


def gamma_i(prior, s, h):
    """Prior log-integral of the single-point normalizer."""
    return gamma_cross(1, prior, s, 0.0, h, h)


def q_entry(h_a, h_b, s, prior, config):
    """Entry (h_a, h_b) of the score matrix, from the set of those one or two points."""
    h = sorted({float(h_a), float(h_b)})
    q = build_q(prior, config, TestPointSet(h=np.array(h), provenance=("E",) * len(h)), s)
    return float(q[0, -1])


class TestDataExponents:
    def test_single_sample_carries_nothing(self):
        assert mu_i(0.5, 0.7, 1, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_vanishes_at_zero_offset(self):
        assert mu_i(0.5, 1e-12, 20, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_mu_i_vs_gaussian_integral_oracle(self):
        s, h, K, snr = 0.5, 0.3 * math.pi, 20, 1.0
        want = mu_exponent_oracle((1.0 - s, s), (0.0, h), K, snr)
        assert mu_i(s, h, K, snr) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("term", [1, 2, 3, 4])
    def test_mu_cross_vs_gaussian_integral_oracle(self, term):
        rng = np.random.default_rng(100 + term)
        for _ in range(50):
            K = int(rng.integers(1, 40))
            snr = float(rng.uniform(0.01, 5.0))
            si = float(rng.uniform(0.05, 0.95))
            sj = float(rng.uniform(0.05, 0.95))
            hj = float(rng.uniform(1e-3, math.pi))
            hi = float(rng.uniform(hj, math.pi))
            weights, offsets = CROSS_LAYOUTS[term](si, sj, hi, hj)
            want = mu_exponent_oracle(weights, offsets, K, snr)
            got = mu_cross(term, si, sj, hi, hj, K, snr)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_equal_exponents_near_one_kill_term_four(self):
        got = mu_cross(4, 0.999, 0.999, 0.4 * math.pi, 0.2 * math.pi, 20, 1.0)
        assert abs(got) < 1e-2 * 1.0 * 20


class TestPriorExponents:
    def test_gamma_i_uniform_closed_form(self):
        prior = VonMisesPrior(kappa=0.0)
        h = 0.1 * math.pi
        want = math.log((2.0 * math.pi - h) / (2.0 * math.pi))
        assert gamma_i(prior, 0.5, h) == pytest.approx(want, abs=1e-10)
        assert want == pytest.approx(math.log(0.95), abs=1e-12)

    def test_gamma_i_matches_tight_quadrature(self):
        # scipy's adaptive quadrature of the density itself, at 1e-12 relative
        prior = VonMisesPrior(mu=0.0, kappa=2.0)
        want = prior_power_integral_oracle(prior, (0.5, 0.5), (0.0, 0.3 * math.pi))
        assert gamma_i(prior, 0.5, 0.3 * math.pi) == pytest.approx(want, abs=1e-12)

    def test_sampled_gammas_vs_direct_pdf_quadrature(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            term = int(rng.integers(1, 5))
            prior = VonMisesPrior(mu=float(rng.uniform(-math.pi, math.pi)),
                                  kappa=float(rng.uniform(0.0, 20.0)))
            si, sj = (float(v) for v in rng.uniform(0.05, 0.95, 2))
            h_j = float(rng.uniform(1e-3, math.pi))
            h_i = float(rng.uniform(h_j, math.pi))
            want = prior_power_integral_oracle(prior, *CROSS_LAYOUTS[term](si, sj, h_i, h_j))
            assert gamma_cross(term, prior, si, sj, h_i, h_j) == pytest.approx(want, abs=1e-12)

    def test_start_capped_at_fixed_start_maximum(self):
        # (4 + 2 pi sqrt(kappa)) / 2 would ask for 9,936 starting panels;
        # capped at 256 the doublings end at the 16,384-panel ceiling
        prior = VonMisesPrior(mu=0.0, kappa=1e7)
        with pytest.raises(QuadratureError, match="after 16384 panels"):
            _log_integrals(prior, np.array([1.0]), np.array([-math.pi]), np.array([math.pi]))

    # (kappa, mu): centred priors, then off-centre ones, whose end-peaked
    # integrals take many doublings from either start
    CONVERGE_CASES = [(k, 0.0) for k in (0.0, 1.0, 20.0, 100.0, 600.0)] + [
        (k, m) for k in (150.0, 600.0) for m in (1.0, 2.8)]

    @pytest.mark.parametrize("kappa, mu", CONVERGE_CASES,
                             ids=[f"{k}" + (f"-mu{m}" if m else "") for k, m in CONVERGE_CASES])
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_set_converges_wherever_fixed_starts_do(self, kappa, mu, s, monkeypatch):
        # every integral starting at 32 panels, as the fixed-start rule does,
        # is the reference the sized starts must converge with
        prior = VonMisesPrior(mu=mu, kappa=kappa)
        h = tuple(build(TestPointConfig(2, 9, 10), 20).h.tolist())
        _, gamma = _set_parts.__wrapped__(20, h, s, prior)
        fixed_start = lambda f, a, b, panels: integrate(f, a, b, np.full(a.shape, 32))
        monkeypatch.setattr(wwb, "integrate", fixed_start)
        try:
            _, fixed = _set_parts.__wrapped__(20, h, s, prior)
        except QuadratureError:
            return
        finite = np.isfinite(fixed)
        assert np.array_equal(finite, np.isfinite(gamma))
        np.testing.assert_allclose(gamma[finite], fixed[finite], rtol=0.0, atol=1e-12)

    def test_gamma_i_vs_direct_pdf_quadrature(self):
        for kappa, mu, s, h in [
            (2.0, 0.0, 0.5, 0.3 * math.pi),
            (5.0, 0.7, 0.3, 0.6 * math.pi),
            (1.0, -0.4, 0.8, 0.05 * math.pi),
        ]:
            prior = VonMisesPrior(mu=mu, kappa=kappa)
            want = prior_power_integral_oracle(prior, (1.0 - s, s), (0.0, h))
            assert gamma_i(prior, s, h) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("term", [1, 2, 3, 4])
    def test_gamma_cross_uniform_closed_forms(self, term):
        prior = VonMisesPrior(kappa=0.0)
        h_i, h_j = 0.4 * math.pi, 0.15 * math.pi
        length = {
            1: 2.0 * math.pi - h_i,
            2: 2.0 * math.pi - h_i - h_j,
            3: 2.0 * math.pi - h_i - h_j,
            4: 2.0 * math.pi - h_i,
        }[term]
        want = math.log(length / (2.0 * math.pi))
        got = gamma_cross(term, prior, 0.5, 0.5, h_i, h_j)
        assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("term", [1, 2, 3, 4])
    def test_gamma_cross_vs_direct_pdf_quadrature(self, term):
        for kappa, mu, si, sj, h_i, h_j in [
            (2.0, 0.0, 0.5, 0.5, 0.3 * math.pi, 0.15 * math.pi),
            (1.0, 0.6, 0.4, 0.7, 0.8 * math.pi, 0.2 * math.pi),
            (5.0, -1.0, 0.6, 0.3, 0.5 * math.pi, 0.5 * math.pi),
        ]:
            prior = VonMisesPrior(mu=mu, kappa=kappa)
            weights, offsets = CROSS_LAYOUTS[term](si, sj, h_i, h_j)
            want = prior_power_integral_oracle(prior, weights, offsets)
            got = gamma_cross(term, prior, si, sj, h_i, h_j)
            assert got == pytest.approx(want, abs=1e-12)

    def test_gamma_cross_empty_support(self):
        # term 2's interval [-pi + h_i, pi - h_j] vanishes at h_i = h_j = pi
        got = gamma_cross(2, VonMisesPrior(kappa=1.0), 0.5, 0.5, math.pi, math.pi)
        assert got == -math.inf


class TestQMatrix:
    def test_symmetry_under_argument_swap(self):
        # swapping the points maps products 1, 2, 3, 4 to 1, 3, 2, 4, and the
        # entry combines them with signs +, -, -, +
        prior = VonMisesPrior(mu=0.2, kappa=1.5)
        config = SignalConfig(K=20, snr=0.5)
        rng = np.random.default_rng(55)
        for _ in range(50):
            h_a = float(rng.uniform(0.01, math.pi))
            h_b = float(rng.uniform(0.01, math.pi))
            # column 0 holds (h_a, h_b), column 1 the swapped pair
            w, o = _products(0.5, 0.5, np.array([h_a, h_b]), np.array([h_b, h_a]))
            logs = _log_integrals(prior, *_supports(w, o)).reshape(4, 2)
            for x in (_cores(w, o, config.K), logs):
                assert x[:, 0] == pytest.approx(x[[0, 2, 1, 3], 1], rel=1e-10)

    def test_monte_carlo_oracle_uniform_prior(self):
        prior = VonMisesPrior(mu=0.0, kappa=0.0)
        config = SignalConfig(K=2, snr=1.0)
        h = 0.3 * math.pi
        est, se = q_element_mc_oracle(h, h, 0.5, prior, config, 1_000_000, 123)
        exact = q_entry(h, h, 0.5, prior, config)
        assert abs(exact - est) <= 3.0 * se

    def test_monte_carlo_oracle_off_diagonal_concentrated(self):
        prior = VonMisesPrior(mu=0.3, kappa=1.5)
        config = SignalConfig(K=2, snr=1.0)
        est, se = q_element_mc_oracle(
            0.45 * math.pi, 0.2 * math.pi, 0.5, prior, config, 1_000_000, 7
        )
        exact = q_entry(0.45 * math.pi, 0.2 * math.pi, 0.5, prior, config)
        assert abs(exact - est) <= 3.0 * se

    def test_monte_carlo_oracle_three_samples(self):
        prior = VonMisesPrior(mu=0.0, kappa=2.0)
        config = SignalConfig(K=3, snr=0.5)
        est, se = q_element_mc_oracle(
            0.5 * math.pi, 0.5 * math.pi, 0.4, prior, config, 1_000_000, 99
        )
        exact = q_entry(0.5 * math.pi, 0.5 * math.pi, 0.4, prior, config)
        assert abs(exact - est) <= 3.0 * se

    def test_assembled_matrix_symmetric_positive_diagonal(self):
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        config = SignalConfig(K=20, snr=1.0)
        points = build(TestPointConfig(2, 9, 10), 20)
        q = build_q(prior, config, points)
        assert np.allclose(q, q.T, rtol=1e-9)
        assert np.all(np.diag(q) > 0.0)

    def test_build_q_exactly_symmetric(self):
        config = SignalConfig(K=20, snr=1.0)
        for kappa, trio, s in [
            (1.0, (2, 9, 10), 0.5), (20.0, (2, 9, 0), 0.1), (0.0, (2, 3, 2), 0.9),
        ]:
            q = build_q(VonMisesPrior(mu=0.7, kappa=kappa), config,
                        build(TestPointConfig(*trio), 20), s)
            assert np.array_equal(q, q.T)


class TestArrayPath:
    """build_q's broadcast assembly against the entries of one- and two-point sets."""

    @staticmethod
    def _sets(K):
        sets = [
            TestPointSet(
                h=np.array([0.001, 0.01, 0.25, 0.6, 1.0]) * math.pi,
                provenance=("C", "C", "E", "E", "E"),
            ),
            # near-duplicate points
            TestPointSet(
                h=np.array([0.3 * math.pi, 0.3 * math.pi + 1e-9, 0.8 * math.pi]),
                provenance=("E", "E", "E"),
            ),
        ]
        if K >= 20:
            sets.append(build(TestPointConfig(2, 3, 2), K))
        return sets

    @pytest.mark.parametrize("K", [1, 2, 20, 60])
    def test_build_q_matches_q_element(self, K):
        config = SignalConfig(K=K, snr=0.5)
        for kappa in (0.0, 20.0):
            prior = VonMisesPrior(mu=0.7, kappa=kappa)
            for points in self._sets(K):
                for s in (0.1, 0.5, 0.9):
                    q = build_q(prior, config, points, s)
                    h = points.h
                    for a in range(len(h)):
                        for b in range(a, len(h)):
                            want = q_entry(h[a], h[b], s, prior, config)
                            assert q[a, b] == pytest.approx(want, rel=1e-9)
                            assert q[b, a] == q[a, b]

    def test_drop_matches_reduced_set(self):
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        config = SignalConfig(K=20, snr=1.0)
        h = 0.3 * math.pi
        points = TestPointSet(
            h=np.array([0.1 * math.pi, h, h + 1e-13, 0.7 * math.pi]),
            provenance=("E",) * 4,
        )
        res = wwb_value(prior, config, points)
        assert len(res.dropped_points) == 1
        keep = np.arange(len(points)) != res.dropped_points[0]
        reduced = wwb_value(prior, config, TestPointSet(h=points.h[keep], provenance=("E",) * 3))
        assert reduced.dropped_points == ()
        assert res.mse_bound == pytest.approx(reduced.mse_bound, rel=1e-12)


class TestBoundValue:
    def test_single_point_scalar_formula(self):
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        config = SignalConfig(K=20, snr=1.0)
        h = 0.3 * math.pi
        points = TestPointSet(h=np.array([h]), provenance=("E",))
        res = wwb_value(prior, config, points)
        q11 = build_q(prior, config, points)[0, 0]
        assert res.mse_bound == pytest.approx(h * h / q11, rel=1e-12)

    def test_near_duplicate_point_dropped(self):
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        config = SignalConfig(K=20, snr=1.0)
        h = 0.3 * math.pi
        points = TestPointSet(
            h=np.array([h, h + 1e-13]), provenance=("E", "E")
        )
        res = wwb_value(prior, config, points)
        assert len(res.dropped_points) == 1
        assert res.mse_bound > 0.0

    @pytest.mark.parametrize("s", [0.1, 0.2, 0.3, 0.4])
    def test_exponent_reflection_symmetry(self, s):
        prior = VonMisesPrior(mu=0.0, kappa=2.0)
        config = SignalConfig(K=20, snr=1.0)
        points = build(TestPointConfig(2, 9, 0), 20)
        (lo,), (hi,) = wwb_axis(prior, config.K, [points], [config.snr], [s, 1.0 - s])[0]
        assert lo.mse_bound == pytest.approx(hi.mse_bound, rel=1e-9)

    def test_point_monotonicity_nested_sets(self):
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        for snr_db in (-15.0, -5.0, 5.0):
            config = SignalConfig(K=20, snr=10.0 ** (snr_db / 10.0))
            values = [
                wwb_value(prior, config, build(TestPointConfig(2, n, 0), 20)).mse_bound
                for n in (1, 3, 5, 7, 9)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_no_information_saturation(self):
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        config = SignalConfig(K=20, snr=1e-4)  # -40 dB
        res = wwb_value(prior, config, build(TestPointConfig(2, 9, 10), 20))
        floor_db = 10.0 * math.log10(prior.variance())
        assert abs(10.0 * math.log10(res.mse_bound) - floor_db) < 1.0


def _one_snr_search(prior, config, points, s_grid=S_GRID):
    """`best_s` of `wwb_axis` at the one SNR of `config`: the result or the error."""
    per_s = wwb_axis(prior, config.K, [points], [config.snr], s_grid)[0]
    return best_s(s_grid, [outcome for (outcome,) in per_s])


class TestOptimizeS:
    def test_single_element_grid(self):
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        config = SignalConfig(K=20, snr=1.0)
        points = build(TestPointConfig(2, 9, 0), 20)
        res = _one_snr_search(prior, config, points, s_grid=[0.5])
        assert res.s == 0.5
        assert res.mse_bound > 0.0

    def test_half_is_maximizer(self):
        prior = VonMisesPrior(mu=0.0, kappa=2.0)
        config = SignalConfig(K=20, snr=10.0 ** (-0.5))
        points = build(TestPointConfig(2, 9, 0), 20)
        assert _one_snr_search(prior, config, points).s == 0.5

    def test_failed_exponents_recorded(self):
        # at K=60 and +30 dB, the s=0.1 bound underflows and the s=0.5 one does not
        prior = VonMisesPrior(mu=0.0, kappa=2.0)
        config = SignalConfig(K=60, snr=1000.0)
        points = build(TestPointConfig(2, 9, 0), 60)
        res = _one_snr_search(prior, config, points, s_grid=[0.1, 0.5])
        assert res.s == 0.5
        assert [s for s, _ in res.s_failed] == [0.1]
        assert "underflows double precision" in res.s_failed[0][1]
        clean = _one_snr_search(prior, config, points, s_grid=[0.5])
        assert clean.s_failed == ()

    def test_every_exponent_failing_is_an_error(self):
        prior = VonMisesPrior(mu=0.0, kappa=2.0)
        config = SignalConfig(K=200, snr=100.0)
        outcome = _one_snr_search(prior, config, build(TestPointConfig(2, 9, 0), 200), [0.1, 0.5])
        assert isinstance(outcome, RuntimeError)
        assert str(outcome).startswith("bound evaluation failed at every s grid point: s=0.1: ")

    @pytest.mark.parametrize("s_grid", [[0.75, 0.25], [0.25, 0.75], [0.3, 0.7], [0.7, 0.3]])
    def test_tie_broken_toward_smaller_s(self, s_grid):
        # the bound is symmetric under s -> 1 - s. 0.25 and 0.75 lie exactly
        # as far from 0.5; 0.3 and 0.7 only up to rounding, 0.7 - 0.5 < 0.5 - 0.3
        prior = VonMisesPrior(mu=0.0, kappa=2.0)
        config = SignalConfig(K=20, snr=1.0)
        points = build(TestPointConfig(2, 9, 0), 20)
        assert _one_snr_search(prior, config, points, s_grid).s == min(s_grid)

    def test_invalid_grid_rejected(self):
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        config = SignalConfig(K=20, snr=1.0)
        points = build(TestPointConfig(2, 9, 0), 20)
        with pytest.raises(ValueError):
            _one_snr_search(prior, config, points, s_grid=[])
        with pytest.raises(ValueError):
            _one_snr_search(prior, config, points, s_grid=[0.0, 0.5])


def _stored(outcome):
    """A result, or its error as (type, message)."""
    return (type(outcome), str(outcome)) if isinstance(outcome, Exception) else outcome


def _one_snr(call):
    """A one-SNR result of a call that raises its error, in `_stored` form."""
    try:
        return call()
    except RuntimeError as err:
        return _stored(err)


class TestSnrAxis:
    """The stacked (s, SNR) grid against one-s and one-SNR calls, which must
    agree bit for bit."""

    SNR_DB = [-20.0, -12.5, -5.0, 0.0, 2.5, 5.0, 7.5, 10.0]

    @staticmethod
    def _sets():
        h = 0.3 * math.pi
        return [
            TestPointSet(
                h=np.array([0.001, 0.01, 0.25, 0.6, 1.0]) * math.pi,
                provenance=("C", "C", "E", "E", "E"),
            ),
            # a near-duplicate pair forces a drop
            TestPointSet(
                h=np.array([0.1 * math.pi, h, h + 1e-13, 0.7 * math.pi]),
                provenance=("E",) * 4,
            ),
        ]

    @pytest.mark.parametrize("K", [5, 20, 60])
    def test_axis_equals_one_snr_calls(self, K):
        snrs = [10.0 ** (v / 10.0) for v in self.SNR_DB]
        dropped = 0
        for kappa in (0.0, 2.0, 20.0):
            for mu in (0.0, 0.7):
                prior = VonMisesPrior(mu=mu, kappa=kappa)
                for points in self._sets():
                    for s in (0.1, 0.5, 0.9):
                        (axis,) = wwb_axis(prior, K, [points], snrs, [s])[0]
                        for snr, outcome in zip(snrs, axis):
                            ((one,),) = wwb_axis(prior, K, [points], [snr], [s])[0]
                            assert _stored(outcome) == _stored(one)
                            if s == 0.5:
                                config = SignalConfig(K=K, snr=snr)
                                assert _one_snr(lambda: wwb_value(prior, config, points)) == _stored(one)
                            dropped += bool(getattr(outcome, "dropped_points", ()))
        assert dropped > 0

    def test_optimize_axis_equals_wwb_axis_at_chosen_s(self):
        # every s of the grid is eliminated in one stack, drops included
        snrs = [10.0 ** (v / 10.0) for v in self.SNR_DB]
        s_grid = [0.1, 0.5, 0.9]
        for kappa in (0.0, 2.0):
            prior = VonMisesPrior(mu=0.7, kappa=kappa)
            for points in self._sets():
                per_s = {s: wwb_axis(prior, 20, [points], snrs, [s])[0][0] for s in s_grid}
                axis = [best_s(s_grid, outcomes)
                        for outcomes in zip(*wwb_axis(prior, 20, [points], snrs, s_grid)[0])]
                for i, res in enumerate(axis):
                    assert replace(res, s_failed=()) == per_s[res.s][i]

    def test_optimize_axis_equals_one_snr_calls(self):
        # at K=200 the bound underflows at s=0.1 and 0.9 at +15 dB, and at
        # every s at +20 dB
        prior = VonMisesPrior(mu=0.0, kappa=2.0)
        points = build(TestPointConfig(2, 9, 0), 200)
        snrs = [10.0 ** (v / 10.0) for v in self.SNR_DB + [15.0, 20.0]]
        s_grid = [0.9, 0.1, 0.5]
        axis = [best_s(s_grid, outcomes)
                for outcomes in zip(*wwb_axis(prior, 200, [points], snrs, s_grid)[0])]
        failed = set()
        for snr, outcome in zip(snrs, axis):
            config = SignalConfig(K=200, snr=snr)
            one = _one_snr_search(prior, config, points, s_grid)
            assert _stored(outcome) == _stored(one)
            failed.add(len(outcome.s_failed) if isinstance(outcome, WwbResult) else type(outcome))
        assert failed == {0, 2, RuntimeError}

    def test_underflow_stored_per_snr(self):
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        points = build(TestPointConfig(2, 9, 10), 200)
        snrs = [10.0 ** (v / 10.0) for v in (0.0, 18.0, 20.0)]
        ((low, mid, high),) = wwb_axis(prior, 200, [points], snrs, [0.5])[0]
        assert low == wwb_value(prior, SignalConfig(K=200, snr=1.0), points)
        with pytest.raises(RuntimeError, match="^bound value 0 underflows double precision$"):
            wwb_value(prior, SignalConfig(K=200, snr=1e3), points)
        assert isinstance(mid, RuntimeError) and isinstance(high, RuntimeError)
        assert str(mid) == "bound value 0 underflows double precision"
        assert str(high) == "bound value 0 underflows double precision"

    def test_subnormal_bound_is_underflow(self):
        # at K=60, s=0.1, +28 dB the bound is about 8e-313: representable
        # only with lost digits, so it is reported as an underflow too
        prior = VonMisesPrior(mu=0.0, kappa=2.0)
        points = build(TestPointConfig(2, 9, 10), 60)
        ((outcome,),) = wwb_axis(prior, 60, [points], [10.0 ** 2.8], [0.1])[0]
        assert isinstance(outcome, RuntimeError)
        assert re.fullmatch(r"bound value [1-9][.0-9]*e-3[01]\d underflows double precision",
                            str(outcome))

    @pytest.mark.parametrize("K, s_values", [
        (20, (0.1, 0.5, 0.9)), (40, (0.1, 0.5, 0.9)), (60, (0.5,)),
    ])
    def test_finite_over_advertised_snr_range(self, K, s_values):
        # the correlation-matrix assembly has no exponent limit: every SNR of
        # the CLI's [-45, 30] dB range gives a finite, positive bound
        snr_db = np.arange(-45.0, 31.0)
        points = build(TestPointConfig(2, 9, 10), K)
        for kappa in (0.0, 2.0, 20.0):
            for axis in wwb_axis(VonMisesPrior(kappa=kappa), K, [points], 10.0 ** (snr_db / 10.0),
                                 s_values)[0]:
                for outcome in axis:
                    assert isinstance(outcome, WwbResult)
                    assert math.isfinite(10.0 * math.log10(outcome.mse_bound))
                    assert outcome.mse_bound > 0.0

    @pytest.mark.parametrize("snr", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_invalid_snr_rejected(self, snr):
        # a negative SNR gives a meaningless value (7.5e8 rad^2 at -1), and NaN
        # or inf drop every test point
        points = build(TestPointConfig(2, 9, 10), 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="snr must be finite and >= 0"):
                wwb_axis(VonMisesPrior(mu=0.0, kappa=1.0), 20, [points], [1.0, snr], [0.5])[0]

    def test_zero_snr_is_the_prior_only_bound(self):
        prior = VonMisesPrior(mu=0.0, kappa=1.0)
        points = build(TestPointConfig(2, 9, 10), 20)
        ((zero, tiny),) = wwb_axis(prior, 20, [points], [0.0, 1e-12], [0.5])[0]
        assert zero.mse_bound == pytest.approx(1.603476, rel=1e-6)
        assert zero.mse_bound == pytest.approx(tiny.mse_bound, rel=1e-9)
        assert zero.mse_bound <= prior.variance()

    def test_s_grid_equals_one_s_calls(self):
        # at kappa = 2e5 the set {0.1 pi, 0.9 pi} builds its score matrix at
        # s = 0.3 .. 0.7 only: the quadrature of s = 0.1 and 0.9 does not
        # converge, and that error is stored at every SNR of those s
        snrs = [10.0 ** (v / 10.0) for v in self.SNR_DB]
        s_grid = [0.9, 0.1, 0.5, 0.3]
        wide = TestPointSet(h=np.array([0.1, 0.9]) * math.pi, provenance=("E", "E"))
        cases = [(VonMisesPrior(kappa=2e5), wide)]
        cases += [(VonMisesPrior(mu=0.7, kappa=2.0), points) for points in self._sets()]
        failed = set()
        for prior, points in cases:
            grid = wwb_axis(prior, 20, [points], snrs, s_grid)[0]
            assert len(grid) == len(s_grid)
            for s, axis in zip(s_grid, grid):
                (one,) = wwb_axis(prior, 20, [points], snrs, [s])[0]
                assert [_stored(o) for o in axis] == [_stored(o) for o in one]
                assert all(o.s == s for o in axis if isinstance(o, WwbResult))
                if isinstance(axis[0], QuadratureError):
                    assert all(o is axis[0] for o in axis)
                    failed.add(s)
        assert failed == {0.9, 0.1}


def _subset(h: np.ndarray) -> TestPointSet:
    return TestPointSet(h=h, provenance=("E",) * h.size)


class TestPools:
    """Test-point sets solved as masks of one pool, their union, against each
    set on its own: `wwb_axis` of several sets must report for each what it
    reports alone."""

    SNRS = 10.0 ** (np.arange(-20.0, 11.0, 2.5) / 10.0)
    S_GRID = [0.1, 0.5, 0.9]

    UNION = 5  # the index of the set that is the whole pool

    @staticmethod
    def _sets():
        big = np.array([0.001, 0.01, 0.1, 0.3, 0.3, 0.7, 0.9]) * math.pi
        big[4] += 1e-13  # a near-duplicate pair forces drops
        other = np.array([0.2, 0.5]) * math.pi
        return [
            _subset(big[[0, 2, 3, 4, 5]]),
            _subset(big),
            _subset(big[[1, 5]]),
            _subset(other),  # nests in no other set
            _subset(big[[1, 5]]),  # equal to a set before it
            _subset(np.sort(np.concatenate([big, other]))),  # the union of all
        ]

    def test_union_holds_each_offset_once(self):
        # the near-duplicate pair 0.3 pi, 0.3 pi + 1e-13 also comes from two
        # one-point sets, the larger offset first
        sets = self._sets()
        sets += [_subset(sets[1].h[[4]]), _subset(sets[1].h[[3]])]
        pool, masks = _union(sets)
        assert pool.tolist() == sorted({h for points in sets for h in points.h.tolist()})
        assert pool.tolist() == sets[self.UNION].h.tolist()
        assert len(masks) == len(sets)
        for points, mask in zip(sets, masks):
            assert mask.dtype == bool and mask.shape == pool.shape
            assert pool[mask].tolist() == points.h.tolist()

    @pytest.mark.parametrize("K", [5, 20, 60])
    def test_members_equal_their_slice_of_the_pool(self, K):
        # bit for bit: a member is solved from the pool's SNR-free parts
        # sliced to its mask, drops included; under an even prior s = 0.9
        # is the partner of 0.1 and is solved from 0.1's parts
        sets = self._sets()
        pool, masks = _union(sets)
        dropped = 0
        for kappa, mu in ((0.0, 0.0), (2.0, 0.7), (20.0, 0.0)):
            prior = VonMisesPrior(mu=mu, kappa=kappa)
            pooled = wwb_axis(prior, K, sets, self.SNRS, self.S_GRID)
            solved_at = {0.9: 0.1} if mu == 0.0 else {}
            for k, s in enumerate(self.S_GRID):
                core, gamma = _set_parts(K, tuple(pool.tolist()), solved_at.get(s, s), prior)
                for i, mask in enumerate(masks):
                    at = np.flatnonzero(mask)
                    c, half = _combine(core[:, at[:, None], at], gamma[:, at[:, None], at], self.SNRS)
                    values, kept = inverse_form(c, pool[at] * np.exp(-half))
                    for outcome, value, keep in zip(pooled[i][k], values.tolist(), kept.tolist()):
                        assert _stored(outcome) == _stored(wwb._outcome(s, value, keep))
                        dropped += keep.count(False)
        assert dropped > 0

    @pytest.mark.parametrize("K", [5, 20, 60])
    def test_each_set_reports_what_it_reports_alone(self, K):
        sets = self._sets()
        for kappa, mu in ((0.0, 0.0), (2.0, 0.7), (20.0, 0.0)):
            prior = VonMisesPrior(mu=mu, kappa=kappa)
            pooled = wwb_axis(prior, K, sets, self.SNRS, self.S_GRID)
            assert len(pooled) == len(sets)
            for i, (per_s, points) in enumerate(zip(pooled, sets)):
                (alone,) = wwb_axis(prior, K, [points], self.SNRS, self.S_GRID)
                for got, want in zip(sum(per_s, []), sum(alone, [])):
                    if isinstance(want, RuntimeError):
                        assert _stored(got) == _stored(want)
                        continue
                    assert (got.s, got.dropped_points) == (want.s, want.dropped_points)
                    # the set that is the whole pool is bit for bit; another
                    # set's prior integrals may round apart in the last bit
                    # (CHANGES.md)
                    tol = 0.0 if i == self.UNION else 1e-14
                    assert got.mse_bound == pytest.approx(want.mse_bound, rel=tol, abs=0.0)

    @pytest.mark.parametrize("kappa, mu", [(0.0, 0.0), (2.0, 0.7), (2e5, 0.0)])
    def test_order_of_sets_changes_no_outcome(self, kappa, mu):
        # at kappa = 2e5 the pool fails, and every set but the union is built alone
        sets = self._sets()
        order = [3, 5, 0, 4, 2, 1]
        prior = VonMisesPrior(mu=mu, kappa=kappa)
        pooled = wwb_axis(prior, 20, sets, self.SNRS, self.S_GRID)
        permuted = wwb_axis(prior, 20, [sets[i] for i in order], self.SNRS, self.S_GRID)
        for j, i in enumerate(order):
            assert [[_stored(o) for o in axis] for axis in permuted[j]] == [
                [_stored(o) for o in axis] for axis in pooled[i]]

    def test_errors_stay_per_set(self):
        # at kappa = 2e5 the set {0.1 pi, 0.5 pi, 0.9 pi} fails at every s
        # on an entry that the set {0.1 pi, 0.9 pi} lacks; that set, built
        # alone, fails at s = 0.1 on its own entry and holds an underflow at 0.5
        h = np.array([0.1, 0.5, 0.9]) * math.pi
        sets = [_subset(h[[0, 2]]), _subset(h)]
        prior = VonMisesPrior(kappa=2e5)
        pooled = wwb_axis(prior, 20, sets, [1.0, 10.0], [0.1, 0.5])
        for per_s, points in zip(pooled, sets):
            (alone,) = wwb_axis(prior, 20, [points], [1.0, 10.0], [0.1, 0.5])
            assert [[_stored(o) for o in axis] for axis in per_s] == [
                [_stored(o) for o in axis] for axis in alone]
        assert str(pooled[0][0][0]) != str(pooled[1][0][0])
        assert isinstance(pooled[0][0][0], QuadratureError)

    def test_no_sets_no_results(self):
        assert wwb_axis(VonMisesPrior(kappa=1.0), 20, [], [1.0], [0.5]) == []


class TestMirrorPairs:
    """Under an even prior (kappa = 0, or mu = 0 or +-pi) the mirror
    theta -> -theta maps product t at s onto product 3 - t at 1 - s, so the
    bound at s equals the bound at 1 - s and `wwb_axis` solves each mirror
    pair of its grid once; an uneven prior keeps every s."""

    EVEN = [(kappa, mu) for mu in (0.0, math.pi, -math.pi) for kappa in (0.0, 1.0, 20.0, 300.0)]
    EVEN += [(0.0, 0.7)]
    SNRS = 10.0 ** (np.arange(-20.0, 11.0, 2.5) / 10.0)

    @pytest.mark.parametrize("kappa, mu", EVEN)
    def test_row_and_its_mirror_match_the_density_quadrature(self, kappa, mu):
        # the products of one entry at s = 0.3 and of one normalizer, each
        # row (w, o) and its mirror (w, -o); at kappa = 300 some integrals
        # are near e^-177, so the oracle is held to relative accuracy alone
        prior = VonMisesPrior(mu=mu, kappa=kappa)
        w, o = (x.transpose(0, 2, 1).reshape(-1, 3) for x in _products(
            0.3, np.array([0.3, 0.0]), np.array([0.7, 0.4]) * math.pi,
            np.array([0.2, 0.4]) * math.pi))
        for sign in (1.0, -1.0):
            got = _log_integrals(prior, *_supports(w, sign * o))
            for row in range(len(w)):
                want = prior_power_integral_oracle(prior, w[row], sign * o[row])
                assert got[row] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("K", [5, 20, 60])
    def test_bound_at_s_equals_bound_at_one_minus_s(self, K):
        # each side's prior integrals converge to 1e-10 on their own nodes,
        # and the close points' entries cancel to about h^2: at kappa = 20
        # and 300 the two sides agree to about 4e-10 at worst (K = 5), at
        # kappa <= 1 to about 5e-14
        points = build(TestPointConfig(2, 2 if K == 5 else 9, 10), K)
        for kappa, mu in self.EVEN:
            prior = VonMisesPrior(mu=mu, kappa=kappa)
            tol = 1e-12 if kappa <= 1.0 else 1e-9
            for s in (0.1, 0.3):
                ((lo,), (hi,)) = (wwb_axis(prior, K, [points], self.SNRS, [v])[0]
                                  for v in (s, 1.0 - s))
                for a, b in zip(lo, hi):
                    assert (a.s, b.s) == (s, 1.0 - s)
                    assert a.dropped_points == b.dropped_points
                    assert a.mse_bound == pytest.approx(b.mse_bound, rel=tol, abs=0.0)

    def test_uneven_prior_is_not_symmetric(self):
        prior = VonMisesPrior(mu=0.7, kappa=1.0)
        points = build(TestPointConfig(2, 9, 10), 20)
        ((lo,), (hi,)) = wwb_axis(prior, 20, [points], [0.1], [0.1, 0.9])[0]
        assert abs(lo.mse_bound / hi.mse_bound - 1.0) > 0.01

    def test_uneven_prior_solves_every_s(self):
        s_grid = list(S_GRID)
        for kappa, mu in ((1.0, 0.7), (20.0, 0.7), (2.0, 1.5707963267948966)):
            prior = VonMisesPrior(mu=mu, kappa=kappa)
            for points in TestSnrAxis._sets():
                grid = wwb_axis(prior, 20, [points], self.SNRS, s_grid)[0]
                for s, axis in zip(s_grid, grid):
                    assert axis == wwb_axis(prior, 20, [points], self.SNRS, [s])[0][0]

    @pytest.mark.parametrize("kappa, mu, calls", [(2.0, 0.0, 3), (2.0, -math.pi, 3),
                                                  (0.0, 0.7, 3), (2.0, 0.7, 5)])
    def test_partner_is_its_representative_relabelled(self, kappa, mu, calls, monkeypatch):
        # 0.7 pairs with 1 - 0.7, which is not 0.3 in doubles, and 0.1 with
        # the 0.9 of np.arange(0.05, 1.0, 0.05), whose sum is 1 + 2^-52; a
        # partner's results are its representative's bit for bit
        s_grid = [0.9000000000000001, 0.1, 0.5, 1.0 - 0.7, 0.7]
        partners = {0: 1, 4: 3} if calls == 3 else {}
        prior = VonMisesPrior(mu=mu, kappa=kappa)
        seen = []
        monkeypatch.setattr(wwb, "integrate",
                            lambda *args, f=wwb.integrate: seen.append(1) or f(*args))
        for points in TestSnrAxis._sets():
            grid = wwb_axis(prior, 20, [points], self.SNRS, s_grid)[0]
            for s, axis in zip(s_grid, grid):
                assert all(o.s == s for o in axis)
            for k, rep in partners.items():
                assert grid[k] == [replace(o, s=s_grid[k]) for o in grid[rep]]
        assert len(seen) == 2 * calls
