"""Test-point vector construction: close, side-lobe, and even families."""
import math

import numpy as np
import pytest

from circbound import testpoints
from circbound.numerics import dirichlet_kernel
from circbound.prior import VonMisesPrior
from circbound.signal_model import SignalConfig
from circbound.testpoints import (
    DEDUP_TOL,
    TestPointConfig,
    TestPointSet,
    build,
    close_points,
    even_points,
    sidelobe_points,
)
from circbound.wwb import wwb_value

from conftest import sidelobe_oracle


class TestClosePoints:
    def test_exact_values(self):
        assert close_points().tolist() == [0.001 * math.pi, 0.01 * math.pi]

    def test_positive_and_near_origin(self):
        pts = close_points()
        assert np.all(pts > 0.0) and np.all(pts < 0.1 * math.pi)


class TestEvenPoints:
    def test_ten_point_layout(self):
        pts = even_points(10)
        assert pts[0] == pytest.approx(0.1 * math.pi)
        assert pts[-1] == pytest.approx(math.pi)
        assert np.allclose(np.diff(pts), math.pi / 10.0)

    def test_single_point(self):
        assert even_points(1).tolist() == [0.1 * math.pi]

    def test_range(self):
        for n in (1, 2, 5, 17):
            pts = even_points(n)
            assert np.all(pts >= 0.1 * math.pi - 1e-15)
            assert np.all(pts <= math.pi + 1e-15)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            even_points(0)


class TestSidelobePoints:
    def test_census_K20(self):
        assert sidelobe_points(20).size == 9

    @pytest.mark.parametrize("K", [5, 10, 20, 33, 50])
    def test_positive_local_maxima(self, K):
        eps = 1e-5
        for h in sidelobe_points(K):
            val = dirichlet_kernel(h, K)[0]
            assert val > 0.0
            left = dirichlet_kernel(max(h - eps, 1e-9), K)[0]
            right = dirichlet_kernel(min(h + eps, math.pi), K)[0]
            assert val >= left - 1e-9 and val >= right - 1e-9

    def test_grid_step_halving_stability(self, monkeypatch):
        # the uncached search: a patched module constant must neither hit
        # nor fill the cache of sidelobe_points
        K = 20
        monkeypatch.setattr(testpoints, "_SCAN_POINTS", 64)
        coarse = sidelobe_points.__wrapped__(K)
        monkeypatch.setattr(testpoints, "_SCAN_POINTS", 128)
        fine = sidelobe_points.__wrapped__(K)
        assert coarse.size == fine.size
        assert np.max(np.abs(coarse - fine)) < 1e-6

    def test_lobes_bracketed_by_nulls(self):
        K = 20
        nulls = 2.0 * math.pi * np.arange(1, K // 2 + 1) / K
        for h in sidelobe_points(K):
            below = nulls[nulls < h]
            above = nulls[nulls > h]
            assert below.size >= 1
            assert above.size == 0 or h < above[0]

    def test_beyond_main_lobe(self):
        for K in (4, 20, 41):
            pts = sidelobe_points(K)
            assert np.all(pts > 2.0 * math.pi / K)
            assert np.all(pts <= math.pi)

    def test_odd_K_boundary_lobe(self):
        # odd sample counts put the last positive lobe exactly at the boundary
        pts = sidelobe_points(21)
        assert pts[-1] == pytest.approx(math.pi)
        assert dirichlet_kernel(math.pi, 21)[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("K", [*range(2, 65), 99, 100, 101, 200, 201])
    @pytest.mark.parametrize("per_sample", [64, 128])
    def test_matches_per_lobe_search_bit_for_bit(self, K, per_sample, monkeypatch):
        monkeypatch.setattr(testpoints, "_SCAN_POINTS", per_sample)
        got = sidelobe_points.__wrapped__(K)
        assert np.array_equal(got, sidelobe_oracle(K, math.pi / (per_sample * K)))

    @pytest.mark.parametrize("K", [20, 200])
    def test_one_search_for_every_lobe(self, K, monkeypatch):
        # a search per lobe makes 280 kernel calls at K=20 and 2,575 at K=200
        calls = []

        def counting(h, K):
            calls.append(h)
            return dirichlet_kernel(h, K)

        monkeypatch.setattr(testpoints, "dirichlet_kernel", counting)
        sidelobe_points.__wrapped__(K)
        assert len(calls) < 50

    def test_one_search_per_k_for_every_trio(self, monkeypatch):
        # figure 8's five trios of K = 20 share one search, whose shared
        # array is read-only and equal to the uncached search's
        calls = []
        monkeypatch.setattr(testpoints, "dirichlet_kernel",
                            lambda h, K: calls.append(h) or dirichlet_kernel(h, K))
        sidelobe_points.cache_clear()
        sets = [build(TestPointConfig(2, n, 0), 20) for n in (1, 3, 5, 7, 9)]
        one = len(calls)
        sidelobe_points.__wrapped__(20)
        assert len(calls) == 2 * one
        peaks = sidelobe_points(20)
        assert np.array_equal(peaks, sidelobe_points.__wrapped__(20))
        assert [points.h[points.h > 0.1].tolist() for points in sets] == [
            peaks[:n].tolist() for n in (1, 3, 5, 7, 9)]
        for K in (2, 20):
            with pytest.raises(ValueError, match="read-only"):
                sidelobe_points(K)[:] = 0.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            sidelobe_points(1)

    def test_two_samples_have_no_side_lobes(self):
        # D(h) = 1 + cos h: the first null 2 pi / K is already pi
        assert sidelobe_points(2).shape == (0,)
        with pytest.raises(ValueError, match="only 0 exist for K=2"):
            build(TestPointConfig(2, 9, 10), 2)
        pts = build(TestPointConfig(2, 0, 10), 2)
        assert set(pts.provenance) == {"C", "E"}


class TestConfig:
    def test_trio_echo(self):
        assert TestPointConfig(2, 9, 10).trio == (2, 9, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            TestPointConfig(-1, 0, 0)
        with pytest.raises(ValueError):
            TestPointConfig(0, 0, 0)
        with pytest.raises(ValueError):
            TestPointConfig(3, 0, 0)


class TestBuild:
    def test_single_close_point(self):
        pts = build(TestPointConfig(1, 0, 0), 20)
        assert pts.h.tolist() == [0.001 * math.pi]
        assert pts.provenance == ("C",)

    def test_legacy_set(self):
        pts = build(TestPointConfig(2, 9, 0), 20)
        assert len(pts) == 11
        assert pts.provenance.count("C") == 2
        assert pts.provenance.count("S") == 9

    def test_proposed_set(self):
        pts = build(TestPointConfig(2, 9, 10), 20)
        assert len(pts) <= 21
        assert np.all(np.diff(pts.h) >= DEDUP_TOL)

    def test_strictly_increasing_in_range(self):
        for trio in [(2, 9, 10), (2, 0, 5), (0, 9, 0), (1, 3, 7)]:
            pts = build(TestPointConfig(*trio), 20)
            assert np.all(pts.h > 0.0) and np.all(pts.h <= math.pi)
            assert np.all(np.diff(pts.h) > 0.0)

    def test_nested_progressive_sets(self):
        previous = None
        for n in (1, 3, 5, 7, 9):
            current = set(np.round(build(TestPointConfig(2, n, 0), 20).h, 12))
            if previous is not None:
                assert previous <= current
            previous = current

    def test_too_many_sidelobes_requested(self):
        with pytest.raises(ValueError):
            build(TestPointConfig(2, 10, 0), 20)

    @pytest.mark.parametrize("K", [0, -5])
    def test_k_below_one_rejected(self, K):
        # without side lobes nothing else in the set depends on K
        with pytest.raises(ValueError):
            build(TestPointConfig(2, 0, 1), K)


class TestSetValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TestPointSet(h=np.array([0.0, 1.0]), provenance=("C", "C"))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            TestPointSet(h=np.array([1.0, 0.5]), provenance=("C", "C"))

    def test_rejects_beyond_pi(self):
        with pytest.raises(ValueError):
            TestPointSet(h=np.array([3.5]), provenance=("E",))

    @pytest.mark.parametrize("h", [[math.nan], [0.5, math.nan], [math.inf]])
    def test_rejects_non_finite(self, h):
        with pytest.raises(ValueError, match="finite"):
            TestPointSet(h=h, provenance=("E",) * len(h))

    def test_stores_a_read_only_float_array(self):
        # a list is accepted and stored as the array the bound reads
        given = [0.1, 0.2]
        points = TestPointSet(h=given, provenance=("E", "E"))
        assert isinstance(points.h, np.ndarray) and points.h.dtype == np.float64
        assert len(points) == 2 and not points.h.flags.writeable
        res = wwb_value(VonMisesPrior(kappa=1.0), SignalConfig(K=20, snr=1.0), points)
        assert res.mse_bound > 0.0
        array = np.array(given)
        assert TestPointSet(h=array, provenance=("E", "E")).h is not array
        assert array.flags.writeable

    def test_compares_and_hashes_by_identity(self):
        # an array field has no truth value, so sets are not compared by value
        points = TestPointSet(h=[0.1, 0.2], provenance=("E", "E"))
        twin = TestPointSet(h=[0.1, 0.2], provenance=("E", "E"))
        assert points == points and points != twin
        assert {points: 1, twin: 2}[points] == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty test point set"):
            TestPointSet(h=np.array([]), provenance=())

    def test_rejects_provenance_length_mismatch(self):
        with pytest.raises(ValueError, match="provenance length mismatch"):
            TestPointSet(h=np.array([0.5, 1.0]), provenance=("C",))
