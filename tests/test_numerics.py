"""Special functions, quadrature, and linear algebra against independent oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circbound.numerics import (
    DomainError,
    QuadratureError,
    QuadratureSpec,
    dirichlet_kernel,
    gamma_p_3_2,
    integrate,
    inverse_form,
    normal_tail,
)

from circbound.prior import VonMisesPrior

from conftest import bessel_series_oracle, dirichlet_sum_oracle


class TestBessel:
    """I0 and I1 of the concentration, through the prior's own scaled pair
    (e^-kappa I0, e^-kappa I1): its log normalizer ln(2 pi I0) and its ratio I1 / I0."""

    @staticmethod
    def i0(x):
        return math.exp(VonMisesPrior(kappa=x).log_norm) / (2.0 * math.pi)

    def test_i0_at_zero(self):
        assert VonMisesPrior(kappa=0.0).log_norm == math.log(2.0 * math.pi)

    def test_i1_at_zero(self):
        assert VonMisesPrior(kappa=0.0).bessel_ratio() == 0.0

    @pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 10.0, 14.9, 15.0, 20.0, 100.0, 500.0, 600.0])
    def test_i0_vs_series_oracle(self, x):
        assert self.i0(x) == pytest.approx(bessel_series_oracle(x, 0), rel=1e-12)

    @pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 10.0, 14.9, 15.0, 20.0, 100.0, 500.0, 600.0])
    def test_i1_vs_series_oracle(self, x):
        want = bessel_series_oracle(x, 1) / bessel_series_oracle(x, 0)
        assert VonMisesPrior(kappa=x).bessel_ratio() == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("x", [1e-6, 1e-5, 1e-4])
    def test_i1_small_argument_limit(self, x):
        assert VonMisesPrior(kappa=x).bessel_ratio() == pytest.approx(x / 2.0, rel=1e-8)

    # the argument must be finite and >= 0; i0e and i1e leave no overflow limit
    @pytest.mark.parametrize("bad", [-1.0, -1e-12, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            VonMisesPrior(kappa=bad)

    @given(st.floats(min_value=1e-3, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_ratio_in_unit_interval(self, x):
        r = VonMisesPrior(kappa=x).bessel_ratio()
        assert 0.0 < r < 1.0

    def test_ratio_strictly_increasing(self):
        xs = np.linspace(0.01, 100.0, 500)
        ratios = [VonMisesPrior(kappa=float(x)).bessel_ratio() for x in xs]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


# the trapezoid rule's last argument, the Hankel series' first, and the
# arguments around them
_SERIES_SWITCH = [9999.0, 1e4, float(np.nextafter(1e4, 2e4)), 1.0001e4]


class TestScaledBesselVsScipy:
    """The prior's (e^-kappa I0, e^-kappa I1) against scipy's i0e and i1e."""

    @pytest.mark.parametrize("x", [0.0, 1e-300, 1e-10, *np.logspace(-4, 6, 41), *_SERIES_SWITCH,
                                   1e100, 1.7e308])
    def test_pair_matches_scipy(self, x):
        from scipy.special import i0e, i1e

        got0, got1, _ = VonMisesPrior(kappa=float(x)).scaled_bessel
        assert got0 == pytest.approx(float(i0e(x)), rel=1e-13, abs=0.0)
        assert got1 == pytest.approx(float(i1e(x)), rel=1e-13, abs=0.0)

    def test_log_norm_finite_at_largest_kappa(self):
        assert math.isfinite(VonMisesPrior(kappa=1.7e308).log_norm)


class TestDirichletKernel:
    def test_at_zero(self):
        assert dirichlet_kernel(0.0, 20) == 20.0

    def test_at_pi_even_count(self):
        assert dirichlet_kernel(math.pi, 20) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_vs_direct_sum(self):
        h = 0.3 * math.pi
        assert dirichlet_kernel(h, 20) == pytest.approx(
            dirichlet_sum_oracle(h, 20), abs=1e-12
        )

    @given(
        st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=1000, deadline=None)
    def test_matches_direct_sum_everywhere(self, h, K):
        assert dirichlet_kernel(h, K) == pytest.approx(
            dirichlet_sum_oracle(h, K), abs=1e-10
        )

    @given(
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
        st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=300, deadline=None)
    def test_even_in_offset(self, h, K):
        assert dirichlet_kernel(h, K) == pytest.approx(
            dirichlet_kernel(-h, K), abs=1e-10
        )

    @given(
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=300, deadline=None)
    def test_two_pi_periodic(self, h, K):
        assert dirichlet_kernel(h + 2.0 * math.pi, K) == pytest.approx(
            dirichlet_kernel(h, K), abs=1e-8
        )

    def test_singular_points_fall_back_to_sum(self):
        # exact multiples of 2 pi are 0/0 in the closed form
        for m in (1, 2):
            assert dirichlet_kernel(2.0 * math.pi * m, 17) == pytest.approx(17.0)

    def test_array_matches_scalar_calls(self):
        hs = [0.0, math.pi, -math.pi]
        for m in (1, 2):
            for base in (2.0 * math.pi * m, -2.0 * math.pi * m):
                hs += [base + 1e-4, base - 1e-4]
        for K in (1, 2, 17, 60):
            got = dirichlet_kernel(np.array(hs).reshape(-1, 1), K)
            assert got.shape == (len(hs), 1)
            want = [dirichlet_kernel(h, K) for h in hs]
            np.testing.assert_allclose(got[:, 0], want, rtol=1e-14, atol=1e-14)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            dirichlet_kernel(np.array([0.1, math.inf]), 5)
        with pytest.raises(DomainError):
            dirichlet_kernel(math.nan, 5)
        with pytest.raises(DomainError):
            dirichlet_kernel(0.5, 0)


class TestIntegrate:
    def test_constant(self):
        got = integrate(lambda t: np.full_like(t, 3.0), -1.0, 2.5)
        assert got == pytest.approx(10.5, rel=1e-14)

    def test_cosine_quarter_period(self):
        got = integrate(np.cos, 0.0, math.pi / 2.0)
        assert got == pytest.approx(1.0, rel=1e-10)

    def test_empty_interval(self):
        assert integrate(np.cos, 1.0, 1.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(DomainError):
            integrate(np.cos, 1.0, 0.0)

    def test_nonconvergence_signalled(self):
        spec = QuadratureSpec(node_count=16, rel_tol=1e-10)
        with pytest.raises(QuadratureError):
            integrate(lambda t: np.cos(5.0e4 * t), 0.0, 1.0, spec)

    def test_node_doubling_stability(self):
        coarse = integrate(lambda t: np.exp(np.cos(t)), -math.pi, math.pi,
                           QuadratureSpec(node_count=16))
        fine = integrate(lambda t: np.exp(np.cos(t)), -math.pi, math.pi,
                         QuadratureSpec(node_count=64))
        assert coarse == pytest.approx(fine, rel=1e-10)

    def test_batched_matches_scalar_entry_by_entry(self):
        # entry 2 oscillates fast enough to need 128 panels, the others
        # converge at 64; entry 3 is an empty interval
        freq = np.array([1.0, 3.0, 400.0, 0.5])
        a = np.array([0.0, -1.0, 0.0, 0.2])
        b = np.array([1.0, 2.0, 1.0, 0.2])
        nodes = {}

        def f(theta, rows):
            assert theta.shape == rows.shape
            for row, count in enumerate(np.bincount(rows)):
                if count:
                    nodes[row] = max(nodes.get(row, 0), int(count))
            return np.cos(freq[rows] * theta) + 2.0

        got = integrate(f, a, b)
        for i in range(4):
            want = integrate(lambda t: np.cos(freq[i] * t) + 2.0, a[i], b[i])
            assert got[i] == pytest.approx(want, rel=1e-14, abs=0.0)
        assert nodes == {0: 64 * 8, 1: 64 * 8, 2: 128 * 8}

    def test_batched_reversed_interval_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda t, rows: np.cos(t), np.array([0.0, 1.0]), np.array([1.0, 0.5]))

    @staticmethod
    def _peaked(amp, phase):
        # the prior integrands of the WWB: a cosine exponent of amplitude amp
        return lambda theta, rows: np.exp(amp[rows] * (np.cos(theta + phase[rows]) - 1.0))

    def test_per_entry_starts_match_fixed_start(self):
        rng = np.random.default_rng(12)
        n = 500
        amp = rng.uniform(0.0, 60.0, n)
        phase = rng.uniform(-math.pi, math.pi, n)
        a = rng.uniform(-math.pi, math.pi, n)
        b = np.minimum(a + rng.uniform(0.0, 2.0 * math.pi, n), math.pi)
        start = np.ceil(0.5 * (4.0 + (b - a) * np.sqrt(amp))).astype(int)
        f = self._peaked(amp, phase)
        np.testing.assert_allclose(integrate(f, a, b, panels=start), integrate(f, a, b),
                                   rtol=1e-13, atol=0.0)

    def test_small_start_doubles_until_converged(self):
        # one panel cannot resolve cos(400 t); the entry doubles to the 128
        # panels the fixed start also ends at
        nodes = []

        def f(theta, rows):
            nodes.append(theta.size)
            return np.cos(400.0 * theta) + 2.0

        got = integrate(f, np.array([0.0]), np.array([1.0]), panels=np.array([1]))
        want = integrate(lambda t: np.cos(400.0 * t) + 2.0, 0.0, 1.0)
        assert got[0] == pytest.approx(want, rel=1e-14, abs=0.0)
        assert nodes == [2**p * 8 for p in range(8)]

    def test_passes_bounded_by_node_count(self):
        # 100 entries of 256 nodes need four passes of at most 8,192 nodes;
        # the entry of 4,096 panels exceeds that alone and is a pass of its own
        calls = []

        def f(theta, rows):
            calls.append((theta.size, np.unique(rows).size))
            return np.exp(np.cos(theta))

        a, b = np.zeros(101), np.ones(101)
        start = np.array([32] * 50 + [4096] + [32] * 50)
        got = integrate(f, a, b, panels=start)
        assert got == pytest.approx(np.full(101, integrate(lambda t: np.exp(np.cos(t)), 0.0, 1.0)),
                                    rel=1e-14)
        assert all(size <= 8192 or entries == 1 for size, entries in calls)
        assert (4096 * 8, 1) in calls and len(calls) > 8

    @pytest.mark.parametrize("start, panels", [(2, 256), (100, 800)])
    def test_nonconvergent_entry_names_its_interval(self, start, panels):
        # entry 1 oscillates too fast for any budget; the budget is
        # 8 * max(node_count, start) panels
        freq = np.array([1.0, 5.0e4])
        f = lambda theta, rows: np.cos(freq[rows] * theta)
        with pytest.raises(QuadratureError, match=rf"\[0\.25, 0\.75\].* after {panels} panels"):
            integrate(f, np.array([0.0, 0.25]), np.array([1.0, 0.75]), panels=np.array([start, start]))

    def test_per_entry_starts_keep_interval_rules(self):
        f = lambda theta, rows: np.cos(theta)
        got = integrate(f, np.array([0.0, 1.0]), np.array([0.5, 1.0]), panels=np.array([3, 3]))
        assert got[1] == 0.0 and got[0] == pytest.approx(math.sin(0.5), rel=1e-14)
        with pytest.raises(DomainError):
            integrate(f, np.array([0.0, 1.0]), np.array([1.0, 0.5]), panels=np.array([3, 3]))
        for bad in (np.array([3, 0]), np.array([3]), np.array([3.0, 3.0])):
            with pytest.raises(DomainError):
                integrate(f, np.array([0.0, 1.0]), np.array([0.5, 2.0]), panels=bad)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(node_count=8)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=1e-3)


class TestNormalTail:
    def test_at_zero(self):
        assert normal_tail(0.0) == 0.5

    def test_far_tail(self):
        assert normal_tail(40.0) == pytest.approx(0.0, abs=1e-12)

    def test_vs_density_quadrature(self):
        density = lambda t: np.exp(-0.5 * t**2) / math.sqrt(2.0 * math.pi)
        want = integrate(density, 1.0, 40.0)
        assert normal_tail(1.0) == pytest.approx(want, rel=1e-9)

    def test_symmetry(self):
        for z in (0.3, 1.7, 2.5):
            assert normal_tail(z) + normal_tail(-z) == pytest.approx(1.0, abs=1e-14)


class TestRegularizedLowerGamma:
    def test_at_zero(self):
        assert gamma_p_3_2(0.0) == 0.0

    def test_total_mass(self):
        assert gamma_p_3_2(60.0) == pytest.approx(1.0, abs=1e-10)
        assert gamma_p_3_2(math.inf) == 1.0

    def test_vs_quadrature_oracle(self):
        from scipy.integrate import quad

        # Gamma(1.5) = sqrt(pi)/2 exactly; adaptive quadrature handles the
        # integrable sqrt singularity at the origin
        val, _ = quad(lambda t: math.exp(-t) * math.sqrt(t), 0.0, 1.0,
                      epsabs=1e-13, epsrel=1e-12)
        want = val / (math.sqrt(math.pi) / 2.0)
        assert gamma_p_3_2(1.0) == pytest.approx(want, rel=1e-9)

    def test_monotone_in_upper_limit(self):
        zs = np.linspace(0.0, 30.0, 200)
        vals = [gamma_p_3_2(z) for z in zs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    # the series below z = 0.5, the closed form from there on
    @pytest.mark.parametrize("z", [0.0, *np.logspace(-8, 3, 45), 0.4999, 0.5, 0.5001])
    def test_vs_scipy(self, z):
        from scipy.special import gammainc

        want = float(gammainc(1.5, z))
        assert gamma_p_3_2(float(z)) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gamma_p_3_2(-0.1)


def _eliminate(c, g):
    """The bordered elimination of one matrix written with Python floats:
    (g C^{-1} g^T over the kept points, kept indices)."""
    r = len(g)
    a = [[float(x) for x in row] + [float(gv)] for row, gv in zip(c, g)]
    a.append([float(gv) for gv in g] + [0.0])
    kept = []
    for j in range(r):
        pivot = a[j][j]
        if not (math.isfinite(pivot) and pivot > 1e-14):
            continue
        kept.append(j)
        inv_root = 1.0 / math.sqrt(pivot)
        col = [a[i][j] * inv_root for i in range(j + 1, r + 1)]
        for p, i in enumerate(range(j + 1, r + 1)):
            for q, k in enumerate(range(j + 1, r + 1)):
                a[i][k] -= col[p] * col[q]
    return 0.0 - a[r][r], kept


def _correlation(rng, r):
    a = rng.standard_normal((r, r + 2))
    m = a @ a.T
    d = 1.0 / np.sqrt(np.diag(m))
    return m * d[:, None] * d[None, :]


class TestSpdSolve:
    """`inverse_form`, the SPD solve of the bound: g C^{-1} g^T over the kept points."""

    def test_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        values, kept = inverse_form(np.eye(3)[None], v)
        assert values == pytest.approx([v @ v])
        assert kept.all()

    def test_scaled_identity(self):
        v = np.array([4.0, 8.0])
        values, kept = inverse_form(2.0 * np.eye(2)[None], v)
        assert values == pytest.approx([v @ v / 2.0])
        assert kept.all()

    def test_random_spd_residual(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5))
        m = a @ a.T + 5.0 * np.eye(5)
        v = rng.standard_normal(5)
        values, kept = inverse_form(m[None], v)
        assert values[0] == pytest.approx(v @ np.linalg.solve(m, v), rel=1e-12)
        assert kept.all()

    def test_singular_matrix_reports_index(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        values, kept = inverse_form(m[None], np.array([1.0, 1.0]))
        assert kept.tolist() == [[True, False]]
        assert values[0] == 1.0

    def test_tiny_positive_pivot_reports_index(self):
        # the second pivot, about 1.1e-15, is positive but below the 1e-14 rule
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        values, kept = inverse_form(m[None], np.array([1.0, 1.0]))
        assert kept.tolist() == [[True, False]]
        assert values[0] == 1.0

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 0.5], [0.3, 1.0]])
        with pytest.raises(DomainError):
            inverse_form(m[None], np.array([1.0, 1.0]))

    def test_nonpositive_or_nan_diagonal_dropped(self):
        # a non-positive score-matrix diagonal leaves NaN in its point's row
        # and column of the correlation matrix
        tail = np.array([[1.0, 0.5], [0.5, 1.0]])
        want, _ = inverse_form(tail[None], np.array([1.0, 2.0]))
        for bad in (0.0, -1.0, math.nan):
            m = np.zeros((3, 3))
            m[0, 0], m[1:, 1:] = bad, tail
            if math.isnan(bad):
                m[0, 1:] = m[1:, 0] = math.nan
            values, kept = inverse_form(m[None], np.array([bad, 1.0, 2.0]))
            assert kept.tolist() == [[False, True, True]]
            assert values[0] == want[0]

    def test_one_matrix_stack_bit_identical(self):
        rng = np.random.default_rng(11)
        m = _correlation(rng, 6)
        v = rng.standard_normal(6)
        values, kept = inverse_form(m[None], v)
        want, want_kept = _eliminate(m, v)
        assert values[0] == want
        assert np.flatnonzero(kept[0]).tolist() == want_kept == list(range(6))

    def test_stack_rows_equal_single_solves(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((7, 5, 5))
        stack = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(5)
        stack[3, 4] = stack[3, 3]
        stack[3, :, 4] = stack[3, :, 3]
        v = rng.standard_normal(5)
        values, kept = inverse_form(stack, v)
        assert values.shape == (7,) and kept.shape == (7, 5)
        assert kept[3].tolist() == [True] * 4 + [False]
        for m, value, row in zip(stack, values, kept):
            one, one_kept = inverse_form(m[None], v)
            assert one[0] == value
            assert np.array_equal(one_kept[0], row)

    def test_stack_rows_with_own_right_hand_sides(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((4, 5, 5))
        stack = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(5)
        v = rng.standard_normal((4, 5))
        values, _ = inverse_form(stack, v)
        for m, rhs, value in zip(stack, v, values):
            assert inverse_form(m[None], rhs)[0][0] == value

    def test_stack_rows_drop_their_own_points(self):
        v = np.array([1.0, 1.0])
        tiny_pivot = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        _, kept = inverse_form(np.stack([np.eye(2), tiny_pivot, np.eye(2)]), v)
        assert kept.tolist() == [[True, True], [True, False], [True, True]]
        negative = np.array([[-1.0, 0.0], [0.0, 1.0]])
        values, kept = inverse_form(np.stack([np.eye(2), negative]), v)
        assert kept.tolist() == [[True, True], [False, True]]
        assert values.tolist() == [2.0, 1.0]
        with pytest.raises(DomainError):
            inverse_form(np.stack([np.eye(2), np.array([[1.0, 0.5], [0.3, 1.0]])]), v)

    @pytest.mark.parametrize("at", [2, 3, 5])
    def test_planted_duplicate_equals_reduced_matrix(self, at):
        # a copy of point 1 inserted at index `at` pivots on rounding noise,
        # is skipped, and leaves every other column as it was
        rng = np.random.default_rng(14)
        m = _correlation(rng, 5)
        v = rng.standard_normal(5)
        order = np.insert(np.arange(5), at, 1)
        values, kept = inverse_form(m[order][:, order][None], v[order])
        want, _ = inverse_form(m[None], v)
        assert np.flatnonzero(~kept[0]).tolist() == [at]
        assert values[0] == want[0]
