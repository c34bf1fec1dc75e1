import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covrank import (
    NumericalError,
    QuadratureSettings,
    SimulationConfig,
    ValidationError,
    collect_null_statistics,
    csv_statistic,
    generate_dataset,
    log_integral,
    plug_in_scale,
    rank_from_data,
    run_rejection_table,
    run_sequence,
    sample_covariance,
    symmetric_eigen,
)
from covrank.statistic import _integrate, _log_f, _logsumexp

from oracles import assert_rows_run_alone, midpoint_csv_statistic, midpoint_log_integral


def random_spectrum(seed: int, p: int) -> np.ndarray:
    """Seeded descending nonnegative spectrum with occasional ties and zeros."""
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(0.0, 5.0, p))[::-1].copy()
    style = rng.integers(0, 4)
    if style == 1 and p > 2:
        lam[-(p // 2):] = 0.0  # exactly low-rank tail
    elif style == 2 and p > 2:
        i = int(rng.integers(1, p - 1))
        lam[i] = lam[i - 1]  # tie
    elif style == 3:
        lam = lam * rng.choice([1e-4, 1.0, 1e4])
    return lam


class TestPlugInScale:
    def test_small_example(self):
        assert plug_in_scale([2.0, 1.0, 0.0], 2) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_zero_tail(self):
        assert plug_in_scale([3.0, 0.0, 0.0, 0.0], 2) == 0.0

    def test_matches_loop(self):
        rng = np.random.default_rng(42)
        lam = np.sort(rng.uniform(0.0, 3.0, 10))[::-1]
        acc = 0.0
        for v in lam:
            acc += v * v
        assert plug_in_scale(lam, 1) == pytest.approx(acc / 100.0, rel=1e-14)

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            plug_in_scale([2.0, 1.0], 3)


def log_f(u, lam, k: int, s2: float) -> np.ndarray:
    """``_log_f`` of one spectrum at step k, at a scalar or a 1-d array of abscissas."""
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    return _log_f(u, np.delete(np.asarray(lam, dtype=np.float64), k - 1)[:, None], 0.5 / s2)


class TestLogIntegrand:
    def test_zero_gap_factor_is_neg_inf(self):
        lam = np.array([4.0, 2.0, 1.0])
        assert log_f(1.0, lam, 1, 0.5)[0] == -math.inf  # u hits lam_3

    def test_all_ones_at_origin(self):
        assert log_f(0.0, [1.0, 1.0, 1.0], 1, 1.0)[0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_linear_domain_product(self):
        lam = np.array([2.5, 1.3, 0.7])
        s2 = 0.9
        for u in (0.3, 1.7, 2.9):
            linear = math.exp(-u * u / (2 * s2)) * abs(u * u - 2.5**2) * abs(u * u - 0.7**2)
            ours = math.exp(log_f(u, lam, 2, s2)[0])
            assert ours == pytest.approx(linear, rel=1e-12)

    def test_vectorized(self):
        lam = np.array([2.0, 1.0])
        u = np.array([0.0, 0.5, 1.5])
        out = log_f(u, lam, 1, 1.0)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(log_f(1.5, lam, 1, 1.0)[0])

    def test_rejects_negative_u_and_bad_scale(self):
        # _log_f takes trusted arrays; the public entry points check them.
        with pytest.raises(ValidationError):
            log_integral(-0.1, 1.0, [2.0, 1.0], 1, 1.0)
        with pytest.raises(ValidationError):
            log_integral(0.5, 1.0, [2.0, 1.0], 1, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_zero_power_term_leaves_rows_without_zeros_alone(self):
        # u^2 underflows at the first node. Only the second row has a zero
        # among its other eigenvalues; the first must not get 0 * log(0).
        u = np.array([1e-170, 0.5, 2.5])
        others = np.array([[2.0, 1.0], [2.0, 0.0]])
        zeros = np.array([0, 1])
        block = _log_f(u, others.T[:, :, None], 0.5, zeros[:, None])
        assert block[0].tolist() == log_f(u, [3.0, 2.0, 1.0], 1, 1.0).tolist()
        assert block[1].tolist() == _log_f(u, others[1][:, None], 0.5, 1).tolist()
        assert block[1, 0] == -math.inf and np.isfinite(block[:, 1:]).all()

    def test_near_ties_keep_full_relative_precision(self):
        # Gap factors u^2 - lam_j^2 formed from squares lose about 1e-10 of
        # relative precision here to cancellation.
        mpmath = pytest.importorskip("mpmath")
        lam = np.concatenate([[3.0], 1.0 + 1e-9 * np.arange(8.0)[::-1], [0.2]])
        k, s2 = 3, 0.5
        u = 1.0 + 1e-9 * np.random.default_rng(4).uniform(-1.0, 9.0, 40)
        ours = log_f(u, lam, k, s2)
        with mpmath.workdps(50):
            for x, got in zip(u, ours):
                x = mpmath.mpf(x)
                exact = -x * x / (2 * mpmath.mpf(s2)) + sum(
                    mpmath.log(abs(x * x - mpmath.mpf(v) ** 2))
                    for j, v in enumerate(lam) if j != k - 1)
                assert abs((got - exact) / exact) < 1e-14


class TestRankOneClosedForm:
    """On [d, 0, ..., 0] at step 1 every gap factor is u^2, so the integrand is
    u^(2p - 2) exp(-u^2 / (2 s)) and the statistic is the regularized upper
    incomplete gamma Q(p - 1/2, d^2 / (2 s))."""

    @staticmethod
    def q(p: int, x) -> float:
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            return float(mpmath.gammainc(mpmath.mpf(p) - 0.5, x, regularized=True))

    @pytest.mark.parametrize("s", [0.5, 1.0])
    @pytest.mark.parametrize("d", [0.3, 1.0, 2.5, 7.0])
    @pytest.mark.parametrize("p", [2, 3, 5, 10, 20])
    def test_explicit_scale(self, p, d, s):
        mpmath = pytest.importorskip("mpmath")
        lam = np.where(np.arange(p) == 0, d, 0.0)
        with mpmath.workdps(40):
            exact = self.q(p, mpmath.mpf(d) ** 2 / (2 * mpmath.mpf(s)))
        assert abs(csv_statistic(lam, 1, scale2=s) / exact - 1.0) <= 1e-12

    @pytest.mark.parametrize("d", [0.3, 1.0, 7.0, 1e3])
    def test_plug_in_scale_is_criterion_1c_constant(self, d):
        # The plug-in scale is d^2 / p^2, so every exactly rank-1 spectrum
        # at p = 10 gives Q(9.5, 50), whatever d.
        exact = self.q(10, 50)
        assert exact == pytest.approx(5.3556e-13, rel=1e-4)
        lam = np.where(np.arange(10) == 0, d, 0.0)
        assert abs(csv_statistic(lam, 1) / exact - 1.0) <= 1e-12


def mp_mass(lo, hi, lam, k: int, s2: float, points=()):
    """mpmath.quad of the step-k integrand over [lo, hi] at 40 digits, split at ``points``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        others = [mpmath.mpf(v) for j, v in enumerate(lam) if j != k - 1]
        s2 = mpmath.mpf(s2)
        return mpmath.quad(lambda u: mpmath.exp(-u * u / (2 * s2))
                           * mpmath.fprod(abs(u * u - v * v) for v in others), [lo, *points, hi])


class TestLogIntegral:
    def test_empty_interval(self):
        assert log_integral(1.0, 1.0, [2.0, 1.0], 1, 0.5) == -math.inf

    def test_halfline_gaussian_moment(self):
        # p=2, k=1, lam_2=0: integrand is u^2 exp(-u^2/(2 s^2)); the half-line
        # integral is s^3 sqrt(pi/2).
        sigma = 0.7
        expected = math.log(sigma**3 * math.sqrt(math.pi / 2.0))
        got = log_integral(0.0, math.inf, [1.0, 0.0], 1, sigma**2)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_finite_interval_vs_midpoint_oracle(self):
        lam = np.array([3.0, 2.0, 1.0])
        s2 = 5.0 / 6.0
        got = log_integral(0.5, 2.5, lam, 2, s2)  # interior kink at u = 1
        ref = midpoint_log_integral(0.5, 2.5, lam, 2, s2)
        assert abs(math.expm1(got - ref)) <= 1e-8

    def test_validations(self):
        with pytest.raises(ValidationError):
            log_integral(-0.5, 1.0, [2.0, 1.0], 1, 1.0)
        with pytest.raises(ValidationError):
            log_integral(2.0, 1.0, [2.0, 1.0], 1, 1.0)
        with pytest.raises(ValidationError):
            log_integral(0.0, 1.0, [2.0, 1.0], 1, -1.0)

    @pytest.mark.parametrize("hi", [math.inf, [math.inf, 4.0]], ids=["scalar-hi", "per-row-hi"])
    def test_infinite_lower_limit_is_invalid(self, hi):
        # Not a float-range failure: no rescaling of the data makes it finite.
        with pytest.raises(ValidationError, match=r"^integration limits must satisfy "
                                                  r"0 <= lo <= hi and lo < inf"):
            log_integral([math.inf, 1.0], hi, [[3.0, 2.0, 1.0]] * 2, 1, 1.0)
        with pytest.raises(ValidationError, match=r"and lo < inf"):
            log_integral(math.inf, math.inf, [3.0, 2.0, 1.0], 1, 1.0)

    def test_budget_exhaustion_reports_estimate(self):
        # A Gaussian spike of width ~1e-6 at the edge of [0, 0.5], far from
        # any eigenvalue breakpoint, needs ~17 bisection levels; a budget of
        # 8 must fail loudly rather than return a wrong value.
        tight = QuadratureSettings(rel_tol=1e-10, max_subdivisions=8)
        with pytest.raises(NumericalError) as info:
            log_integral(0.0, 0.5, [1.0, 0.9], 1, 1e-12, tight)
        assert info.value.best_estimate is not None
        assert info.value.achieved_rel_tol > 1e-10

    def test_peak_far_narrower_than_the_panel_against_mpmath(self):
        # The node values reach about -1e24 across [0, 2], so the log total
        # starts far below -1e17; the stopping rule must still compare the
        # error with the total.
        got = log_integral(0.0, 2.0, [3.0, 1.0], 1, 1e-26)
        exact = mp_mass(0.0, 2.0, [3.0, 1.0], 1, 1e-26, [1e-13 * 2**i for i in range(7)])
        assert got == pytest.approx(math.log(exact), rel=1e-10)

    def test_interior_eigenvalues_are_breakpoints(self):
        # Started as one panel, this integral converges falsely: the coarse
        # and fine rules agree across the kinks at 3.398 and 3.437 while the
        # value is off by about 5e-6. Panels that end at the eigenvalues
        # inside [lo, hi] integrate it to rounding.
        lam = [4.67, 3.437, 3.398, 0.838]
        s2 = plug_in_scale(lam, 1)
        got = log_integral(0.0, 5.137, lam, 1, s2)
        exact = mp_mass(0.0, 5.137, lam, 1, s2, [0.838, 3.398, 3.437, 4.67])
        assert abs(math.exp(got) / exact - 1.0) <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lo, hi, lam, scale2", [
        (0.0, 2.0, [3.0, 1.0], 1e-320),           # subnormal scale: the Gaussian underflows
        (1.0, math.inf, [1.7e308, 1.0], 1.0),     # truncated tail beyond sqrt(max / 2)
        (0.0, 1e300, [3.0, 1.0], 1.0),            # finite limit beyond sqrt(max / 2)
        (0.0, 1e-160, [1.0, 0.0], 1.0),           # gap factor u^2 below the smallest normal
        (1e-170, 1e-160, [1.0, 1e-158, 0.0], 1.0),
    ])
    def test_float_range_is_a_typed_error_without_warnings(self, lo, hi, lam, scale2):
        with pytest.raises(NumericalError, match="float64 under- or overflow at scale2=") as info:
            log_integral(lo, hi, lam, 1, scale2)
        assert (info.value.index, info.value.best_estimate) == (0, None)

    def test_underflowing_gap_factors_fail_at_once(self):
        # Every gap factor u^2 on [0, 1e-160] is subnormal or 0: the quadrature
        # cannot converge, so no split is spent on it.
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="float64 under- or overflow"):
            log_integral(0.0, 1e-160, [1.0, 0.0], 1, 1.0)
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("hi, lam, expected", [
        (1e-160, [1.0, 0.5], -369.7999092401672),   # the other eigenvalue is normal-sized
        (1e-150, [1.0, 0.0], -1037.2619041359885),  # u^2 stays above the smallest normal
    ])
    def test_tiny_intervals_beside_normal_factors_still_integrate(self, hi, lam, expected):
        assert log_integral(0.0, hi, lam, 1, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_empty_tiny_interval_is_an_exact_zero(self):
        assert log_integral(1e-160, 1e-160, [1.0, 0.0], 1, 1.0) == -math.inf

    @pytest.mark.filterwarnings("error")
    def test_float_range_error_names_the_lowest_failing_row(self):
        with pytest.raises(NumericalError, match="scale2=1e-310,") as info:
            log_integral(0.0, 2.0, np.tile([3.0, 1.0], (4, 1)), 1, [1.0, 1.0, 1e-310, 1e-320])
        assert info.value.index == 2

    def test_zero_over_a_non_empty_interval_is_a_range_error(self):
        # u^2 / (2 s2) overflows on all of [20, 30]: the integral is exactly 0.
        with pytest.raises(NumericalError, match="under- or overflow") as info:
            log_integral(20.0, 30.0, [30.0, 20.0, 10.0], 2, 1e-306)
        assert (info.value.index, info.value.best_estimate) == (0, None)

    def test_infinite_limit_truncated_onto_lo_is_empty(self):
        # lo + tail_sigmas * sqrt(s2) rounds to lo: an empty interval, not an error.
        assert log_integral(20.0, math.inf, [20.0, 10.0], 1, 1e-306) == -math.inf

    def test_zero_at_float_resolution_stands(self):
        # [1.5, 1.5 + 2 ulp] runs between two eigenvalues: its first split
        # leaves two one-ulp halves whose nodes all round onto an eigenvalue.
        # The integrand is positive at the middle, so this zero is no range error.
        ulp = 2.0**-52
        lam = [3.0, 1.5 + 2 * ulp, 1.5, 0.5]
        assert log_integral(1.5, 1.5 + 2 * ulp, lam, 1, 0.3) == -math.inf


class TestCsvStatistic:
    def test_tied_lower_pair_returns_one(self):
        assert csv_statistic([3.0, 2.0, 2.0], 2) == 1.0

    def test_tied_upper_pair_returns_zero(self):
        assert csv_statistic([3.0, 3.0, 1.0], 2) == 0.0

    def test_zero_plug_in_scale_returns_one(self):
        # A zero plug-in scale means a zero tail, so the tie rule decides.
        assert csv_statistic([5.0, 0.0, 0.0, 0.0], 2) == 1.0

    def test_triple_tie_prefers_acceptance(self):
        assert csv_statistic([2.0, 2.0, 2.0, 1.0], 2) == 1.0

    def test_reference_value_against_oracle(self):
        lam = np.array([3.0, 2.0, 1.0])
        got = csv_statistic(lam, 2)
        assert 0.0 < got < 1.0
        ref = midpoint_csv_statistic(lam, 2, plug_in_scale(lam, 2))
        assert got == pytest.approx(ref, abs=1e-7)

    def test_infinite_upper_limit_against_oracle(self):
        lam = np.array([2.0, 1.0, 0.5, 0.2])
        got = csv_statistic(lam, 1)
        ref = midpoint_csv_statistic(lam, 1, plug_in_scale(lam, 1))
        assert got == pytest.approx(ref, abs=1e-7)

    def test_wide_upper_panel_against_mpmath(self):
        # N's one panel [1, 1e12] is about 3e12 Gaussian widths wide.
        lam = [1e12, 1.0, 0.5, 0.2]
        s2 = plug_in_scale(lam, 2)
        n = mp_mass(1.0, 1e12, lam, 2, s2, [1.0 + math.sqrt(s2) * 2**i for i in range(7)])
        m = mp_mass(0.5, 1.0, lam, 2, s2)
        assert csv_statistic(lam, 2) == pytest.approx(float(n / (n + m)), rel=1e-9)

    def test_float_range_failures_name_the_lowest_row(self):
        stack = np.array([
            [3.0, 2.0, 1.0],
            [3.0, 3.0, 1.0],          # a tie at k = 1: no quadrature, no error
            [3e-200, 2e-200, 1e-200],  # the plug-in scale underflows to 0
            [3e200, 2e200, 1e200],     # ... and overflows
        ])
        for rows, index in ((stack, 2), (stack[[0, 1, 3]], 2), (stack[[3, 2]], 0)):
            with pytest.raises(NumericalError, match="under- or overflow") as info:
                csv_statistic(rows, 1)
            assert info.value.index == index
            assert info.value.best_estimate is None
        assert csv_statistic(stack[:2], 1).statistic[1] == 1.0

    def test_zero_mass_is_an_error(self):
        # u^2 / (2 s2) overflows on all of [10, 20]: N and M are both zero.
        with pytest.raises(NumericalError, match="under- or overflow") as info:
            csv_statistic(np.array([[20.0, 10.0]] * 3), 1, scale2=[1.0, 2.3e-308, 1.0])
        assert info.value.index == 1

    def test_zero_mass_below_a_quadrature_failure_names_the_lower_row(self):
        # Row 1 exhausts its split budget; row 0 has a zero N + M mass, which
        # the same log_integral pass finds as the lower failure.
        cfg = SimulationConfig(p=6, true_rank=1, n=200, reps=2, local_null_tau=1.0,
                               factor_scales=(3.0,), seed=5)
        lam = symmetric_eigen(sample_covariance(generate_dataset(cfg, 1))).eigenvalues
        tight = QuadratureSettings(rel_tol=1e-15, max_subdivisions=8)
        with pytest.raises(NumericalError, match="did not converge"):
            csv_statistic([lam], 2, scale2=plug_in_scale(lam, 2), settings=tight)
        with pytest.raises(NumericalError, match="under- or overflow") as info:
            csv_statistic([100 * lam, lam], 2, scale2=[2.3e-308, plug_in_scale(lam, 2)],
                          settings=tight)
        assert info.value.index == 0

    def test_failure_is_found_in_one_log_integral_pass(self, monkeypatch):
        # Row 1 exhausts its split budget and row 0 converges; no row is
        # integrated twice to find that out.
        import covrank.statistic as stat

        cfg = SimulationConfig(p=6, true_rank=1, n=200, reps=2, local_null_tau=1.0,
                               factor_scales=(3.0,), seed=5)
        lam = symmetric_eigen(sample_covariance(generate_dataset(cfg, 1))).eigenvalues
        tight = QuadratureSettings(rel_tol=1e-15, max_subdivisions=8)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return log_integral(*args, **kwargs)

        monkeypatch.setattr(stat, "log_integral", counted)
        with pytest.raises(NumericalError, match="did not converge") as info:
            csv_statistic([[4.0, 2.0, 1.0, 0.5, 0.25, 0.1], lam], 2,
                          scale2=[1.0, plug_in_scale(lam, 2)], settings=tight)
        assert info.value.index == 1
        assert len(calls) == 1

    def test_zero_numerator_mass_is_an_error(self):
        # N = [20, 30] is exactly 0 while M = [10, 20] is not: an under- or
        # overflow, not a statistic of 0.
        with pytest.raises(NumericalError, match="under- or overflow") as info:
            csv_statistic([30.0, 20.0, 10.0], 2, scale2=1e-306)
        assert (info.value.index, info.value.best_estimate) == (0, None)

    def test_numerator_truncated_to_empty_gives_zero(self):
        # N = [20, 20 + 12 sqrt(1e-306)] rounds to the empty [20, 20].
        assert csv_statistic([20.0, 10.0], 1, scale2=1e-306) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_zero_mass_at_float_resolution_is_an_error(self):
        # lam_2 is one ulp from lam_1 and from lam_3: N and M are both zero,
        # and 0 / 0 is no statistic.
        ulp = 2.0**-52
        with pytest.raises(NumericalError, match="under- or overflow") as info:
            csv_statistic([[4.0, 3.0, 2.0, 1.0], [1.5 + 2 * ulp, 1.5 + ulp, 1.5, 0.5]], 2)
        assert (info.value.index, info.value.best_estimate) == (1, None)

    def test_explicit_scale_must_be_positive(self):
        with pytest.raises(ValidationError):
            csv_statistic([2.0, 1.0], 1, scale2=0.0)
        with pytest.raises(ValidationError):
            csv_statistic([2.0, 1.0], 1, scale2=-1.0)

    def test_k_bounds(self):
        with pytest.raises(ValidationError):
            csv_statistic([2.0, 1.0], 2)  # k = p not testable

    def test_scale_invariance(self):
        for seed in range(25):
            lam = random_spectrum(seed, 3 + seed % 6)
            if lam[0] == 0.0:
                continue
            k = 1 + seed % (len(lam) - 1)
            base = csv_statistic(lam, k)
            for c in (1e-3, 1e3):
                assert abs(csv_statistic(c * lam, k) - base) <= 1e-9

    def test_monotone_in_lam_k_explicit_scale(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            p = int(rng.integers(3, 9))
            lam = np.sort(rng.uniform(0.1, 4.0, p))[::-1].copy()
            k = int(rng.integers(2, p))  # k >= 2 gives a finite sweep range
            s2 = plug_in_scale(lam, k)
            if s2 == 0.0:
                continue
            lo, hi = lam[k], lam[k - 2]
            grid = np.linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), 7)
            values = []
            for v in grid:
                trial = lam.copy()
                trial[k - 1] = v
                values.append(csv_statistic(trial, k, scale2=s2))
            diffs = np.diff(values)
            assert np.all(diffs <= 1e-9)

    def test_monotone_in_lam_1_explicit_scale(self):
        lam = np.array([1.0, 1.0, 0.6, 0.3])
        s2 = 0.05
        grid = np.linspace(1.0, 3.0, 9)
        values = []
        for v in grid:
            trial = lam.copy()
            trial[0] = v
            values.append(csv_statistic(trial, 1, scale2=s2))
        assert np.all(np.diff(values) <= 1e-9)

    def test_numerator_never_exceeds_denominator(self):
        for seed in range(30):
            lam = random_spectrum(seed + 1000, 4 + seed % 5)
            k = 1 + seed % (len(lam) - 1)
            s2 = plug_in_scale(lam, k)
            if s2 == 0.0 or lam[k - 1] == lam[k] or (k >= 2 and lam[k - 2] == lam[k - 1]):
                continue
            upper = lam[k - 2] if k >= 2 else math.inf
            log_num = log_integral(lam[k - 1], upper, lam, k, s2)
            log_den = log_integral(lam[k], upper, lam, k, s2)
            assert log_num <= log_den + 1e-9

    def test_tail_truncation_insensitive(self):
        lam = np.array([2.0, 1.0, 0.5, 0.2])
        values = [
            csv_statistic(lam, 1, settings=QuadratureSettings(tail_sigmas=t))
            for t in (10.0, 12.0, 16.0)
        ]
        assert max(values) - min(values) <= 1e-9


def sample_spectra(rows: int, p: int, seed: int) -> np.ndarray:
    """Descending spectra of sample covariances of a three-factor design."""
    rng = np.random.default_rng(seed)
    scales = np.array([9.0, 4.0, 2.0] + [0.05] * (p - 3))
    out = np.empty((rows, p))
    for i in range(rows):
        x = rng.standard_normal((60, p)) * np.sqrt(scales)
        out[i] = np.sort(np.linalg.eigvalsh(x.T @ x / 60))[::-1]
    return out


# Near-tied trailing eigenvalues: tens to hundreds of refinement rounds per step.
HEAVY = np.array([3.0] + list(1.0 + 1e-9 * np.arange(8, -1, -1)))


# BASE with its last z entries set to exactly 0, for z = 0, 1, 2, 5 and 9.
BASE = np.array([5.0, 4.1, 3.3, 2.6, 2.0, 1.5, 1.1, 0.8, 0.5, 0.3])
ZERO_TAILS = [np.where(np.arange(10) < 10 - z, BASE, 0.0) for z in (0, 1, 2, 5, 9)]
# Near-tied eigenvalues above four exact zeros.
NEAR_TIED_ZEROS = np.concatenate([HEAVY[:6], np.zeros(4)])
# csv_statistic at steps 1-9 of ZERO_TAILS[0], ZERO_TAILS[1] and HEAVY.
RECORDED = {
    0: ["0x1.a802721cb36a7p-3", "0x1.93641b25d7b3dp-4", "0x1.01c5ca41a276ep-4",
        "0x1.76bdd68d69128p-5", "0x1.3400ce9158640p-5", "0x1.22cf1530401d6p-5",
        "0x1.333b4623b9234p-5", "0x1.777953b7e4d26p-7", "0x1.49cd82ac04b9cp-6"],
    1: ["0x1.a57b9e5c0d7cdp-3", "0x1.8f2b4e6a6c6efp-4", "0x1.f9fc084149ed9p-5",
        "0x1.6a5474fca1733p-5", "0x1.2192be8ace2c6p-5", "0x1.032ef76f34c25p-5",
        "0x1.ed0a4774967f8p-6", "0x1.805bc2d8901bap-8", "0x1.08bed3636b1a0p-14"],
    5: ["0x1.d2cfd2d574075p-11", "0x1.0000000000000p+0", "0x1.87749b50eff8ep-1",
        "0x1.5438ec1dde977p-1", "0x1.28b2133922751p-1", "0x1.fffff8ec1d2b8p-2",
        "0x1.ae9bdf3a9298ap-2", "0x1.578e284a0cad7p-2", "0x1.e22d93804b421p-3"],
}


class TestBlockEvaluation:
    def test_rows_are_bit_identical_alone_in_blocks_and_beside_heavy_rows(self):
        spectra = sample_spectra(12, 10, seed=31)
        spectra[4, 6] = spectra[4, 5]  # a tie: degenerate rules at steps 6 and 7
        mixed = np.insert(spectra, [0, 3, 7, 12], HEAVY, axis=0)
        light = np.flatnonzero(~np.all(mixed == HEAVY, axis=1))
        for k in range(1, 10):
            alone = [csv_statistic(lam, k) for lam in spectra]
            flags = [bool(csv_statistic(lam[None, :], k).degenerate[0]) for lam in spectra]
            beside_heavy = csv_statistic(mixed, k)
            evaluations = [(beside_heavy.statistic[light], beside_heavy.degenerate[light])]
            for size in (1, 5, 12):
                parts = [csv_statistic(spectra[i:i + size], k) for i in range(0, 12, size)]
                evaluations.append((np.concatenate([b.statistic for b in parts]),
                                    np.concatenate([b.degenerate for b in parts])))
            for statistic, degenerate in evaluations:
                assert statistic.tolist() == alone
                assert degenerate.tolist() == flags

    def test_panel_totals_ignore_padding(self):
        # Rows of one block share a padded panel width; a row's total must
        # not depend on it.
        vals = np.random.default_rng(5).normal(0.0, 3.0, (500, 13))
        padded = np.concatenate([vals, np.full((500, 8), -np.inf)], axis=1)
        assert np.array_equal(_logsumexp(vals), _logsumexp(padded))

    def test_degenerate_flag_covers_all_three_rules(self):
        stack = np.array([
            [3.0, 2.0, 2.0, 1.0],  # lam_2 == lam_3: 1.0
            [5.0, 3.0, 0.0, 0.0],  # lam_3 == lam_4 == 0 (zero plug-in scale) at k = 3: 1.0
            [3.0, 2.0, 2.0, 1.0],  # lam_2 == lam_3 at k = 3: 0.0
            [4.0, 3.0, 2.0, 1.0],  # regular
            # Near ties one ulp wide get the tie values from quadrature, unflagged:
            [3.0, 1.5 + 2**-52, 1.5, 0.5],           # M's nodes all round onto lam_3 at k = 2
            [1.5 + 2**-51, 1.5 + 2**-52, 1.0, 0.5],  # N's nodes all round onto lam_1 at k = 2
        ])
        at_2, at_3 = csv_statistic(stack, 2), csv_statistic(stack, 3)
        for row, value in ((4, 1.0), (5, 0.0)):
            assert at_2.statistic[row] == value == csv_statistic(stack[row], 2)
            assert not at_2.degenerate[row]
        assert at_2.statistic[0] == 1.0 and at_2.degenerate[0]
        assert at_3.statistic[1] == 1.0 and at_3.degenerate[1] and at_3.scale2[1] == 0.0
        assert at_3.statistic[2] == 0.0 and at_3.degenerate[2]
        assert 0.0 < at_3.statistic[3] < 1.0 and not at_3.degenerate[3]

    def test_rows_with_exact_zeros_are_bit_identical_alone_and_in_blocks(self):
        # Rows with 0, 1, 2, p // 2 and p - 1 exact zeros (the last leaves no
        # gap factor at step 1), beside near-tied rows, in several orders and
        # block sizes.
        stack = np.array([*ZERO_TAILS, HEAVY, ZERO_TAILS[2], NEAR_TIED_ZEROS])
        orders = [np.arange(len(stack)), np.random.default_rng(17).permutation(len(stack))]
        for k in range(1, 10):
            alone = [csv_statistic(lam, k) for lam in stack]
            for order in orders:
                for size in (3, len(stack)):
                    parts = [csv_statistic(stack[order[i:i + size]], k).statistic
                             for i in range(0, len(stack), size)]
                    assert np.concatenate(parts).tolist() == [alone[i] for i in order]
        sequences = [run_sequence(lam, 0.5) for lam in stack]
        for order in orders:
            for size in (3, len(stack)):
                for i in range(0, len(stack), size):
                    assert_rows_run_alone(run_sequence(stack[order[i:i + size]], 0.5),
                                          [sequences[j] for j in order[i:i + size]])

    def test_rows_with_at_most_one_zero_keep_their_recorded_values(self):
        # RECORDED holds the values of the product with every zero as its own
        # gap factor u^2. A row with at most one zero among the other
        # eigenvalues keeps those bits, alone and beside rows with more zeros.
        recorded = {0: ZERO_TAILS[0], 1: ZERO_TAILS[1], 5: HEAVY}
        stack = np.array([*ZERO_TAILS, HEAVY])
        for k in range(1, 10):
            block = csv_statistic(stack, k).statistic
            for row, lam in recorded.items():
                want = float.fromhex(RECORDED[row][k - 1])
                assert csv_statistic(lam, k) == want and block[row] == want
        # The one other eigenvalue is the zero: no gap factor is left.
        assert csv_statistic([2.0, 0.0], 1) == float.fromhex("0x1.0bbd40bcd5865p-2")

    def test_stacked_scale_and_integral_match_single_calls(self):
        spectra = sample_spectra(6, 5, seed=8)
        for k in (1, 3):
            s2 = plug_in_scale(spectra, k)
            assert s2.tolist() == [plug_in_scale(lam, k) for lam in spectra]
            upper = math.inf if k == 1 else spectra[:, k - 2]
            got = log_integral(spectra[:, k], upper, spectra, k, s2)
            ref = [log_integral(lam[k], math.inf if k == 1 else lam[k - 2], lam, k, v)
                   for lam, v in zip(spectra, s2)]
            assert got.tolist() == ref

    def test_integral_with_nothing_left_to_split_fails(self):
        # A NaN bound makes the only panel unsplittable and the total NaN;
        # the row must close as failed instead of looping forever.
        _, _, failed = _integrate(np.array([[0.0]]), np.array([[math.nan]]), np.array([1]),
                                  np.array([[1.0, 0.5]]), np.array([0.5]), QuadratureSettings())
        assert failed.tolist() == [True]

    def test_budget_exhaustion_names_lowest_failing_row(self):
        tight = QuadratureSettings(rel_tol=1e-10, max_subdivisions=8)
        scales = np.array([1.0, 1.0, 1e-12, 1.0, 1e-12])  # rows 2 and 4 fail
        with pytest.raises(NumericalError) as info:
            log_integral(0.0, 0.5, np.tile([1.0, 0.9], (5, 1)), 1, scales, tight)
        assert info.value.index == 2


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 10), kseed=st.integers(0, 10**6))
def test_statistic_stays_in_unit_interval(seed, p, kseed):
    lam = random_spectrum(seed, p)
    k = 1 + kseed % (p - 1)
    value = csv_statistic(lam, k)
    assert 0.0 <= value <= 1.0


_STACK = np.array([[3.0, 2.0, 1.0], [4.0, 2.0, 0.5]])
_BAD_SPECTRA = {
    "unsorted": [1.0, 2.0, 0.5],
    "negative": [2.0, 1.0, -0.5],
    "nan": [2.0, math.nan, 0.5],
    "inf": [math.inf, 1.0, 0.5],
    "length_1": [1.0],
    "empty_stack": np.empty((0, 3)),
}
_BOUNDARIES = {
    "plug_in_scale": lambda lam: plug_in_scale(lam, 1),
    "log_integral": lambda lam, lo=0.0, hi=1.0, scale2=1.0: log_integral(lo, hi, lam, 1, scale2),
    "csv_statistic": lambda lam, scale2=None: csv_statistic(lam, 1, scale2),
    "run_sequence": lambda lam: run_sequence(lam, 0.05),
}


@pytest.mark.parametrize("boundary, eigenvalues, kwargs", [
    *(pytest.param(name, lam, {}, id=f"{name}-{case}")
      for name in _BOUNDARIES for case, lam in _BAD_SPECTRA.items()),
    # Three values for a stack of two spectra.
    *(pytest.param(name, _STACK, {arg: [1.0, 1.0, 1.0]}, id=f"{name}-{arg}_length")
      for name, arg in [("log_integral", "lo"), ("log_integral", "hi"),
                        ("log_integral", "scale2"), ("csv_statistic", "scale2")]),
])
def test_public_boundaries_reject_invalid_input(boundary, eigenvalues, kwargs):
    with pytest.raises(ValidationError):
        _BOUNDARIES[boundary](eigenvalues, **kwargs)


@pytest.mark.parametrize("settings", [None, {"rel_tol": 1e-8}])
@pytest.mark.parametrize("call", [
    lambda s: log_integral(1.0, 3.0, [3.0, 2.0, 1.0], 1, 1.0, settings=s),
    lambda s: csv_statistic([3.0, 2.0, 1.0], 1, settings=s),
    lambda s: run_sequence([3.0, 2.0, 1.0], 0.05, settings=s),
    lambda s: rank_from_data(np.random.default_rng(0).standard_normal((20, 3)), 0.05,
                             settings=s),
    lambda s: run_rejection_table(SimulationConfig(p=3, true_rank=1, n=20, reps=2),
                                  settings=s),
    lambda s: collect_null_statistics(SimulationConfig(p=3, true_rank=1, n=20, reps=2,
                                                       local_null_tau=0.5), 2, settings=s),
], ids=["log_integral", "csv_statistic", "run_sequence", "rank_from_data",
        "run_rejection_table", "collect_null_statistics"])
def test_settings_must_be_quadrature_settings(call, settings):
    with pytest.raises(ValidationError, match="settings must be a QuadratureSettings"):
        call(settings)


class TestQuadratureSettings:
    def test_defaults_valid(self):
        q = QuadratureSettings()
        assert q.rel_tol == 1e-10 and q.max_subdivisions == 2000 and q.tail_sigmas == 12.0

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0},
        {"rel_tol": 0.5},
        {"max_subdivisions": 4},
        {"tail_sigmas": 2.0},
        {"tail_sigmas": math.nan},
        {"tail_sigmas": math.inf},
    ])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValidationError):
            QuadratureSettings(**kwargs)
