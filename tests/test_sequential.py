import numpy as np
import pytest

from covrank import (
    NumericalError,
    SequenceStatistics,
    ValidationError,
    csv_statistic,
    rank_from_data,
    run_sequence,
    sample_covariance,
    symmetric_eigen,
)

from oracles import assert_rows_run_alone, ran_statistics


def exact_rank_one(n: int, p: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(p)
    return rng.standard_normal((n, 1)) @ direction[None, :]


class TestRunSequence:
    def test_immediate_acceptance_gives_rank_zero(self):
        # Isotropic full-rank data: the first null should stand.
        rng = np.random.default_rng(424242)
        cov = sample_covariance(rng.standard_normal((200, 5)))
        result = run_sequence(symmetric_eigen(cov).eigenvalues, 0.05)
        assert len(ran_statistics(result)) == 1
        assert not result.statistic[0] <= 0.05
        assert result.rank_estimate == 0
        assert not result.boundary_reached

    def test_rank_one_stops_at_degenerate_second_step(self):
        data = exact_rank_one(100, 10, seed=777)
        result = rank_from_data(data, 0.05, center=False)
        assert result.rank_estimate == 1
        assert len(ran_statistics(result)) == 2
        assert result.statistic[0] <= 0.05 and not result.degenerate[0]
        assert result.degenerate[1]
        assert result.statistic[1] == 1.0
        assert result.scale2[1] == 0.0
        assert not result.statistic[1] <= 0.05

    def test_boundary_reached_when_everything_rejects(self):
        result = run_sequence([100.0, 10.0, 1.0], alpha=0.5)
        assert (ran_statistics(result) <= 0.5).tolist() == [True, True]
        assert result.rank_estimate == 2
        assert result.boundary_reached

    def test_steps_are_consecutive_and_stop_at_first_acceptance(self):
        result = run_sequence([100.0, 10.0, 1.0, 0.5, 0.2], alpha=0.2)
        ran = ~np.isnan(result.statistic)
        assert ran.tolist() == sorted(ran.tolist(), reverse=True)  # steps 1..m, then none
        stats = ran_statistics(result)
        for statistic in stats[:-1]:
            assert statistic <= 0.2
        if not result.boundary_reached:
            assert not stats[-1] <= 0.2
        assert result.rank_estimate == np.count_nonzero(stats <= 0.2)

    def test_rejected_iff_statistic_at_most_alpha(self):
        result = run_sequence([4.0, 2.5, 1.0, 0.4], alpha=0.3)
        # A step rejects, and the next one runs, exactly when its statistic is
        # at most alpha.
        stats = result.statistic
        assert (~np.isnan(stats[1:])).tolist() == (stats[:-1] <= 0.3).tolist()
        assert result.rank_estimate == np.count_nonzero(stats <= 0.3)

    def test_alpha_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValidationError):
                run_sequence([2.0, 1.0], bad)

    def test_quadrature_failure_is_annotated_with_step(self, monkeypatch):
        import covrank.sequential as seq

        def boom(*args, **kwargs):
            raise NumericalError("synthetic", best_estimate=-1.0, achieved_rel_tol=0.5)

        monkeypatch.setattr(seq, "csv_statistic", boom)
        with pytest.raises(NumericalError, match="step k=1: synthetic") as info:
            run_sequence([3.0, 2.0, 1.0], 0.05)
        error = info.value
        assert (error.best_estimate, error.achieved_rel_tol, error.index) == (-1.0, 0.5, 0)
        assert str(error.__cause__) == "synthetic"

    def test_failure_names_the_lowest_row_even_at_a_later_step(self):
        # Row 1 overflows at step 1; row 0 underflows only at step 2.
        stack = [[1.0, 1e-200, 5e-201, 1e-201], [3e200, 2e200, 1e200, 5e199]]
        with pytest.raises(NumericalError) as info:
            run_sequence(stack, 0.05)
        assert info.value.index == 0
        assert str(info.value).startswith("step k=2:")

    def test_failure_is_found_without_rerunning_earlier_steps(self, monkeypatch):
        # Row 1 underflows at step 2 and row 0 at step 3; step 1 runs once.
        import covrank.sequential as seq

        steps = []

        def counted(eigenvalues, k, **kwargs):
            steps.append(k)
            return csv_statistic(eigenvalues, k, **kwargs)

        monkeypatch.setattr(seq, "csv_statistic", counted)
        stack = [[1e4, 1e2, 1e-200, 5e-201, 1e-201], [1e4, 1e-200, 5e-201, 1e-201, 5e-202]]
        with pytest.raises(NumericalError) as info:
            run_sequence(stack, 0.05)
        assert info.value.index == 0
        assert str(info.value).startswith("step k=3:")
        assert steps.count(1) == 1

    def test_degenerate_flags_come_from_the_statistic(self):
        # lam_2 == lam_3: step 2 accepts by the tie rule; evaluated on its
        # own, step 3 would reject by the lam_{k-1} == lam_k rule.
        lam = np.array([40.0, 3.0, 3.0, 1.0, 0.5])
        result = run_sequence(lam, 0.05)
        steps = len(ran_statistics(result))
        assert result.degenerate[:steps].tolist() == [False, True]
        for k in range(1, steps + 1):
            row = csv_statistic(lam[None, :], k)
            assert (result.statistic[k - 1], result.scale2[k - 1], result.degenerate[k - 1]) == (
                row.statistic[0], row.scale2[0], row.degenerate[0])
        assert csv_statistic(lam[None, :], 3).degenerate[0]

    def test_stack_gives_each_row_its_own_result(self):
        rng = np.random.default_rng(77)
        spectra = []
        for _ in range(9):
            data = rng.standard_normal((80, 6)) * np.array([3.0, 2.0, 1.0, 0.1, 0.1, 0.1])
            spectra.append(symmetric_eigen(sample_covariance(data)).eigenvalues)
        heavy = np.array([3.0] + list(1.0 + 1e-9 * np.arange(4, -1, -1)))
        spectra.insert(4, heavy)  # needs far more refinement rounds than its neighbours
        spectra.insert(2, [100.0, 10.0, 1.0, 0.1, 0.01, 0.001])  # every step rejects
        spectra.insert(6, [40.0, 3.0, 3.0, 1.0, 0.5, 0.1])  # step 2 accepts by the tie rule
        spectra.insert(8, [1.0, 0.99, 0.98, 0.97, 0.96, 0.95])  # step 1 accepts
        spectra = np.array(spectra)
        alone = [run_sequence(lam, 0.05) for lam in spectra]
        assert alone[2].boundary_reached and alone[8].rank_estimate == 0
        assert alone[6].degenerate[:len(ran_statistics(alone[6]))].tolist() == [False, True]
        stack = run_sequence(spectra, 0.05)
        assert_rows_run_alone(stack, alone)
        assert_rows_run_alone(run_sequence(spectra[:4], 0.05), alone[:4])
        assert_rows_run_alone(run_sequence(spectra[4:], 0.05), alone[4:])
        order = rng.permutation(len(spectra))
        assert_rows_run_alone(run_sequence(spectra[order], 0.05), [alone[i] for i in order])


class TestOneSpectrumResult:
    # (spectrum, alpha, rank estimate, boundary flag), as the step tests above expect.
    CASES = [([100.0, 10.0, 1.0, 0.5, 0.2], 0.2, 4, True),  # every step rejects
             ([100.0, 10.0, 1.0], 0.5, 2, True),
             ([40.0, 3.0, 3.0, 1.0, 0.5], 0.05, 1, False)]  # step 2 accepts by the tie rule

    @pytest.mark.parametrize("lam, alpha, rank, boundary", CASES)
    def test_fields_are_the_stack_fields_without_the_row_axis(self, lam, alpha, rank, boundary):
        result = run_sequence(lam, alpha)
        assert type(result) is SequenceStatistics
        p = len(lam)
        for name in ("statistic", "scale2", "degenerate"):
            assert getattr(result, name).shape == (p - 1,), name
        assert result.statistic.dtype == result.scale2.dtype == np.float64
        assert result.degenerate.dtype == np.bool_
        assert np.shape(result.rank_estimate) == np.shape(result.boundary_reached) == ()
        assert (result.rank_estimate, result.boundary_reached) == (rank, boundary)
        ran = min(rank + 1, p - 1)
        assert not np.isnan(result.statistic[:ran]).any()
        assert not np.isnan(result.scale2[:ran]).any()
        assert np.isnan(result.statistic[ran:]).all() and np.isnan(result.scale2[ran:]).all()
        assert not result.degenerate[ran:].any()


class TestRankFromData:
    def test_composition_identity(self):
        rng = np.random.default_rng(99)
        data = rng.standard_normal((200, 3)) * np.array([2.0, 1.0, 0.7])
        via_data = rank_from_data(data, 0.05, center=False)
        lam = symmetric_eigen(sample_covariance(data, center=False)).eigenvalues
        via_spectrum = run_sequence(lam, 0.05)
        assert type(via_data) is type(via_spectrum) is SequenceStatistics
        assert via_data.rank_estimate == via_spectrum.rank_estimate
        for a, b in zip(ran_statistics(via_data), ran_statistics(via_spectrum)):
            assert a == b  # bit-for-bit, same pipeline
            assert (a <= 0.05) == (b <= 0.05)

    def test_exact_collinear_data(self):
        # With p = 4 covariates on a line the first step rejects and the
        # second hits the tie rule on the zero tail: rank 1.
        rng = np.random.default_rng(8)
        t = rng.standard_normal(200)
        data4 = t[:, None] * np.array([1.0, -2.0, 0.5, 0.8])[None, :]
        result = rank_from_data(data4, 0.05, center=False)
        assert result.rank_estimate == 1

    def test_three_covariates_cannot_flag_a_single_factor(self):
        # For p = 3 the step-1 statistic on exactly rank-1 data equals the
        # dimension-dependent constant P(chi^2_5 > 9) ~= 0.109 regardless of
        # the data (scale invariance), so at alpha = 0.05 the first null is
        # always accepted: the estimated rank is 0, not 1.
        rng = np.random.default_rng(8)
        t = rng.standard_normal(200)
        data3 = t[:, None] * np.array([1.0, -2.0, 0.5])[None, :]
        result = rank_from_data(data3, 0.05, center=False)
        assert result.statistic[0] == pytest.approx(0.1090641, abs=1e-6)
        assert result.rank_estimate == 0

    def test_decisions_invariant_under_data_scaling(self):
        data = exact_rank_one(60, 5, seed=31) + 0.1 * np.random.default_rng(32).standard_normal((60, 5))
        base = rank_from_data(data, 0.05, center=False)
        for c in (1e-4, 37.0, 1e5):
            scaled = rank_from_data(c * data, 0.05, center=False)
            assert scaled.rank_estimate == base.rank_estimate
            assert ((ran_statistics(scaled) <= 0.05).tolist()
                    == (ran_statistics(base) <= 0.05).tolist())

    def test_decisions_invariant_under_rotation(self):
        rng = np.random.default_rng(55)
        data = rng.standard_normal((300, 4)) @ np.diag([3.0, 1.5, 0.5, 0.1])
        base = rank_from_data(data, 0.05, center=False)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rotated = rank_from_data(data @ q, 0.05, center=False)
        # skip knife-edge comparisons, none expected for this seed
        assert all(abs(s - 0.05) > 1e-6 for s in ran_statistics(base))
        assert ((ran_statistics(rotated) <= 0.05).tolist()
                == (ran_statistics(base) <= 0.05).tolist())

    def test_warns_when_n_not_larger_than_p(self):
        rng = np.random.default_rng(2)
        with pytest.warns(UserWarning, match="assume n > p"):
            rank_from_data(rng.standard_normal((5, 5)), 0.05)

    def test_centering_changes_input_spectrum_only(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((150, 4)) + 100.0
        shifted = rank_from_data(data, 0.05, center=True)
        plain = rank_from_data(data - data.mean(axis=0), 0.05, center=False)
        assert shifted.rank_estimate == plain.rank_estimate


def test_degenerate_statistic_is_exactly_one_on_low_rank_spectrum():
    # Direct spot-check of the rule the sequential loop relies on.
    assert csv_statistic([5.0, 0.0, 0.0, 0.0, 0.0], 2) == 1.0
