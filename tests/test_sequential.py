import numpy as np
import pytest

from covrank import (
    NumericalError,
    ValidationError,
    csv_statistic,
    rank_from_data,
    run_sequence,
    sample_covariance,
    symmetric_eigen,
)

from oracles import assert_rows_run_alone


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
        assert len(result.steps) == 1
        assert not result.steps[0].rejected
        assert result.rank_estimate == 0
        assert not result.boundary_reached

    def test_rank_one_stops_at_degenerate_second_step(self):
        data = exact_rank_one(100, 10, seed=777)
        result = rank_from_data(data, 0.05, center=False)
        assert result.rank_estimate == 1
        first, second = result.steps
        assert first.rejected and not first.degenerate
        assert second.degenerate
        assert second.statistic == 1.0
        assert second.scale2_used == 0.0
        assert not second.rejected

    def test_boundary_reached_when_everything_rejects(self):
        result = run_sequence([100.0, 10.0, 1.0], alpha=0.5)
        assert [s.rejected for s in result.steps] == [True, True]
        assert result.rank_estimate == 2
        assert result.boundary_reached

    def test_steps_are_consecutive_and_stop_at_first_acceptance(self):
        result = run_sequence([100.0, 10.0, 1.0, 0.5, 0.2], alpha=0.2)
        ks = [s.k for s in result.steps]
        assert ks == list(range(1, len(ks) + 1))
        for step in result.steps[:-1]:
            assert step.rejected
        if not result.boundary_reached:
            assert not result.steps[-1].rejected
        assert result.rank_estimate == sum(s.rejected for s in result.steps)

    def test_rejected_iff_statistic_at_most_alpha(self):
        result = run_sequence([4.0, 2.5, 1.0, 0.4], alpha=0.3)
        for step in result.steps:
            assert step.rejected == (step.statistic <= 0.3)

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

    def test_degenerate_flags_come_from_the_statistic(self):
        # lam_2 == lam_3: step 2 accepts by the tie rule; evaluated on its
        # own, step 3 would reject by the lam_{k-1} == lam_k rule.
        lam = np.array([40.0, 3.0, 3.0, 1.0, 0.5])
        result = run_sequence(lam, 0.05)
        assert [s.degenerate for s in result.steps] == [False, True]
        for step in result.steps:
            row = csv_statistic(lam[None, :], step.k)
            assert (step.statistic, step.scale2_used, step.degenerate) == (
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
        assert [s.degenerate for s in alone[6].steps] == [False, True]
        stack = run_sequence(spectra, 0.05)
        assert_rows_run_alone(stack, alone)
        assert_rows_run_alone(run_sequence(spectra[:4], 0.05), alone[:4])
        assert_rows_run_alone(run_sequence(spectra[4:], 0.05), alone[4:])
        order = rng.permutation(len(spectra))
        assert_rows_run_alone(run_sequence(spectra[order], 0.05), [alone[i] for i in order])


class TestRankFromData:
    def test_composition_identity(self):
        rng = np.random.default_rng(99)
        data = rng.standard_normal((200, 3)) * np.array([2.0, 1.0, 0.7])
        via_data = rank_from_data(data, 0.05, center=False)
        lam = symmetric_eigen(sample_covariance(data, center=False)).eigenvalues
        via_spectrum = run_sequence(lam, 0.05)
        assert via_data.rank_estimate == via_spectrum.rank_estimate
        for a, b in zip(via_data.steps, via_spectrum.steps):
            assert a.statistic == b.statistic  # bit-for-bit, same pipeline
            assert a.rejected == b.rejected

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
        assert result.steps[0].statistic == pytest.approx(0.1090641, abs=1e-6)
        assert result.rank_estimate == 0

    def test_decisions_invariant_under_data_scaling(self):
        data = exact_rank_one(60, 5, seed=31) + 0.1 * np.random.default_rng(32).standard_normal((60, 5))
        base = rank_from_data(data, 0.05, center=False)
        for c in (1e-4, 37.0, 1e5):
            scaled = rank_from_data(c * data, 0.05, center=False)
            assert scaled.rank_estimate == base.rank_estimate
            assert [s.rejected for s in scaled.steps] == [s.rejected for s in base.steps]

    def test_decisions_invariant_under_rotation(self):
        rng = np.random.default_rng(55)
        data = rng.standard_normal((300, 4)) @ np.diag([3.0, 1.5, 0.5, 0.1])
        base = rank_from_data(data, 0.05, center=False)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rotated = rank_from_data(data @ q, 0.05, center=False)
        # skip knife-edge comparisons, none expected for this seed
        assert all(abs(s.statistic - 0.05) > 1e-6 for s in base.steps)
        assert [s.rejected for s in rotated.steps] == [s.rejected for s in base.steps]

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
