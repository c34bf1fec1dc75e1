import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covrank import NumericalError, ValidationError, sample_covariance, symmetric_eigen

from oracles import covariance_by_loops


class TestSampleCovariance:
    def test_two_opposite_rows(self):
        data = np.array([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(sample_covariance(data), [[1.0, 0.0], [0.0, 0.0]])

    def test_zero_rows(self):
        for center in (False, True):
            np.testing.assert_array_equal(sample_covariance(np.zeros((5, 3)), center=center),
                                          np.zeros((3, 3)))
        # Constant columns center to exact zeros.
        np.testing.assert_array_equal(sample_covariance(np.full((4, 2), 3.0), center=True),
                                      np.zeros((2, 2)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1234)
        data = rng.standard_normal((50, 4))
        for center in (False, True):
            ours = sample_covariance(data, center=center)
            ref = covariance_by_loops(data, center=center)
            np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(7)
        c = sample_covariance(rng.standard_normal((40, 6)))
        assert np.array_equal(c, c.T)

    def test_centering_subtracts_column_means(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((30, 3)) + np.array([10.0, -5.0, 2.0])
        centered = sample_covariance(data, center=True)
        manual = sample_covariance(data - data.mean(axis=0), center=False)
        np.testing.assert_allclose(centered, manual, atol=1e-12)

    @pytest.mark.parametrize("bad", [
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        np.array([[1.0, np.inf], [0.0, 1.0]]),
        np.ones((1, 5)),
        np.ones((5, 1)),
        np.ones(4),
        np.array([[1.0, np.inf], [0.0, -np.inf], [2.0, 1.0]]),
    ])
    def test_rejects_invalid_input(self, bad):
        for center in (False, True):
            with pytest.raises(ValidationError):
                sample_covariance(bad, center=center)

    def test_finite_data_whose_mean_overflows_is_a_numerical_error(self):
        data = np.array([[1e308, 1.0], [1e308, 2.0], [-1e308, 0.0]])
        with pytest.raises(NumericalError, match="under- or overflow"):
            sample_covariance(data, center=True)

    def test_divisor_is_n(self):
        data = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        assert sample_covariance(data)[0, 0] == pytest.approx(1.0)  # 4/4, not 4/3

    @pytest.mark.parametrize("scale", [1e-200, 1e-161, 1e200])
    @pytest.mark.parametrize("center", [False, True])
    def test_float_range_failure_is_numerical_error(self, scale, center):
        data = scale * np.random.default_rng(6).standard_normal((20, 3))
        with pytest.raises(NumericalError, match="under- or overflow") as info:
            sample_covariance(data, center=center)
        assert info.value.index == 0


class TestSymmetricEigen:
    def test_identity(self):
        spec = symmetric_eigen(np.eye(3))
        np.testing.assert_array_equal(spec.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        spec = symmetric_eigen(np.diag([5.0, 2.0, 0.0]))
        np.testing.assert_allclose(spec.eigenvalues, [5.0, 2.0, 0.0], atol=1e-14)

    def test_rotated_diagonal_reconstructs(self):
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        q = np.array([[c, -s], [s, c]])
        m = q @ np.diag([3.0, 1.0]) @ q.T
        m = (m + m.T) / 2
        spec = symmetric_eigen(m, want_vectors=True)
        np.testing.assert_allclose(spec.eigenvalues, [3.0, 1.0], atol=1e-12)
        recon = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
        assert np.max(np.abs(recon - m)) <= 1e-10 * (1 + np.max(np.abs(m)))

    def test_descending_order(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 8))
        m = (a + a.T) / 2
        spec = symmetric_eigen(m)
        assert np.all(np.diff(spec.eigenvalues) <= 0)

    def test_tiny_magnitudes_snap_to_zero(self):
        m = np.diag([1.0, 5e-14, -5e-14])
        spec = symmetric_eigen(m)  # default clamp_tol = 1e-12 here
        np.testing.assert_array_equal(spec.eigenvalues, [1.0, 0.0, 0.0])
        assert spec.clamp_count == 2

    def test_large_negatives_survive(self):
        spec = symmetric_eigen(np.diag([2.0, -1.0]))
        np.testing.assert_array_equal(spec.eigenvalues, [2.0, -1.0])
        assert spec.clamp_count == 0

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((6, 6))
        m = (a + a.T) / 2
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotated = q @ m @ q.T
        rotated = (rotated + rotated.T) / 2
        lam_m = symmetric_eigen(m).eigenvalues
        lam_r = symmetric_eigen(rotated).eigenvalues
        scale = np.max(np.abs(lam_m))
        np.testing.assert_allclose(lam_r, lam_m, atol=1e-9 * scale)

    def test_exact_low_rank_preserved(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 3))
        z = rng.standard_normal((60, 3))
        cov = sample_covariance(z @ a.T)
        lam = symmetric_eigen(cov).eigenvalues
        assert np.all(lam[3:] <= 1e-10 * lam[0])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            symmetric_eigen(np.array([[1.0, 2.0], [2.0 + 1e-9, 1.0]]))

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValidationError):
            symmetric_eigen(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            symmetric_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_negative_clamp_tol_rejected(self):
        with pytest.raises(ValidationError):
            symmetric_eigen(np.eye(2), clamp_tol=-1.0)


def covariance_stack(seed, rows=6, p=5):
    """Sample covariances of ``rows`` random datasets; row 2 has exact rank 2."""
    rng = np.random.default_rng(seed)
    covs = [sample_covariance(rng.standard_normal((3 * p, p))) for _ in range(rows)]
    covs[2] = sample_covariance(rng.standard_normal((3 * p, 2)) @ rng.standard_normal((2, p)))
    return np.stack(covs)


class TestSymmetricEigenStack:
    @pytest.mark.parametrize("clamp_tol", [None, 0.5])
    def test_rows_match_one_matrix_at_a_time(self, clamp_tol):
        stack = covariance_stack(17)
        for want_vectors in (False, True):
            spec = symmetric_eigen(stack, want_vectors=want_vectors, clamp_tol=clamp_tol)
            ones = [symmetric_eigen(m, want_vectors=want_vectors, clamp_tol=clamp_tol)
                    for m in stack]
            assert spec.eigenvalues.tobytes() == b"".join(o.eigenvalues.tobytes() for o in ones)
            if want_vectors:
                assert spec.eigenvectors.tobytes() == b"".join(o.eigenvectors.tobytes()
                                                               for o in ones)
            assert spec.clamp_count.tolist() == [o.clamp_count for o in ones]
            assert ones[2].clamp_count > 0

    def test_default_clamp_tolerance_is_per_matrix(self):
        # 5e-14 is below 1e-12 * 1 but above 1e-12 * 1e-3: only the first row snaps.
        stack = np.stack([np.diag([1.0, 5e-14]), np.diag([1e-3, 5e-14])])
        spec = symmetric_eigen(stack)
        np.testing.assert_array_equal(spec.eigenvalues, [[1.0, 0.0], [1e-3, 5e-14]])
        assert spec.clamp_count.tolist() == [1, 0]
        assert symmetric_eigen(np.diag([1.0, 5e-14])).clamp_count == 1

    def test_single_matrix_count_is_an_int(self):
        assert type(symmetric_eigen(np.diag([1.0, 1e-20])).clamp_count) is int

    def test_empty_stack(self):
        spec = symmetric_eigen(np.empty((0, 3, 3)))
        assert spec.eigenvalues.shape == (0, 3)
        assert spec.clamp_count.shape == (0,)

    @pytest.mark.parametrize("spoil", ["asymmetric", "nan", "inf"])
    def test_one_bad_member_rejects_the_stack(self, spoil):
        stack = covariance_stack(3)
        if spoil == "asymmetric":
            stack[4, 0, 1] += 1e-9
        else:
            stack[4, 1, 1] = np.nan if spoil == "nan" else np.inf
        with pytest.raises(ValidationError):
            symmetric_eigen(stack)

    @pytest.mark.parametrize("shape", [(3, 2, 4), (2, 2, 2, 2), (4,)])
    def test_rejects_non_square_stacks_and_other_ranks(self, shape):
        with pytest.raises(ValidationError, match="square"):
            symmetric_eigen(np.zeros(shape))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 40), p=st.integers(2, 8))
def test_covariance_spectrum_properties(seed, n, p):
    """PSD up to clamp, eigenvalue sum equals trace, descending order."""
    rng = np.random.default_rng(seed)
    cov = sample_covariance(rng.standard_normal((n, p)))
    spec = symmetric_eigen(cov)
    lam = spec.eigenvalues
    assert np.all(np.diff(lam) <= 0)
    assert np.min(lam) >= 0.0  # PSD source, negatives at most clamp_tol-sized and snapped
    trace = float(np.trace(cov))
    assert abs(float(np.sum(lam)) - trace) <= 1e-10 * max(1.0, abs(trace))


def test_integer_lists_are_read_as_float64():
    cov = sample_covariance([[1, 2], [3, 4]])
    assert cov.dtype == np.float64 and cov.shape == (2, 2)
