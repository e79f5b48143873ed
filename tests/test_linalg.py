"""Tests for the shared dense linear algebra layer."""

import numpy as np
import pytest

from qscatter.errors import (
    DimensionMismatchError,
    InvalidValueError,
    PowerOfTwoError,
)
from qscatter.linalg import (
    as_square_matrix,
    assert_density_matrix,
    assert_unitary,
    is_density_matrix,
    is_hermitian,
    is_unitary,
    qubit_count,
    random_density_matrix,
    random_unitary,
)
from reference import dft_matrix


class TestBasics:
    def test_as_square_matrix_accepts_lists(self):
        m = as_square_matrix([[1, 0], [0, 1]])
        assert m.dtype == complex
        assert m.shape == (2, 2)

    def test_as_square_matrix_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            as_square_matrix(np.zeros((2, 3)))

    def test_as_square_matrix_rejects_nan(self):
        with pytest.raises(InvalidValueError):
            as_square_matrix(np.array([[np.nan, 0], [0, 1]]))


class TestDftMatrix:
    """The reference DFT the phase-space and spectrometer tests build on."""

    def test_kernel_sign_pinned(self):
        # exp(+2*pi*i*1*1/4)/2 = i/2; the mirror convention would give -i/2
        assert dft_matrix(4)[1, 1] == pytest.approx(0.5j)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_unitary(self, n):
        f = dft_matrix(n)
        assert np.allclose(f @ f.conj().T, np.eye(n), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_fourth_power_is_identity(self, n):
        f = dft_matrix(n)
        assert np.allclose(np.linalg.matrix_power(f, 4), np.eye(n), atol=1e-12)

    def test_rejects_bad_size(self):
        with pytest.raises(InvalidValueError):
            dft_matrix(0)


class TestQubitCount:
    @pytest.mark.parametrize("dim,k", [(1, 0), (2, 1), (4, 2), (8, 3), (1024, 10)])
    def test_powers_of_two(self, dim, k):
        assert qubit_count(dim) == k

    @pytest.mark.parametrize("dim", [3, 5, 6, 12])
    def test_rejects_non_powers(self, dim):
        with pytest.raises(PowerOfTwoError):
            qubit_count(dim)

    def test_rejects_non_positive(self):
        with pytest.raises(InvalidValueError):
            qubit_count(0)


class TestPredicates:
    def test_hermitian(self):
        assert is_hermitian(np.array([[1, 1j], [-1j, 2]]))
        assert not is_hermitian(np.array([[1, 1j], [1j, 2]]))

    def test_unitary(self):
        assert is_unitary(np.eye(3))
        assert not is_unitary(2 * np.eye(3))

    def test_density_matrix_accepts_valid(self):
        assert is_density_matrix(np.diag([0.25, 0.75]).astype(complex))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        assert not is_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_density_matrix_rejects_wrong_trace(self):
        assert not is_density_matrix(np.diag([0.5, 0.75]).astype(complex))

    def test_assert_unitary_message(self):
        with pytest.raises(InvalidValueError, match="not unitary"):
            assert_unitary(np.ones((2, 2)))

    def test_assert_density_matrix_messages(self):
        with pytest.raises(InvalidValueError, match="Hermitian"):
            assert_density_matrix(np.array([[0.5, 1], [0, 0.5]]))
        with pytest.raises(InvalidValueError, match="trace"):
            assert_density_matrix(np.eye(2))
        with pytest.raises(InvalidValueError, match="negative eigenvalue"):
            assert_density_matrix(np.diag([1.5, -0.5]))


class TestRandomEnsembles:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_random_unitary_is_unitary(self, dim):
        rng = np.random.default_rng(11)
        for _ in range(20):
            assert is_unitary(random_unitary(dim, rng))

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_random_density_matrix_is_state(self, dim):
        rng = np.random.default_rng(12)
        for _ in range(20):
            assert is_density_matrix(random_density_matrix(dim, rng))

    def test_seeded_reproducibility(self):
        u1 = random_unitary(4, np.random.default_rng(99))
        u2 = random_unitary(4, np.random.default_rng(99))
        assert np.array_equal(u1, u2)
