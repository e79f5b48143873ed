"""Tests for the shared dense linear algebra layer."""

import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from qscatter import phasespace, states
from qscatter.circuits import PAULI_X
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
    qubit_count,
)
from qscatter.phasespace import PhasePoint
from qscatter.scattering import scattering_circuit
from reference import dft_matrix, random_density_matrix, random_unitary


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
        rho = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
        skew = np.array([[0, 1], [0, 0]])
        assert is_density_matrix(rho)
        assert is_density_matrix(rho + 0.9e-12 * skew)
        assert not is_density_matrix(rho + 1.1e-12 * skew)
        assert not is_density_matrix(np.array([[0.5, 0.1j], [0.1j, 0.5]]))

    def test_unitary(self):
        assert np.array_equal(assert_unitary(np.eye(3)), np.eye(3))
        with pytest.raises(InvalidValueError, match="not unitary"):
            assert_unitary(2 * np.eye(3))

    def test_density_matrix_accepts_valid(self):
        assert is_density_matrix(np.diag([0.25, 0.75]).astype(complex))
        assert is_density_matrix(np.diag([0.25, 0.75]))
        assert is_density_matrix(np.array([[1, 0], [0, 0]]))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        assert not is_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_density_matrix_rejects_wrong_trace(self):
        assert not is_density_matrix(np.diag([0.5, 0.75]).astype(complex))

    def test_assert_unitary_message(self):
        with pytest.raises(InvalidValueError, match="not unitary"):
            assert_unitary(np.ones((2, 2)))

    def test_assert_density_matrix_messages(self):
        with pytest.raises(InvalidValueError, match="^state has negative eigenvalue -1.000e-01$"):
            assert_density_matrix(np.diag([1.1, -0.1]))
        with pytest.raises(InvalidValueError, match="Hermitian"):
            assert_density_matrix(np.array([[0.5, 1], [0, 0.5]]))
        with pytest.raises(InvalidValueError, match="trace"):
            assert_density_matrix(np.eye(2))
        with pytest.raises(InvalidValueError, match="negative eigenvalue"):
            assert_density_matrix(np.diag([1.5, -0.5]))

    def test_predicates_coerce_their_argument(self):
        assert np.array_equal(assert_unitary([[1, 0], [0, 1]]), np.eye(2))
        assert is_density_matrix([[1, 0], [0, 0]])
        with pytest.raises(InvalidValueError, match="numbers"):
            is_density_matrix("x")
        with pytest.raises(DimensionMismatchError):
            assert_unitary([[1, 0]])


class TestHugeEntries:
    """Finite entries whose sums overflow: every verdict is a library error,
    and no numpy RuntimeWarning escapes (the suite turns one into an error)."""

    # Hermitian and of unit trace, with eigenvalues 0.5 +- 1e308.
    OVERFLOWING = np.array([[0.5, 1e308], [1e308, 0.5]])

    def test_state_whose_hermitian_part_overflows_is_refused(self):
        assert not is_density_matrix(self.OVERFLOWING)
        with pytest.raises(InvalidValueError, match="^state has negative eigenvalue -1.000e.308$"):
            assert_density_matrix(self.OVERFLOWING)

    @pytest.mark.parametrize("route", [
        lambda rho: scattering_circuit(rho, PAULI_X),
        lambda rho: phasespace.wigner_via_circuit(rho, PhasePoint(q=1, p=1, n=2)),
    ], ids=["scattering_circuit", "wigner_via_circuit"])
    def test_state_routes_refuse_it(self, route):
        with pytest.raises(InvalidValueError, match="negative eigenvalue"):
            route(self.OVERFLOWING)

    def test_overflowing_trace_is_refused(self):
        with pytest.raises(InvalidValueError, match="trace"):
            assert_density_matrix(np.diag([1e308, 1e308]))

    def test_overflowing_product_is_not_unitary(self):
        with pytest.raises(InvalidValueError, match="not unitary"):
            assert_unitary(np.full((2, 2), 1e200))


class TestRandomEnsembles:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_random_unitary_is_unitary(self, dim):
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = random_unitary(dim, rng)
            assert np.array_equal(assert_unitary(u), u)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_random_density_matrix_is_state(self, dim):
        rng = np.random.default_rng(12)
        for _ in range(20):
            assert is_density_matrix(random_density_matrix(dim, rng))

    def test_seeded_reproducibility(self):
        u1 = random_unitary(4, np.random.default_rng(99))
        u2 = random_unitary(4, np.random.default_rng(99))
        assert np.array_equal(u1, u2)


def _reference_defect(a, trace_tol):
    """The density-matrix check as a full eigendecomposition: the judge of the factorization."""
    if np.abs(a - a.conj().T).max() > 1e-12:
        return "state is not Hermitian within tolerance 1e-12"
    if abs(np.trace(a) - 1.0) > trace_tol:
        return f"state trace is {np.trace(a):.6g}, expected 1"
    lowest = np.linalg.eigvalsh((a + a.conj().T) / 2).min()
    return f"state has negative eigenvalue {lowest:.3e}" if lowest < -1e-10 else None


def _pure(n, rng):
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return np.outer(psi, psi.conj()) / np.vdot(psi, psi).real


def _rank_deficient(n, rng):
    g = rng.standard_normal((n, n // 2)) + 1j * rng.standard_normal((n, n // 2))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _near_floor(n, rng):
    # Lowest eigenvalue -1e-10 (1 + s r), s = +-1, r log-uniform in [1e-6, 1e-1]:
    # half are just below the floor, half just above it.
    lam = np.empty(n)
    lam[0] = -1e-10 * (1 + rng.choice([-1, 1]) * 10 ** rng.uniform(-6, -1))
    rest = rng.uniform(size=n - 1)
    lam[1:] = rest / rest.sum() * (1 - lam[0])
    v = random_unitary(n, rng)
    m = (v * lam) @ v.conj().T
    return (m + m.conj().T) / 2


STATE_KINDS = {
    "full-rank": (random_density_matrix, 3),
    "pure": (_pure, 3),
    "pseudo-pure": (lambda n, rng: states.pseudo_pure(int(rng.integers(n)), n, rng.uniform()), 3),
    "rank-deficient": (_rank_deficient, 3),
    "near-floor": (_near_floor, 12),
}


class TestStateVerdicts:
    """The Cholesky check decides every state as the eigenvalue check it replaced."""

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_verdicts_and_messages_match_the_eigenvalue_reference(self, n, monkeypatch):
        # wigner_direct checks its input, so the grids of refused states come from
        # the unchecked transform.
        monkeypatch.setattr(phasespace, "assert_density_matrix", lambda rho: rho)
        rng = np.random.default_rng(n)
        refused = 0
        for kind, (make, count) in STATE_KINDS.items():
            for _ in range(count):
                rho = make(n, rng)
                want = _reference_defect(rho, 1e-12)
                assert is_density_matrix(rho) == (want is None), kind
                if want is None:
                    assert assert_density_matrix(rho) is rho
                else:
                    refused += 1
                    with pytest.raises(InvalidValueError) as err:
                        assert_density_matrix(rho)
                    assert str(err.value) == want
                rec = phasespace.reconstruct(phasespace.wigner_direct(rho))
                assert rec.valid == (_reference_defect(rec.matrix, 1e-10) is None), kind
        assert 0 < refused < STATE_KINDS["near-floor"][1]  # both sides of the floor

    def test_check_allocates_at_most_two_state_sized_numpy_arrays(self):
        # The resident-memory pin below counts what tracemalloc cannot see.
        n = 512
        rho = random_density_matrix(n, np.random.default_rng(4))
        assert_density_matrix(rho)  # first-call allocations, before the baseline
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert_density_matrix(rho)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # Plus numpy's fixed-size ufunc buffers (64 KiB each); tracemalloc sees
        # numpy's arrays, not the copy LAPACK factors in.
        assert peak <= 2 * 16 * n * n + (1 << 18)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read in KiB on Linux")
    def test_check_peaks_at_about_three_states_of_resident_memory(self):
        # The symmetrized conjugate, LAPACK's copy of it and the returned factor:
        # one N=1024 call raised the process peak by 3.15 states.
        code = textwrap.dedent(
            """
            import resource
            import numpy as np
            from qscatter.linalg import assert_density_matrix
            n = 1024
            rho = np.full((n, n), 0j)  # every page written, no temporary
            np.fill_diagonal(rho, 1 / n)
            assert_density_matrix(np.eye(4) / 4)  # LAPACK loaded, before the baseline
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            assert_density_matrix(rho)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
            """
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        cp = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, env=env, timeout=120)
        assert cp.returncode == 0, cp.stderr
        state = 1024**2 * 16
        assert int(cp.stdout) * 1024 < 3.5 * state
