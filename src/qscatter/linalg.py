"""Dense complex linear algebra shared by every register-level module.

Matrices are plain numpy arrays of dtype complex128. Every public function
checks each matrix its caller passes exactly once, through
``assert_density_matrix`` / ``assert_unitary``, and never re-checks arrays
the library builds itself; private cores take raw, already-checked arrays.
"""

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidValueError,
    PowerOfTwoError,
    QubitBudgetError,
)

QUBIT_BUDGET = 12
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def as_square_matrix(a) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise DimensionMismatchError("matrix must be at least 1x1")
    if not np.isfinite(m).all():
        raise InvalidValueError("matrix entries must be finite")
    return m


def dft_matrix(n: int) -> np.ndarray:
    """Unitary discrete Fourier matrix with kernel exp(+2*pi*i*p*q/n)/sqrt(n).

    Row index is the output (momentum) label, column index the input
    (position) label. The plus sign in the kernel is load-bearing: it fixes
    which diagonal operator plays the momentum shift in the phase-space
    module, and the tests pin it via dft_matrix(4)[1, 1] == i/2.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidValueError(f"DFT size must be a positive integer, got {n!r}")
    p, q = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * p * q / n) / np.sqrt(n)


def qubit_count(dim: int) -> int:
    """Number of qubits for a register of dimension ``dim`` (must be 2**k)."""
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise InvalidValueError(f"dimension must be a positive integer, got {dim!r}")
    k = int(dim).bit_length() - 1
    if (1 << k) != dim:
        raise PowerOfTwoError(f"dimension {dim} is not a power of two")
    return k


def check_qubit_budget(num_qubits: int, layout: str = "") -> None:
    """Refuse a register wider than QUBIT_BUDGET; call before allocating it.

    ``layout`` is appended to the message, e.g. " (1 probe + 3 counter + 2 system)".
    """
    if num_qubits > QUBIT_BUDGET:
        raise QubitBudgetError(
            f"circuit needs {num_qubits} qubits{layout}; the budget is {QUBIT_BUDGET}"
        )


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    return bool(np.abs(a - a.conj().T).max() <= tol)


def is_unitary(a: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    d = a.shape[0]
    return bool(np.abs(a @ a.conj().T - np.eye(d)).max() <= tol)


def is_density_matrix(
    a: np.ndarray,
    herm_tol: float = HERMITIAN_TOL,
    trace_tol: float = TRACE_TOL,
    eig_floor: float = EIGENVALUE_FLOOR,
) -> bool:
    """Hermitian, unit trace, and no eigenvalue below the small negative floor."""
    if not is_hermitian(a, herm_tol):
        return False
    if abs(np.trace(a) - 1.0) > trace_tol:
        return False
    ev = np.linalg.eigvalsh((a + a.conj().T) / 2)
    return bool(ev.min() >= eig_floor)


def assert_unitary(a) -> np.ndarray:
    m = as_square_matrix(a)
    if not is_unitary(m):
        raise InvalidValueError("operator is not unitary within tolerance 1e-12")
    return m


def assert_density_matrix(a) -> np.ndarray:
    m = as_square_matrix(a)
    if not is_hermitian(m):
        raise InvalidValueError("state is not Hermitian within tolerance 1e-12")
    if abs(np.trace(m) - 1.0) > TRACE_TOL:
        raise InvalidValueError(f"state trace is {np.trace(m):.6g}, expected 1")
    ev = np.linalg.eigvalsh((m + m.conj().T) / 2)
    if ev.min() < EIGENVALUE_FLOOR:
        raise InvalidValueError(f"state has negative eigenvalue {ev.min():.3e}")
    return m


def random_unitary(dim: int, rng=None) -> np.ndarray:
    """Haar-like random unitary from the QR factorization of a complex Gaussian."""
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density_matrix(dim: int, rng=None) -> np.ndarray:
    """Random full-rank state G G^dagger / Tr(G G^dagger)."""
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real
