"""Dense complex linear algebra shared by every register-level module.

Matrices are plain numpy arrays of dtype complex128. Every public function
checks each matrix its caller passes exactly once, through
``assert_density_matrix`` / ``assert_unitary``, and never re-checks arrays
the library builds itself; private cores take raw, already-checked arrays.
The predicate ``is_density_matrix`` coerces its argument the same way. The
check arithmetic runs with numpy's overflow warnings off: an overflow leaves
inf or nan, which every check refuses.
Real grids and series coerce through ``as_real_array``, which refuses a
nonzero imaginary part rather than drop it.

Integers have one rule, ``check_int``, behind every integer argument: a
Python or numpy integer, never a boolean, inside its documented range.
Registers have one budget, ``check_qubit_budget``, called once per route
with every register width by name before any work starts.
"""

import numpy as np

from .errors import DimensionMismatchError, InvalidValueError, PowerOfTwoError
from .errors import QubitBudgetError, brief

QUBIT_BUDGET = 12
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def check_int(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as a plain int; anything else, a boolean, or outside [lo, hi) is refused."""
    # A plain int first: the common case, and the cheapest test.
    if type(value) is int or (isinstance(value, (int, np.integer))
                              and not isinstance(value, bool)):
        if (lo is None or value >= lo) and (hi is None or value < hi):
            return int(value)
    span = f" in [{lo}, {brief(hi)})" if hi is not None else f" >= {lo}" if lo is not None else ""
    raise InvalidValueError(f"{what} must be an integer{span}, got {brief(value)}")


def largest_side(*arrays) -> int:
    """Largest extent of any operand from its shape alone, for budgets run before validation."""
    try:
        return max((side for a in arrays for side in np.shape(a)), default=0)
    except ValueError:  # a ragged nested list
        raise DimensionMismatchError("expected a square matrix, got a ragged nested list") from None


def _as_numbers(a, what: str) -> np.ndarray:
    # ``a`` as a complex array: a ragged nested list is a shape error, anything else a value error.
    try:
        return np.asarray(a, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        largest_side(a)
        raise InvalidValueError(f"{what} must be numbers, got {brief(a)}") from None


def as_real_array(a, what: str) -> np.ndarray:
    """Coerce to a finite float array; a nonzero imaginary part is refused, never dropped."""
    m = a if isinstance(a, np.ndarray) and a.dtype.kind in "biuf" else _as_numbers(a, what)
    if m.dtype.kind == "c" and m.imag.any():
        raise InvalidValueError(f"{what} must be real, got a nonzero imaginary part")
    m = np.asarray(m.real, dtype=float)
    if not np.isfinite(m).all():
        raise InvalidValueError(f"{what} must be finite")
    return m


def as_square_matrix(a) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    m = _as_numbers(a, "matrix entries")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise DimensionMismatchError("matrix must be at least 1x1")
    if not np.isfinite(m).all():
        raise InvalidValueError("matrix entries must be finite")
    return m


def qubit_count(dim: int) -> int:
    """Number of qubits for a register of dimension ``dim`` (must be 2**k)."""
    dim = check_int(dim, "dimension", 1)
    if dim & (dim - 1):
        raise PowerOfTwoError(f"dimension {brief(dim)} is not a power of two")
    return dim.bit_length() - 1


def wire_count(side) -> int:
    """Wires that hold ``side`` basis states, ceil(log2(side)); numpy integers are fine."""
    return (int(side) - 1).bit_length()


def check_qubit_budget(**registers: int) -> None:
    """Refuse registers wider than QUBIT_BUDGET together; call before allocating them.

    Widths are named in wire order, and the message lists them:
    ``probe=1, counter=3, system=2`` reads "(1 probe + 3 counter + 2 system)".
    """
    total = sum(registers.values())
    if total > QUBIT_BUDGET:
        layout = " + ".join(f"{brief(width)} {name}" for name, width in registers.items())
        raise QubitBudgetError(
            f"circuit needs {brief(total)} qubits ({layout}); the budget is {QUBIT_BUDGET}"
        )


def _is_unitary(m: np.ndarray) -> bool:
    # A product that overflows leaves inf or nan, which no tolerance admits.
    with np.errstate(over="ignore", invalid="ignore"):
        g = m @ m.conj().T
        np.einsum("ii->i", g)[:] -= 1  # the diagonal, as a writable view
        return bool(np.abs(g).max() <= UNITARY_TOL)


def _state_defect(a: np.ndarray, trace_tol: float) -> str | None:
    # Why ``a`` is not a density matrix (see is_density_matrix), or None.
    # A Cholesky factorization of (a + a^H)/2 - EIGENVALUE_FLOOR * I succeeds
    # exactly when no eigenvalue is below the floor, up to a backward error of
    # about n * eps * |a|; eigvalsh runs only when it fails, to judge and word
    # the refusal. Its peak is three N x N arrays: the symmetrized conjugate h,
    # and, inside the factorization, LAPACK's copy of h and the returned factor
    # (+197 MiB of ru_maxrss over the caller's state at N=2048). The
    # Hermiticity step holds two, and its spare takes a/2, so that h sums two
    # halves and stays finite for any finite a. A sum that overflows elsewhere
    # leaves inf or nan, which the checks refuse.
    with np.errstate(over="ignore", invalid="ignore"):
        h = a.conj().T
        gap = np.subtract(a, h, order="F")  # in h's layout, for the sum below
        if np.abs(gap, out=gap).real.max() > HERMITIAN_TOL:  # in place: no third array
            return "state is not Hermitian within tolerance 1e-12"
        trace = np.trace(a)
        if not abs(trace - 1.0) <= trace_tol:
            return f"state trace is {trace:.6g}, expected 1"
        h *= 0.5
        h += np.multiply(a, 0.5, out=gap)
        del gap
    diagonal = np.einsum("ii->i", h)  # a writable view
    unshifted = diagonal.copy()
    diagonal -= EIGENVALUE_FLOOR
    try:
        np.linalg.cholesky(h)
        return None
    except np.linalg.LinAlgError:
        diagonal[:] = unshifted
    lowest = np.linalg.eigvalsh(h).min()
    return f"state has negative eigenvalue {lowest:.3e}" if lowest < EIGENVALUE_FLOOR else None


def is_density_matrix(a) -> bool:
    """Hermitian, unit trace, and no eigenvalue below the small negative floor;
    ``a`` is coerced as ``as_square_matrix`` does."""
    return _state_defect(as_square_matrix(a), TRACE_TOL) is None


def assert_unitary(a) -> np.ndarray:
    m = as_square_matrix(a)
    if not _is_unitary(m):
        raise InvalidValueError("operator is not unitary within tolerance 1e-12")
    return m


def assert_density_matrix(a) -> np.ndarray:
    m = as_square_matrix(a)
    defect = _state_defect(m, TRACE_TOL)
    if defect is not None:
        raise InvalidValueError(defect)
    return m
