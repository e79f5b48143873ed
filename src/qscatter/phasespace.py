"""Discrete phase space on a 2N x 2N half-integer grid.

For an N-dimensional register the grid point alpha = (q, p), with
0 <= q, p < 2N, carries the point operator

    A(q, p) = (1/2N) * U^q * R * V^(-p) * exp(i pi p q / N)

where U is the cyclic position shift |q> -> |q+1 mod N>, V = F U F^dagger is
the matching momentum shift (diagonal, entries exp(2 pi i j / N)), R is the
position reflection |q> -> |-q mod N>, and F is the unitary discrete Fourier
matrix with kernel exp(+2 pi i p q / N) / sqrt(N). Each A(q, p) is a
permutation times a diagonal (Leonhardt, PRA 53, 2998, 1996),

    A(q, p)|x> = exp(i pi ((p q - 2 p x) mod 2N) / N) / 2N * |q - x mod N>,

and ``phase_point_operator`` builds it exactly from that index map, written
once in ``_point_operator``, with the integer phase exponent reduced mod 2N
before exponentiation. U, V and R are not built here: the tests hold A(q, p)
to their dense product.

W(q, p) = Re Tr[A(q, p) rho] is the quasi-probability distribution of rho.
The trace reads only the anti-diagonal rho[x, (q - x) mod N], so the grid is
one FFT per anti-diagonal, O(N^2 log N) time and O(N^2) memory with nothing
cached; ``reconstruct`` inverts it with one FFT per grid row. Every operator
and grid here is held to the probe circuit's budget, 1 probe + log2(N)
system wires (N <= 2048, grid side 2N <= 2**QUBIT_BUDGET), before any work
starts.

The grid is fourfold redundant: A(q+N, p) = (-1)^p A(q, p) and
A(q, p+N) = (-1)^q A(q, p), so each N x N subgrid operator appears four
times with signs. Hilbert-Schmidt pairings and state reconstruction sum over
the full 2N x 2N grid with prefactor N (equivalently 4N on one subgrid); a
brute-force calibration of that convention is frozen in the test fixtures.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidValueError, brief
from .linalg import as_real_array, assert_density_matrix, check_int, check_qubit_budget
from .linalg import is_density_matrix, largest_side, wire_count
from .scattering import scattering_circuit

IMAG_RESIDUE_TOL = 1e-12
_PHASE_BLOCK_BYTES = 4 << 20  # phase scratch per block of grid rows, not per whole grid


@dataclass(frozen=True)
class PhasePoint:
    """Grid coordinates (q, p) for a register of dimension n."""

    q: int
    p: int
    n: int

    def __post_init__(self):
        n = _check_dim(self.n)
        check_int(self.q, "q", 0, 2 * n)
        check_int(self.p, "p", 0, 2 * n)


def _check_dim(n) -> int:
    return check_int(n, "register dimension", 2)


def _expect(kind: type, *values) -> None:
    # The one type rule for point and grid arguments: anything else is refused.
    for v in values:
        if not isinstance(v, kind):
            raise InvalidValueError(f"expected a {kind.__name__}, got {type(v).__name__}")


def _point_operator(alpha: PhasePoint) -> np.ndarray:
    # Unchecked core: alpha is a PhasePoint whose register is already budgeted.
    # The one place the index map of A(alpha) is written.
    n, q, p = alpha.n, int(alpha.q), int(alpha.p)
    x = np.arange(n)
    a = np.zeros((n, n), dtype=complex)
    a[(q - x) % n, x] = np.exp(1j * np.pi * ((p * q - 2 * p * x) % (2 * n)) / n) / (2 * n)
    return a


def phase_point_operator(alpha: PhasePoint) -> np.ndarray:
    """Hermitian point operator A(alpha) from its index map; 2N times it is unitary."""
    _expect(PhasePoint, alpha)
    check_qubit_budget(probe=1, system=wire_count(alpha.n))
    return _point_operator(alpha)


@dataclass(frozen=True)
class WignerGrid:
    """Real 2n x 2n grid of quasi-probability values, indexed [q, p]."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        _check_dim(self.n)
        v = as_real_array(self.values, "grid values")
        if v.shape != (2 * self.n, 2 * self.n):
            side = brief(2 * self.n)
            raise DimensionMismatchError(
                f"grid for dimension {brief(self.n)} must be {side}x{side}, got {v.shape}"
            )
        object.__setattr__(self, "values", v)


def wigner_direct(rho: np.ndarray) -> WignerGrid:
    """Evaluate W(q, p) = Re Tr[A(q, p) rho] over the full grid.

    Raises if the imaginary residue anywhere on the grid exceeds 1e-12,
    which cannot happen for a valid state (A is Hermitian).
    """
    check_qubit_budget(probe=1, system=wire_count(largest_side(rho)))
    rho = assert_density_matrix(rho)
    n = _check_dim(rho.shape[0])
    m = 2 * n
    j, k = np.arange(n), np.arange(m)
    # row q of f is the FFT of the anti-diagonal rho[j, (q - j) % n], shared by q + n
    f = np.fft.fft(rho[j, (j[:, None] - j) % n], axis=1)
    phase = np.exp(1j * np.pi * k / n) / m
    raw = f[np.ix_(k % n, k % n)]
    del f
    rows = max(1, _PHASE_BLOCK_BYTES // (24 * m))  # int64 index + complex gather
    for top in range(0, m, rows):
        raw[top : top + rows] *= phase[k[top : top + rows, None] * k % m]
    residue = float(np.abs(raw.imag).max())
    if residue > IMAG_RESIDUE_TOL:
        raise InvalidValueError(
            f"grid has imaginary residue {residue:.3e}, expected < 1e-12"
        )
    return WignerGrid(n=n, values=raw.real + 0.0)  # + 0.0 turns -0.0 into 0.0


def wigner_via_circuit(rho: np.ndarray, alpha: PhasePoint) -> float:
    """One grid value measured by scattering off the unitary 2N * A(alpha).

    Only the point's type and the register width are checked here;
    ``scattering_circuit`` checks the state and refuses a size mismatch.
    """
    _expect(PhasePoint, alpha)
    check_qubit_budget(probe=1, system=wire_count(max(largest_side(rho), alpha.n)))
    u = 2 * alpha.n * _point_operator(alpha)
    return scattering_circuit(rho, u).sigma_z / (2 * alpha.n)


@dataclass(frozen=True)
class Reconstruction:
    """Operator rebuilt from a grid, plus whether it passed state checks."""

    matrix: np.ndarray
    valid: bool


def reconstruct(w: WignerGrid) -> Reconstruction:
    """Invert tomography: rho = N * sum over the full grid of W(alpha) A(alpha).

    Any real grid is accepted; the ``valid`` flag reports whether the result
    satisfies the density-matrix checks (Hermitian, unit trace, eigenvalues
    above the -1e-10 floor).
    """
    _expect(WignerGrid, w)
    n = w.n
    check_qubit_budget(probe=1, system=wire_count(n))
    m = 2 * n
    k, x = np.arange(m)[:, None], np.arange(n)
    # g[q, x] = 1/2 sum_p W[q, p] exp(i pi p (q - 2x) / n): rows q and q + n feed
    # the same anti-diagonal entry rho[(q - x) % n, x]
    g = np.fft.fft(w.values, axis=1)[k, (2 * x - k) % m] / 2
    rho = np.empty((n, n), dtype=complex)
    rho[(k[:n] - x) % n, x] = g[:n] + g[n:]
    return Reconstruction(matrix=rho, valid=is_density_matrix(rho, trace_tol=1e-10))


def overlap_from_grids(w1: WignerGrid, w2: WignerGrid) -> float:
    """Hilbert-Schmidt pairing Tr(rho1 rho2) = N * sum W1 W2 over the full grid."""
    _expect(WignerGrid, w1, w2)
    if w1.n != w2.n:
        raise DimensionMismatchError(f"grid dims differ: {w1.n} versus {w2.n}")
    return float(w1.n * np.sum(w1.values * w2.values))


def line_sum(w: WignerGrid, a: int, b: int, c: int) -> float:
    """Sum W over the lattice line a*p - b*q = c (mod 2N).

    Axis-parallel lines recover marginal probabilities: (a, b) = (1, 0)
    fixes p = c, (a, b) = (0, -1) fixes q = c; even-index lines carry
    position or momentum populations and odd-index lines vanish.
    """
    _expect(WignerGrid, w)
    a, b, c = (check_int(v, f"line coefficient {name}") for name, v in zip("abc", (a, b, c)))
    if a == 0 and b == 0:
        raise InvalidValueError("line coefficients (a, b) = (0, 0) select no line")
    m = 2 * w.n
    k = np.arange(m)  # q on axis 0, p on axis 1; a, b, c mod 2N keep products in int64
    mask = ((a % m) * k - (b % m) * k[:, None] - c % m) % m == 0
    return float(w.values[mask].sum())
