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

and every operator here is built exactly from that index map, with the
integer phase exponent reduced mod 2N before exponentiation.

W(q, p) = Re Tr[A(q, p) rho] is the quasi-probability distribution of rho.
The trace reads only the anti-diagonal rho[x, (q - x) mod N], so the grid is
one FFT per anti-diagonal, O(N^2 log N) time and O(N^2) memory with nothing
cached; ``reconstruct`` inverts it with one FFT per grid row. The grid side
2N is held to 2**QUBIT_BUDGET (N <= 2048) before any work starts.

The grid is fourfold redundant: A(q+N, p) = (-1)^p A(q, p) and
A(q, p+N) = (-1)^q A(q, p), so each N x N subgrid operator appears four
times with signs. Hilbert-Schmidt pairings and state reconstruction sum over
the full 2N x 2N grid with prefactor N (equivalently 4N on one subgrid); a
brute-force calibration of that convention is frozen in the test fixtures.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidValueError, brief
from .linalg import as_square_matrix, assert_density_matrix, check_int, check_qubit_budget
from .linalg import is_density_matrix, largest_side
from .scattering import _check_probe_budget, scattering_circuit

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


def _check_grid(n: int) -> None:
    """Refuse a grid side 2n over 2**QUBIT_BUDGET; call before allocating."""
    check_qubit_budget((2 * n - 1).bit_length(), f" for a {2 * n}x{2 * n} Wigner grid")


def shift_u(n: int) -> np.ndarray:
    """Cyclic position shift |q> -> |q+1 mod n>."""
    n = _check_dim(n)
    m = np.zeros((n, n), dtype=complex)
    m[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    return m


def shift_v(n: int) -> np.ndarray:
    """Momentum shift F U F^dagger = diag(exp(2 pi i j / n))."""
    n = _check_dim(n)
    return np.diag(np.exp(2j * np.pi * np.arange(n) / n))


def reflection(n: int) -> np.ndarray:
    """Position reflection |q> -> |-q mod n>; fixes |0> and squares to I."""
    n = _check_dim(n)
    m = np.zeros((n, n), dtype=complex)
    m[(-np.arange(n)) % n, np.arange(n)] = 1.0
    return m


def phase_point_operator(alpha: PhasePoint) -> np.ndarray:
    """Hermitian point operator A(alpha); 2N times it is unitary.

    Built from its index map, so every entry is one rounded exponential.
    """
    n, q, p = alpha.n, int(alpha.q), int(alpha.p)
    x = np.arange(n)
    a = np.zeros((n, n), dtype=complex)
    phase = np.exp(1j * np.pi * ((p * q - 2 * p * x) % (2 * n)) / n)
    a[(q - x) % n, x] = phase / (2 * n)
    return a


@dataclass(frozen=True)
class WignerGrid:
    """Real 2n x 2n grid of quasi-probability values, indexed [q, p]."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        _check_dim(self.n)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (2 * self.n, 2 * self.n):
            side = brief(2 * self.n)
            raise DimensionMismatchError(
                f"grid for dimension {brief(self.n)} must be {side}x{side}, got {v.shape}"
            )
        if not np.isfinite(v).all():
            raise InvalidValueError("grid values must be finite")
        object.__setattr__(self, "values", v)


def wigner_direct(rho: np.ndarray) -> WignerGrid:
    """Evaluate W(q, p) = Re Tr[A(q, p) rho] over the full grid.

    Raises if the imaginary residue anywhere on the grid exceeds 1e-12,
    which cannot happen for a valid state (A is Hermitian).
    """
    _check_grid(largest_side(rho))
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

    Only the register width and the dimensions are checked here;
    ``scattering_circuit`` checks the state.
    """
    _check_probe_budget(max(largest_side(rho), alpha.n))
    dim = as_square_matrix(rho).shape[0]
    if dim != alpha.n:
        raise DimensionMismatchError(f"state dim {dim} does not match grid dim {alpha.n}")
    u = 2 * alpha.n * phase_point_operator(alpha)
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
    n = w.n
    _check_grid(n)
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
    if w1.n != w2.n:
        raise DimensionMismatchError(f"grid dims differ: {w1.n} versus {w2.n}")
    return float(w1.n * np.sum(w1.values * w2.values))


def line_sum(w: WignerGrid, a: int, b: int, c: int) -> float:
    """Sum W over the lattice line a*p - b*q = c (mod 2N).

    Axis-parallel lines recover marginal probabilities: (a, b) = (1, 0)
    fixes p = c, (a, b) = (0, -1) fixes q = c; even-index lines carry
    position or momentum populations and odd-index lines vanish.
    """
    a, b, c = (check_int(v, f"line coefficient {name}") for name, v in zip("abc", (a, b, c)))
    if a == 0 and b == 0:
        raise InvalidValueError("line coefficients (a, b) = (0, 0) select no line")
    m = 2 * w.n
    k = np.arange(m)  # q on axis 0, p on axis 1; a, b, c mod 2N keep products in int64
    mask = ((a % m) * k - (b % m) * k[:, None] - c % m) % m == 0
    return float(w.values[mask].sum())
