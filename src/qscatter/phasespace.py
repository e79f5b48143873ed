"""Discrete phase space on a 2N x 2N half-integer grid.

For an N-dimensional register the grid point alpha = (q, p), with
0 <= q, p < 2N, carries the point operator

    A(q, p) = (1/2N) * U^q * R * V^(-p) * exp(i pi p q / N)

where U is the cyclic position shift |q> -> |q+1 mod N>, V = F U F^dagger is
the matching momentum shift (diagonal, entries exp(2 pi i j / N)), R is the
position reflection |q> -> |-q mod N>, and F is the discrete Fourier matrix
from linalg. The product p*q in the scalar phase is reduced mod 2N before
exponentiation so integer grid arithmetic stays exact.

W(q, p) = Re Tr[A(q, p) rho] is the quasi-probability distribution of rho.
The grid is fourfold redundant: A(q+N, p) = (-1)^p A(q, p) and
A(q, p+N) = (-1)^q A(q, p), so each N x N subgrid operator appears four
times with signs. Hilbert-Schmidt pairings and state reconstruction sum over
the full 2N x 2N grid with prefactor N (equivalently 4N on one subgrid); a
brute-force calibration of that convention is frozen in the test fixtures.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, InvalidValueError
from .linalg import (
    as_square_matrix,
    assert_density_matrix,
    dft_matrix,
    is_density_matrix,
)
from .scattering import scattering_circuit

IMAG_RESIDUE_TOL = 1e-12


@dataclass(frozen=True)
class PhasePoint:
    """Grid coordinates (q, p) for a register of dimension n."""

    q: int
    p: int
    n: int

    def __post_init__(self):
        _check_dim(self.n)
        for name, v in (("q", self.q), ("p", self.p)):
            if not (isinstance(v, (int, np.integer)) and 0 <= v < 2 * self.n):
                raise InvalidValueError(
                    f"{name} must lie in [0, {2 * self.n}), got {v!r}"
                )


def _check_dim(n) -> int:
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise InvalidValueError(f"register dimension must be >= 2, got {n!r}")
    return int(n)


@lru_cache(maxsize=None)
def _shift_u(n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def _shift_v(n: int) -> np.ndarray:
    f = dft_matrix(n)
    m = f @ _shift_u(n) @ f.conj().T
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def _reflection(n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[(-np.arange(n)) % n, np.arange(n)] = 1.0
    m.setflags(write=False)
    return m


def shift_u(n: int) -> np.ndarray:
    """Cyclic position shift |q> -> |q+1 mod n>."""
    return _shift_u(_check_dim(n))


def shift_v(n: int) -> np.ndarray:
    """Momentum shift F U F^dagger; diagonal in the computational basis."""
    return _shift_v(_check_dim(n))


def reflection(n: int) -> np.ndarray:
    """Position reflection |q> -> |-q mod n>; fixes |0> and squares to I."""
    return _reflection(_check_dim(n))


@lru_cache(maxsize=None)
def _phase_point(n: int, q: int, p: int) -> np.ndarray:
    uq = np.linalg.matrix_power(_shift_u(n), q % n)
    vmp = np.linalg.matrix_power(_shift_v(n).conj().T, p % n)
    phase = np.exp(1j * np.pi * ((p * q) % (2 * n)) / n)
    m = uq @ _reflection(n) @ vmp * (phase / (2 * n))
    m.setflags(write=False)
    return m


def phase_point_operator(alpha: PhasePoint) -> np.ndarray:
    """Hermitian point operator A(alpha); 2N times it is unitary."""
    return _phase_point(alpha.n, int(alpha.q), int(alpha.p))


@lru_cache(maxsize=None)
def _point_stack(n: int) -> np.ndarray:
    """All point operators as one (2n, 2n, n, n) array indexed [q, p]."""
    stack = np.empty((2 * n, 2 * n, n, n), dtype=complex)
    for q in range(2 * n):
        for p in range(2 * n):
            stack[q, p] = _phase_point(n, q, p)
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True)
class WignerGrid:
    """Real 2n x 2n grid of quasi-probability values, indexed [q, p]."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        _check_dim(self.n)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (2 * self.n, 2 * self.n):
            raise DimensionMismatchError(
                f"grid for dimension {self.n} must be {2 * self.n}x{2 * self.n}, "
                f"got {v.shape}"
            )
        if not np.isfinite(v).all():
            raise InvalidValueError("grid values must be finite")
        object.__setattr__(self, "values", v)


def wigner_direct(rho: np.ndarray) -> WignerGrid:
    """Evaluate W(q, p) = Re Tr[A(q, p) rho] over the full grid.

    Raises if the imaginary residue anywhere on the grid exceeds 1e-12,
    which cannot happen for a valid state (A is Hermitian).
    """
    rho = assert_density_matrix(rho)
    n = rho.shape[0]
    _check_dim(n)
    raw = np.einsum("qpij,ji->qp", _point_stack(n), rho)
    residue = float(np.abs(raw.imag).max())
    if residue > IMAG_RESIDUE_TOL:
        raise InvalidValueError(
            f"grid has imaginary residue {residue:.3e}, expected < 1e-12"
        )
    return WignerGrid(n=n, values=raw.real)


def wigner_via_circuit(rho: np.ndarray, alpha: PhasePoint) -> float:
    """One grid value measured by scattering off the unitary 2N * A(alpha).

    Only the dimensions are compared here; ``scattering_circuit`` checks the
    state.
    """
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
    rho = n * np.einsum("qp,qpij->ij", w.values, _point_stack(n))
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
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not isinstance(v, (int, np.integer)):
            raise InvalidValueError(f"line coefficient {name} must be an integer")
    if a == 0 and b == 0:
        raise InvalidValueError("line coefficients (a, b) = (0, 0) select no line")
    m = 2 * w.n
    q, p = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    mask = (a * p - b * q - c) % m == 0
    return float(w.values[mask].sum())
