"""Register state factories."""

import numpy as np

from .circuits import _depolarize
from .errors import InvalidValueError


def _check_dim(dim) -> int:
    if not (isinstance(dim, (int, np.integer)) and dim >= 1):
        raise InvalidValueError(f"dimension must be a positive integer, got {dim!r}")
    return int(dim)


def basis_state(label: int, dim: int) -> np.ndarray:
    """Projector |label><label| as a density matrix."""
    dim = _check_dim(dim)
    if not (isinstance(label, (int, np.integer)) and 0 <= label < dim):
        raise InvalidValueError(f"label must lie in [0, {dim}), got {label!r}")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[label, label] = 1.0
    return rho


def maximally_mixed(dim: int) -> np.ndarray:
    dim = _check_dim(dim)
    return np.eye(dim, dtype=complex) / dim


def pseudo_pure(label: int, dim: int, noise_p: float = 0.0) -> np.ndarray:
    """Computational basis state, optionally mixed toward I/N.

    With noise strength p the result is (1-p)|label><label| + p I/N, the
    standard idealization of an ensemble preparation.
    """
    rho = basis_state(label, dim)
    return _depolarize(rho, noise_p) if noise_p else rho
