"""Register state factories, each held to the qubit budget before it allocates."""

import numpy as np

from .circuits import _depolarize
from .linalg import check_int, check_qubit_budget, wire_count


def basis_state(label: int, dim: int) -> np.ndarray:
    """Projector |label><label| as a density matrix."""
    dim = check_int(dim, "dimension", 1)
    check_qubit_budget(system=wire_count(dim))
    label = check_int(label, "label", 0, dim)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[label, label] = 1.0
    return rho


def maximally_mixed(dim: int) -> np.ndarray:
    dim = check_int(dim, "dimension", 1)
    check_qubit_budget(system=wire_count(dim))
    return np.eye(dim, dtype=complex) / dim


def pseudo_pure(label: int, dim: int, noise_p: float = 0.0) -> np.ndarray:
    """Computational basis state, optionally mixed toward I/N.

    With noise strength p the result is (1-p)|label><label| + p I/N, the
    standard idealization of an ensemble preparation.
    """
    rho = basis_state(label, dim)
    return _depolarize(rho, noise_p)
