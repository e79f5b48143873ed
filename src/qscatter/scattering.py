"""Probe-qubit trace estimation.

A single ancilla qubit prepended to the system register (wire 0, prepared in
|0>) is taken through a Hadamard, a controlled application of U, and a
closing Hadamard. Its polarization then carries Tr(U rho): the z component
holds the real part, and after a -pi/2 rotation of the transverse detection
frame the x component holds minus the imaginary part, so

    sigma_z - i * sigma_x == Tr(U rho)

exactly. Expectation values are computed from the evolved density matrix, so
no sampling noise enters.
"""

from dataclasses import dataclass

import numpy as np

from .circuits import GateOp, _apply_sequence, _check_gates, _pauli_expectation
from .errors import DimensionMismatchError
from .linalg import as_square_matrix, assert_density_matrix, assert_unitary, check_int
from .linalg import check_qubit_budget, largest_side, qubit_count

# The gates around the controlled block, built and checked once. The closing
# PhaseShift makes the x readout return -Im Tr(U rho); it commutes with z.
_PROBE_HADAMARD = GateOp("Hadamard", (0,))
_PROBE_FRAME = GateOp("PhaseShift", (0,), theta=-np.pi / 2)


@dataclass(frozen=True)
class ScatteringResult:
    """Probe polarization after one scattering run."""

    sigma_z: float
    sigma_x: float

    @property
    def trace_estimate(self) -> complex:
        return complex(self.sigma_z, -self.sigma_x)


def _check_operands(rho, u) -> tuple[np.ndarray, np.ndarray]:
    # rho checked and u coerced to the same size; the caller checks that u is unitary.
    rho, u = assert_density_matrix(rho), as_square_matrix(u)
    if rho.shape != u.shape:
        raise DimensionMismatchError(
            f"state dim {rho.shape[0]} does not match operator dim {u.shape[0]}"
        )
    return rho, u


def _check_probe_budget(dim: int) -> None:
    # From the size alone, so callers run it before validating or building anything.
    k = (int(dim) - 1).bit_length()
    check_qubit_budget(1 + k, f" (1 probe + {k} system)")


def direct_trace(rho: np.ndarray, u: np.ndarray) -> complex:
    """Tr(U rho) evaluated without any circuit; the oracle side of the duality."""
    rho, u = _check_operands(rho, u)
    return complex(np.trace(assert_unitary(u) @ rho))


def _probe_readout(rho: np.ndarray, gates: list[GateOp], num_qubits: int) -> ScatteringResult:
    # Unchecked core: rho is a valid state, every gate fits the wires probe,
    # system, work. Probe and work wires start in |0>, so rho fills every
    # w-th row and column of the joint state.
    d = rho.shape[0]
    w = (1 << num_qubits) // (2 * d)
    joint = np.zeros((2 * d * w, 2 * d * w), dtype=complex)
    joint[: d * w : w, : d * w : w] = rho
    seq = [_PROBE_HADAMARD, *gates, _PROBE_HADAMARD, _PROBE_FRAME]
    final = _apply_sequence(joint, seq, num_qubits)
    z = _pauli_expectation(final, "z", 0)
    x = _pauli_expectation(final, "x", 0)
    return ScatteringResult(sigma_z=z, sigma_x=x)


def scattering_circuit(rho: np.ndarray, u: np.ndarray) -> ScatteringResult:
    """Run the probe circuit with a dense controlled-U block; building the block checks U."""
    _check_probe_budget(largest_side(rho, u))
    rho, u = _check_operands(rho, u)
    k = qubit_count(u.shape[0])
    cu = GateOp("ControlledUnitary", tuple(range(k + 1)), unitary=u)
    return _probe_readout(rho, [cu], k + 1)


def scattering_circuit_gates(
    rho: np.ndarray, gates, num_qubits: int
) -> ScatteringResult:
    """Run the probe circuit with the controlled block given as a gate list.

    ``gates`` act on ``num_qubits`` wires laid out as probe (wire 0), system
    (wires 1..k), then any work wires, which start in |0> and must be
    returned clean by the sequence. Both budgets come before any check.
    """
    check_qubit_budget(check_int(num_qubits, "number of wires", 0))
    _check_probe_budget(largest_side(rho))
    rho = assert_density_matrix(rho)
    k = qubit_count(rho.shape[0])
    num_qubits = check_int(num_qubits, "number of wires", k + 1)
    return _probe_readout(rho, _check_gates(gates, num_qubits), num_qubits)
