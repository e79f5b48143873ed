"""Probe-qubit trace estimation.

A single ancilla qubit prepended to the system register (wire 0, prepared in
|0>) is taken through a Hadamard, a controlled application of U, and a
closing Hadamard. Its polarization then carries Tr(U rho): the z component
holds the real part, and after a -pi/2 rotation of the transverse detection
frame the x component holds minus the imaginary part, so

    sigma_z - i * sigma_x == Tr(U rho)

exactly. Both components are read from the probe's reduced 2x2 state, summed
once from the evolved density matrix, so no sampling noise enters.

The controlled block is a dense U on the system or one map over every label
of the register, G|x> = phase[x] |label[x]>, which its caller builds: a
composed gate list (``scattering_circuit_gates``) or the point operator's
index map behind the probe-0 identity (``phasespace.wigner_via_circuit``).
Either way the readout (``_probe_readout``) forms just the entries it sums.
"""

from dataclasses import dataclass

import numpy as np

from .circuits import _KINDS, HADAMARD, _check_gates, _compose_map, _contract, phase_gate
from .errors import DimensionMismatchError, InvalidValueError
from .linalg import _assert_unitary, as_square_matrix, assert_density_matrix, check_int
from .linalg import check_qubit_budget, largest_side, qubit_count, wire_count

# The closing frame rotation makes the x readout return -Im Tr(U rho); it
# commutes with z.
_PROBE_FRAME = phase_gate(-np.pi / 2)


@dataclass(frozen=True)
class ScatteringResult:
    """Probe polarization after one scattering run."""

    sigma_z: float
    sigma_x: float

    @property
    def trace_estimate(self) -> complex:
        return complex(self.sigma_z, 0.0 - self.sigma_x)  # 0 - x: +0, not -0, for x = 0


def _check_size(rho: np.ndarray, dim: int) -> None:
    if rho.shape[0] != dim:
        raise DimensionMismatchError(f"state dim {rho.shape[0]} does not match operator dim {dim}")


def _check_operands(rho, u) -> tuple[np.ndarray, np.ndarray]:
    # The register budgeted, rho checked and u coerced, once, to the same
    # size; the caller checks that u is unitary.
    check_qubit_budget(probe=1, system=wire_count(largest_side(rho, u)))
    rho, u = assert_density_matrix(rho), as_square_matrix(u)
    _check_size(rho, u.shape[0])
    return rho, u


def direct_trace(rho: np.ndarray, u: np.ndarray) -> complex:
    """Tr(U rho) evaluated without any circuit; the oracle side of the duality."""
    rho, u = _check_operands(rho, u)
    return complex(np.einsum("ij,ji->", _assert_unitary(u), rho))


def _mapped_diagonals(rho: np.ndarray, label: np.ndarray, phase: np.ndarray) -> np.ndarray:
    # The block diagonals joint[i half + y, j half + y], as a (2, 2, half)
    # array, of the prepared joint after the map G|s> = phase[s] |label[s]>
    # over its 2 half labels. Each is the prepared entry at the preimages (s, t),
    # (R h) h, the value the kernel's probe Hadamard leaves on |0><0| (x) R
    # (R being rho at every w-th row and column: the work wires in |0>),
    # times phase[s] conj(phase[t]), the row factor first, as a map scales
    # the whole joint, so no other entry of the joint is formed.
    half = label.size // 2
    w = half // rho.shape[0]
    h = HADAMARD[0, 0]
    preimage = np.empty_like(label)
    preimage[label] = np.arange(label.size)
    s, t = preimage.reshape(2, 1, half), preimage.reshape(1, 2, half)
    x, z = s & (half - 1), t & (half - 1)  # half and w are powers of two
    shift = w.bit_length() - 1
    entries = np.where(((x | z) & (w - 1)) == 0, rho[x >> shift, z >> shift], 0) * h * h
    if (phase != 1).any():
        entries = entries * phase[s] * phase.conj()[t]
    return entries


def _probe_readout(rho: np.ndarray, controlled) -> ScatteringResult:
    # Unchecked core: rho is a valid state, and the controlled block is a
    # dense unitary on the system with no work wires, or one map (label,
    # phase) over every label of the wires probe, system, work. The circuit
    # starts from the probe's |+><+|. A dense U gives the block diagonals
    # from one N x N product, a map from O(half) prepared entries.
    if isinstance(controlled, np.ndarray):  # quadrants R, R U^dagger, U R, U R U^dagger
        # R = (rho h) h as prepared, X = U R, and diag(A U^dagger) as the row
        # dot products of conj U with A, for A = R and X: ``vecdot``
        # conjugates its first operand as it goes, so no conj(U) copy is
        # formed and the peak is R and X, two states. Those sums run in their
        # own order, so they meet the whole-state circuit to rounding.
        h = HADAMARD[0, 0]
        r = rho * h
        r *= h
        x = controlled @ r
        block = np.empty((2, 2, rho.shape[0]), dtype=complex)
        block[:, 0] = r.diagonal(), x.diagonal()
        block[:, 1] = np.vecdot(controlled, r), np.vecdot(controlled, x)
    else:
        block = _mapped_diagonals(rho, *controlled)
    # The probe's reduced state sums only the block diagonals
    # joint[i*half + y, j*half + y], and the closing gates act on the probe
    # alone, so they run on those 4*half entries only, a contiguous array
    # with the system index innermost, so the kernel rounds as on the whole
    # state. The reduction adds them one at a time in y, the order in which
    # einsum sums the whole state's strided diagonals (``pauli_expectation``
    # on wire 0; a contiguous einsum sums pairwise and moves last bits), and
    # + 0 turns a -0 total into the +0 that einsum's zero start leaves. The
    # frame is diagonal with m00 = 1, so it scales the probe's 1 slices only.
    _contract(block, 0, HADAMARD)
    _contract(block, 1, HADAMARD.conj())
    frame = _PROBE_FRAME[1, 1]
    block[1] *= frame
    block[:, 1] *= np.conj(frame)
    (r00, r01), (r10, r11) = np.cumsum(block, axis=2)[..., -1] + 0
    return ScatteringResult(sigma_z=float((r00 - r11).real), sigma_x=float((r01 + r10).real))


def scattering_circuit(rho: np.ndarray, u: np.ndarray) -> ScatteringResult:
    """Run the probe circuit with a dense controlled-U block; U is checked once, here."""
    rho, u = _check_operands(rho, u)
    qubit_count(u.shape[0])  # a power-of-two register, before the O(N^3) unitarity check
    return _probe_readout(rho, _assert_unitary(u))


def scattering_circuit_gates(
    rho: np.ndarray, gates, num_qubits: int
) -> ScatteringResult:
    """Run the probe circuit with the controlled block given as a gate list.

    ``gates`` act on ``num_qubits`` wires laid out as probe (wire 0), system
    (wires 1..k), then any work wires, which start in |0> and must be
    returned clean by the sequence. Each gate is a permutation times a phase
    (no Hadamard); the budget comes first, then the state, wire and kind checks.
    """
    n, k = check_int(num_qubits, "number of wires", 0), wire_count(largest_side(rho))
    check_qubit_budget(probe=1, system=k, work=max(0, n - 1 - k))
    rho = assert_density_matrix(rho)
    n = check_int(n, "number of wires", qubit_count(rho.shape[0]) + 1)
    gates = _check_gates(gates, n)
    if not all(_KINDS[g.kind][2] for g in gates):
        raise InvalidValueError("scattering_circuit_gates refuses a Hadamard: measure such a"
                                " block by passing the probe-1 quadrant of compose_sequence("
                                "gates, num_qubits) to scattering_circuit")
    return _probe_readout(rho, _compose_map(gates, n, np.ones(1 << n, dtype=complex)))
