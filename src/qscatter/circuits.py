"""Gate-level engine evolving density matrices on qubit registers.

Wire convention: qubit 0 is the most significant bit of the computational
basis index, so a basis label reads left to right as |q0 q1 ... >. Gates
list control wires first and the target wire(s) last, and a density matrix
evolves by conjugation, rho -> G rho G^dagger.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError, InvalidValueError
from .io import json_int, json_list, json_real, matrix_from_payload, matrix_to_payload
from .linalg import as_square_matrix, assert_density_matrix, assert_unitary, qubit_count

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

_FIXED_KINDS = {
    "Hadamard": 1,
    "PauliX": 1,
    "PauliY": 1,
    "PauliZ": 1,
    "PhaseShift": 1,
    "CNOT": 2,
    "ControlledPhase": 2,
    "Toffoli": 3,
}
GATE_KINDS = frozenset(_FIXED_KINDS) | {"ControlledUnitary"}
_THETA_KINDS = frozenset({"PhaseShift", "ControlledPhase"})


@dataclass(frozen=True, eq=False)
class GateOp:
    """One gate: a kind, the wires it acts on, and optional parameters.

    ``targets`` holds controls first, target last. ``theta`` is required for
    PhaseShift and ControlledPhase; ``unitary`` is required for
    ControlledUnitary, where targets are (control, t1, ..., tk) and the
    payload acts on the k-qubit register (t1 most significant).
    """

    kind: str
    targets: tuple[int, ...]
    theta: float | None = None
    unitary: np.ndarray | None = None

    def validate(self, num_qubits: int) -> None:
        if self.kind not in GATE_KINDS:
            raise InvalidValueError(f"unknown gate kind {self.kind!r}")
        t = self.targets
        if len(set(t)) != len(t):
            raise InvalidValueError(f"{self.kind} wires must be distinct, got {t}")
        if any((not isinstance(i, (int, np.integer))) or i < 0 or i >= num_qubits for i in t):
            raise InvalidValueError(
                f"{self.kind} wire index out of range for {num_qubits} qubits: {t}"
            )
        if self.kind in _THETA_KINDS:
            if self.theta is None or not np.isfinite(self.theta):
                raise InvalidValueError(f"{self.kind} needs a finite theta")
        elif self.theta is not None:
            raise InvalidValueError(f"{self.kind} takes no theta")
        if self.kind == "ControlledUnitary":
            if self.unitary is None:
                raise InvalidValueError("ControlledUnitary needs a unitary payload")
            u = assert_unitary(self.unitary)
            k = qubit_count(u.shape[0])
            if len(t) != k + 1:
                raise InvalidValueError(
                    f"ControlledUnitary on a {u.shape[0]}-dim payload needs "
                    f"{k + 1} wires, got {len(t)}"
                )
        else:
            if self.unitary is not None:
                raise InvalidValueError(f"{self.kind} takes no unitary payload")
            if len(t) != _FIXED_KINDS[self.kind]:
                raise InvalidValueError(
                    f"{self.kind} acts on {_FIXED_KINDS[self.kind]} wires, got {len(t)}"
                )


def phase_gate(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)


def controlled_matrix(u: np.ndarray) -> np.ndarray:
    """Block form |0><0| (x) I + |1><1| (x) u, control as the leading qubit."""
    u = as_square_matrix(u)
    d = u.shape[0]
    out = np.eye(2 * d, dtype=complex)
    out[d:, d:] = u
    return out


def _small_matrix(g: GateOp) -> np.ndarray:
    if g.kind == "Hadamard":
        return HADAMARD
    if g.kind == "PauliX":
        return PAULI_X
    if g.kind == "PauliY":
        return PAULI_Y
    if g.kind == "PauliZ":
        return PAULI_Z
    if g.kind == "PhaseShift":
        return phase_gate(g.theta)
    if g.kind == "CNOT":
        return controlled_matrix(PAULI_X)
    if g.kind == "Toffoli":
        return controlled_matrix(controlled_matrix(PAULI_X))
    if g.kind == "ControlledPhase":
        return controlled_matrix(phase_gate(g.theta))
    return controlled_matrix(g.unitary)


def _embed(u_small: np.ndarray, targets: tuple[int, ...], num_qubits: int) -> np.ndarray:
    # Relabel basis states so the addressed wires become the least significant
    # block; there the operator is I (x) u_small, and indexing back with the
    # relabeling permutation lands every entry in its proper place.
    n, k = num_qubits, len(targets)
    dim = 1 << n
    idx = np.arange(dim)
    sub = np.zeros(dim, dtype=np.int64)
    for t in targets:
        sub = (sub << 1) | ((idx >> (n - 1 - t)) & 1)
    restk = np.zeros(dim, dtype=np.int64)
    for t in range(n):
        if t not in targets:
            restk = (restk << 1) | ((idx >> (n - 1 - t)) & 1)
    key = (restk << k) | sub
    big = np.kron(np.eye(1 << (n - k), dtype=complex), u_small)
    return big[np.ix_(key, key)]


def gate_matrix(g: GateOp, num_qubits: int) -> np.ndarray:
    """Full 2**n x 2**n unitary for one gate on an n-qubit register."""
    g.validate(num_qubits)
    return _embed(_small_matrix(g), g.targets, num_qubits)


def apply(rho: np.ndarray, g: GateOp) -> np.ndarray:
    """Conjugate a density matrix by one gate."""
    return apply_sequence(rho, [g])


def apply_sequence(rho: np.ndarray, gates) -> np.ndarray:
    """Apply gates in list order (index 0 acts first).

    Checks the state and every gate once; the private core it then runs
    checks nothing.
    """
    rho = assert_density_matrix(rho)
    n = qubit_count(rho.shape[0])
    gates = list(gates)
    for g in gates:
        g.validate(n)
    return _apply_sequence(rho, gates, n)


def _apply_sequence(rho: np.ndarray, gates, num_qubits: int) -> np.ndarray:
    # Unchecked core: rho is a valid state on num_qubits wires and every gate
    # has been validated for that register.
    for g in gates:
        m = _embed(_small_matrix(g), g.targets, num_qubits)
        rho = m @ rho @ m.conj().T
    return rho


def compose_sequence(gates, num_qubits: int) -> np.ndarray:
    """Dense product of a gate list; gates[0] is applied first."""
    out = np.eye(1 << num_qubits, dtype=complex)
    for g in gates:
        out = gate_matrix(g, num_qubits) @ out
    return out


def inverse_gate(g: GateOp) -> GateOp:
    """Gate whose matrix is the dagger of g's."""
    if g.kind in _THETA_KINDS:
        return GateOp(g.kind, g.targets, theta=-g.theta)
    if g.kind == "ControlledUnitary":
        return GateOp(g.kind, g.targets, unitary=np.asarray(g.unitary).conj().T)
    return g


_PAULI_BY_AXIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


def pauli_expectation(rho: np.ndarray, axis: str, qubit: int) -> float:
    """Expectation of a single-qubit Pauli operator on one wire.

    Checks the state, axis and wire once; the private core it then runs
    checks nothing.
    """
    rho = assert_density_matrix(rho)
    n = qubit_count(rho.shape[0])
    if axis not in _PAULI_BY_AXIS:
        raise InvalidValueError(f"axis must be one of x, y, z; got {axis!r}")
    if not (isinstance(qubit, (int, np.integer)) and 0 <= qubit < n):
        raise InvalidValueError(f"qubit {qubit} out of range for {n} qubits")
    return _pauli_expectation(rho, axis, qubit)


def _pauli_expectation(rho: np.ndarray, axis: str, qubit: int) -> float:
    # Unchecked core: rho is a valid state and qubit one of its wires.
    a = 1 << qubit
    b = rho.shape[0] // (2 * a)
    r6 = rho.reshape(a, 2, b, a, 2, b)
    reduced = np.einsum("xiyxjy->ij", r6)
    return float(np.trace(reduced @ _PAULI_BY_AXIS[axis]).real)


def depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    """Mix a state with the maximally mixed one: (1-p) rho + p I/N."""
    return _depolarize(assert_density_matrix(rho), p)


def _depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    # Checks the strength only: rho is a valid state.
    if not (isinstance(p, (int, float, np.floating)) and 0.0 <= p <= 1.0):
        raise InvalidValueError(f"noise strength must lie in [0, 1], got {p!r}")
    d = rho.shape[0]
    return (1.0 - p) * rho + p * np.eye(d, dtype=complex) / d


def gate_to_json(g: GateOp) -> dict:
    """JSON-ready record for one gate."""
    rec: dict = {"kind": g.kind, "targets": list(g.targets)}
    if g.theta is not None:
        rec["theta"] = float(g.theta)
    if g.unitary is not None:
        rec["unitary"] = matrix_to_payload(g.unitary)
    return rec


def gate_from_json(rec) -> GateOp:
    if not isinstance(rec, dict) or "kind" not in rec or "targets" not in rec:
        raise InputFormatError("gate record needs 'kind' and 'targets'")
    kind = rec["kind"]
    if kind not in GATE_KINDS:
        raise InputFormatError(f"unknown gate kind {kind!r}")
    targets = tuple(
        json_int(i, "gate target") for i in json_list(rec["targets"], "gate targets")
    )
    theta = rec.get("theta")
    if theta is not None:
        theta = json_real(theta, "gate theta")
    unitary = matrix_from_payload(rec["unitary"]) if "unitary" in rec else None
    return GateOp(kind, targets, theta=theta, unitary=unitary)
