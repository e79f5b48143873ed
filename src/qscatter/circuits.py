"""Gate-level engine evolving density matrices and kets on qubit registers.

Wire convention: qubit 0 is the most significant bit of the computational
basis index, so a basis label reads left to right as |q0 q1 ... >. Gates
list control wires first and the target wire(s) last, and a density matrix
evolves by conjugation, rho -> G rho G^dagger. A ``GateOp`` is checked once,
when it is made, against one table of kinds, and stores its target matrix;
a gate list is held only to the register width where it is used.

States evolve through one local kernel: rho is viewed as a (2,)*2n tensor
(row wires, then column wires), and each gate's small target matrix acts on
its own row axes and, conjugated, on its column axes, only where every
control wire is 1 (the density-matrix kernels of QuEST, Jones et al.,
Sci. Rep. 9, 10736, 2019). A gate costs O(4^n 2^k) for k target wires; a
ket, viewed as a (2,)*n tensor, takes the row pass alone at O(2^n 2^k).
Dense 2^n x 2^n operators come from the same kernel: ``compose_sequence``
runs the gates on the identity, viewed as a ket on 2n wires.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidValueError, brief
from .linalg import assert_density_matrix, assert_unitary, check_int
from .linalg import check_qubit_budget, largest_side, qubit_count, wire_count

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

def phase_gate(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)


# kind: (wire count, the matrix applied to the last wires when every control
# wire before them is 1, or the function building it from theta).
# ControlledUnitary takes both from its payload.
_KINDS = {
    "Hadamard": (1, HADAMARD),
    "PauliX": (1, PAULI_X),
    "PauliY": (1, PAULI_Y),
    "PauliZ": (1, PAULI_Z),
    "PhaseShift": (1, phase_gate),
    "CNOT": (2, PAULI_X),
    "ControlledPhase": (2, phase_gate),
    "Toffoli": (3, PAULI_X),
    "ControlledUnitary": (None, None),
}
GATE_KINDS = frozenset(_KINDS)


@dataclass(frozen=True, eq=False)
class GateOp:
    """One gate: a kind, the wires it acts on, and optional parameters.

    ``targets`` holds controls first, target last. ``theta`` is required for
    PhaseShift and ControlledPhase; ``unitary`` is required for
    ControlledUnitary, where targets are (control, t1, ..., tk) and the
    payload acts on the k-qubit register (t1 most significant).

    Checked once, when made, except for the register width, which a gate
    list is held to where it is used. The payload is kept as a read-only copy;
    ``matrix`` holds the target matrix the gate applies.
    """

    kind: str
    targets: tuple[int, ...]
    theta: float | None = None
    unitary: np.ndarray | None = None
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _KINDS):
            raise InvalidValueError(f"unknown gate kind {brief(self.kind)}")
        wires, matrix = _KINDS[self.kind]
        t = self.targets
        if not isinstance(t, tuple):
            raise InvalidValueError(
                f"{self.kind} targets must be a tuple of integer wire indices, got {brief(t)}"
            )
        t = tuple(check_int(i, f"{self.kind} wire index", 0) for i in t)
        if len(set(t)) != len(t):
            raise InvalidValueError(f"{self.kind} wires must be distinct, got {brief(t)}")
        if callable(matrix):
            if not (_is_real(self.theta) and np.isfinite(self.theta)):
                raise InvalidValueError(f"{self.kind} needs a finite theta")
            matrix = matrix(self.theta)
        elif self.theta is not None:
            raise InvalidValueError(f"{self.kind} takes no theta")
        if self.kind == "ControlledUnitary":
            if self.unitary is None:
                raise InvalidValueError("ControlledUnitary needs a unitary payload")
            matrix = assert_unitary(self.unitary).copy()
            matrix.flags.writeable = False
            wires = qubit_count(matrix.shape[0]) + 1
            object.__setattr__(self, "unitary", matrix)
        elif self.unitary is not None:
            raise InvalidValueError(f"{self.kind} takes no unitary payload")
        if len(t) != wires:
            raise InvalidValueError(f"{self.kind} acts on {wires} wires, got {len(t)}")
        object.__setattr__(self, "targets", t)
        object.__setattr__(self, "matrix", matrix)


def _check_gates(gates, num_qubits: int) -> list[GateOp]:
    # The caller's gates as a list of GateOp records, each held to a
    # num_qubits register: the one check a gate gets after construction.
    try:
        gates = list(gates)
    except TypeError:
        raise InvalidValueError(f"expected a list of GateOp records, got {brief(gates)}") from None
    for g in gates:
        if not isinstance(g, GateOp):
            raise InvalidValueError(f"gate lists hold GateOp records, got {brief(g)}")
        check_int(max(g.targets), f"{g.kind} wire index", 0, num_qubits)
    return gates


def apply_sequence(rho: np.ndarray, gates) -> np.ndarray:
    """Apply gates in list order (index 0 acts first).

    Refuses a register over the qubit budget from the shape alone, then
    checks the state and every gate's wires once; the private core it then
    runs checks nothing.
    """
    check_qubit_budget(system=wire_count(largest_side(rho)))
    rho = assert_density_matrix(rho)
    n = qubit_count(rho.shape[0])
    return _apply_sequence(rho, _check_gates(gates, n), n)


def _apply_sequence(state: np.ndarray, gates, num_qubits: int) -> np.ndarray:
    # Unchecked core: state is a density matrix or a ket on num_qubits wires
    # and every gate fits that register. Works on one copy of it, viewed as a
    # tensor with row wires on axes 0..n-1 and, for a density matrix, column
    # wires on n..2n-1. G rho G^dagger is (G rho) G^dagger: the target matrix
    # u acts on the row axes, then conj(u) on the column axes, each where the
    # controls are 1; a ket G psi takes the row pass only.
    n = num_qubits
    out = np.array(state, dtype=complex, order="C")
    tensor = out.reshape((2,) * (out.ndim * n))
    for g in gates:
        u = g.matrix
        split = len(g.targets) - (u.shape[0].bit_length() - 1)
        controls, targets = g.targets[:split], g.targets[split:]
        for offset, m in ((0, u), (n, u.conj()))[: out.ndim]:
            index = [slice(None)] * tensor.ndim
            for c in controls:
                index[offset + c] = 1
            # Integer indices drop their axes, shifting the later ones down.
            axes = [offset + t - sum(c < t for c in controls) for t in targets]
            _contract(tensor[(*index, ...)], axes, m)
    return out


def _contract(view: np.ndarray, axes: list[int], m: np.ndarray) -> None:
    # In place: view[..., i, ...] <- sum_j m[i, j] view[..., j, ...], with the
    # index pair on ``axes`` (none for a 1x1 payload, a phase on its control).
    # One-wire matrices update the two slices directly; the trailing Ellipsis
    # here and in the caller keeps each slice a writable view even when no
    # axis is left (a ket gate whose other wires all control).
    if len(axes) != 1:
        moved = np.moveaxis(view, axes, range(len(axes)))
        moved[...] = (m @ moved.reshape(m.shape[0], -1)).reshape(moved.shape)
        return
    lead = (slice(None),) * axes[0]
    s0, s1 = view[lead + (0, ...)], view[lead + (1, ...)]
    if m[0, 1] == 0 and m[1, 0] == 0:
        if m[0, 0] != 1:
            s0 *= m[0, 0]
        if m[1, 1] != 1:
            s1 *= m[1, 1]
    elif m[0, 0] == 0 and m[1, 1] == 0:
        old0 = s0.copy()
        s0[...] = s1 if m[0, 1] == 1 else m[0, 1] * s1
        s1[...] = old0 if m[1, 0] == 1 else m[1, 0] * old0
    else:
        old0 = s0.copy()
        s0 *= m[0, 0]
        s0 += m[0, 1] * s1
        s1 *= m[1, 1]
        s1 += m[1, 0] * old0


def compose_sequence(gates, num_qubits: int) -> np.ndarray:
    """Dense product of a gate list, gates[0] applied first.

    Budgets the register and checks the gates once, then runs them on the
    identity as a ket on 2n wires: the row wires come first, so the gates
    act on the rows alone.
    """
    num_qubits = check_int(num_qubits, "number of qubits", 0)
    check_qubit_budget(system=num_qubits)
    gates = _check_gates(gates, num_qubits)
    dim = 1 << num_qubits
    identity = np.eye(dim, dtype=complex).ravel()
    return _apply_sequence(identity, gates, 2 * num_qubits).reshape(dim, dim)


def gate_matrix(g: GateOp, num_qubits: int) -> np.ndarray:
    """Full 2**n x 2**n unitary for one gate on n qubits."""
    return compose_sequence([g], num_qubits)


_PAULI_BY_AXIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


def pauli_expectation(rho: np.ndarray, axis: str, qubit: int) -> float:
    """Expectation of a single-qubit Pauli operator on one wire.

    Refuses a register over the qubit budget from the shape alone, then
    checks the state, axis and wire once; the private core it then runs
    checks nothing.
    """
    check_qubit_budget(system=wire_count(largest_side(rho)))
    rho = assert_density_matrix(rho)
    n = qubit_count(rho.shape[0])
    if not (isinstance(axis, str) and axis in _PAULI_BY_AXIS):
        raise InvalidValueError(f"axis must be one of x, y, z; got {brief(axis)}")
    return _pauli_expectation(rho, axis, check_int(qubit, "qubit", 0, n))


def _pauli_expectation(rho: np.ndarray, axis: str, qubit: int) -> float:
    # Unchecked core: rho is a valid state and qubit one of its wires.
    a = 1 << qubit
    b = rho.shape[0] // (2 * a)
    r6 = rho.reshape(a, 2, b, a, 2, b)
    reduced = np.einsum("xiyxjy->ij", r6)
    return float(np.trace(reduced @ _PAULI_BY_AXIS[axis]).real)


def depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    """Mix a state with the maximally mixed one: (1-p) rho + p I/N."""
    check_qubit_budget(system=wire_count(largest_side(rho)))
    return _depolarize(assert_density_matrix(rho), p)


def _is_real(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    # Checks the strength only: rho is a valid state.
    if not (_is_real(p) and 0.0 <= p <= 1.0):
        raise InvalidValueError(f"noise strength must lie in [0, 1], got {brief(p)}")
    d = rho.shape[0]
    return (1.0 - p) * rho + p * np.eye(d, dtype=complex) / d
