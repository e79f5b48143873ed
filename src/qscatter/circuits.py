"""Gate-level engine evolving kets on qubit registers.

Wire convention: qubit 0 is the most significant bit of the computational
basis index, so a basis label reads left to right as |q0 q1 ... >. Gates
list control wires first and the target wire last. A ``GateOp`` is checked
once, when it is made, against one table of fixed kinds, and stores its 2x2
target matrix and that matrix's action, which the compose loop reads; a gate
list is held only to the register width where it is used.

Kets lie along the first axis of any array, so the columns of a state and
of the identity are kets, and each gate class has one rule on them. A
Hadamard updates the two slices of its target's axis in place, at O(2^n) a
ket. Every other kind is a permutation times a phase, as the kinds table
records, and each run of them is composed into one map over the 2^n basis
labels, G|i> = phase[i] |label[i]>, applied in one pass, v'[label[i]] =
phase[i] v[i]. A density matrix needs no rule of its own: it evolves as
kets, as QuEST runs it as one ket on 2n wires (Jones et al., Sci. Rep. 9,
10736, 2019), here in two passes, G rho G^dagger = (G (G rho)^dagger)^dagger,
and ``compose_sequence`` runs the gates on the columns of the identity.
"""

import sys
from collections.abc import Mapping, Set
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import InvalidValueError, brief
from .linalg import assert_density_matrix, check_int, check_qubit_budget
from .linalg import largest_side, qubit_count, wire_count

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

def phase_gate(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)


# kind: (wire count, the matrix applied to the last wire when every control
# wire before it is 1 or the function building it from theta, and whether
# that matrix is a permutation times a phase).
_KINDS = {
    "Hadamard": (1, HADAMARD, False),
    "PauliX": (1, PAULI_X, True),
    "PauliY": (1, PAULI_Y, True),
    "PauliZ": (1, PAULI_Z, True),
    "PhaseShift": (1, phase_gate, True),
    "CNOT": (2, PAULI_X, True),
    "ControlledPhase": (2, phase_gate, True),
    "Toffoli": (3, PAULI_X, True),
}


def _action(u: np.ndarray) -> tuple[bool, tuple[tuple[int, complex], ...]]:
    # Where its controls are all 1, a diagonal or anti-diagonal u sends target bit
    # b to b ^ flip with the factor u[b ^ flip, b]: flip, and each (b, factor) but 1.
    (u00, u01), (u10, u11) = u.tolist()
    flip = u00 == 0
    return flip, tuple((b, f) for b, f in enumerate((u10, u01) if flip else (u00, u11)) if f != 1)


_FIXED_ACTIONS = {kind: _action(m) for kind, (_, m, _) in _KINDS.items() if not callable(m)}


@dataclass(frozen=True, eq=False)
class GateOp:
    """One gate: a kind, the wires it acts on, and optional parameters.

    ``targets`` holds controls first, target last. ``theta`` is required for
    PhaseShift and ControlledPhase.

    Checked once, when made, except for the register width, which a gate
    list is held to where it is used. ``matrix`` holds the 2x2 target matrix
    the gate applies, and ``action`` what the compose loop reads of it, once.
    """

    kind: str
    targets: tuple[int, ...]
    theta: float | None = None
    matrix: np.ndarray = field(init=False, repr=False)
    action: tuple[bool, tuple[tuple[int, complex], ...]] = field(init=False, repr=False)

    def __post_init__(self):
        # The common case first: a str kind looked up once, and a tuple of plain
        # ints >= 0, as check_int would return them. Anything else takes check_int.
        spec = _KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if spec is None:
            raise InvalidValueError(f"unknown gate kind {brief(self.kind)}")
        wires, matrix, _ = spec
        t = self.targets
        plain = type(t) is tuple
        for i in t if plain else ():
            plain = plain and type(i) is int and i >= 0
        if not plain:
            if not isinstance(t, tuple):
                raise InvalidValueError(
                    f"{self.kind} targets must be a tuple of integer wire indices, got {brief(t)}"
                )
            t = tuple(check_int(i, f"{self.kind} wire index", 0) for i in t)
            object.__setattr__(self, "targets", t)
        if len(set(t)) != len(t):
            raise InvalidValueError(f"{self.kind} wires must be distinct, got {brief(t)}")
        if callable(matrix):
            # An int compares with a float exactly: one beyond float range fails.
            th = self.theta
            if not (_is_real(th) and (abs(th) <= sys.float_info.max
                                      if isinstance(th, (int, float)) else np.isfinite(th))):
                raise InvalidValueError(f"{self.kind} needs a finite theta")
            matrix = matrix(th)
        elif self.theta is not None:
            raise InvalidValueError(f"{self.kind} takes no theta")
        if len(t) != wires:
            raise InvalidValueError(f"{self.kind} acts on {wires} wires, got {len(t)}")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "action", _FIXED_ACTIONS.get(self.kind) or _action(matrix))


def _check_gates(gates, num_qubits: int) -> list[GateOp]:
    # The caller's gates as a list of GateOp records, each held to a
    # num_qubits register: the one check a gate gets after construction. A
    # set or mapping is refused too: its order, so the circuit, may vary by run.
    try:
        if isinstance(gates, (Set, Mapping)):
            raise TypeError
        gates = list(gates)
    except TypeError:
        raise InvalidValueError(f"expected a list of GateOp records, got {brief(gates)}") from None
    for g in gates:
        if not isinstance(g, GateOp):
            raise InvalidValueError(f"gate lists hold GateOp records, got {brief(g)}")
        if max(g.targets) >= num_qubits:  # each wire is an int >= 0 since made
            check_int(max(g.targets), f"{g.kind} wire index", 0, num_qubits)
    return gates


def apply_sequence(rho: np.ndarray, gates) -> np.ndarray:
    """G rho G^dagger for gates applied in list order (index 0 acts first).

    Refuses a register over the qubit budget from the shape alone, then
    checks the state and every gate's wires once. The private core, which
    checks nothing, runs the gates on the columns of a copy of rho, then on
    those of its conjugate transpose, which is transposed back; each
    conjugate transpose is a new array, and the one it read is then freed.
    """
    check_qubit_budget(system=wire_count(largest_side(rho)))
    rho = assert_density_matrix(rho)
    n = qubit_count(rho.shape[0])
    gates = _check_gates(gates, n)
    rho = np.array(rho, order="C")
    for _ in range(2):
        rho = _apply_sequence(rho, gates, n)
        rho = np.conjugate(rho.T, out=np.empty_like(rho))
    return rho


def _apply_sequence(state: np.ndarray, gates, num_qubits: int) -> np.ndarray:
    # Unchecked core: state is a C-ordered complex array of kets along its
    # first axis, on num_qubits wires, that the caller owns, and every gate
    # fits that register. Evolves it in place, viewed as a tensor with the
    # wires on axes 0..n-1, and returns it. The amplitudes are the map's
    # starting phases, so each is multiplied by the same factors in the same
    # order as gate by gate.
    n = num_qubits
    tensor = state.reshape((2,) * n + state.shape[1:])
    for mapped, run in groupby(gates, key=lambda g: _KINDS[g.kind][2]):
        if mapped:
            label, phase = _compose_map(run, n, state)
            if (label != np.arange(label.size)).any():
                state[label] = phase
        else:
            for g in run:
                _contract(tensor, g.targets[0], HADAMARD)
    return state


def _compose_map(gates, n: int, phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The run as G|i> = phase[i] |label[i]>, composed on wire planes: bit i
    # of the Python int planes[w] is wire w of label[i]. Where its controls are
    # all 1, a gate flips its target's plane or not, and each of its factors
    # (``GateOp.action``) multiplies the phases in place where a mask unpacked
    # from the planes is set. ``phase`` holds the starting phases, one per
    # label along its first axis. The labels are read from the planes once.
    size = 1 << n
    every = (1 << size) - 1
    # Plane w is bit s = n - 1 - w of each label, runs of 2^s zeros then ones: the low
    # 2^s bits of each 2^(s+1)-bit block, every // (2^(2^s) + 1) exactly, shifted up.
    planes = [every // ((1 << (1 << s)) + 1) << (1 << s) for s in range(n - 1, -1, -1)]
    lead = (size,) + (1,) * (phase.ndim - 1)
    for g in gates:
        *controls, t = g.targets
        on = every
        for c in controls:
            on &= planes[c]
        flip, factors = g.action
        for b, factor in factors:
            where = on & planes[t] if b else on & ~planes[t]
            np.multiply(phase, factor, out=phase, where=_unpack(where, size).reshape(lead))
        if flip:
            planes[t] ^= on
    width = (size + 7) // 8 * 8  # each plane in whole bytes, so one unpack reads them all
    bits = _unpack(sum(p << w * width for w, p in enumerate(planes)), n * width)
    return (1 << np.arange(n - 1, -1, -1)) @ bits.reshape(n, width)[:, :size], phase


def _unpack(bits: int, size: int) -> np.ndarray:
    # Bits 0 .. size-1 of a non-negative int as a boolean row.
    raw = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little").view(bool)


def _contract(view: np.ndarray, axis: int, m: np.ndarray) -> None:
    # In place: view[..., i, ...] <- sum_j m[i, j] view[..., j, ...], with i
    # and j on ``axis``, for a Hadamard or its conjugate, c [[1, 1], [1, -1]]
    # with c = 1/sqrt(2), by updating its two slices directly. The trailing
    # Ellipsis keeps each slice a writable view even when no axis is left (a
    # Hadamard on a one-wire ket). The update s0 <- c s0 + c s1,
    # s1 <- -c s1 + c s0 runs elementwise with its products and sums in order,
    # so it rounds the same, signed zeros included. For a real c above 1/2 the
    # scaled s0, s0 c, is c s0 bit for bit, so it serves both slices and one
    # half-state temporary is held, m01 s1.
    # m01 s1 is not written into s0 by ``out=``: on an inner axis s0 and s1
    # interleave, numpy then buffers the operands, and a buffered complex
    # product can round differently.
    lead = (slice(None),) * axis
    s0, s1 = view[lead + (0, ...)], view[lead + (1, ...)]
    s0 *= m[0, 0]
    m01_s1 = m[0, 1] * s1
    s1 *= m[1, 1]
    s1 += s0
    s0 += m01_s1


def compose_sequence(gates, num_qubits: int) -> np.ndarray:
    """Dense product of a gate list, gates[0] applied first.

    Budgets the register and checks the gates once, then runs them on the
    columns of the identity, as kets on n wires.
    """
    num_qubits = check_int(num_qubits, "number of qubits", 0)
    check_qubit_budget(system=num_qubits)
    gates = _check_gates(gates, num_qubits)
    return _apply_sequence(np.eye(1 << num_qubits, dtype=complex), gates, num_qubits)


def gate_matrix(g: GateOp, num_qubits: int) -> np.ndarray:
    """Full 2**n x 2**n unitary for one gate on n qubits."""
    return compose_sequence([g], num_qubits)


_PAULI_BY_AXIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


def pauli_expectation(rho: np.ndarray, axis: str, qubit: int) -> float:
    """Expectation of a single-qubit Pauli operator on one wire.

    Refuses a register over the qubit budget from the shape alone, then
    checks the state, axis and wire once, and reads the wire's reduced 2x2
    state.
    """
    check_qubit_budget(system=wire_count(largest_side(rho)))
    rho = assert_density_matrix(rho)
    n = qubit_count(rho.shape[0])
    if not (isinstance(axis, str) and axis in _PAULI_BY_AXIS):
        raise InvalidValueError(f"axis must be one of x, y, z; got {brief(axis)}")
    a = 1 << check_int(qubit, "qubit", 0, n)
    b = rho.shape[0] // (2 * a)
    reduced = np.einsum("xiyxjy->ij", rho.reshape(a, 2, b, a, 2, b))
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
