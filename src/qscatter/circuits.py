"""Gate-level engine evolving density matrices and kets on qubit registers.

Wire convention: qubit 0 is the most significant bit of the computational
basis index, so a basis label reads left to right as |q0 q1 ... >. Gates
list control wires first and the target wire last, and a density matrix
evolves by conjugation, rho -> G rho G^dagger. A ``GateOp`` is checked once,
when it is made, against one table of fixed kinds, and stores its 2x2
target matrix; a gate list is held only to the register width where it is
used.

States evolve through one local kernel: rho is viewed as a (2,)*2n tensor
(row wires, then column wires), and each gate's 2x2 target matrix acts on
its target's row axis and, conjugated, on its column axis, only where every
control wire is 1 (the one-target density-matrix kernels of QuEST, Jones et
al., Sci. Rep. 9, 10736, 2019). A gate costs O(4^n); a ket, viewed as a
(2,)*n tensor, takes the row pass alone at O(2^n). Every kind but Hadamard
is a permutation times a phase, as the kinds table records. On a density
matrix, each run of two or more such gates is composed into one map over the
2^n basis labels, G|i> = phase[i] |label[i]>, and applied in one O(4^n)
pass: rho'[label[i], label[j]] = phase[i] conj(phase[j]) rho[i, j]. Hadamard,
a lone gate and every ket gate keep the slice kernel, which updates the two
slices of the target axis in place.
Dense 2^n x 2^n operators come from the same kernel: ``compose_sequence``
runs the gates on the identity, viewed as a ket on 2n wires.
"""

import sys
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


@dataclass(frozen=True, eq=False)
class GateOp:
    """One gate: a kind, the wires it acts on, and optional parameters.

    ``targets`` holds controls first, target last. ``theta`` is required for
    PhaseShift and ControlledPhase.

    Checked once, when made, except for the register width, which a gate
    list is held to where it is used. ``matrix`` holds the 2x2 target matrix
    the gate applies.
    """

    kind: str
    targets: tuple[int, ...]
    theta: float | None = None
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _KINDS):
            raise InvalidValueError(f"unknown gate kind {brief(self.kind)}")
        wires, matrix, _ = _KINDS[self.kind]
        t = self.targets
        if not isinstance(t, tuple):
            raise InvalidValueError(
                f"{self.kind} targets must be a tuple of integer wire indices, got {brief(t)}"
            )
        t = tuple(check_int(i, f"{self.kind} wire index", 0) for i in t)
        if len(set(t)) != len(t):
            raise InvalidValueError(f"{self.kind} wires must be distinct, got {brief(t)}")
        if callable(matrix):
            # An int compares with a float exactly: one beyond float range fails.
            th = self.theta
            if not (_is_real(th) and (abs(th) <= sys.float_info.max if isinstance(th, int)
                                      else np.isfinite(th))):
                raise InvalidValueError(f"{self.kind} needs a finite theta")
            matrix = matrix(th)
        elif self.theta is not None:
            raise InvalidValueError(f"{self.kind} takes no theta")
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
    runs, on a copy, checks nothing.
    """
    check_qubit_budget(system=wire_count(largest_side(rho)))
    rho = assert_density_matrix(rho)
    n = qubit_count(rho.shape[0])
    return _apply_sequence(np.array(rho, order="C"), _check_gates(gates, n), n)


def _apply_sequence(state: np.ndarray, gates, num_qubits: int) -> np.ndarray:
    # Unchecked core: state is a C-ordered complex density matrix or ket on
    # num_qubits wires that the caller owns, and every gate fits that register.
    # Evolves it in place, viewed as a tensor with row wires on axes 0..n-1
    # and, for a density matrix, column wires on n..2n-1, and returns it.
    # G rho G^dagger is (G rho) G^dagger: the target matrix u acts on the
    # target's row axis, then conj(u) on its column axis, where the controls
    # are 1; a ket takes the row pass only. On a density matrix, a run of two
    # or more permutation-times-phase gates acts as the one map it composes to.
    n = num_qubits
    tensor = state.reshape((2,) * (state.ndim * n))
    for mapped, run in groupby(gates, key=lambda g: state.ndim == 2 and _KINDS[g.kind][2]):
        run = list(run)
        if mapped and len(run) > 1:
            _apply_map(state, *_compose_map(run, n))
            continue
        for g in run:
            *controls, t = g.targets
            for offset, m in ((0, g.matrix), (n, g.matrix.conj()))[: state.ndim]:
                index = [slice(None)] * tensor.ndim
                for c in controls:
                    index[offset + c] = 1
                # Integer indices drop their axes, shifting the later ones down.
                _contract(tensor[(*index, ...)], offset + t - sum(c < t for c in controls), m)
    return state


def _compose_map(gates, n: int) -> tuple[np.ndarray, np.ndarray]:
    # The run as G|i> = phase[i] |label[i]>, composed on wire planes: bit i
    # of the Python int planes[w] is wire w of label[i]. Each gate's one-wire
    # target matrix u is diagonal or anti-diagonal, so where its controls are
    # all 1 it sends target bit b to b ^ flip with the factor u[b ^ flip, b],
    # which multiplies the phases where a mask unpacked from the planes is
    # set. The labels are read from the planes once, at the end.
    size = 1 << n
    place = 1 << np.arange(n - 1, -1, -1)
    planes = [_pack(row) for row in np.arange(size) & place[:, None] != 0]
    every = (1 << size) - 1
    phase = np.ones(size, dtype=complex)
    for g in gates:
        *controls, t = g.targets
        on = every
        for c in controls:
            on &= planes[c]
        (u00, u01), (u10, u11) = g.matrix.tolist()
        flip = u00 == 0
        for b, factor in enumerate((u10, u01) if flip else (u00, u11)):
            if factor != 1:
                where = on & planes[t] if b else on & ~planes[t]
                np.multiply(phase, factor, out=phase, where=_unpack(where, size))
        if flip:
            planes[t] ^= on
    return place @ np.array([_unpack(p, size) for p in planes]), phase


def _pack(mask: np.ndarray) -> int:
    # A boolean row as an int whose bit i is mask[i].
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _unpack(bits: int, size: int) -> np.ndarray:
    # The inverse of ``_pack``: bits 0 .. size-1 of a non-negative int as a boolean row.
    raw = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little").view(bool)


def _apply_map(rho: np.ndarray, label: np.ndarray, phase: np.ndarray) -> None:
    # In place: rho[label[i], label[j]] <- phase[i] conj(phase[j]) rho[i, j].
    # Scales rho, then gathers its rows into one spare array and the columns
    # back, so one state-sized temporary is held.
    if (phase != 1).any():
        rho *= phase[:, None]
        rho *= phase.conj()
    rows = np.arange(label.size)
    if (label != rows).any():
        source = np.empty_like(label)
        source[label] = rows
        spare = np.take(rho, source, axis=0, mode="clip")
        np.take(spare, source, axis=1, out=rho, mode="clip")


def _contract(view: np.ndarray, axis: int, m: np.ndarray) -> None:
    # In place: view[..., i, ...] <- sum_j m[i, j] view[..., j, ...], with i
    # and j on ``axis``, by updating its two slices directly. The trailing
    # Ellipsis here and in the caller keeps each slice a writable view even
    # when no axis is left (a ket gate whose other wires all control).
    # Branches by m: a diagonal m scales s1 (every one here, PauliZ, a phase
    # gate, the probe frame or a conjugate, has m00 = 1); an anti-diagonal m
    # swaps; any other m is a Hadamard row or column pass, c [[1, 1], [1, -1]]
    # with c = 1/sqrt(2) (``_KINDS`` holds no other matrix that is neither),
    # and runs the elementwise update s0 <- c s0 + c s1, s1 <- -c s1 + c s0
    # with its products and sums in order, so it rounds the same, signed
    # zeros included. For a real c above 1/2 the scaled s0, s0 c, is c s0 bit
    # for bit, so it serves both slices and a Hadamard holds one half-state
    # temporary, m01 s1.
    # m01 s1 is not written into s0 by ``out=``: on an inner axis s0 and s1
    # interleave, numpy then buffers the operands, and a buffered complex
    # product can round differently.
    lead = (slice(None),) * axis
    s0, s1 = view[lead + (0, ...)], view[lead + (1, ...)]
    if m[0, 1] == 0 and m[1, 0] == 0:
        if m[1, 1] != 1:
            s1 *= m[1, 1]
    elif m[0, 0] == 0 and m[1, 1] == 0:
        old0 = s0.copy()
        s0[...] = s1 if m[0, 1] == 1 else m[0, 1] * s1
        s1[...] = old0 if m[1, 0] == 1 else m[1, 0] * old0
    else:
        s0 *= m[0, 0]
        m01_s1 = m[0, 1] * s1
        s1 *= m[1, 1]
        s1 += s0
        s0 += m01_s1


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
