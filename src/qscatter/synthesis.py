"""Gate sequences realizing the probe-controlled point operators.

Wire layout for a system of m = log2(N) qubits: wire 0 is the probe (the
control of every emitted gate), wires 1..m hold the system with wire 1 the
most significant bit, and work wire m+1 is present exactly when one of the
sequence's gates uses it, to expand a multiply controlled X. Expansions
restore the work wire for every input value, so the composed matrix equals
controlled-op (x) I on the work wire exactly, not merely on the |0> work
subspace. A register of 1 probe + m system + 1 work wire over the qubit
budget is refused before any gate. Each construction is a private function
returning a gate list, and each public call builds one ``GateSequence``, so
every gate of a point circuit is checked once.

Constructions, each verified against the dense operator in the tests:

* controlled shift by ``power``: one ripple-carry +1 cascade per set bit of
  the addend, acting on the bits at and above that weight (most significant
  target first, so carries read the original lower bits);
* controlled reflection: for one system qubit the map is the identity, for
  two it is the textbook Toffoli with the control pair (probe, least
  significant bit), and in general two's complement, X on every system bit
  followed by the +1 cascade;
* controlled momentum shift V^(-power): the operator is diagonal, so one
  two-qubit controlled phase per system bit suffices, with the angle set by
  the bit weight;
* the scalar phase of a point operator rides on the probe as a local
  PhaseShift (phase kickback).

``point_circuit_error`` checks a point circuit on two kets with no dense
matrix: the gates and the target 2N * A(alpha) each act as an index map.
"""

from dataclasses import dataclass

import numpy as np

from .circuits import GateOp, _apply_sequence, _check_gates, compose_sequence
from .errors import InvalidValueError
from .linalg import check_int, check_qubit_budget, qubit_count
from .phasespace import PhasePoint, _expect, _point_operator

# Each kind is a permutation times a phase, which point_circuit_error relies on.
SEQUENCE_KINDS = frozenset({"CNOT", "Toffoli", "PhaseShift", "ControlledPhase", "PauliX"})


@dataclass(frozen=True)
class GateSequence:
    """A synthesized circuit over probe + system (+ optional work) wires."""

    num_qubits: int
    gates: tuple[GateOp, ...]

    def __post_init__(self):
        object.__setattr__(self, "num_qubits", check_int(self.num_qubits, "number of qubits", 1))
        gates = tuple(_check_gates(self.gates, self.num_qubits))
        for g in gates:
            if g.kind not in SEQUENCE_KINDS:
                raise InvalidValueError(f"synthesized sequences may not contain {g.kind!r}")
        object.__setattr__(self, "gates", gates)

    def matrix(self) -> np.ndarray:
        """Dense composition; gates[0] acts first."""
        return compose_sequence(self.gates, self.num_qubits)


def _mcx(controls: list[int], target: int, borrow: int) -> list[GateOp]:
    """X on ``target`` conditioned on every control wire being 1.

    Needs at least one control: every caller passes the probe wire, and
    the recursion keeps at least two. Beyond two controls the gate splits
    around the borrow wire: with w possibly dirty, the pair Toffoli(c, w; t)
    sandwiching MCX(rest; w) toggles the target by (rest AND c) while
    restoring w, and deeper levels borrow the outer target wire. Gate count
    grows, but every emitted gate is a CNOT or Toffoli and the identity
    holds for arbitrary borrow values.
    """
    if len(controls) == 1:
        return [GateOp("CNOT", (controls[0], target))]
    if len(controls) == 2:
        return [GateOp("Toffoli", (controls[0], controls[1], target))]
    outer = [GateOp("Toffoli", (controls[-1], borrow, target))]
    inner = _mcx(controls[:-1], borrow, target)
    return outer + inner + outer + inner


def _increment(top_bits: int, work: int) -> list[GateOp]:
    # +1 on system wires 1..top_bits, probe-controlled. Most significant
    # target first so every carry condition reads unmodified lower bits.
    return [g for j in range(1, top_bits + 1)
            for g in _mcx([0, *range(j + 1, top_bits + 1)], j, work)]


def _shift(m: int, power: int) -> list[GateOp]:
    power %= 1 << m
    return [g for s in range(m - 1, -1, -1) if (power >> s) & 1
            for g in _increment(m - s, m + 1)]


def _reflection(m: int) -> list[GateOp]:
    if m == 1:
        return []  # reflection on two labels is the identity
    if m == 2:
        return _mcx([0, 2], 1, m + 1)
    return [GateOp("CNOT", (0, j)) for j in range(1, m + 1)] + _increment(m, m + 1)


def _vshift(m: int, power: int) -> list[GateOp]:
    n = 1 << m
    power %= n
    gates = []
    for k in range(1, m + 1):
        weight = 1 << (m - k)
        theta = (-2 * np.pi * power * weight / n) % (2 * np.pi)
        if theta != 0.0:
            gates.append(GateOp("ControlledPhase", (0, k), theta=theta))
    return gates


def _sequence(m: int, gates: list[GateOp]) -> GateSequence:
    # Probe and m system wires, plus work wire m + 1 exactly when a gate uses it.
    work = any(m + 1 in g.targets for g in gates)
    return GateSequence(num_qubits=1 + m + work, gates=tuple(gates))


def _check_n_sys(n_sys_qubits) -> int:
    m = check_int(n_sys_qubits, "system register qubits", 1)
    check_qubit_budget(probe=1, system=m, work=1)
    return m


def synth_controlled_shift(n_sys_qubits: int, power: int) -> GateSequence:
    """Probe-controlled |q> -> |q + power mod N> on m system qubits."""
    m = _check_n_sys(n_sys_qubits)
    return _sequence(m, _shift(m, check_int(power, "shift power")))


def synth_controlled_reflection(n_sys_qubits: int) -> GateSequence:
    """Probe-controlled |q> -> |-q mod N> on m system qubits."""
    m = _check_n_sys(n_sys_qubits)
    return _sequence(m, _reflection(m))


def synth_controlled_vshift(n_sys_qubits: int, power: int) -> GateSequence:
    """Probe-controlled V^(-power); a controlled phase per system bit."""
    m = _check_n_sys(n_sys_qubits)
    return _sequence(m, _vshift(m, check_int(power, "shift power")))


def synth_phase_point_circuit(alpha: PhasePoint) -> GateSequence:
    """Sequence for controlled-(2N * A(alpha)) on probe + system wires.

    Emitted in application order: the probe-local scalar phase, the momentum
    shift V^(-p), the reflection, then the position shift U^q. Identity
    factors (zero angles, zero shift powers) are omitted. The register is
    budgeted once and every gate's wires are checked once, in one sequence.
    """
    _expect(PhasePoint, alpha)
    n = alpha.n
    m = _check_n_sys(qubit_count(n))
    theta = (np.pi * ((alpha.p * alpha.q) % (2 * n)) / n) % (2 * np.pi)
    phase = [GateOp("PhaseShift", (0,), theta=theta)] if theta != 0.0 else []
    return _sequence(m, phase + _vshift(m, alpha.p) + _reflection(m) + _shift(m, alpha.q))


def point_circuit_error(seq: GateSequence, alpha: PhasePoint) -> float:
    """max |Gv - Tv| / max |Tv| for G = ``seq``, T = controlled-(2N A(alpha)) (x) I_work.

    v runs over two kets, all ones and the labels 1..2^n. Permutation-times-phase
    operators that agree on both are equal: with a shared permutation the result
    is the largest entry of |G - T|, and otherwise it is at least 2^-n. The
    gates run on each ket as the one map they compose to, its amplitudes the
    starting phases, in O(gates * 2^n).
    """
    _expect(PhasePoint, alpha)
    _expect(GateSequence, seq)
    n, d = seq.num_qubits, alpha.n
    m = qubit_count(d)
    if n <= m:
        raise InvalidValueError(f"expected a GateSequence on more than {m} wires, got {n}")
    check_qubit_budget(probe=1, system=m, work=n - 1 - m)
    label, phase = _point_operator(alpha)
    err = 0.0
    for v in (np.ones(1 << n, dtype=complex), np.arange(1, (1 << n) + 1, dtype=complex)):
        t = v.reshape(2, d, -1).copy()  # probe, system, work
        t[1][label] = phase[:, None] * t[1]
        got = _apply_sequence(v, seq.gates, n)
        err = max(err, float(np.abs(got - t.ravel()).max() / np.abs(t).max()))
    return err


def sequence_to_json(seq: GateSequence) -> dict:
    """JSON-ready record of a sequence: its width and one record per gate."""
    _expect(GateSequence, seq)
    gates = []
    for g in seq.gates:
        rec: dict = {"kind": g.kind, "targets": list(g.targets)}
        if g.theta is not None:
            rec["theta"] = float(g.theta)
        gates.append(rec)
    return {"num_qubits": seq.num_qubits, "gates": gates}

