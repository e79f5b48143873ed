"""Gate sequences realizing the probe-controlled point operators.

Wire layout for a system of m = log2(N) qubits: wire 0 is the probe (the
control of every emitted gate), wires 1..m hold the system with wire 1 the
most significant bit, and work wire m+1 is appended when a multiply
controlled X needs expanding. Expansions restore the work wire for every
input value, so the composed matrix equals controlled-op (x) I on the work
wire exactly, not merely on the |0> work subspace. A register of 1 probe +
m system + 1 work wire over the qubit budget is refused before any gate.

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

``point_circuit_error`` checks a point circuit on two kets through the gate
kernel, in O(gates * 2^n) with no dense 2^n x 2^n matrix.
"""

from dataclasses import dataclass

import numpy as np

from .circuits import GateOp, _apply_sequence, _check_gates, compose_sequence
from .circuits import gate_from_json, gate_to_json
from .errors import InputFormatError, InvalidValueError, brief
from .io import json_int, json_list
from .linalg import check_int, check_qubit_budget, qubit_count
from .phasespace import PhasePoint, phase_point_operator

# Each kind is a permutation times a phase, which point_circuit_error relies on.
SEQUENCE_KINDS = frozenset({"CNOT", "Toffoli", "PhaseShift", "ControlledPhase", "PauliX"})


@dataclass(frozen=True)
class GateSequence:
    """A synthesized circuit over probe + system (+ optional work) wires."""

    num_qubits: int
    gates: tuple[GateOp, ...]

    def __post_init__(self):
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

    Beyond two controls the gate splits around the borrow wire: with
    w possibly dirty, the pair Toffoli(c, w; t) sandwiching MCX(rest; w)
    toggles the target by (rest AND c) while restoring w, and deeper levels
    borrow the outer target wire. Gate count grows, but every emitted gate
    is a CNOT or Toffoli and the identity holds for arbitrary borrow values.
    """
    if not controls:
        return [GateOp("PauliX", (target,))]
    if len(controls) == 1:
        return [GateOp("CNOT", (controls[0], target))]
    if len(controls) == 2:
        return [GateOp("Toffoli", (controls[0], controls[1], target))]
    outer = [GateOp("Toffoli", (controls[-1], borrow, target))]
    inner = _mcx(controls[:-1], borrow, target)
    return outer + inner + outer + inner


class _Emitter:
    """Collects gates and remembers whether the work wire was touched."""

    def __init__(self, n_sys: int):
        self.n_sys = n_sys
        self.work = n_sys + 1
        self.gates: list[GateOp] = []
        self.used_work = False

    def mcx(self, controls: list[int], target: int) -> None:
        if len(controls) > 2:
            self.used_work = True
        self.gates.extend(_mcx(controls, target, self.work))

    def increment(self, top_bits: int) -> None:
        # +1 on system wires 1..top_bits, probe-controlled. Most significant
        # target first so every carry condition reads unmodified lower bits.
        for j in range(1, top_bits + 1):
            self.mcx([0] + list(range(j + 1, top_bits + 1)), j)

    def finish(self) -> GateSequence:
        n = 1 + self.n_sys + (1 if self.used_work else 0)
        return GateSequence(num_qubits=n, gates=tuple(self.gates))


def _check_n_sys(n_sys_qubits) -> int:
    m = check_int(n_sys_qubits, "system register qubits", 1)
    check_qubit_budget(m + 2, f" (1 probe + {brief(m)} system + 1 work)")
    return m


def synth_controlled_shift(n_sys_qubits: int, power: int) -> GateSequence:
    """Probe-controlled |q> -> |q + power mod N> on m system qubits."""
    m = _check_n_sys(n_sys_qubits)
    power = check_int(power, "shift power") % (1 << m)
    em = _Emitter(m)
    for s in range(m - 1, -1, -1):
        if (power >> s) & 1:
            em.increment(m - s)
    return em.finish()


def synth_controlled_reflection(n_sys_qubits: int) -> GateSequence:
    """Probe-controlled |q> -> |-q mod N> on m system qubits."""
    m = _check_n_sys(n_sys_qubits)
    em = _Emitter(m)
    if m == 1:
        return em.finish()  # reflection on two labels is the identity
    if m == 2:
        em.mcx([0, 2], 1)
        return em.finish()
    for j in range(1, m + 1):
        em.mcx([0], j)
    em.increment(m)
    return em.finish()


def synth_controlled_vshift(n_sys_qubits: int, power: int) -> GateSequence:
    """Probe-controlled V^(-power); a controlled phase per system bit."""
    m = _check_n_sys(n_sys_qubits)
    n = 1 << m
    power = check_int(power, "shift power") % n
    em = _Emitter(m)
    for k in range(1, m + 1):
        weight = 1 << (m - k)
        theta = (-2 * np.pi * power * weight / n) % (2 * np.pi)
        if theta != 0.0:
            em.gates.append(GateOp("ControlledPhase", (0, k), theta=theta))
    return em.finish()


def synth_phase_point_circuit(alpha: PhasePoint) -> GateSequence:
    """Sequence for controlled-(2N * A(alpha)) on probe + system wires.

    Emitted in application order: the probe-local scalar phase, the momentum
    shift V^(-p), the reflection, then the position shift U^q. Identity
    factors (zero angles, zero shift powers) are omitted.
    """
    if not isinstance(alpha, PhasePoint):
        raise InvalidValueError("expected a PhasePoint")
    n = alpha.n
    m = _check_n_sys(qubit_count(n))
    theta = (np.pi * ((alpha.p * alpha.q) % (2 * n)) / n) % (2 * np.pi)
    gates: list[GateOp] = []
    if theta != 0.0:
        gates.append(GateOp("PhaseShift", (0,), theta=theta))
    parts = [
        synth_controlled_vshift(m, alpha.p),
        synth_controlled_reflection(m),
        synth_controlled_shift(m, alpha.q),
    ]
    for part in parts:  # each part holds at least the probe and system wires
        gates.extend(part.gates)
    return GateSequence(num_qubits=max(part.num_qubits for part in parts), gates=tuple(gates))


def point_circuit_error(seq: GateSequence, alpha: PhasePoint) -> float:
    """max |Gv - Tv| / max |Tv| for G = ``seq``, T = controlled-(2N A(alpha)) (x) I_work.

    v runs over two kets, all ones and the labels 1..2^n. Permutation-times-phase
    operators that agree on both are equal: with a shared permutation the result
    is the largest entry of |G - T|, and otherwise it is at least 2^-n.
    """
    if not (isinstance(alpha, PhasePoint) and isinstance(seq, GateSequence)
            and seq.num_qubits > qubit_count(alpha.n)):
        raise InvalidValueError("expected a PhasePoint and a GateSequence on its probe + system")
    n, d = seq.num_qubits, alpha.n
    check_qubit_budget(n)
    u = 2 * d * phase_point_operator(alpha)
    err = 0.0
    for v in (np.ones(1 << n, dtype=complex), np.arange(1, (1 << n) + 1, dtype=complex)):
        t = v.reshape(2, d, -1).copy()  # probe, system, work
        t[1] = u @ t[1]
        got = _apply_sequence(v, seq.gates, n)
        err = max(err, float(np.abs(got - t.ravel()).max() / np.abs(t).max()))
    return err


def sequence_to_json(seq: GateSequence) -> dict:
    return {
        "num_qubits": seq.num_qubits,
        "gates": [gate_to_json(g) for g in seq.gates],
    }


def sequence_from_json(payload) -> GateSequence:
    if not isinstance(payload, dict) or "num_qubits" not in payload or "gates" not in payload:
        raise InputFormatError("sequence payload needs 'num_qubits' and 'gates'")
    gates = tuple(gate_from_json(rec) for rec in json_list(payload["gates"], "gates"))
    return GateSequence(num_qubits=json_int(payload["num_qubits"], "num_qubits"), gates=gates)
