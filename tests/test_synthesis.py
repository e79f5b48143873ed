"""Tests for elementary-gate synthesis of the controlled grid operators.

Every construction is compared against the dense controlled operator, with
the work wire (when one appears) required to act as the identity for all
work-wire values, not only |0>. The ket check ``point_circuit_error`` is
held to that dense comparison.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qscatter import phasespace, synthesis
from qscatter.circuits import GateOp
from qscatter.errors import InvalidValueError, QubitBudgetError
from qscatter.linalg import QUBIT_BUDGET
from qscatter.phasespace import PhasePoint, phase_point_operator
from qscatter.synthesis import (
    GateSequence,
    point_circuit_error,
    sequence_to_json,
    synth_controlled_reflection,
    synth_controlled_shift,
    synth_controlled_vshift,
    synth_phase_point_circuit,
)
from reference import controlled, gate_from_record, random_unitary, record_calls, reflection
from reference import shift_u, shift_v

FIXTURES = Path(__file__).parent / "fixtures"


def padded_controlled(op, num_qubits):
    """controlled-op on the leading wires, identity on any trailing work wires."""
    target = controlled(op)
    pad = (1 << num_qubits) // target.shape[0]
    return np.kron(target, np.eye(pad))


def kinds(seq):
    return [g.kind for g in seq.gates]


def sig(seq):
    return [(g.kind, g.targets, g.theta) for g in seq.gates]


class TestControlledShift:
    def test_single_qubit_increment_is_cnot(self):
        seq = synth_controlled_shift(1, 1)
        assert seq.num_qubits == 2
        assert sig(seq) == [("CNOT", (0, 1), None)]

    def test_two_qubit_increment_sequence(self):
        seq = synth_controlled_shift(2, 1)
        assert sig(seq) == [("Toffoli", (0, 2, 1), None), ("CNOT", (0, 2), None)]

    def test_shift_by_two_touches_only_the_high_bit(self):
        seq = synth_controlled_shift(2, 2)
        assert sig(seq) == [("CNOT", (0, 1), None)]

    def test_zero_power_is_empty(self):
        assert synth_controlled_shift(3, 0).gates == ()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_dense_equality_all_powers(self, m):
        n = 1 << m
        u = shift_u(n)
        for power in range(2 * n):
            seq = synth_controlled_shift(m, power)
            expected = padded_controlled(
                np.linalg.matrix_power(u, power % n), seq.num_qubits
            )
            assert np.abs(seq.matrix() - expected).max() < 1e-12

    def test_three_qubit_shift_uses_a_work_wire(self):
        assert synth_controlled_shift(3, 1).num_qubits == 5
        # a pure high-bit shift never ripples, so no work wire appears
        assert synth_controlled_shift(3, 4).num_qubits == 4


class TestControlledReflection:
    def test_one_qubit_reflection_is_identity(self):
        seq = synth_controlled_reflection(1)
        assert seq.gates == ()
        assert seq.num_qubits == 2

    def test_two_qubit_reflection_is_one_toffoli(self):
        seq = synth_controlled_reflection(2)
        assert sig(seq) == [("Toffoli", (0, 2, 1), None)]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_dense_equality(self, m):
        seq = synth_controlled_reflection(m)
        expected = padded_controlled(reflection(1 << m), seq.num_qubits)
        assert np.abs(seq.matrix() - expected).max() < 1e-12


class TestControlledVShift:
    def test_single_qubit_phase(self):
        seq = synth_controlled_vshift(1, 1)
        assert kinds(seq) == ["ControlledPhase"]
        assert seq.gates[0].targets == (0, 1)
        assert seq.gates[0].theta == pytest.approx(np.pi)

    def test_zero_power_is_empty(self):
        assert synth_controlled_vshift(2, 0).gates == ()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_dense_equality_all_powers(self, m):
        n = 1 << m
        vdag = shift_v(n).conj().T
        for power in range(2 * n):
            seq = synth_controlled_vshift(m, power)
            expected = padded_controlled(
                np.linalg.matrix_power(vdag, power % n), seq.num_qubits
            )
            assert np.abs(seq.matrix() - expected).max() < 1e-12


class TestPhasePointCircuits:
    def test_all_points_n4(self):
        for q in range(8):
            for p in range(8):
                alpha = PhasePoint(q=q, p=p, n=4)
                seq = synth_phase_point_circuit(alpha)
                expected = padded_controlled(
                    8 * phase_point_operator(alpha), seq.num_qubits
                )
                assert np.abs(seq.matrix() - expected).max() < 1e-12

    def test_all_points_n2(self):
        for q in range(4):
            for p in range(4):
                alpha = PhasePoint(q=q, p=p, n=2)
                seq = synth_phase_point_circuit(alpha)
                expected = padded_controlled(
                    4 * phase_point_operator(alpha), seq.num_qubits
                )
                assert np.abs(seq.matrix() - expected).max() < 1e-12

    @pytest.mark.parametrize("q,p", [(3, 5), (7, 2), (15, 11), (0, 0)])
    def test_sampled_points_n8(self, q, p):
        alpha = PhasePoint(q=q, p=p, n=8)
        seq = synth_phase_point_circuit(alpha)
        expected = padded_controlled(16 * phase_point_operator(alpha), seq.num_qubits)
        assert np.abs(seq.matrix() - expected).max() < 1e-12

    def test_gate_alphabet(self):
        allowed = {"CNOT", "Toffoli", "PhaseShift", "ControlledPhase", "PauliX", "Hadamard"}
        for q in range(8):
            for p in range(8):
                seq = synth_phase_point_circuit(PhasePoint(q=q, p=p, n=4))
                assert set(kinds(seq)) <= allowed

    def test_gate_counts_match_fixture(self):
        with open(FIXTURES / "synth_gate_counts_n4.json") as fh:
            fixture = json.load(fh)
        counts = [
            [len(synth_phase_point_circuit(PhasePoint(q=q, p=p, n=4)).gates) for p in range(8)]
            for q in range(8)
        ]
        assert counts == fixture["counts"]

    def test_rejects_non_point(self):
        with pytest.raises(InvalidValueError):
            synth_phase_point_circuit((1, 2, 4))


@pytest.mark.parametrize("n", [1 << k for k in range(1, 11)])
def test_point_circuit_is_budgeted_and_checked_once(n, monkeypatch):
    # One register budget and one pass over the gate wires, for the whole circuit.
    calls = record_calls(monkeypatch, synthesis, "check_qubit_budget")
    record_calls(monkeypatch, synthesis, "_check_gates", calls)
    synth_phase_point_circuit(PhasePoint(q=n - 1, p=2 * n - 1, n=n))
    assert calls == ["check_qubit_budget", "_check_gates"]


class TestSequenceType:
    def test_alphabet_enforced(self):
        # Every kind a sequence may hold is a permutation times a phase.
        for bad in (GateOp("PauliY", (1,)), GateOp("Hadamard", (0,))):
            with pytest.raises(InvalidValueError, match="may not contain"):
                GateSequence(num_qubits=2, gates=(bad,))

    def test_wires_validated(self):
        with pytest.raises(InvalidValueError):
            GateSequence(num_qubits=2, gates=(GateOp("CNOT", (0, 2)),))

    def test_json_round_trip(self):
        # The records survive JSON text and describe the same circuit.
        seq = synth_phase_point_circuit(PhasePoint(q=3, p=1, n=4))
        payload = json.loads(json.dumps(sequence_to_json(seq)))
        gates = tuple(gate_from_record(rec) for rec in payload["gates"])
        back = GateSequence(num_qubits=payload["num_qubits"], gates=gates)
        assert back.num_qubits == seq.num_qubits
        assert np.abs(back.matrix() - seq.matrix()).max() < 1e-15

    def test_json_payload_shape(self):
        payload = sequence_to_json(synth_controlled_shift(1, 1))
        assert payload == {
            "num_qubits": 2,
            "gates": [{"kind": "CNOT", "targets": [0, 1]}],
        }


def test_validation_of_power_arguments():
    with pytest.raises(InvalidValueError):
        synth_controlled_shift(2, 1.5)
    with pytest.raises(InvalidValueError):
        synth_controlled_vshift(2, "x")
    with pytest.raises(InvalidValueError):
        synth_controlled_shift(0, 1)


def test_work_wire_identity_for_dirty_values():
    """The expansion must not assume the work wire starts in |0>."""
    seq = synth_controlled_shift(3, 1)
    assert seq.num_qubits == 5
    m = seq.matrix()
    expected = padded_controlled(shift_u(8), 5)
    # padded_controlled already demands identity on both work values; pin it
    # explicitly by checking the work-wire blocks separately
    for work in (0, 1):
        idx = [i for i in range(32) if (i & 1) == work]
        assert np.abs(m[np.ix_(idx, idx)] - controlled(shift_u(8))).max() < 1e-12


def dense_error(seq, alpha):
    """max |G - T| with both operators built as dense matrices."""
    target = padded_controlled(2 * alpha.n * phase_point_operator(alpha), seq.num_qubits)
    return float(np.abs(seq.matrix() - target).max())


def _random_points(sizes, seed):
    rng = np.random.default_rng(seed)
    for n in sizes:
        q, p = rng.integers(2 * n, size=2).tolist()
        yield PhasePoint(q=q, p=p, n=n)


ALL_SMALL_POINTS = [
    PhasePoint(q=q, p=p, n=n) for n in (2, 4, 8) for q in range(2 * n) for p in range(2 * n)
]


class TestPointCircuitError:
    """The ket check must report what the dense comparison reports."""

    @pytest.mark.parametrize(
        "points",
        [ALL_SMALL_POINTS, list(_random_points([16] * 12 + [32] * 12 + [64] * 6, seed=64))],
        ids=["every-point-n2-n4-n8", "30-random-points-n16-n64"],
    )
    def test_equals_the_dense_comparison(self, points):
        for alpha in points:
            seq = synth_phase_point_circuit(alpha)
            err, dense = point_circuit_error(seq, alpha), dense_error(seq, alpha)
            assert abs(err - dense) <= 1e-15, (alpha, err, dense)
            assert (err < 1e-12) == (dense < 1e-12)
            assert err < 1e-12

    def _corrupted(self):
        alpha = PhasePoint(q=5, p=3, n=8)
        seq = synth_phase_point_circuit(alpha)
        gates = list(seq.gates)
        assert seq.num_qubits == 5  # probe, 3 system wires, work wire 4
        theta = next(i for i, g in enumerate(gates) if g.theta is not None)
        two = next(i for i, g in enumerate(gates) if g.kind == "CNOT")
        swapped = replace(gates[two], targets=gates[two].targets[::-1])
        moved = replace(gates[theta], theta=gates[theta].theta + 1e-9)
        cases = {
            "dropped-first": gates[1:],
            "dropped-last": gates[:-1],
            "theta-moved-1e-9": gates[:theta] + [moved] + gates[theta + 1:],
            "targets-swapped": gates[:two] + [swapped] + gates[two + 1:],
            "dirty-work-wire": gates + [GateOp("CNOT", (1, 4))],
        }
        return alpha, seq.num_qubits, cases

    def test_corrupted_sequences_are_refused(self):
        alpha, n, cases = self._corrupted()
        for name, gates in cases.items():
            bad = GateSequence(num_qubits=n, gates=tuple(gates))
            err, dense = point_circuit_error(bad, alpha), dense_error(bad, alpha)
            assert err >= 1e-12, name
            assert dense >= 1e-12, name
            if name == "theta-moved-1e-9":  # same permutation: the two agree
                assert abs(err - dense) <= 1e-15
            else:  # the permutation moved: at least 2^-n
                assert err >= 2.0**-n

    def test_runs_without_any_dense_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense oracle called")

        monkeypatch.setattr(synthesis, "compose_sequence", refuse)
        alpha = PhasePoint(q=201, p=77, n=256)
        seq = synth_phase_point_circuit(alpha)
        assert (len(seq.gates), seq.num_qubits) == (794, 10)
        assert point_circuit_error(seq, alpha) < 1e-12

    @pytest.mark.parametrize(
        "seq,alpha",
        [
            ((), PhasePoint(q=0, p=0, n=4)),
            (GateSequence(num_qubits=3, gates=()), (0, 0, 4)),
            (GateSequence(num_qubits=2, gates=()), PhasePoint(q=0, p=0, n=4)),
        ],
        ids=["not-a-sequence", "not-a-point", "too-few-wires"],
    )
    def test_refuses_bad_arguments(self, seq, alpha):
        with pytest.raises(InvalidValueError):
            point_circuit_error(seq, alpha)

    def test_refuses_a_register_over_budget(self):
        seq = GateSequence(num_qubits=QUBIT_BUDGET + 1, gates=())
        with pytest.raises(QubitBudgetError):
            point_circuit_error(seq, PhasePoint(q=0, p=0, n=4))

    def test_budgets_the_register_once(self, monkeypatch):
        # The target operator comes from the point-operator core, not the budgeted builder.
        calls = record_calls(monkeypatch, synthesis, "check_qubit_budget", entry=dict)
        record_calls(monkeypatch, phasespace, "check_qubit_budget", calls, entry=dict)
        alpha = PhasePoint(q=5, p=7, n=8)
        seq = synth_phase_point_circuit(alpha)
        calls.clear()
        assert point_circuit_error(seq, alpha) < 1e-12
        assert calls == [{"probe": 1, "system": 3, "work": 1}]


class TestBudgetBeforeEmission:
    """Every synthesis refuses 1 probe + m system + 1 work wire over the budget."""

    CALLS = {
        "shift": lambda m: synthesis.synth_controlled_shift(m, 1),
        "reflection": synthesis.synth_controlled_reflection,
        "vshift": lambda m: synthesis.synth_controlled_vshift(m, 1),
        "point": lambda m: synthesis.synth_phase_point_circuit(PhasePoint(q=1, p=1, n=1 << m)),
    }

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("m", [QUBIT_BUDGET - 1, 12, 40])
    def test_refused_before_any_gate(self, name, m, monkeypatch):
        class Emitted(Exception):
            pass

        def emitted(*args, **kwargs):
            raise Emitted

        monkeypatch.setattr(synthesis, "GateOp", emitted)
        with pytest.raises(QubitBudgetError, match=f"1 probe \\+ {m} system \\+ 1 work"):
            self.CALLS[name](m)

    @pytest.mark.parametrize("name", CALLS)
    def test_widest_register_is_emitted(self, name):
        seq = self.CALLS[name](QUBIT_BUDGET - 2)
        assert seq.num_qubits <= QUBIT_BUDGET
