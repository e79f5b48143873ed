"""Tests for elementary-gate synthesis of the controlled grid operators.

Every construction is compared against the dense controlled operator, with
the work wire (when one appears) required to act as the identity for all
work-wire values, not only |0>.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qscatter.circuits import GateOp, controlled_matrix
from qscatter.errors import InputFormatError, InvalidValueError
from qscatter.linalg import random_unitary
from qscatter.phasespace import PhasePoint, phase_point_operator, reflection, shift_u, shift_v
from qscatter.synthesis import (
    GateSequence,
    sequence_from_json,
    sequence_to_json,
    synth_controlled_reflection,
    synth_controlled_shift,
    synth_controlled_vshift,
    synth_phase_point_circuit,
)

FIXTURES = Path(__file__).parent / "fixtures"


def padded_controlled(op, num_qubits):
    """controlled-op on the leading wires, identity on any trailing work wires."""
    target = controlled_matrix(op)
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


class TestSequenceType:
    def test_alphabet_enforced(self):
        bad = GateOp("ControlledUnitary", (0, 1), unitary=np.eye(2))
        with pytest.raises(InvalidValueError, match="may not contain"):
            GateSequence(num_qubits=2, gates=(bad,))

    def test_wires_validated(self):
        with pytest.raises(InvalidValueError):
            GateSequence(num_qubits=2, gates=(GateOp("CNOT", (0, 2)),))

    def test_json_round_trip(self):
        seq = synth_phase_point_circuit(PhasePoint(q=3, p=1, n=4))
        back = sequence_from_json(sequence_to_json(seq))
        assert back.num_qubits == seq.num_qubits
        assert np.abs(back.matrix() - seq.matrix()).max() < 1e-15

    @pytest.mark.parametrize(
        "payload",
        [
            {"num_qubits": 2},
            {"num_qubits": 2, "gates": 5},
            {"num_qubits": 2.7, "gates": []},
            {"num_qubits": "2", "gates": []},
            {"num_qubits": True, "gates": []},
        ],
    )
    def test_json_rejects_malformed_payload(self, payload):
        with pytest.raises(InputFormatError):
            sequence_from_json(payload)

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
        assert np.abs(m[np.ix_(idx, idx)] - controlled_matrix(shift_u(8))).max() < 1e-12
