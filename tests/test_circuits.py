"""Tests for the gate engine and state constructors."""

import itertools
import json
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscatter import circuits
from qscatter.circuits import (
    _KINDS,
    GateOp,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _apply_sequence,
    _compose_map,
    apply_sequence,
    compose_sequence,
    depolarize,
    gate_matrix,
    pauli_expectation,
    phase_gate,
)
from qscatter.errors import InvalidValueError, QubitBudgetError
from qscatter.linalg import QUBIT_BUDGET
from qscatter.phasespace import PhasePoint
from qscatter.scattering import _PROBE_FRAME, scattering_circuit_gates
from qscatter.states import basis_state, maximally_mixed, pseudo_pure
from qscatter.synthesis import GateSequence, sequence_to_json, synth_phase_point_circuit
from reference import compose_map_bool_planes, controlled, dense_gate, dense_product
from reference import density_gate_by_gate, gate_from_record, hadamards_elementwise
from reference import kets_gate_by_gate
from reference import random_density_matrix, random_unitary, record_calls, wire_planes_packbits


def bit(index, wire, n):
    return (index >> (n - 1 - wire)) & 1


def peak_bytes(call):
    """Peak bytes ``tracemalloc`` sees during ``call()``, what it returns
    included, after one untraced call for first-call allocations."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del result
    return peak


class TestEmbedding:
    """gate_matrix must place small unitaries on arbitrary wires exactly."""

    def test_single_qubit_msb(self):
        g = GateOp("Hadamard", (0,))
        assert np.allclose(gate_matrix(g, 2), np.kron(HADAMARD, np.eye(2)))

    def test_single_qubit_lsb(self):
        g = GateOp("PauliZ", (1,))
        assert np.allclose(gate_matrix(g, 2), np.kron(np.eye(2), PAULI_Z))

    def test_cnot_adjacent(self):
        g = GateOp("CNOT", (0, 1))
        expected = controlled(PAULI_X)
        assert np.allclose(gate_matrix(g, 2), expected)

    @pytest.mark.parametrize("control,target,n", [(0, 1, 2), (1, 0, 2), (2, 0, 3), (0, 2, 3)])
    def test_cnot_is_the_right_permutation(self, control, target, n):
        m = gate_matrix(GateOp("CNOT", (control, target)), n)
        dim = 1 << n
        expected = np.zeros((dim, dim))
        for col in range(dim):
            row = col
            if bit(col, control, n):
                row = col ^ (1 << (n - 1 - target))
            expected[row, col] = 1
        assert np.allclose(m, expected)

    def test_toffoli_permutation(self):
        n = 3
        m = gate_matrix(GateOp("Toffoli", (0, 2, 1)), n)
        expected = np.zeros((8, 8))
        for col in range(8):
            row = col
            if bit(col, 0, n) and bit(col, 2, n):
                row = col ^ (1 << (n - 1 - 1))
            expected[row, col] = 1
        assert np.allclose(m, expected)

    def test_controlled_phase_is_symmetric(self):
        theta = 0.7331
        a = gate_matrix(GateOp("ControlledPhase", (0, 1), theta=theta), 2)
        b = gate_matrix(GateOp("ControlledPhase", (1, 0), theta=theta), 2)
        assert np.allclose(a, b)
        assert np.allclose(a, np.diag([1, 1, 1, np.exp(1j * theta)]))


class TestSequences:
    def test_compose_order(self):
        gates = [GateOp("PauliX", (0,)), GateOp("Hadamard", (0,))]
        assert np.allclose(compose_sequence(gates, 1), HADAMARD @ PAULI_X)

    def test_apply_matches_conjugation(self):
        rho = np.diag([0.5, 0.25, 0.25, 0]).astype(complex)
        g = GateOp("ControlledPhase", (1, 0), theta=0.9)
        m = dense_gate(g, 2)
        assert np.allclose(apply_sequence(rho, [g]), m @ rho @ m.conj().T)

    def test_apply_sequence_matches_compose(self):
        rng = np.random.default_rng(9)
        gates = [
            GateOp("Hadamard", (0,)),
            GateOp("CNOT", (0, 1)),
            GateOp("PhaseShift", (1,), theta=0.3),
        ]
        rho = np.kron(basis_state(0, 2), maximally_mixed(2))
        m = dense_product(gates, 2)
        assert np.allclose(apply_sequence(rho, gates), m @ rho @ m.conj().T)


def _gate(draw, kind, n):
    # One gate of ``kind`` on distinct random wires of an n-qubit register.
    theta = None
    if kind in ("PhaseShift", "ControlledPhase"):
        theta = draw(st.floats(-2 * np.pi, 2 * np.pi))
    order = draw(st.permutations(range(n)))
    return GateOp(kind, tuple(order[: _KINDS[kind][0]]), theta=theta)


@st.composite
def gate_on_register(draw):
    """A state and a ket on 1..6 qubits, and one gate of any kind on random wires."""
    kind = draw(st.sampled_from(sorted(_KINDS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(_KINDS[kind][0], 6))
    gate = _gate(draw, kind, n)
    rho = random_density_matrix(1 << n, rng)
    ket = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return rho, ket, gate, n


@st.composite
def gate_list(draw):
    """A register of 1..5 qubits and up to six gates of any kind that fits it."""
    n = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(sorted(_KINDS)), max_size=6))
    return [_gate(draw, kind, n) for kind in kinds if _KINDS[kind][0] <= n], n


def index_map_point_operator(q, p, n):
    """A(q, p) built from its index map, not from matrix powers."""
    j = np.arange(n)
    a = np.zeros((n, n), dtype=complex)
    a[(q - j) % n, j] = (
        np.exp(-2j * np.pi * p * j / n) * np.exp(1j * np.pi * ((p * q) % (2 * n)) / n)
    ) / (2 * n)
    return a


class TestLocalKernel:
    """The kernel must agree with the reference dense gate on states and kets."""

    @settings(max_examples=300, deadline=None)
    @given(gate_on_register())
    def test_one_gate_equals_dense_conjugation(self, case):
        rho, ket, g, n = case
        before = rho.copy()
        m = dense_gate(g, n)
        out = apply_sequence(rho, [g])
        assert np.abs(out - m @ rho @ m.conj().T).max() < 1e-12
        assert np.array_equal(rho, before)
        assert np.abs(_apply_sequence(ket.copy(), [g], n) - m @ ket).max() < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(gate_list())
    def test_compose_sequence_equals_the_dense_product(self, case):
        gates, n = case
        assert np.abs(compose_sequence(gates, n) - dense_product(gates, n)).max() < 1e-12

    @pytest.mark.parametrize(
        "gate,n",
        [
            (GateOp("PauliX", (0,)), 1),
            (GateOp("CNOT", (1, 0)), 2),
            (GateOp("ControlledPhase", (0, 1), theta=0.3), 2),
            (GateOp("Toffoli", (2, 0, 1)), 3),
        ],
    )
    def test_ket_gate_with_every_other_wire_a_control(self, gate, n):
        # Every wire but the target controls it: the map still moves and
        # scales the amplitudes where all of them are 1.
        ket = np.arange(1, (1 << n) + 1, dtype=complex)
        got = _apply_sequence(ket.copy(), [gate], n)
        assert np.abs(got - dense_gate(gate, n) @ ket).max() < 1e-12

    def test_synthesized_point_circuit_at_n256(self):
        # 794 gates on 10 wires (probe, 8 system bits, one work wire).
        n, q, p = 256, 201, 77
        seq = synth_phase_point_circuit(PhasePoint(q=q, p=p, n=n))
        assert (len(seq.gates), seq.num_qubits) == (794, 10)
        rho = random_density_matrix(n, np.random.default_rng(256))
        a = index_map_point_operator(q, p, n)
        start = time.perf_counter()
        res = scattering_circuit_gates(rho, seq.gates, seq.num_qubits)
        assert time.perf_counter() - start < 10.0
        assert abs(res.trace_estimate - np.trace(2 * n * a @ rho)) < 1e-10

    def test_synthesized_point_circuit_matrix_at_n256(self):
        # The dense 1024 x 1024 matrix of the 794-gate circuit is
        # controlled-(2N A) on probe and system, times I on the work wire.
        n, q, p = 256, 201, 77
        seq = synth_phase_point_circuit(PhasePoint(q=q, p=p, n=n))
        want = np.kron(controlled(2 * n * index_map_point_operator(q, p, n)), np.eye(2))
        start = time.perf_counter()
        got = seq.matrix()
        assert time.perf_counter() - start < 10.0
        assert np.abs(got - want).max() < 1e-12


MAPPED_KINDS = sorted(kind for kind, (_, _, mapped) in _KINDS.items() if mapped)
# Every mapped kind, the phase kinds also at the angles where their matrix is
# the identity (0) and real (pi).
MAPPED_CASES = [
    (kind, theta)
    for kind in MAPPED_KINDS
    for theta in ((0.0, np.pi, 0.7) if callable(_KINDS[kind][1]) else (None,))
]


@st.composite
def density_gate_list(draw):
    """A state on 1..5 qubits and up to ten gates, mostly permutation-times-phase kinds."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(MAPPED_KINDS * 3 + sorted(_KINDS)), max_size=10))
    gates = [_gate(draw, kind, n) for kind in kinds if _KINDS[kind][0] <= n]
    return random_density_matrix(1 << n, rng), gates, n


class TestIndexMap:
    """Every run of permutation-times-phase gates, of any length, on a
    density matrix or on kets, acts as one index map; the dense product is
    the judge."""

    def test_the_table_marks_every_fixed_kind_but_hadamard(self):
        assert set(MAPPED_KINDS) == set(_KINDS) - {"Hadamard"}
        for kind in MAPPED_KINDS:
            wires, matrix, _ = _KINDS[kind]
            m = matrix(0.7) if callable(matrix) else matrix
            assert (np.count_nonzero(m, axis=0) == 1).all()
            assert (np.count_nonzero(m, axis=1) == 1).all()

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind,theta", MAPPED_CASES)
    def test_every_kind_on_every_wire_order(self, kind, theta, n, monkeypatch):
        # Controls above and below the target: every ordered choice of wires,
        # run after a PauliX on the last wire, so the run has two gates.
        contracts = record_calls(monkeypatch, circuits, "_contract")
        rho = random_density_matrix(1 << n, np.random.default_rng(n))
        wires = _KINDS[kind][0]
        for order in itertools.permutations(range(n), wires):
            gates = [GateOp("PauliX", (n - 1,)), GateOp(kind, order, theta=theta)]
            m = dense_product(gates, n)
            assert np.abs(apply_sequence(rho, gates) - m @ rho @ m.conj().T).max() < 1e-13
        assert contracts == []

    @pytest.mark.parametrize("theta", [0.0, np.pi])
    def test_a_run_of_identities_leaves_the_state(self, theta, monkeypatch):
        contracts = record_calls(monkeypatch, circuits, "_contract")
        rho = random_density_matrix(8, np.random.default_rng(3))
        gates = [GateOp("PhaseShift", (0,), theta=0.0),
                 GateOp("ControlledPhase", (2, 1), theta=0.0),
                 GateOp("PauliZ", (1,)), GateOp("PauliZ", (1,)),
                 GateOp("PhaseShift", (2,), theta=theta), GateOp("PhaseShift", (2,), theta=-theta)]
        assert np.abs(apply_sequence(rho, gates) - rho).max() < 1e-15
        assert contracts == []

    def test_runs_broken_by_hadamard(self, monkeypatch):
        contracts = record_calls(monkeypatch, circuits, "_contract")
        rng = np.random.default_rng(12)
        n = 4
        gates = [
            GateOp("CNOT", (3, 0)), GateOp("PauliY", (2,)),
            GateOp("Hadamard", (1,)),
            GateOp("Toffoli", (0, 3, 2)), GateOp("PhaseShift", (3,), theta=np.pi),
            GateOp("ControlledPhase", (1, 2), theta=0.4),
            GateOp("Hadamard", (0,)),
            GateOp("PauliX", (1,)),
            GateOp("Hadamard", (2,)),
            GateOp("PauliZ", (0,)), GateOp("PauliY", (3,)), GateOp("CNOT", (0, 2)),
            GateOp("Hadamard", (3,)),
        ]
        rho = random_density_matrix(1 << n, rng)
        m = dense_product(gates, n)
        assert np.abs(apply_sequence(rho, gates) - m @ rho @ m.conj().T).max() < 1e-13
        # Only the four Hadamards run the slice kernel, a row and a column
        # pass each; the four runs, the lone PauliX among them, are maps.
        assert len(contracts) == 2 * 4

    def test_a_kets_run_makes_no_contract_call(self, monkeypatch):
        contracts = record_calls(monkeypatch, circuits, "_contract")
        gates = [GateOp("CNOT", (0, 1)), GateOp("PauliY", (1,)), GateOp("Toffoli", (1, 2, 0))]
        ket = np.arange(1, 9, dtype=complex)
        got = _apply_sequence(ket.copy(), gates, 3)
        assert np.abs(got - dense_product(gates, 3) @ ket).max() < 1e-13
        assert contracts == []

    def test_a_lone_cnot_holds_one_spare_state(self):
        # Besides the copy the gates run on, one spare state: the map's
        # permuted assignment, or a conjugate transpose between the passes.
        rho = maximally_mixed(1 << 10)
        gates = [GateOp("CNOT", (2, 6))]
        assert peak_bytes(lambda: apply_sequence(rho, gates)) < 2.25 * rho.nbytes

    def test_compose_sequence_holds_the_result_and_one_spare_state(self):
        # Hadamards and mapped runs on the columns of the identity, kets on 10
        # wires: the result and the map's out-of-place permutation. Composing
        # on a 20-wire ket would hold a (20, 4^10) int64 array of wire bits,
        # more than 10 states.
        n = 10
        gates = [GateOp("Hadamard", (0,)), GateOp("CNOT", (0, 5)), GateOp("Toffoli", (5, 0, 9)),
                 GateOp("PhaseShift", (3,), theta=0.4), GateOp("Hadamard", (7,)),
                 GateOp("PauliY", (7,)), GateOp("ControlledPhase", (9, 2), theta=1.3)]
        state = (1 << (2 * n)) * np.dtype(complex).itemsize
        assert peak_bytes(lambda: compose_sequence(gates, n)) < 2.75 * state

    def test_a_kets_run_of_phase_gates_holds_only_the_result(self):
        # The run's labels are the identity, so its phases are written in
        # place and no permuted copy is made (2.0 states when one was).
        n = 10
        gates = [GateOp("PhaseShift", (3,), theta=0.4),
                 GateOp("ControlledPhase", (9, 2), theta=1.3),
                 GateOp("PhaseShift", (0,), theta=-0.7)]
        state = (1 << (2 * n)) * np.dtype(complex).itemsize
        assert peak_bytes(lambda: compose_sequence(gates, n)) < 1.25 * state
        want = kets_gate_by_gate(np.eye(1 << n, dtype=complex), gates, n)
        assert same_bits(compose_sequence(gates, n), want)

    @settings(max_examples=300, deadline=None)
    @given(density_gate_list())
    def test_gate_lists_equal_dense_conjugation(self, case):
        rho, gates, n = case
        before = rho.copy()
        m = dense_product(gates, n)
        assert np.abs(apply_sequence(rho, gates) - m @ rho @ m.conj().T).max() < 1e-12
        assert np.array_equal(rho, before)

    @settings(max_examples=300, deadline=None)
    @given(density_gate_list())
    def test_gate_lists_are_two_ket_passes_bit_for_bit(self, case):
        # G rho G^dagger = (G (G rho)^dagger)^dagger, each pass gate by gate
        # on the columns.
        rho, gates, n = case
        once = kets_gate_by_gate(rho.copy(), gates, n)
        twice = kets_gate_by_gate(once.conj().T.copy(), gates, n)
        assert same_bits(apply_sequence(rho, gates), twice.conj().T.copy())

    def test_synthesized_point_circuit_at_n512(self):
        # 2,212 gates on 11 wires (probe, 9 system bits, one work wire): one
        # index map between the probe's Hadamards.
        n, q, p = 512, 511, 1023
        seq = synth_phase_point_circuit(PhasePoint(q=q, p=p, n=n))
        assert (len(seq.gates), seq.num_qubits) == (2212, 11)
        rho = random_density_matrix(n, np.random.default_rng(512))
        a = index_map_point_operator(q, p, n)
        start = time.perf_counter()
        res = scattering_circuit_gates(rho, seq.gates, seq.num_qubits)
        assert time.perf_counter() - start < 5.0
        assert abs(res.trace_estimate - np.trace(2 * n * a @ rho)) < 1e-10


class TestComposedMapBits:
    """A run composed on integer wire planes is the run composed on boolean
    bit planes (``reference.compose_map_bool_planes``): equal labels, and
    phases bit for bit."""

    @staticmethod
    def assert_same_map(gates, n):
        label, phase = _compose_map(gates, n, np.ones(1 << n, dtype=complex))
        want_label, want_phase = compose_map_bool_planes(gates, n)
        assert label.dtype == want_label.dtype and np.array_equal(label, want_label)
        assert same_bits(phase, want_phase)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_runs_of_every_mapped_kind(self, data):
        # 1 to 12 wires, the budget; a kind wider than the register is skipped.
        n = data.draw(st.integers(1, QUBIT_BUDGET))
        kinds = data.draw(st.lists(st.sampled_from(MAPPED_KINDS), min_size=2, max_size=40))
        gates = [_gate(data.draw, kind, n) for kind in kinds if _KINDS[kind][0] <= n]
        self.assert_same_map(gates, n)

    @pytest.mark.parametrize("theta", [0.0, np.pi / 2, np.pi, -np.pi / 2])
    def test_phase_kinds_at_exact_angles(self, theta):
        gates = [GateOp("PhaseShift", (1,), theta=theta), GateOp("PauliY", (0,)),
                 GateOp("ControlledPhase", (2, 0), theta=theta), GateOp("PauliZ", (2,)),
                 GateOp("Toffoli", (0, 2, 1)), GateOp("PhaseShift", (1,), theta=-theta)]
        self.assert_same_map(gates, 3)

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_every_kind_composes_the_action_its_matrix_reads(self, kind):
        # Where its controls are all 1, a gate sends target bit b to b ^ flip
        # with the factor u[b ^ flip, b] of its matrix u; the compose loop
        # skips a factor of 1. The theta kinds run at the exact angles above.
        thetas = [0.0, np.pi / 2, np.pi, -np.pi / 2] if callable(_KINDS[kind][1]) else [None]
        for theta in thetas:
            g = GateOp(kind, tuple(range(_KINDS[kind][0])), theta=theta)
            u = g.matrix
            flip = u[0, 0] == 0
            want = [(b, u[b ^ flip, b]) for b in (0, 1) if u[b ^ flip, b] != 1]
            got_flip, got = g.action
            assert got_flip == flip and [b for b, _ in got] == [b for b, _ in want]
            assert same_bits(np.array([f for _, f in got], dtype=complex),
                             np.array([f for _, f in want], dtype=complex))

    # Every point at N = 2 and 4, which need no work wire, and a few points
    # from N = 8 on, whose circuits use it; an idle wire beyond them too.
    # The N = 1024 circuit fills the 12-wire budget, so it has no idle wire.
    @pytest.mark.parametrize("n,points,idle", [
        (n, points, idle)
        for n, points in [
            (2, [(q, p) for q in range(4) for p in range(4)]),
            (4, [(q, p) for q in range(8) for p in range(8)]),
            (8, [(0, 0), (5, 11), (15, 15)]),
            (32, [(11, 50), (63, 63)]),
            (1024, [(1023, 2047)]),
        ]
        for idle in ((0, 1) if n < 1024 else (0,))
    ])
    def test_synthesized_point_circuits(self, n, points, idle):
        for q, p in points:
            seq = synth_phase_point_circuit(PhasePoint(q=q, p=p, n=n))
            assert seq.num_qubits == n.bit_length() + (n >= 8)
            self.assert_same_map(list(seq.gates), seq.num_qubits + idle)


class TestStartingPlanes:
    """The starting wire planes, built by integer arithmetic, are the
    ``np.packbits`` planes of ``reference.wire_planes_packbits``, and the
    labels read back from them in one unpack are the identity."""

    @pytest.mark.parametrize("n", range(QUBIT_BUDGET + 1))
    def test_planes_match_the_packbits_oracle(self, n, monkeypatch):
        # n = 0: one label and no planes, so nothing to unpack but one label.
        label, phase = _compose_map([], n, np.ones(1 << n, dtype=complex))
        assert label.dtype == np.intp and np.array_equal(label, np.arange(1 << n))
        assert np.array_equal(phase, np.ones(1 << n))
        # A PauliZ on wire w unpacks one mask, plane w, before the labels.
        unpacked = record_calls(monkeypatch, circuits, "_unpack", entry=lambda bits, size: bits)
        for w, plane in enumerate(wire_planes_packbits(n)):
            unpacked.clear()
            _compose_map([GateOp("PauliZ", (w,))], n, np.ones(1 << n, dtype=complex))
            assert len(unpacked) == 2 and unpacked[0] == plane


SYNTH_VERIFY_POINTS = [
    tuple(int(x) for x in re.fullmatch(r"n(\d+)_q(\d+)_p(\d+)", key).groups())
    for key in json.loads((Path(__file__).parent / "fixtures" / "synth_verify.json").read_text())
]
_POINTS = np.random.default_rng(30)
RANDOM_POINTS = [(n, *(int(x) for x in _POINTS.integers(0, 2 * n, 2)))
                 for n in (1 << k for k in range(1, 9)) for _ in range(5)]


class TestKetPath:
    """Kets take a run of permutation-times-phase gates as the map it
    composes to, with their amplitudes as the starting phases. The per-gate
    slice kernel (``reference.kets_gate_by_gate``) is the judge: bit for bit
    on the synthesized point circuits ``point_circuit_error`` checks, to
    rounding on random lists."""

    @pytest.mark.parametrize("n,q,p", SYNTH_VERIFY_POINTS + RANDOM_POINTS)
    def test_point_circuits_on_the_verify_kets(self, n, q, p):
        seq = synth_phase_point_circuit(PhasePoint(q=q, p=p, n=n))
        size = 1 << seq.num_qubits
        for v in (np.ones(size, dtype=complex), np.arange(1, size + 1, dtype=complex)):
            got = _apply_sequence(v.copy(), seq.gates, seq.num_qubits)
            assert same_bits(got, kets_gate_by_gate(v.copy(), seq.gates, seq.num_qubits))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_mapped_lists_on_gaussian_kets(self, data):
        # One ket, or kets along the first axis of a 3-D array.
        n = data.draw(st.integers(1, 6))
        kinds = data.draw(st.lists(st.sampled_from(MAPPED_KINDS), max_size=20))
        gates = [_gate(data.draw, kind, n) for kind in kinds if _KINDS[kind][0] <= n]
        shape = (1 << n, *data.draw(st.sampled_from([(), (3, 1), (2, 2)])))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kets = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = _apply_sequence(kets.copy(), gates, n)
        assert np.abs(got - kets_gate_by_gate(kets.copy(), gates, n)).max() < 1e-15


@st.composite
def complex_array(draw, shape):
    """A complex array whose parts are normal draws, with a drawn share of
    them set to signed zeros and signed subnormals, where a sum's sign and
    last bit are most fragile."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.standard_normal((2, *shape))
    hit = rng.random(parts.shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    parts[hit] = rng.choice([0.0, -0.0, 5e-324, -5e-324], size=int(hit.sum()))
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = parts  # each part as drawn, signed zeros included
    return out


def same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestInPlaceBranch:
    """The slice kernel runs only Hadamards: it updates both slices in place,
    forming c s0 once for both, and must round exactly as the elementwise
    update does, signed zeros included."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([1, 2]), st.data())
    def test_hadamards_on_every_wire_match_the_elementwise_update(self, n, ndim, data):
        # On a matrix the core runs the kets of its columns, and the density
        # pass of the tests, which the whole-state readout runs on, keeps the
        # column-axis update pinned.
        state = data.draw(complex_array((1 << n,) * ndim))
        gates = [GateOp("Hadamard", (w,)) for w in range(n)]
        got = _apply_sequence(state.copy(), gates, n)
        assert same_bits(got, kets_gate_by_gate(state.copy(), gates, n))
        density = density_gate_by_gate if ndim == 2 else _apply_sequence
        assert same_bits(density(state.copy(), gates, n), hadamards_elementwise(state.copy(), n))

    def test_a_hadamard_holds_one_half_state_temporary(self):
        n = 10
        rho = random_density_matrix(1 << n, np.random.default_rng(n))
        gates = [GateOp("Hadamard", (3,))]  # an inner wire: strided slices
        # Half a state plus numpy's ufunc buffers and iterators (about
        # 0.52 states); two half-state temporaries would read over one state.
        assert peak_bytes(lambda: _apply_sequence(rho, gates, n)) < 0.75 * rho.nbytes


class TestDiagonalTargets:
    """The readout scales only the probe's 1 slices by the frame, the one
    diagonal matrix still scaled slice-wise, which is exact because the frame
    and its conjugate are diagonal with m00 == 1."""

    def test_every_diagonal_target_has_unit_m00(self):
        for m in (_PROBE_FRAME, _PROBE_FRAME.conj()):
            assert m[0, 1] == 0 and m[1, 0] == 0
            assert m[0, 0] == 1 and m[1, 1] != 1


class TestValidation:
    """A gate is checked once, when it is made; only its width is checked where it is used."""

    def test_unknown_kind(self):
        with pytest.raises(InvalidValueError, match="unknown gate kind"):
            GateOp("Fredkin", (0, 1, 2))

    @pytest.mark.parametrize("kind", [["CNOT"], None, 1, b"CNOT"], ids=repr)
    def test_a_kind_that_is_not_a_str_is_unknown(self, kind):
        # An unhashable kind too: a refusal, never a TypeError from the table.
        with pytest.raises(InvalidValueError, match="unknown gate kind"):
            GateOp(kind, (0, 1))

    def test_a_str_subclass_kind_is_a_kind(self):
        class Kind(str):
            pass

        g = GateOp(Kind("CNOT"), (1, 0))
        assert g.kind == "CNOT" and g.action == GateOp("CNOT", (1, 0)).action
        assert np.array_equal(compose_sequence([g], 2), gate_matrix(GateOp("CNOT", (1, 0)), 2))

    def test_duplicate_wires(self):
        with pytest.raises(InvalidValueError, match="distinct"):
            GateOp("CNOT", (0, 0))

    def test_wire_out_of_range(self):
        with pytest.raises(InvalidValueError, match=r"wire index must be an integer in \[0, 2\)"):
            apply_sequence(maximally_mixed(4), [GateOp("Hadamard", (2,))])

    @pytest.mark.parametrize(
        "call",
        [
            lambda gates: apply_sequence(maximally_mixed(4), gates),
            lambda gates: compose_sequence(gates, 2),
            lambda gates: scattering_circuit_gates(maximally_mixed(2), gates, 2),
            lambda gates: GateSequence(num_qubits=2, gates=gates),
        ],
        ids=["apply_sequence", "compose_sequence", "scattering_circuit_gates", "GateSequence"],
    )
    def test_every_gate_list_words_the_wire_refusal_alike(self, call):
        # The widest wire is the control here, not the target.
        gates = [GateOp("PauliX", (1,)), GateOp("CNOT", (2, 0))]
        with pytest.raises(InvalidValueError) as refusal:
            call(gates)
        assert str(refusal.value) == "CNOT wire index must be an integer in [0, 2), got 2"

    def test_missing_theta(self):
        with pytest.raises(InvalidValueError, match="theta"):
            GateOp("PhaseShift", (0,))

    @pytest.mark.parametrize("theta", ["0.5", 1j, True, np.inf, [0.5],
                                       pytest.param(10**400, id="10**400"),
                                       float("nan"), -np.inf, np.float64("nan"),
                                       np.float32("inf")])
    def test_theta_must_be_a_finite_real(self, theta):
        with pytest.raises(InvalidValueError, match="needs a finite theta"):
            GateOp("PhaseShift", (0,), theta=theta)

    def test_unexpected_theta(self):
        with pytest.raises(InvalidValueError, match="takes no theta"):
            GateOp("Hadamard", (0,), theta=0.5)

    def test_wrong_arity(self):
        with pytest.raises(InvalidValueError, match="acts on 2 wires"):
            GateOp("CNOT", (0, 1, 2))

    def test_controlled_unitary_needs_payload(self):
        # Every kind is fixed: a payload kind is no longer a kind at all.
        with pytest.raises(InvalidValueError, match="unknown gate kind"):
            GateOp("ControlledUnitary", (0, 1))

    def test_controlled_unitary_wire_count(self):
        # No gate takes a caller's matrix, so no payload sets a wire count.
        with pytest.raises(TypeError, match="unitary"):
            GateOp("ControlledUnitary", (0, 1), unitary=np.eye(4))
        with pytest.raises(TypeError, match="unitary"):
            GateOp("PauliX", (0,), unitary=PAULI_X)

    @pytest.mark.parametrize("targets", [0, [0], "0", (0.0,), ("a",), (True,), None,
                                         (np.int64(-1),), (0, np.uint8(1), -2)])
    def test_targets_must_be_a_tuple_of_ints(self, targets):
        with pytest.raises(
            InvalidValueError, match=r"tuple of integer|wire index must be an integer >= 0"
        ):
            GateOp("Hadamard", targets)

    def test_wires_are_stored_as_plain_ints(self):
        for wire in (np.int64, np.uint8):
            g = GateOp("CNOT", (wire(1), wire(0)))
            assert g.targets == (1, 0) and all(type(t) is int for t in g.targets)

    @pytest.mark.parametrize("wire", [np.int64(-1), np.int8(-1), np.int64(-7)], ids=repr)
    def test_a_negative_numpy_wire_is_worded_as_a_negative_int(self, wire):
        words = []
        for w in (-1, wire):
            with pytest.raises(InvalidValueError) as refusal:
                GateOp("CNOT", (0, w))
            words.append(str(refusal.value))
        assert words[1] == words[0].replace("got -1", f"got {wire!r}")
        assert words[0] == "CNOT wire index must be an integer >= 0, got -1"

    @pytest.mark.parametrize(
        "call",
        [
            lambda gates: apply_sequence(maximally_mixed(2), gates),
            lambda gates: compose_sequence(gates, 1),
            lambda gates: scattering_circuit_gates(maximally_mixed(2), gates, 2),
            lambda gates: GateSequence(num_qubits=2, gates=gates),
        ],
        ids=["apply_sequence", "compose_sequence", "scattering_circuit_gates", "GateSequence"],
    )
    # A non-gate entry, or a set or mapping of gates, whose order, and so the
    # circuit, could differ from run to run.
    @pytest.mark.parametrize("entry", [object(), "Hadamard", ("Hadamard", (0,)),
                                       {GateOp("PauliX", (0,))}, {GateOp("PauliX", (0,)): 1}])
    def test_gate_lists_refuse_non_gates(self, call, entry):
        with pytest.raises(InvalidValueError, match="GateOp"):
            call(entry if isinstance(entry, (set, dict)) else [entry])

    def test_gate_list_must_be_iterable(self):
        with pytest.raises(InvalidValueError, match="GateOp"):
            apply_sequence(maximally_mixed(2), GateOp("Hadamard", (0,)))

    def test_tuples_and_generators_pass_in_order(self):
        gates = [GateOp("Hadamard", (1,)), GateOp("CNOT", (0, 1)), GateOp("PauliZ", (1,))]
        want = compose_sequence(gates, 2)
        for ordered in (tuple(gates), (g for g in gates)):
            assert np.array_equal(compose_sequence(ordered, 2), want)


class TestQubitBudget:
    def test_compose_refuses_a_register_over_budget_before_allocating(self):
        with pytest.raises(QubitBudgetError, match="budget is 12"):
            compose_sequence([], QUBIT_BUDGET + 1)
        with pytest.raises(QubitBudgetError):
            compose_sequence([GateOp("Hadamard", (0,))], 40)

    def test_gate_sequence_matrix_refuses_a_register_over_budget(self):
        seq = GateSequence(num_qubits=QUBIT_BUDGET + 2, gates=(GateOp("PauliX", (13,)),))
        with pytest.raises(QubitBudgetError):
            seq.matrix()

    def test_probe_circuit_refuses_a_register_over_budget(self):
        # The wire count is the caller's: the joint state would be 4**13 entries.
        with pytest.raises(QubitBudgetError):
            scattering_circuit_gates(maximally_mixed(2), [], QUBIT_BUDGET + 1)

    @pytest.mark.parametrize("num_qubits", [2.5, -1, "3", None])
    def test_compose_refuses_a_non_integer_register(self, num_qubits):
        with pytest.raises(InvalidValueError, match="number of qubits"):
            compose_sequence([], num_qubits)

    @pytest.mark.parametrize("count", [0, 1, 5, None], ids=["0", "1", "5", "matrix"])
    def test_dense_product_budgets_and_checks_the_gates_once(self, count, monkeypatch):
        # "matrix" composes the whole 21-gate point circuit through GateSequence.matrix.
        seq = synth_phase_point_circuit(PhasePoint(q=3, p=5, n=8))
        calls = record_calls(monkeypatch, circuits, "check_qubit_budget")
        record_calls(monkeypatch, circuits, "_check_gates", calls)
        seq.matrix() if count is None else compose_sequence(seq.gates[:count], seq.num_qubits)
        assert len(seq.gates) == 21 and calls == ["check_qubit_budget", "_check_gates"]


class TestPauliExpectation:
    def test_ground_state(self):
        rho = basis_state(0, 2)
        assert pauli_expectation(rho, "z", 0) == pytest.approx(1.0)
        assert pauli_expectation(rho, "x", 0) == pytest.approx(0.0)

    def test_plus_state(self):
        plus = HADAMARD @ basis_state(0, 2) @ HADAMARD.conj().T
        assert pauli_expectation(plus, "x", 0) == pytest.approx(1.0)
        assert pauli_expectation(plus, "z", 0) == pytest.approx(0.0)

    def test_two_qubit_register(self):
        rho = basis_state(0b10, 4)  # |10>
        assert pauli_expectation(rho, "z", 0) == pytest.approx(-1.0)
        assert pauli_expectation(rho, "z", 1) == pytest.approx(1.0)

    def test_reduced_state_sees_only_its_wire(self):
        rng = np.random.default_rng(13)
        u = random_unitary(2, rng)
        rho = np.kron(u @ basis_state(0, 2) @ u.conj().T, maximally_mixed(4))
        full = np.kron(PAULI_Y, np.eye(4))
        expected = np.trace(full @ rho).real
        assert pauli_expectation(rho, "y", 0) == pytest.approx(expected, abs=1e-12)

    def test_bad_axis(self):
        with pytest.raises(InvalidValueError, match="axis"):
            pauli_expectation(basis_state(0, 2), "q", 0)

    @pytest.mark.parametrize("qubit", [0.5, 2, -1])
    def test_bad_qubit(self, qubit):
        with pytest.raises(InvalidValueError, match="qubit"):
            pauli_expectation(basis_state(0, 4), "z", qubit)


class TestDepolarize:
    def test_endpoints(self):
        rho = basis_state(1, 4)
        assert np.allclose(depolarize(rho, 0.0), rho)
        assert np.allclose(depolarize(rho, 1.0), maximally_mixed(4))

    def test_convex_combination(self):
        rho = basis_state(3, 4)
        out = depolarize(rho, 0.2)
        assert np.allclose(out, 0.8 * rho + 0.05 * np.eye(4))

    @pytest.mark.parametrize("p", [-0.1, 1.1, np.nan])
    def test_rejects_bad_strength(self, p):
        with pytest.raises(InvalidValueError):
            depolarize(basis_state(0, 2), p)


class TestStates:
    def test_basis_state(self):
        rho = basis_state(2, 4)
        assert np.allclose(rho, np.diag([0, 0, 1, 0]))

    def test_basis_state_range(self):
        with pytest.raises(InvalidValueError):
            basis_state(4, 4)
        with pytest.raises(InvalidValueError):
            basis_state(-1, 4)

    def test_maximally_mixed(self):
        assert np.allclose(maximally_mixed(8), np.eye(8) / 8)

    def test_pseudo_pure_ideal(self):
        assert np.allclose(pseudo_pure(0, 4), np.diag([1, 0, 0, 0]))

    def test_pseudo_pure_noisy(self):
        out = pseudo_pure(3, 4, noise_p=0.2)
        assert np.allclose(out, 0.8 * basis_state(3, 4) + 0.05 * np.eye(4))

    @pytest.mark.parametrize(
        "make",
        [maximally_mixed, lambda d: basis_state(0, d), lambda d: pseudo_pure(0, d, 0.1)],
        ids=["maximally_mixed", "basis_state", "pseudo_pure"],
    )
    @pytest.mark.parametrize("dim", [2.5, 0, -4, "4", None])
    def test_dimension_must_be_a_positive_integer(self, make, dim):
        with pytest.raises(InvalidValueError, match="dimension must be an integer >= 1"):
            make(dim)


class TestGateJson:
    @pytest.mark.parametrize(
        "gate",
        [
            GateOp("PauliX", (0,)),
            GateOp("Toffoli", (0, 2, 1)),
            GateOp("PhaseShift", (1,), theta=0.25),
            GateOp("ControlledPhase", (0, 1), theta=-1.5),
        ],
    )
    def test_round_trip(self, gate):
        # The record survives JSON text and describes the same gate.
        rec = json.loads(json.dumps(sequence_to_json(GateSequence(3, (gate,)))))
        assert rec["num_qubits"] == 3
        (g,) = rec["gates"]
        assert set(g) == {"kind", "targets"} | ({"theta"} if gate.theta is not None else set())
        back = gate_from_record(g)
        assert back.kind == gate.kind
        assert back.targets == gate.targets
        assert back.theta == gate.theta

    @pytest.mark.parametrize("seq", [object(), None, (GateOp("PauliX", (0,)),)])
    def test_only_a_sequence_is_written(self, seq):
        with pytest.raises(InvalidValueError, match="expected a GateSequence"):
            sequence_to_json(seq)


def test_phase_gate_matrix():
    assert np.allclose(phase_gate(np.pi), np.diag([1, -1]))
    assert np.allclose(phase_gate(np.pi / 2), np.diag([1, 1j]))
