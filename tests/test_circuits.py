"""Tests for the density-matrix gate engine and state constructors."""

import itertools
import json
import time
import tracemalloc

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
from reference import gate_from_record, hadamards_elementwise, random_density_matrix
from reference import random_unitary, record_calls


def bit(index, wire, n):
    return (index >> (n - 1 - wire)) & 1


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
        # The target slice is then a 0-d view; it must still be written.
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
    """On a density matrix a run of two or more permutation-times-phase gates
    acts as one index map; the dense product is the judge."""

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
        # Four Hadamards and the lone PauliX keep the slice kernel, a row and
        # a column pass each; the three runs are maps.
        assert len(contracts) == 2 * 5

    def test_a_ket_keeps_the_slice_kernel(self, monkeypatch):
        contracts = record_calls(monkeypatch, circuits, "_contract")
        gates = [GateOp("CNOT", (0, 1)), GateOp("PauliY", (1,)), GateOp("Toffoli", (1, 2, 0))]
        ket = np.arange(1, 9, dtype=complex)
        got = _apply_sequence(ket.copy(), gates, 3)
        assert np.abs(got - dense_product(gates, 3) @ ket).max() < 1e-13
        assert len(contracts) == len(gates)

    @settings(max_examples=300, deadline=None)
    @given(density_gate_list())
    def test_gate_lists_equal_dense_conjugation(self, case):
        rho, gates, n = case
        before = rho.copy()
        m = dense_product(gates, n)
        assert np.abs(apply_sequence(rho, gates) - m @ rho @ m.conj().T).max() < 1e-12
        assert np.array_equal(rho, before)

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
        label, phase = _compose_map(gates, n)
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
    """Past the diagonal and anti-diagonal cases, which leave only a Hadamard,
    the kernel updates both slices in place, forming c s0 once for both; it
    must round exactly as the elementwise update does, signed zeros
    included."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([1, 2]), st.data())
    def test_hadamards_on_every_wire_match_the_elementwise_update(self, n, ndim, data):
        state = data.draw(complex_array((1 << n,) * ndim))
        gates = [GateOp("Hadamard", (w,)) for w in range(n)]
        got = _apply_sequence(state.copy(), gates, n)
        assert same_bits(got, hadamards_elementwise(state.copy(), n))

    def test_a_hadamard_holds_one_half_state_temporary(self):
        n = 10
        rho = random_density_matrix(1 << n, np.random.default_rng(n))
        gates = [GateOp("Hadamard", (3,))]  # an inner wire: strided slices on both passes
        _apply_sequence(rho, gates, n)  # first-call allocations, before the baseline
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _apply_sequence(rho, gates, n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # Half a state plus numpy's ufunc buffers and iterators (about
        # 0.52 states); two half-state temporaries would read over one state.
        assert peak < 0.75 * rho.nbytes


class TestDiagonalTargets:
    """The kernel scales only s1 by a diagonal target matrix, which is exact
    because every diagonal matrix it can receive has m00 == 1."""

    def test_every_diagonal_target_has_unit_m00(self):
        thetas = [0, np.pi, -np.pi, 1e-300, -1e-300, 1e300, -1e300]
        targets = [_PROBE_FRAME]
        for kind, (wires, matrix, _) in _KINDS.items():
            for theta in thetas if callable(matrix) else [None]:
                targets.append(GateOp(kind, tuple(range(wires)), theta).matrix)
        targets += [m.conj() for m in targets]
        diagonal = [m for m in targets if m[0, 1] == 0 and m[1, 0] == 0]
        # The probe frame, PauliZ, and both phase kinds at every theta; and their conjugates.
        assert len(diagonal) == 2 * (2 + 2 * len(thetas))
        assert all(m[0, 0] == 1 for m in diagonal)


class TestValidation:
    """A gate is checked once, when it is made; only its width is checked where it is used."""

    def test_unknown_kind(self):
        with pytest.raises(InvalidValueError, match="unknown gate kind"):
            GateOp("Fredkin", (0, 1, 2))

    def test_duplicate_wires(self):
        with pytest.raises(InvalidValueError, match="distinct"):
            GateOp("CNOT", (0, 0))

    def test_wire_out_of_range(self):
        with pytest.raises(InvalidValueError, match=r"wire index must be an integer in \[0, 2\)"):
            apply_sequence(maximally_mixed(4), [GateOp("Hadamard", (2,))])

    def test_missing_theta(self):
        with pytest.raises(InvalidValueError, match="theta"):
            GateOp("PhaseShift", (0,))

    @pytest.mark.parametrize("theta", ["0.5", 1j, True, np.inf, [0.5],
                                       pytest.param(10**400, id="10**400")])
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

    @pytest.mark.parametrize("targets", [0, [0], "0", (0.0,), ("a",), (True,), None])
    def test_targets_must_be_a_tuple_of_ints(self, targets):
        with pytest.raises(
            InvalidValueError, match=r"tuple of integer|wire index must be an integer >= 0"
        ):
            GateOp("Hadamard", targets)

    def test_wires_are_stored_as_plain_ints(self):
        g = GateOp("CNOT", (np.int64(1), np.int64(0)))
        assert g.targets == (1, 0) and all(type(t) is int for t in g.targets)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: apply_sequence(maximally_mixed(2), [g]),
            lambda g: compose_sequence([g], 1),
            lambda g: scattering_circuit_gates(maximally_mixed(2), [g], 2),
            lambda g: GateSequence(num_qubits=2, gates=(g,)),
        ],
        ids=["apply_sequence", "compose_sequence", "scattering_circuit_gates", "GateSequence"],
    )
    @pytest.mark.parametrize("entry", [object(), "Hadamard", ("Hadamard", (0,))])
    def test_gate_lists_refuse_non_gates(self, call, entry):
        with pytest.raises(InvalidValueError, match="GateOp"):
            call(entry)

    def test_gate_list_must_be_iterable(self):
        with pytest.raises(InvalidValueError, match="GateOp"):
            apply_sequence(maximally_mixed(2), GateOp("Hadamard", (0,)))


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
