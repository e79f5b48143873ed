"""Tests for probe-qubit trace estimation.

The circuit route (Hadamard, controlled-U, Hadamard, frame rotation, Pauli
readout) must reproduce Tr(U rho) computed directly, for every state and
unitary, to near machine precision. The readout prepares the probe's
|+><+| directly and runs the closing probe gates only on the entries it
reads; its block, a dense U or one map over the whole register (a widened
index map, or a composed list of permutation-times-phase gates), forms only
those entries, and a gate list with a Hadamard is refused. Its polarization
is held to the circuit run gate by gate on the whole joint state
(``reference.probe_readout_full``): bit for bit, and for a dense U, whose
sums run in another order, to rounding. The tests build each list's map with
``reference.compose_map_bool_planes``, so neither side of a bit pin runs
``circuits._compose_map``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qscatter import phasespace, scattering
from qscatter.circuits import _KINDS, HADAMARD, PAULI_Y, GateOp
from qscatter.circuits import PAULI_Z, _compose_map, compose_sequence
from qscatter.errors import DimensionMismatchError, InvalidValueError, QubitBudgetError
from qscatter.phasespace import PhasePoint, _point_operator, phase_point_operator
from qscatter.scattering import (
    ScatteringResult,
    _mapped_diagonals,
    _probe_readout,
    direct_trace,
    scattering_circuit,
    scattering_circuit_gates,
)
from qscatter.states import basis_state, maximally_mixed
from qscatter.synthesis import synth_phase_point_circuit
from reference import plus_joint, probe_readout_full, random_density_matrix, random_unitary
from reference import apply_map, compose_map_bool_planes, density_gate_by_gate, layouts
from reference import record_calls, sparse_state


class TestKnownTraces:
    def test_hadamard_on_ground_state(self):
        res = scattering_circuit(basis_state(0, 2), HADAMARD)
        assert res.sigma_z == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert res.sigma_x == pytest.approx(0.0, abs=1e-12)

    def test_global_phase_lands_on_x(self):
        # Tr(i*I*rho) = i: purely imaginary, so sigma_z = 0 and sigma_x = -1.
        res = scattering_circuit(basis_state(0, 2), 1j * np.eye(2))
        assert res.sigma_z == pytest.approx(0.0, abs=1e-12)
        assert res.sigma_x == pytest.approx(-1.0, abs=1e-12)
        assert res.trace_estimate == pytest.approx(1j, abs=1e-12)

    def test_pauli_y_ground_state_is_dark(self):
        res = scattering_circuit(basis_state(0, 2), PAULI_Y)
        assert abs(res.trace_estimate) < 1e-12

    @pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2, 2.0, np.pi])
    def test_phase_sweep(self, theta):
        u = np.diag([1.0, np.exp(1j * theta)])
        res = scattering_circuit(basis_state(1, 2), u)
        assert res.sigma_z == pytest.approx(np.cos(theta), abs=1e-12)
        assert res.sigma_x == pytest.approx(-np.sin(theta), abs=1e-12)

    def test_identity_on_mixed_state(self):
        res = scattering_circuit(maximally_mixed(4), np.eye(4))
        assert res.trace_estimate == pytest.approx(1.0 + 0j, abs=1e-12)


class TestDuality:
    """Circuit estimate versus the matrix-product trace."""

    def test_500_seeded_pairs_dim4(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(500):
            rho = random_density_matrix(4, rng)
            u = random_unitary(4, rng)
            est = scattering_circuit(rho, u).trace_estimate
            worst = max(worst, abs(est - direct_trace(rho, u)))
        assert worst < 1e-10

    @pytest.mark.parametrize("dim", [2, 8, 16])
    def test_other_dims(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(10):
            rho = random_density_matrix(dim, rng)
            u = random_unitary(dim, rng)
            est = scattering_circuit(rho, u).trace_estimate
            assert abs(est - direct_trace(rho, u)) < 1e-10


class TestGateListRoute:
    def test_explicit_controlled_gate_matches_dense(self):
        # The synthesized controlled-(2N A) gate list against the dense block.
        rho = random_density_matrix(4, np.random.default_rng(21))
        alpha = PhasePoint(q=5, p=2, n=4)
        seq = synth_phase_point_circuit(alpha)
        a = scattering_circuit_gates(rho, seq.gates, seq.num_qubits)
        b = scattering_circuit(rho, 8 * phase_point_operator(alpha))
        assert a.sigma_z == pytest.approx(b.sigma_z, abs=1e-12)
        assert a.sigma_x == pytest.approx(b.sigma_x, abs=1e-12)

    def test_idle_work_wire_changes_nothing(self):
        rho = random_density_matrix(2, np.random.default_rng(22))
        alpha = PhasePoint(q=3, p=1, n=2)
        seq = synth_phase_point_circuit(alpha)
        assert seq.num_qubits == 2
        a = scattering_circuit_gates(rho, seq.gates, 3)  # one untouched work wire
        b = scattering_circuit(rho, 4 * phase_point_operator(alpha))
        assert a.sigma_z == pytest.approx(b.sigma_z, abs=1e-12)
        assert a.sigma_x == pytest.approx(b.sigma_x, abs=1e-12)

    def test_too_few_wires(self):
        with pytest.raises(InvalidValueError, match="wires"):
            scattering_circuit_gates(maximally_mixed(4), [], 2)

    def test_non_integer_wire_count(self):
        with pytest.raises(InvalidValueError, match="wires"):
            scattering_circuit_gates(maximally_mixed(4), [], 3.0)


def real_orthogonal(n: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.sign(np.diag(r))).astype(complex)


def mapped_gates(wires: int, count: int, rng) -> list[GateOp]:
    """``count`` random permutation-times-phase gates on any of ``wires``
    wires, the probe and work wires included."""
    kinds = [(kind, size) for kind, size in (
        ("PauliX", 1), ("PauliY", 1), ("PauliZ", 1), ("PhaseShift", 1), ("CNOT", 2),
        ("ControlledPhase", 2), ("Toffoli", 3)) if size <= wires]
    gates = []
    for _ in range(count):
        kind, size = kinds[rng.integers(len(kinds))]
        targets = tuple(int(v) for v in rng.choice(wires, size, replace=False))
        theta = float(rng.uniform(-7, 7)) if "Phase" in kind else None
        gates.append(GateOp(kind, targets, theta=theta))
    return gates


def probe_zero_identity(label: np.ndarray, phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A system's index map as the controlled block's map over the whole
    register: the identity on the probe-0 labels, the map on the probe-1 ones."""
    n = label.size
    return np.concatenate((np.arange(n), n + label)), np.concatenate((np.ones(n), phase))


# How far a dense-U readout may sit from the whole-state circuit.
DENSE_TOL = 1e-14


def polarization_bits(res: ScatteringResult) -> list[int]:
    return np.array([res.sigma_z, res.sigma_x]).view(np.uint64).tolist()


class TestReadoutBits:
    """The readout starts from |+><+| (x) rho and runs the closing Hadamard
    and frame on the block diagonals alone; under a map (an index map
    widened by the probe-0 identity, or the map of a synthesized point
    circuit with or without idle work wires or of any list of
    permutation-times-phase gates, empty and one-gate lists included) it
    forms only those. sigma_z and sigma_x are bit for bit those of the
    whole-state circuit, which runs the map and the frame as maps on the
    whole joint, signed zeros included. A dense U forms its block diagonals
    from one N x N product and row sums, whose order moves last bits: it is
    held to the whole-state circuit within DENSE_TOL (2.8e-16 measured,
    N = 1 ... 256)."""

    @settings(max_examples=200, deadline=None)
    @given(
        route=st.sampled_from(["dense", "map", "synth", "idle", "mapped"]),
        k=st.integers(0, 8),
        work=st.integers(0, 2),
        real=st.booleans(),
        zeros=st.booleans(),
        tiny=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # N = 1, and N = 2, where the whole-state circuit applies the dense U by
    # the elementwise update; a real state and U make Im Tr(U rho) vanish.
    @example(route="dense", k=0, work=0, real=True, zeros=False, tiny=False, seed=1)
    @example(route="dense", k=1, work=0, real=True, zeros=True, tiny=False, seed=2)
    @example(route="dense", k=1, work=0, real=False, zeros=False, tiny=False, seed=3)
    @example(route="dense", k=3, work=0, real=True, zeros=True, tiny=False, seed=4)
    @example(route="dense", k=8, work=0, real=False, zeros=True, tiny=False, seed=5)
    @example(route="map", k=4, work=0, real=True, zeros=True, tiny=False, seed=6)
    @example(route="map", k=1, work=0, real=True, zeros=False, tiny=False, seed=9)
    # A point circuit with no work wire, then with one.
    @example(route="synth", k=1, work=0, real=True, zeros=True, tiny=False, seed=10)
    @example(route="synth", k=3, work=0, real=False, zeros=True, tiny=False, seed=7)
    @example(route="synth", k=5, work=0, real=False, zeros=False, tiny=False, seed=11)
    @example(route="idle", k=1, work=0, real=False, zeros=True, tiny=False, seed=12)
    # Two idle work wires.
    @example(route="idle", k=2, work=0, real=True, zeros=True, tiny=False, seed=8)
    @example(route="mapped", k=0, work=0, real=True, zeros=True, tiny=False, seed=13)
    @example(route="mapped", k=4, work=0, real=False, zeros=True, tiny=False, seed=14)
    # The states of TestPreparation's signed-zero cases, whose prepared joints
    # keep none of the kernel Hadamard's zero signs.
    @example(route="mapped", k=1, work=0, real=False, zeros=True, tiny=False, seed=10)
    @example(route="mapped", k=2, work=0, real=False, zeros=True, tiny=False, seed=20)
    @example(route="mapped", k=4, work=0, real=False, zeros=True, tiny=False, seed=40)
    @example(route="mapped", k=2, work=1, real=False, zeros=True, tiny=False, seed=21)
    @example(route="mapped", k=4, work=1, real=False, zeros=True, tiny=False, seed=41)
    # Off-diagonals of +-5e-324, +-1e-320, -3e-310 and +-0 on every route.
    @example(route="dense", k=3, work=0, real=False, zeros=True, tiny=True, seed=50)
    @example(route="map", k=4, work=0, real=False, zeros=True, tiny=True, seed=51)
    @example(route="synth", k=3, work=0, real=False, zeros=False, tiny=True, seed=52)
    @example(route="idle", k=2, work=0, real=True, zeros=True, tiny=True, seed=53)
    @example(route="mapped", k=3, work=0, real=False, zeros=True, tiny=True, seed=54)
    @example(route="mapped", k=3, work=1, real=False, zeros=False, tiny=True, seed=55)
    def test_polarization_matches_the_whole_state_circuit(
            self, route, k, work, real, zeros, tiny, seed):
        if route != "dense":  # a phase point needs N >= 2; gate lists stay at N <= 32
            lo = 1 if route in ("map", "synth", "idle") else 0
            k = min(max(k, lo), 8 if route == "map" else 5)
        n = 1 << k
        rng = np.random.default_rng(seed)
        if real or zeros or tiny:
            rho = sparse_state(n, rng, real, zeros, tiny)
        else:
            rho = random_density_matrix(n, rng)
        if route == "dense":
            block = real_orthogonal(n, rng) if real else random_unitary(n, rng)
        elif route == "mapped":  # any wires, the probe's too, and 0-2 work wires
            wires = k + 1 + work
            block = compose_map_bool_planes(mapped_gates(wires, int(rng.integers(0, 40)), rng),
                                            wires)
        else:
            q, p = (int(v) for v in rng.integers(2 * n, size=2))
            alpha = PhasePoint(q=q, p=0 if real else p, n=n)
            if route == "map":
                block = probe_zero_identity(*_point_operator(alpha))
            else:
                seq = synth_phase_point_circuit(alpha)
                block = compose_map_bool_planes(seq.gates, seq.num_qubits + 2 * (route == "idle"))
        got, want = _probe_readout(rho, block), probe_readout_full(rho, block)
        if route == "dense":
            assert abs(got.sigma_z - want.sigma_z) < DENSE_TOL
            assert abs(got.sigma_x - want.sigma_x) < DENSE_TOL
        else:
            assert polarization_bits(got) == polarization_bits(want)

    @pytest.mark.parametrize("kind", [None, "PauliX", "PauliY", "PauliZ", "PhaseShift", "CNOT",
                                      "ControlledPhase", "Toffoli"])
    def test_empty_and_one_gate_lists(self, kind):
        # No gate, or one of each permutation-times-phase kind on any wires,
        # on 3 to 6 wires with 0-2 work wires; the whole-state circuit runs
        # the lone gate as its map on the whole joint.
        for seed in range(24):
            rng = np.random.default_rng(seed)
            k, work = int(rng.integers(1, 4)), int(rng.integers(3))
            wires, n = max(k + 1 + work, 3), 1 << k
            if seed % 4:
                rho = sparse_state(n, rng, bool(seed % 2), True, seed % 3 == 0)
            else:
                rho = random_density_matrix(n, rng)
            gates = []
            if kind is not None:
                targets = tuple(int(v) for v in rng.choice(wires, _KINDS[kind][0], replace=False))
                theta = float(rng.uniform(-7, 7)) if "Phase" in kind else None
                gates = [GateOp(kind, targets, theta=theta)]
            block = compose_map_bool_planes(gates, wires)
            got, want = _probe_readout(rho, block), probe_readout_full(rho, block)
            assert polarization_bits(got) == polarization_bits(want)

    @pytest.mark.parametrize("n", [2, 8, 64, 512, 2048])
    def test_index_map_at_every_size(self, n):
        # Up to the probe budget, where the whole joint is 2N x 2N = 1 GiB.
        rng = np.random.default_rng(n)
        rho = random_density_matrix(n, rng) if n <= 512 else sparse_state(n, rng, False, True)
        alpha = PhasePoint(*(int(v) for v in rng.integers(2 * n, size=2)), n=n)
        block = probe_zero_identity(*_point_operator(alpha))
        got = _probe_readout(rho, block)
        if n <= 512:
            assert polarization_bits(got) == polarization_bits(probe_readout_full(rho, block))
        else:
            want = np.einsum("ij,ji->", phase_point_operator(alpha), rho) * 2 * n
            assert abs(got.trace_estimate - want) < 1e-10

    @pytest.mark.parametrize("n", [2, 8, 64, 512, 1024])
    def test_dense_u_at_every_size(self, n):
        # The dense twin of the index-map sizes; at N = 1024 the whole-state
        # circuit would take a 2N x 2N joint, so Tr(U rho) is the judge.
        rng = np.random.default_rng(n)
        rho, u = random_density_matrix(n, rng), random_unitary(n, rng)
        got = _probe_readout(rho, u)
        if n <= 512:
            want = probe_readout_full(rho, u)
            assert abs(got.sigma_z - want.sigma_z) < DENSE_TOL
            assert abs(got.sigma_x - want.sigma_x) < DENSE_TOL
        else:
            assert abs(got.trace_estimate - direct_trace(rho, u)) < 1e-10


class TestDenseLayouts:
    """The dense route reads rho and U in any layout: C-ordered, F-ordered or
    strided (every other row and column of a zero-padded copy)."""

    @pytest.mark.parametrize("n", [1, 2, 16, 128])
    def test_every_layout_reads_as_the_c_ordered_one(self, n):
        rng = np.random.default_rng(70 + n)
        rho, u = random_density_matrix(n, rng), random_unitary(n, rng)
        want, trace = _probe_readout(rho, u), direct_trace(rho, u)
        for r in layouts(rho).values():
            for v in layouts(u).values():
                got = scattering_circuit(r, v)
                assert abs(got.sigma_z - want.sigma_z) < DENSE_TOL
                assert abs(got.sigma_x - want.sigma_x) < DENSE_TOL
                assert abs(got.trace_estimate - trace) < 1e-10


class TestPreparation:
    """The prepared |+><+| (x) R (``reference.plus_joint``, whose entries the
    readout's map route forms) is the probe Hadamard of the whole-state
    circuit (``reference.density_gate_by_gate``, whose update the kernel's
    matches bit for bit) on |0><0| (x) R, entry by entry, work wires
    included: equal values, so every nonzero entry bit for bit. The signs of
    zeros are not kept; the readout's + 0 clears them from the polarization
    (TestReadoutBits, TestNoNegativeZero)."""

    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    @pytest.mark.parametrize("work", [0, 1])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_prepared_joint_is_the_kernel_hadamard(self, k, work, zeros):
        n = 1 << k
        rng = np.random.default_rng(10 * k + work)
        rho = sparse_state(n, rng, False, True) if zeros else random_density_matrix(n, rng)
        wires = k + 1 + work
        w = 1 << work
        joint = np.zeros((1 << wires, 1 << wires), dtype=complex)
        joint[: n * w : w, : n * w : w] = rho
        want = density_gate_by_gate(joint, [GateOp("Hadamard", (0,))], wires)
        assert np.array_equal(plus_joint(rho, wires), want)


class TestNoNegativeZero:
    """The readout's + 0 turns a -0 total of the reduced state into +0, so
    neither polarization is ever -0. The block before the closing gates is
    arbitrary here: signed zeros, subnormals and normal parts on every entry.
    numpy's vectorised complex product fuses its multiply and add, so a
    subnormal part times the frame's cos(pi/2) ~ 6e-17 can leave -0 where
    the rounded product and a separate add leave +0: the example below
    closes to Re r01 = Re r10 = -0, and without the + 0 sigma_x reads -0."""

    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.25, -0.25, 1.0, -1.0]),
        min_size=16, max_size=16))
    @example(parts=[-5e-324, -5e-324] + [0.0] * 14)  # real parts first, then imaginary
    @example(parts=[0.0] * 16)
    @example(parts=[-0.0] * 16)
    def test_no_polarization_is_negative_zero(self, parts):
        block = np.empty((2, 2, 2), dtype=complex)
        block.real, block.imag = np.reshape(parts, (2, 2, 2, 2))
        rho = np.eye(2, dtype=complex) / 2
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scattering, "_mapped_diagonals", lambda *args: block.copy())
            res = _probe_readout(rho, (np.arange(4), np.ones(4, dtype=complex)))
        for value in (res.sigma_z, res.sigma_x):
            assert not (value == 0 and np.signbit(value))


class TestMappedBlock:
    """Under a map, the (2, 2, half) block diagonals are the whole joint's
    after ``reference.plus_joint`` and ``reference.apply_map``, entry by
    entry and bit for bit; the sums that follow can hide a zero's sign, so the
    entries are compared here."""

    @pytest.mark.parametrize("k", [0, 1, 3, 5])
    @pytest.mark.parametrize("work", [0, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block_is_the_mapped_joint_diagonals(self, k, work, seed):
        n, wires = 1 << k, k + 1 + work
        rng = np.random.default_rng(100 * k + 10 * work + seed)
        rho = sparse_state(n, rng, bool(seed % 2), True)
        label, phase = compose_map_bool_planes(mapped_gates(wires, 30, rng), wires)
        joint = plus_joint(rho, wires)
        apply_map(joint, label, phase)
        half = 1 << (wires - 1)
        want = np.einsum("iyjy->ijy", joint.reshape(2, half, 2, half)).copy()
        got = _mapped_diagonals(rho, label, phase)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


class TestMappedRoutes:
    """Each block takes one of the readout's two forms. An index map and
    every gate list (empty, one gate, or a synthesized point circuit, with or
    without an idle work wire) are one map, whose block diagonals come from
    one ``_mapped_diagonals`` call, a list's map from one ``_compose_map``
    call; a dense U takes neither. TestReadoutMemory bounds each form's
    peak well below the joint's."""

    @pytest.mark.parametrize("build", ["map", "synth", "idle", "lone", "empty"])
    def test_one_map_forms_no_joint(self, monkeypatch, build):
        rho = random_density_matrix(8, np.random.default_rng(3))
        alpha = PhasePoint(q=11, p=5, n=8)
        calls = record_calls(monkeypatch, scattering, "_compose_map")
        record_calls(monkeypatch, scattering, "_mapped_diagonals", calls)
        if build == "map":
            phasespace.wigner_via_circuit(rho, alpha)
        elif build in ("lone", "empty"):
            scattering_circuit_gates(rho, [GateOp("PauliX", (1,))] * (build == "lone"), 4)
        else:
            seq = synth_phase_point_circuit(alpha)
            scattering_circuit_gates(rho, seq.gates, seq.num_qubits + (build == "idle"))
        assert calls == ["_compose_map"] * (build != "map") + ["_mapped_diagonals"]

    @pytest.mark.parametrize("n", [2, 4])
    def test_a_dense_u_forms_no_joint(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        calls = record_calls(monkeypatch, scattering, "_compose_map")
        record_calls(monkeypatch, scattering, "_mapped_diagonals", calls)
        scattering_circuit(random_density_matrix(n, rng), random_unitary(n, rng))
        assert calls == []


class TestHadamardRefusal:
    """``scattering_circuit_gates`` takes permutation-times-phase gates only:
    a list with a Hadamard anywhere is refused after the budget, state and
    wire checks and before any composition. A block built with Hadamards is
    measured through its dense product instead."""

    @pytest.mark.parametrize("at", ["first", "between", "last"])
    @pytest.mark.parametrize("wire", [0, 1, 3], ids=["probe", "system", "work"])
    def test_a_hadamard_anywhere_is_refused(self, monkeypatch, at, wire):
        mapped = [GateOp("CNOT", (0, 1)), GateOp("Toffoli", (0, 2, 3)), GateOp("PauliZ", (2,))]
        at = {"first": 0, "between": 2, "last": len(mapped)}[at]
        gates = mapped[:at] + [GateOp("Hadamard", (wire,))] + mapped[at:]
        calls = record_calls(monkeypatch, scattering, "_compose_map")
        with pytest.raises(InvalidValueError, match="refuses a Hadamard.*compose_sequence"):
            scattering_circuit_gates(maximally_mixed(4), gates, 4)
        assert calls == []

    @pytest.mark.parametrize("case", ["state", "wire", "width"])
    def test_state_and_wires_are_checked_before_the_kind(self, case):
        rho, gates, wires = maximally_mixed(4), [GateOp("Hadamard", (1,))], 4
        if case == "state":
            rho, match = np.eye(4), "trace"
        elif case == "wire":
            gates, match = gates + [GateOp("CNOT", (0, 4))], "CNOT wire index"
        else:
            wires, match = 2, "number of wires"
        with pytest.raises(InvalidValueError, match=match):
            scattering_circuit_gates(rho, gates, wires)

    def test_a_block_with_hadamards_is_measured_through_its_dense_product(self):
        # H(1) CNOT(0, 1) H(1) is the probe-controlled H X H = Z.
        rho = random_density_matrix(2, np.random.default_rng(7))
        gates = [GateOp("Hadamard", (1,)), GateOp("CNOT", (0, 1)), GateOp("Hadamard", (1,))]
        res = scattering_circuit(rho, compose_sequence(gates, 2)[2:, 2:])
        assert abs(res.trace_estimate - direct_trace(rho, PAULI_Z)) < 1e-12


def composed(gates, wires: int) -> tuple[np.ndarray, np.ndarray]:
    """A gate list's map as ``scattering_circuit_gates`` composes it."""
    return _compose_map(gates, wires, np.ones(1 << wires, dtype=complex))


class TestReadoutMemory:
    """Peak traced memory of one readout, in states (N x N complex); the
    joint would be 4 states. ``block()`` builds the readout's block inside
    the measured window: a gate list is composed there, as
    ``scattering_circuit_gates`` composes it, and an index map widened, as
    ``phasespace.wigner_via_circuit`` widens it."""

    @staticmethod
    def peak_bytes(rho, block) -> int:
        _probe_readout(rho, block())  # first-call allocations, before the baseline
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _probe_readout(rho, block())
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_dense_u(self):
        # The prepared quadrant and U times it: 2.07 states, where a conj(U)
        # copy beside them took 3.07; the joint alone would be 4.
        rng = np.random.default_rng(128)
        rho, u = random_density_matrix(128, rng), random_unitary(128, rng)
        assert self.peak_bytes(rho, lambda: u) / (128 * 128 * 16) < 2.25

    def test_index_map(self):
        # A few (2, 2, N) arrays: 0.24 states. The joint and the map's spare
        # took 2.01 joints, 8.04 states.
        rho = random_density_matrix(128, np.random.default_rng(129))
        u = _point_operator(PhasePoint(q=77, p=201, n=128))
        assert self.peak_bytes(rho, lambda: probe_zero_identity(*u)) / (128 * 128 * 16) < 0.5

    def test_synthesized_list(self):
        # 426 gates on 9 wires, whose joint would be 16 states: the composed
        # map's bit planes and the block diagonals, 0.46 states.
        rho = random_density_matrix(128, np.random.default_rng(130))
        seq = synth_phase_point_circuit(PhasePoint(q=77, p=201, n=128))
        assert seq.num_qubits == 9
        assert self.peak_bytes(rho, lambda: composed(seq.gates, 9)) / (128 * 128 * 16) < 1.0

    def test_synthesized_list_with_an_idle_work_wire(self):
        # The same circuit on 10 wires, whose joint would be 64 states: 0.91
        # states, the composed map's bit planes and labels over 1,024 labels.
        rho = random_density_matrix(128, np.random.default_rng(132))
        seq = synth_phase_point_circuit(PhasePoint(q=77, p=201, n=128))
        assert self.peak_bytes(rho, lambda: composed(seq.gates, 10)) / (128 * 128 * 16) < 1.0

    def test_empty_list(self):
        # The identity map and the block diagonals: 0.22 states.
        rho = random_density_matrix(128, np.random.default_rng(133))
        assert self.peak_bytes(rho, lambda: composed([], 8)) / (128 * 128 * 16) < 1.0

    @pytest.mark.parametrize("gate", [GateOp("CNOT", (0, 1)), GateOp("PauliX", (3,))])
    def test_one_gate(self, gate):
        # The composed map of one gate and the block diagonals: 0.20 states.
        # Run on the joint, the gate held 6.0-8.0.
        rho = random_density_matrix(128, np.random.default_rng(131))
        assert self.peak_bytes(rho, lambda: composed([gate], 8)) / (128 * 128 * 16) < 0.5


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            scattering_circuit(maximally_mixed(4), np.eye(2))
        with pytest.raises(DimensionMismatchError):
            direct_trace(maximally_mixed(4), np.eye(2))

    def test_rejects_non_unitary(self):
        with pytest.raises(InvalidValueError):
            scattering_circuit(maximally_mixed(2), np.ones((2, 2)))

    def test_rejects_non_state(self):
        with pytest.raises(InvalidValueError):
            scattering_circuit(np.eye(2), np.eye(2))


class TestQubitBudget:
    """1 probe + log2(dim) system wires, checked from the shapes before validation."""

    def test_register_over_budget_refused_before_validation(self):
        # zero-cost views: the zero "state" and "unitary" would fail validation,
        # so only a budget check that runs first can raise QubitBudgetError
        big = np.broadcast_to(np.complex128(0), (4096, 4096))
        for rho, u in ((big, big), (maximally_mixed(2), big), (big, np.eye(2))):
            with pytest.raises(QubitBudgetError, match=r"1 probe \+ 12 system"):
                scattering_circuit(rho, u)

    def test_widest_register_reaches_validation(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(scattering, "assert_density_matrix", reached)
        big = np.broadcast_to(np.complex128(0), (2048, 2048))
        with pytest.raises(Reached):
            scattering_circuit(big, big)


def test_result_is_plain_record():
    res = ScatteringResult(sigma_z=0.5, sigma_x=-0.25)
    assert res.trace_estimate == 0.5 + 0.25j


def test_a_real_trace_has_a_positive_zero_imaginary_part():
    # rho = diag(0.75, 0.25), U = Z: Tr(U rho) = 0.5, and sigma_x reads +0.
    res = scattering_circuit(np.diag([0.75, 0.25]), np.diag([1.0, -1.0]))
    for r in (res, ScatteringResult(sigma_z=0.5, sigma_x=-0.0)):
        assert np.copysign(1, r.trace_estimate.imag) == 1
