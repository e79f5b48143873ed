"""Boundary validation.

Every public function checks each matrix its caller passes exactly once;
arrays the library builds itself (the probe-and-system joint state, evolved
states, depolarized and basis states) are never checked again.
``wigner_via_circuit`` hands 2N * A(alpha) to ``scattering_circuit``, whose
ControlledUnitary gate checks it once. A gate is checked when it is made,
payload included; where a gate list is used only its wires are held to the
register. Every route, the dimension factories included, refuses an
over-budget register from the shapes or widths alone, before any check or
allocation, through one ``check_qubit_budget`` call that names its registers.
Every integer argument follows one rule: a Python or numpy integer, never a
boolean, inside its range, and no message prints an integer too long to print.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscatter import cli, circuits, io, linalg, phasespace, scattering, spectrometer, states
from qscatter import synthesis
from qscatter.circuits import GateOp
from qscatter.errors import DimensionMismatchError, InvalidValueError, QscatterError
from qscatter.errors import QubitBudgetError
from qscatter.phasespace import PhasePoint
from reference import random_density_matrix, random_unitary, record_calls

N = 4
_RNG = np.random.default_rng(5)
RHO = random_density_matrix(N, _RNG)
RHO_2N = random_density_matrix(2 * N, _RNG)
U = random_unitary(N, _RNG)
ALPHA = PhasePoint(q=3, p=1, n=N)
H0 = GateOp("Hadamard", (0,))


def _cu(u):
    """Probe-controlled N x N payload on wires 0, 1, 2."""
    return GateOp("ControlledUnitary", (0, 1, 2), unitary=u)


# name: (call with a state, call with an operator); None where the function
# takes no such argument. The other argument is always valid.
BOUNDARY = {
    "apply_sequence": (
        lambda rho: circuits.apply_sequence(rho, [H0]),
        lambda u: circuits.apply_sequence(RHO_2N, [H0, _cu(u)]),
    ),
    "pauli_expectation": (lambda rho: circuits.pauli_expectation(rho, "z", 0), None),
    "depolarize": (lambda rho: circuits.depolarize(rho, 0.1), None),
    "direct_trace": (
        lambda rho: scattering.direct_trace(rho, U),
        lambda u: scattering.direct_trace(RHO, u),
    ),
    "scattering_circuit": (
        lambda rho: scattering.scattering_circuit(rho, U),
        lambda u: scattering.scattering_circuit(RHO, u),
    ),
    "scattering_circuit_gates": (
        lambda rho: scattering.scattering_circuit_gates(rho, [_cu(U)], 3),
        lambda u: scattering.scattering_circuit_gates(RHO, [_cu(u)], 3),
    ),
    "wigner_direct": (phasespace.wigner_direct, None),
    "wigner_via_circuit": (lambda rho: phasespace.wigner_via_circuit(rho, ALPHA), None),
    "trace_powers": (None, lambda u: spectrometer.trace_powers(u, 3)),
    "spectral_density": (None, lambda u: spectrometer.spectral_density(u, 2)),
    "structure_function": (None, lambda u: spectrometer.structure_function(u, 2)),
    "spectral_density_via_circuit": (
        None,
        lambda u: spectrometer.spectral_density_via_circuit(u, 2),
    ),
}


def _non_hermitian():
    rho = np.eye(N, dtype=complex) / N
    rho[0, 1] = 0.1
    return rho


BAD_STATES = {
    "non-hermitian": (_non_hermitian(), "Hermitian"),
    "trace-2": (np.eye(N, dtype=complex) / 2, "trace"),
    "negative-eigenvalue": (np.diag([0.75, 0.5, 0.0, -0.25]).astype(complex), "negative"),
}

BOUNDARY_CASES = [
    pytest.param(name, 0, bad, match, id=f"{name}-{label}")
    for name, (state_call, _) in BOUNDARY.items()
    if state_call is not None
    for label, (bad, match) in BAD_STATES.items()
] + [
    pytest.param(name, 1, 1.001 * U, "not unitary", id=f"{name}-non-unitary")
    for name, (_, op_call) in BOUNDARY.items()
    if op_call is not None
]


@pytest.mark.parametrize("name,slot,bad,match", BOUNDARY_CASES)
def test_public_function_rejects_invalid_input(name, slot, bad, match):
    call = BOUNDARY[name][slot]
    call(RHO if slot == 0 else U)  # the valid input passes
    with pytest.raises(InvalidValueError, match=match):
        call(bad)


BAD_MATRICES = {
    "ragged": ([[1, 2], [3]], DimensionMismatchError),
    "strings": ([["a", "b"], ["c", "d"]], InvalidValueError),
    "dict": ({}, InvalidValueError),
    "empty": (np.zeros((0, 0)), DimensionMismatchError),
}

MATRIX_CASES = [
    pytest.param(name, slot, bad, error, id=f"{name}-{slot_name}-{label}")
    for name, calls in BOUNDARY.items()
    for slot, slot_name in enumerate(("state", "operator"))
    if calls[slot] is not None
    for label, (bad, error) in BAD_MATRICES.items()
]


@pytest.mark.parametrize("name,slot,bad,error", MATRIX_CASES)
def test_public_function_refuses_a_malformed_matrix(name, slot, bad, error):
    # Budgets read the shape before validation, so both reads must refuse.
    with pytest.raises(error):
        BOUNDARY[name][slot](bad)


@pytest.mark.parametrize("bad,error", BAD_MATRICES.values(), ids=BAD_MATRICES)
def test_matrix_coercion_refuses_a_malformed_matrix(bad, error):
    for call in (linalg.as_square_matrix, linalg.assert_unitary, linalg.assert_density_matrix):
        with pytest.raises(error):
            call(bad)


def test_an_empty_matrix_is_refused_by_its_size():
    empty = np.zeros((0, 0))
    for call in (linalg.as_square_matrix, lambda m: scattering.direct_trace(m, m)):
        with pytest.raises(DimensionMismatchError, match="matrix must be at least 1x1"):
            call(empty)


# name: (call with the integer argument, a valid value). Each call returns a
# value that is compared exactly between a Python int and np.int64.
W = phasespace.wigner_direct(RHO)
INTEGER_ARGUMENTS = {
    "qubit_count-dim": (linalg.qubit_count, 4),
    "GateOp-wire": (lambda v: circuits.apply_sequence(RHO, [GateOp("PauliX", (v,))]), 1),
    "compose_sequence-num_qubits": (lambda v: circuits.compose_sequence([H0], v), 2),
    "gate_matrix-num_qubits": (lambda v: circuits.gate_matrix(H0, v), 2),
    "pauli_expectation-qubit": (lambda v: circuits.pauli_expectation(RHO, "x", v), 1),
    "scattering_circuit_gates-num_qubits": (
        lambda v: scattering.scattering_circuit_gates(RHO, [_cu(U)], v), 4,
    ),
    "basis_state-label": (lambda v: states.basis_state(v, N), 2),
    "basis_state-dim": (lambda v: states.basis_state(0, v), N),
    "maximally_mixed-dim": (states.maximally_mixed, N),
    "pseudo_pure-label": (lambda v: states.pseudo_pure(v, N, 0.1), 3),
    "PhasePoint-q": (lambda v: phasespace.phase_point_operator(PhasePoint(v, 1, N)), 5),
    "PhasePoint-p": (lambda v: phasespace.phase_point_operator(PhasePoint(3, v, N)), 7),
    "PhasePoint-n": (lambda v: phasespace.phase_point_operator(PhasePoint(3, 1, v)), N),
    "WignerGrid-n": (lambda v: phasespace.WignerGrid(v, W.values).values, N),
    "line_sum-a": (lambda v: phasespace.line_sum(W, v, 0, 2), 1),
    "line_sum-b": (lambda v: phasespace.line_sum(W, 0, v, 4), -1),
    "line_sum-c": (lambda v: phasespace.line_sum(W, 1, 1, v), 3),
    "trace_powers-t_max": (lambda v: spectrometer.trace_powers(U, v).values, 5),
    "spectral_density-n1": (lambda v: spectrometer.spectral_density(U, v).bins, 3),
    "structure_function-n1": (lambda v: spectrometer.structure_function(U, v).bins, 3),
    "spectral_density_via_circuit-n1": (
        lambda v: spectrometer.spectral_density_via_circuit(U, v).bins, 2,
    ),
    "synth_controlled_shift-n_sys": (lambda v: synthesis.synth_controlled_shift(v, 3), 2),
    "synth_controlled_shift-power": (lambda v: synthesis.synth_controlled_shift(2, v), 3),
    "synth_controlled_reflection-n_sys": (synthesis.synth_controlled_reflection, 3),
    "synth_controlled_vshift-n_sys": (lambda v: synthesis.synth_controlled_vshift(v, 3), 2),
    "synth_controlled_vshift-power": (lambda v: synthesis.synth_controlled_vshift(2, v), 3),
    "SpectralSeries-n1": (lambda v: spectrometer.SpectralSeries(v, [0.5, 0.5]).bins, 1),
    "GateSequence-num_qubits": (lambda v: synthesis.GateSequence(v, ()), 2),
}


def _comparable(result):
    if isinstance(result, synthesis.GateSequence):
        return synthesis.sequence_to_json(result)
    return result


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
@pytest.mark.parametrize("bad", [True, 1.0, "1", None], ids=["True", "float", "str", "None"])
def test_integer_argument_refuses_a_non_integer(name, bad):
    call, _ = INTEGER_ARGUMENTS[name]
    with pytest.raises(InvalidValueError, match="must be an integer"):
        call(bad)


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_argument_takes_a_numpy_integer(name):
    call, good = INTEGER_ARGUMENTS[name]
    want, got = _comparable(call(good)), _comparable(call(np.int64(good)))
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    else:
        assert got == want


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_argument_too_long_to_print_never_leaks(name):
    # Python refuses to print an integer of more than 4,300 digits.
    call, _ = INTEGER_ARGUMENTS[name]
    try:
        call(-(10**5000))
    except InvalidValueError as exc:
        assert "too long to print" in str(exc)


def test_label_too_long_to_print_is_refused():
    with pytest.raises(InvalidValueError, match=r"label must be an integer in \[0, 4\), got <int"):
        states.basis_state(10**5000, 4)


def test_boolean_label_is_refused():
    # numpy reads a boolean index as a mask: basis_state(True, 4) used to be all ones.
    with pytest.raises(InvalidValueError, match=r"label must be an integer in \[0, 4\), got True"):
        states.basis_state(True, 4)
    with pytest.raises(InvalidValueError, match="dimension must be an integer >= 1, got True"):
        linalg.qubit_count(True)


def test_integer_rule_returns_a_plain_int():
    assert type(linalg.check_int(np.int64(3), "x", 0, 4)) is int
    assert linalg.check_int(-5, "x") == -5
    for value, lo, hi in ((4, 0, 4), (-1, 0, None), (np.bool_(True), None, None), (2.0, None, None)):
        with pytest.raises(InvalidValueError, match="^x must be an integer"):
            linalg.check_int(value, "x", lo, hi)


@pytest.mark.parametrize("p", [True, False, np.bool_(True), "0.5", None, "", -0.1, 1.5, np.nan])
def test_noise_strength_refuses_booleans_and_values_outside_the_unit_interval(p):
    for call in (lambda: circuits.depolarize(RHO, p), lambda: states.pseudo_pure(0, N, p)):
        with pytest.raises(InvalidValueError, match="noise strength"):
            call()


def test_noise_strength_takes_numpy_numbers():
    for p in (np.int64(1), np.int64(0), np.float32(0.5)):
        assert np.array_equal(circuits.depolarize(RHO, p), circuits.depolarize(RHO, p.item()))


@pytest.mark.parametrize("axis", [["x"], None, 0, "q"], ids=["list", "None", "int", "unknown"])
def test_pauli_axis_is_one_of_three_strings(axis):
    with pytest.raises(InvalidValueError, match="axis must be one of x, y, z"):
        circuits.pauli_expectation(RHO, axis, 0)


# name: (a real grid or series, values it refuses, the error)
MALFORMED_REAL_VALUES = {
    "grid-strings": (phasespace.WignerGrid, "abc", InvalidValueError),
    "grid-ragged": (phasespace.WignerGrid, [[0] * 4] * 3 + [[0]], DimensionMismatchError),
    "grid-complex": (phasespace.WignerGrid, 1j * np.ones((4, 4)), InvalidValueError),
    "series-strings": (spectrometer.SpectralSeries, "abcd", InvalidValueError),
    "series-ragged": (spectrometer.SpectralSeries, [[1], [2, 3], 4, 5], DimensionMismatchError),
    "series-complex": (spectrometer.SpectralSeries, np.ones(4) + 1e-3j, InvalidValueError),
}


@pytest.mark.parametrize("name", MALFORMED_REAL_VALUES)
def test_real_values_are_numbers_without_an_imaginary_part(name):
    container, values, error = MALFORMED_REAL_VALUES[name]
    with pytest.raises(error):
        container(2, values)


@pytest.mark.parametrize("multiple", ["x", 3, True])
def test_phase_multiple_is_one_or_two(multiple):
    with pytest.raises(InvalidValueError, match="phase multiple must be an integer"):
        spectrometer.SpectralSeries(2, np.ones(4), phase_multiple=multiple)


def test_real_values_take_complex_numbers_with_zero_imaginary_part():
    w = phasespace.WignerGrid(2, np.full((4, 4), 1 / 16, dtype=complex))
    assert w.values.dtype == float and np.array_equal(w.values, np.full((4, 4), 1 / 16))
    s = spectrometer.SpectralSeries(2, [0.25 + 0j] * 4, phase_multiple=np.int64(1))
    assert s.bins.dtype == float and np.array_equal(s.phases, np.pi * np.arange(4) / 2)


_GRID = phasespace.wigner_direct(RHO)
_BARE = np.zeros((2 * N, 2 * N))
# name: a call passing a tuple or a bare array where a PhasePoint or WignerGrid belongs
NOT_A_POINT_OR_GRID = {
    "phase_point_operator": lambda: phasespace.phase_point_operator((0, 0, N)),
    "wigner_via_circuit": lambda: phasespace.wigner_via_circuit(RHO, (0, 0, N)),
    "reconstruct": lambda: phasespace.reconstruct(_BARE),
    "line_sum": lambda: phasespace.line_sum(_BARE, 1, 0, 0),
    "overlap_from_grids": lambda: phasespace.overlap_from_grids(_GRID, _BARE),
    "synth_phase_point_circuit": lambda: synthesis.synth_phase_point_circuit((0, 0, N)),
}


@pytest.mark.parametrize("name", NOT_A_POINT_OR_GRID)
def test_phase_space_refuses_other_types(name):
    with pytest.raises(InvalidValueError, match=r"^expected a (PhasePoint|WignerGrid), got "):
        NOT_A_POINT_OR_GRID[name]()


# name: (call, shapes passed to eigvalsh, number of unitarity checks)
CALL_COUNTS = {
    "scattering_circuit": (lambda: scattering.scattering_circuit(RHO, U), [(N, N)], 1),
    "scattering_circuit_gates": (
        lambda: scattering.scattering_circuit_gates(RHO, [_cu(U)], 3), [(N, N)], 1,
    ),
    "direct_trace": (lambda: scattering.direct_trace(RHO, U), [(N, N)], 1),
    "wigner_via_circuit": (lambda: phasespace.wigner_via_circuit(RHO, ALPHA), [(N, N)], 1),
    "wigner_direct": (lambda: phasespace.wigner_direct(RHO), [(N, N)], 0),
    "apply_sequence": (
        lambda: circuits.apply_sequence(RHO_2N, [H0, _cu(U), H0]), [(2 * N, 2 * N)], 1,
    ),
    "pauli_expectation": (lambda: circuits.pauli_expectation(RHO, "x", 1), [(N, N)], 0),
    "depolarize": (lambda: circuits.depolarize(RHO, 0.2), [(N, N)], 0),
    "pseudo_pure": (lambda: states.pseudo_pure(1, N, 0.2), [], 0),
    "gate_matrix": (lambda: circuits.gate_matrix(_cu(U), 3), [], 1),
    "compose_sequence": (lambda: circuits.compose_sequence([H0, _cu(U)], 3), [], 1),
    "trace_powers": (lambda: spectrometer.trace_powers(U, 7), [], 1),
    "spectral_density": (lambda: spectrometer.spectral_density(U, 3), [], 1),
    "structure_function": (lambda: spectrometer.structure_function(U, 3), [], 1),
    "spectral_density_via_circuit": (
        lambda: spectrometer.spectral_density_via_circuit(U, 3), [], 1,
    ),
}


def _shape(a, *args, **kwargs):
    return np.shape(a)


@pytest.mark.parametrize("name", CALL_COUNTS)
def test_each_input_is_checked_exactly_once(name, monkeypatch):
    call, want_eig, want_unitary = CALL_COUNTS[name]
    eig_shapes = record_calls(monkeypatch, np.linalg, "eigvalsh", entry=_shape)
    unitary_checks = record_calls(monkeypatch, linalg, "is_unitary")
    call()
    assert eig_shapes == want_eig
    assert len(unitary_checks) == want_unitary


def test_trace_series_self_check_does_not_call_eigvals(monkeypatch):
    # The products that check the series never read the eigenvalues they check.
    calls = record_calls(monkeypatch, np.linalg, "eigvals", entry=_shape)
    spectrometer.trace_powers(U, 255)
    assert calls == [(N, N)]


def test_controlled_unitary_payload_is_a_read_only_copy():
    # The payload is checked once, at construction: a later change to the
    # caller's array cannot reach the gate, and the gate's own copy is frozen.
    u = U.copy()
    g = _cu(u)
    want = circuits.apply_sequence(RHO_2N, [g])
    u[0, 0] *= 1.5
    assert np.array_equal(g.unitary, U)
    with pytest.raises(ValueError, match="read-only"):
        g.unitary[0, 0] = 0
    assert np.array_equal(circuits.apply_sequence(RHO_2N, [g]), want)


def test_a_prebuilt_gate_is_not_checked_again(monkeypatch):
    g = _cu(U)
    unitary_checks = record_calls(monkeypatch, linalg, "is_unitary")
    circuits.apply_sequence(RHO_2N, [H0, g])
    circuits.apply_sequence(RHO_2N, [g, H0])
    assert unitary_checks == []


def test_synthesized_gates_are_checked_only_when_made(monkeypatch):
    # One tomography-style pass: each gate's kind and theta are checked when
    # synthesis makes it, and the probe circuit checks only the wires.
    made = record_calls(monkeypatch, GateOp, "__post_init__", entry=lambda gate: gate)
    alpha = PhasePoint(q=11, p=6, n=8)
    seq = synthesis.synth_phase_point_circuit(alpha)
    assert {id(g) for g in made} == {id(g) for g in seq.gates}
    assert len(made) == len({id(g) for g in seq.gates}) < len(seq.gates)
    made.clear()
    rho = states.maximally_mixed(8)
    res = scattering.scattering_circuit_gates(rho, seq.gates, seq.num_qubits)
    assert made == []
    want = 16 * np.trace(phasespace.phase_point_operator(alpha) @ rho)
    assert abs(res.trace_estimate - want) < 1e-12


def _over_budget(side):
    """A side x side matrix that occupies no memory: only its shape is read."""
    return np.broadcast_to(np.complex128(0), (side, side))


# Each call is over the qubit budget by its shapes or its widths alone.
OVER_BUDGET = {
    "apply_sequence": lambda: circuits.apply_sequence(_over_budget(1 << 13), [H0]),
    "gate_matrix": lambda: circuits.gate_matrix(H0, 40),
    "compose_sequence": lambda: circuits.compose_sequence([H0], 13),
    "scattering_circuit-rho": lambda: scattering.scattering_circuit(_over_budget(1 << 12), U),
    "scattering_circuit_gates-rho": lambda: scattering.scattering_circuit_gates(
        _over_budget(1 << 12), [H0], 2
    ),
    "scattering_circuit_gates-wires": lambda: scattering.scattering_circuit_gates(RHO, [H0], 13),
    "wigner_direct": lambda: phasespace.wigner_direct(_over_budget(1 << 12)),
    "spectral_density_via_circuit-n1": lambda: spectrometer.spectral_density_via_circuit(
        np.eye(4), 13
    ),
    "spectral_density_via_circuit-dim": lambda: spectrometer.spectral_density_via_circuit(
        _over_budget(1 << 11), 2
    ),
    "trace_powers": lambda: spectrometer.trace_powers(U, 1 << 12),
    "pauli_expectation": lambda: circuits.pauli_expectation(_over_budget(1 << 13), "z", 0),
    "depolarize": lambda: circuits.depolarize(_over_budget(1 << 13), 0.1),
    "direct_trace": lambda: scattering.direct_trace(_over_budget(1 << 12), U),
    "basis_state": lambda: states.basis_state(0, 1 << 40),
    "maximally_mixed": lambda: states.maximally_mixed(1 << 40),
    "pseudo_pure": lambda: states.pseudo_pure(0, 1 << 40, 0.1),
    "phase_point_operator": lambda: phasespace.phase_point_operator(PhasePoint(0, 0, 1 << 12)),
}


@pytest.mark.parametrize("name", OVER_BUDGET)
def test_budget_is_refused_before_any_check(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an over-budget input reached a check")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(linalg, "is_unitary", refuse)
    with pytest.raises(QubitBudgetError):
        OVER_BUDGET[name]()


def test_factory_rules_stop_at_the_largest_register():
    # The system rule takes N = 4096, the probe rule N = 2048; one more is refused.
    assert states.basis_state(0, 1 << 12).shape == (1 << 12, 1 << 12)
    assert phasespace.phase_point_operator(PhasePoint(0, 0, 1 << 11)).shape == (2048, 2048)
    with pytest.raises(QubitBudgetError, match=r"\(13 system\)"):
        states.basis_state(0, (1 << 12) + 1)
    with pytest.raises(QubitBudgetError, match=r"\(1 probe \+ 12 system\)"):
        phasespace.phase_point_operator(PhasePoint(0, 0, (1 << 11) + 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda: states.basis_state(0, 10**5000),
        lambda: phasespace.phase_point_operator(PhasePoint(0, 0, 10**5000)),
    ],
    ids=["basis_state", "phase_point_operator"],
)
def test_absurd_dimension_is_a_library_error(call):
    # numpy would refuse the allocation with a bare ValueError.
    with pytest.raises(QscatterError, match="budget is 12"):
        call()


@pytest.mark.parametrize("point", [[], ["--point", "1,2"]], ids=["grid", "point"])
def test_cli_noise_refuses_the_budget_before_checking_the_state(point, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("an over-budget state reached a check")

    monkeypatch.setattr(io, "load_matrix", lambda path: _over_budget(1 << 12))
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(linalg, "is_unitary", refuse)
    assert cli.main(["wigner", "--rho", "rho.json", "--noise-p", "0.1", *point]) == 6
    assert capsys.readouterr().out == ""


@st.composite
def state_and_unitary(draw):
    dim = draw(st.sampled_from([2, 4, 8]))
    rank = draw(st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real, random_unitary(dim, rng)


@settings(max_examples=60, deadline=None)
@given(state_and_unitary())
def test_probe_readout_equals_direct_trace(pair):
    rho, u = pair
    want = scattering.direct_trace(rho, u)
    assert abs(scattering.scattering_circuit(rho, u).trace_estimate - want) < 1e-10
    # The same probe path with the block as a gate list and one work wire.
    k = linalg.qubit_count(rho.shape[0])
    cu = GateOp("ControlledUnitary", tuple(range(k + 1)), unitary=u)
    res = scattering.scattering_circuit_gates(rho, [cu], k + 2)
    assert abs(res.trace_estimate - want) < 1e-10
