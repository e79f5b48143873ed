"""Boundary validation.

Every public function checks each matrix its caller passes exactly once;
arrays the library builds itself (the probe-and-system joint state, evolved
states, depolarized and basis states) are never checked again.
``wigner_via_circuit`` hands 2N * A(alpha) to ``scattering_circuit``, which
checks it once. Every integer argument follows one rule: a Python or numpy
integer, never a boolean, inside its range.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscatter import circuits, linalg, phasespace, scattering, spectrometer, states, synthesis
from qscatter.circuits import GateOp
from qscatter.errors import DimensionMismatchError, InvalidValueError
from qscatter.linalg import random_density_matrix, random_unitary
from qscatter.phasespace import PhasePoint

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


# name: (call with the integer argument, a valid value). Each call returns a
# value that is compared exactly between a Python int and np.int64.
W = phasespace.wigner_direct(RHO)
INTEGER_ARGUMENTS = {
    "qubit_count-dim": (linalg.qubit_count, 4),
    "GateOp-wire": (lambda v: circuits.apply_sequence(RHO, [GateOp("PauliX", (v,))]), 1),
    "compose_sequence-num_qubits": (lambda v: circuits.compose_sequence([H0], v), 2),
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
    "shift_u-n": (phasespace.shift_u, N),
    "shift_v-n": (phasespace.shift_v, N),
    "reflection-n": (phasespace.reflection, N),
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


@pytest.mark.parametrize("p", [True, False, np.bool_(True), "0.5", None, -0.1, 1.5, np.nan])
def test_noise_strength_refuses_booleans_and_values_outside_the_unit_interval(p):
    with pytest.raises(InvalidValueError, match="noise strength"):
        circuits.depolarize(RHO, p)


def test_noise_strength_takes_numpy_numbers():
    for p in (np.int64(1), np.int64(0), np.float32(0.5)):
        assert np.array_equal(circuits.depolarize(RHO, p), circuits.depolarize(RHO, p.item()))


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


@pytest.mark.parametrize("name", CALL_COUNTS)
def test_each_input_is_checked_exactly_once(name, monkeypatch):
    call, want_eig, want_unitary = CALL_COUNTS[name]
    eig_shapes, unitary_checks = [], []
    eigvalsh, is_unitary = np.linalg.eigvalsh, linalg.is_unitary

    def counting_eigvalsh(a, *args, **kwargs):
        eig_shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    def counting_is_unitary(a, *args, **kwargs):
        unitary_checks.append(np.shape(a))
        return is_unitary(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(linalg, "is_unitary", counting_is_unitary)
    call()
    assert eig_shapes == want_eig
    assert len(unitary_checks) == want_unitary


def test_trace_series_self_check_does_not_call_eigvals(monkeypatch):
    # The products that check the series never read the eigenvalues they check.
    calls = []
    eigvals = np.linalg.eigvals

    def counting_eigvals(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvals(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    spectrometer.trace_powers(U, 255)
    assert calls == [(N, N)]


def test_controlled_unitary_payload_is_checked_on_every_validate():
    # GateOp is frozen but its payload array is not: a change made after a
    # first successful use must still be refused.
    g = _cu(U.copy())
    circuits.gate_matrix(g, 3)
    g.unitary[0, 0] *= 1.5
    with pytest.raises(InvalidValueError, match="not unitary"):
        circuits.apply_sequence(RHO_2N, [g])


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
