"""Tests for probe-qubit trace estimation.

The circuit route (Hadamard, controlled-U, Hadamard, frame rotation, Pauli
readout) must reproduce Tr(U rho) computed directly, for every state and
unitary, to near machine precision.
"""

import numpy as np
import pytest

from qscatter import scattering
from qscatter.circuits import HADAMARD, PAULI_Y
from qscatter.errors import DimensionMismatchError, InvalidValueError, QubitBudgetError
from qscatter.phasespace import PhasePoint, phase_point_operator
from qscatter.scattering import (
    ScatteringResult,
    direct_trace,
    scattering_circuit,
    scattering_circuit_gates,
)
from qscatter.states import basis_state, maximally_mixed
from qscatter.synthesis import synth_phase_point_circuit
from reference import random_density_matrix, random_unitary


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
