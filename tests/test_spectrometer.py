"""Tests for spectral estimation from traces of unitary powers.

The binning convention (2**n1 counter labels, label-to-phase map
phi = 4*pi*E/D for the density) is the one realized by the counter-register
circuit, and the circuit simulation is tested here as the ground truth the
direct Fourier formula must reproduce.
"""

import numpy as np
import pytest

from qscatter.circuits import PAULI_Z
from qscatter.errors import InvalidValueError, QubitBudgetError
from qscatter.linalg import QUBIT_BUDGET
from qscatter.spectrometer import (
    SpectralSeries,
    TraceSeries,
    spectral_density,
    spectral_density_via_circuit,
    structure_function,
    trace_powers,
)
from reference import dft_matrix, random_unitary, shift_u


class TestTracePowers:
    def test_identity(self):
        ts = trace_powers(np.eye(4), 6)
        assert np.allclose(ts.values, 4.0)
        assert ts.t_max == 6
        assert ts.dim == 4

    def test_pauli_z_alternates(self):
        ts = trace_powers(PAULI_Z, 7)
        assert np.allclose(ts.values, [2, 0, 2, 0, 2, 0, 2, 0], atol=1e-12)

    def test_cyclic_shift(self):
        ts = trace_powers(shift_u(4), 8)
        expected = [4 if t % 4 == 0 else 0 for t in range(9)]
        assert np.allclose(ts.values, expected, atol=1e-12)

    def test_leading_value_is_dimension(self):
        u = random_unitary(8, np.random.default_rng(1))
        ts = trace_powers(u, 5)
        assert ts.values[0] == pytest.approx(8.0 + 0j, abs=1e-12)
        assert np.abs(ts.values).max() <= 8 + 1e-10

    def test_rejects_bad_t_max(self):
        with pytest.raises(InvalidValueError):
            trace_powers(np.eye(2), -1)

    def test_series_length_is_held_to_the_budget(self):
        edge = (1 << QUBIT_BUDGET) - 1
        assert trace_powers(np.eye(2), edge).t_max == edge
        with pytest.raises(QubitBudgetError):
            trace_powers(np.eye(2), edge + 1)
        with pytest.raises(QubitBudgetError):
            trace_powers(np.eye(2), 1 << 40)


def _with_eigvals(monkeypatch, perturb):
    """Make every eigvals call return perturbed eigenvalues."""
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: perturb(eigvals(a)))


class TestSelfCheck:
    def test_shifted_eigenvalues_fail_at_t1(self, monkeypatch):
        u = random_unitary(8, np.random.default_rng(11))
        _with_eigvals(monkeypatch, lambda lam: lam + 1e-6)
        with pytest.raises(InvalidValueError, match=r"self-check failed at t=1:"):
            trace_powers(u, 63)

    def test_phase_drift_fails_at_the_first_t_past_tolerance(self, monkeypatch):
        # U = V diag(exp(i phi)) V^dagger has Tr(U^t) = sum_j exp(i phi_j t);
        # drifting every eigenphase by delta moves the eigenvalue series by
        # |Tr(U^t)| * |exp(i delta t) - 1|, which first exceeds 1e-9 at t_star.
        rng = np.random.default_rng(1)
        phi = rng.uniform(0, 2 * np.pi, size=8)
        v = random_unitary(8, rng)
        u = (v * np.exp(1j * phi)) @ v.conj().T
        delta, t_max = 1e-12, 4095
        t = np.arange(t_max + 1)
        exact = np.exp(1j * np.outer(t, phi)).sum(axis=1)
        gap = np.abs(exact) * np.abs(np.exp(1j * delta * t) - 1)
        t_star = int(np.flatnonzero(gap > 1e-9)[0])
        # clear of rounding on both sides, and past the first giant step
        assert gap[t_star] > 1e-9 + 1e-11 and gap[:t_star].max() < 1e-9 - 1e-11
        assert t_star > np.sqrt(t_max) + 1
        _with_eigvals(monkeypatch, lambda lam: lam * np.exp(1j * delta))
        with pytest.raises(InvalidValueError, match=rf"self-check failed at t={t_star}:"):
            trace_powers(u, t_max)


class TestSpectralDensity:
    def test_identity_peak_at_zero(self):
        s = spectral_density(np.eye(4), 3)
        assert s.bins[0] == pytest.approx(1.0, abs=1e-12)
        assert s.bins[0] == pytest.approx(s.bins.max())
        # all weight sits on the zero-phase labels
        zero_phase = np.isclose(s.phases, 0.0)
        assert np.abs(s.bins[~zero_phase]).max() < 1e-12

    def test_pauli_z_frozen_bins(self):
        s = spectral_density(PAULI_Z, 3)
        assert np.allclose(s.bins, [0.5, 0, 0.5, 0, 0.5, 0, 0.5, 0], atol=1e-12)
        assert s.phase_multiple == 2
        assert s.num_labels == 8
        assert s.t_max == 7

    def test_two_level_quarter_phase(self):
        # eigenphases 0 and pi/2; with n1=4 the half-range peaks sit at
        # E=0 and E=2 (phi = 4*pi*E/16), each of weight 1/2
        u = np.diag([1.0, np.exp(1j * np.pi / 2)])
        s = spectral_density(u, 4)
        expected = np.zeros(16)
        expected[[0, 2, 8, 10]] = 0.5  # the (0, 2) pair repeats once, period D/2
        assert np.allclose(s.bins, expected, atol=1e-12)

    @pytest.mark.parametrize("n1", [2, 3, 4])
    def test_series_is_periodic_with_half_range(self, n1):
        u = random_unitary(4, np.random.default_rng(n1))
        s = spectral_density(u, n1)
        d = s.num_labels
        assert np.allclose(s.bins, np.roll(s.bins, d // 2), atol=1e-12)

    @pytest.mark.parametrize("dim,n1", [(2, 3), (4, 3), (4, 4), (8, 2)])
    def test_sum_rule(self, dim, n1):
        u = random_unitary(dim, np.random.default_rng(dim * n1))
        s = spectral_density(u, n1)
        d = s.num_labels
        half_power = np.linalg.matrix_power(u, d // 2)
        expected = 1.0 + np.trace(half_power).real / dim
        assert s.bins.sum() == pytest.approx(expected, abs=1e-9)

    def test_phases_wrap(self):
        s = spectral_density(np.eye(2), 2)
        assert np.allclose(s.phases, [0, np.pi, 0, np.pi], atol=1e-12)

    def test_rejects_small_n1(self):
        with pytest.raises(InvalidValueError):
            spectral_density(np.eye(2), 1)

    @pytest.mark.parametrize("route", [spectral_density, structure_function])
    def test_counter_is_held_to_the_budget(self, route):
        assert route(np.eye(2), QUBIT_BUDGET).num_labels == 1 << QUBIT_BUDGET
        for n1 in (QUBIT_BUDGET + 1, 40):
            with pytest.raises(QubitBudgetError, match="counter"):
                route(np.eye(2), n1)


class TestPeakRecovery:
    def test_well_separated_phases_land_within_one_bin(self):
        phases = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        u = np.diag(np.exp(1j * phases))
        s = spectral_density(u, 4)
        d = s.num_labels
        half = s.bins[: d // 2]
        threshold = s.bins.max() / 2
        # local maxima of the periodic half-range series above half maximum
        maxima = [
            e
            for e in range(d // 2)
            if half[e] > threshold
            and half[e] >= half[(e - 1) % (d // 2)]
            and half[e] >= half[(e + 1) % (d // 2)]
        ]
        assert len(maxima) == len(phases)
        bin_width = 4 * np.pi / d
        for e in maxima:
            gaps = np.abs(np.angle(np.exp(1j * (s.phases[e] - phases))))
            assert gaps.min() <= bin_width + 1e-12


class TestCircuitEquivalence:
    @pytest.mark.parametrize("n1", [2, 3, 4])
    @pytest.mark.parametrize(
        "name,u",
        [
            ("identity", np.eye(2)),
            ("pauli_z", PAULI_Z),
            ("cyclic_shift", shift_u(4)),
            ("haar4", random_unitary(4, np.random.default_rng(404))),
        ],
    )
    def test_direct_equals_circuit(self, name, u, n1):
        direct = spectral_density(u, n1)
        circuit = spectral_density_via_circuit(u, n1)
        assert np.abs(direct.bins - circuit.bins).max() < 1e-9

    @pytest.mark.parametrize("n1,n", [(2, 2), (3, 2), (2, 4)])
    def test_equals_dense_simulation_of_the_whole_register(self, n1, n):
        # Probe (most significant) x counter x system, I/N on the system.
        u = random_unitary(n, np.random.default_rng(10 * n1 + n))
        d = 1 << n1
        branch0, branch1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])

        def controlled(block):
            return np.kron(branch0, np.eye(d * n)) + np.kron(branch1, block)

        hadamard = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(d * n))
        fourier = controlled(np.kron(dft_matrix(d).conj(), np.eye(n)))
        power = np.zeros((d * n, d * n), dtype=complex)
        for t in range(d):
            power[t * n:(t + 1) * n, t * n:(t + 1) * n] = np.linalg.matrix_power(u, t)
        circuit = hadamard @ fourier @ controlled(power) @ fourier @ hadamard
        z = np.kron(np.diag([1.0, -1.0]), np.eye(d * n))
        expected = np.empty(d)
        for energy in range(d):
            label = np.zeros((d, d))
            label[energy, energy] = 1.0
            rho = np.kron(np.kron(branch0, label), np.eye(n) / n)
            expected[energy] = np.trace(z @ circuit @ rho @ circuit.conj().T).real
        got = spectral_density_via_circuit(u, n1).bins
        assert np.abs(got - expected).max() < 1e-12

    def test_counter_fourier_transform_is_the_conjugate_dft(self):
        x = random_unitary(8, np.random.default_rng(2))[:, :3]
        assert np.allclose(np.fft.fft(x, axis=0, norm="ortho"), dft_matrix(8).conj() @ x,
                           rtol=0, atol=1e-14)

    def test_budget_enforced(self):
        with pytest.raises(QubitBudgetError, match="1 probe"):
            spectral_density_via_circuit(np.eye(2), 11)  # 1 + 11 + 1 = 13

    def test_budget_edge_is_allowed(self):
        # 1 + 8 + 3 = 12 qubits: the largest admissible register
        u = np.diag(np.exp(2j * np.pi * np.arange(8) / 8))
        s = spectral_density_via_circuit(u, 8)
        assert np.abs(s.bins - spectral_density(u, 8).bins).max() < 1e-9


class TestStructureFunction:
    def test_identity_is_delta(self):
        s = structure_function(np.eye(4), 3)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.allclose(s.bins, expected, atol=1e-12)
        assert s.phase_multiple == 1

    def test_pauli_z_frozen_bins(self):
        s = structure_function(PAULI_Z, 3)
        assert np.allclose(s.bins, [0.5, 0, 0, 0, 0.5, 0, 0, 0], atol=1e-12)

    def test_phases_are_single_turn(self):
        s = structure_function(np.eye(2), 3)
        assert np.allclose(s.phases, 2 * np.pi * np.arange(8) / 8, atol=1e-12)

    def test_haar_series_sums_to_one(self):
        # the label sum collapses to the t=0 term, |Tr(U^0)|^2 / N^2 = 1
        u = random_unitary(8, np.random.default_rng(7))
        s = structure_function(u, 5)
        assert np.isfinite(s.bins).all()
        assert s.bins.sum() == pytest.approx(1.0, abs=1e-9)


class TestSeriesTypes:
    def test_trace_series_t_max(self):
        ts = TraceSeries(dim=2, values=np.array([2.0, 0.0, 2.0]))
        assert ts.t_max == 2

    def test_spectral_series_length_checked(self):
        with pytest.raises(InvalidValueError):
            SpectralSeries(n1=3, bins=np.zeros(7))

    def test_spectral_series_finite_checked(self):
        bad = np.zeros(8)
        bad[1] = np.nan
        with pytest.raises(InvalidValueError):
            SpectralSeries(n1=3, bins=bad)
