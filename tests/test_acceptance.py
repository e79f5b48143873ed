"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``ACCEPTANCE <k> PASS/FAIL`` line with the measured
numbers before asserting, so a verbose run (``pytest -s``) reads as a
checklist. Tolerances are part of the contract and must not be loosened.
"""

import time

import numpy as np

from qscatter.phasespace import (
    PhasePoint,
    line_sum,
    overlap_from_grids,
    phase_point_operator,
    reconstruct,
    wigner_direct,
)
from qscatter.scattering import direct_trace, scattering_circuit, scattering_circuit_gates
from qscatter.spectrometer import (
    spectral_density,
    spectral_density_via_circuit,
    structure_function,
)
from qscatter.states import maximally_mixed, pseudo_pure
from qscatter.synthesis import synth_phase_point_circuit
from reference import controlled, dense_product, random_density_matrix, random_unitary, shift_u


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def strip_pattern(label, n):
    """Ideal grid of a computational state: a flat column and a signed mirror."""
    grid = np.zeros((2 * n, 2 * n))
    grid[2 * label, :] = 1 / (2 * n)
    grid[(2 * label + n) % (2 * n), :] = [(-1) ** p / (2 * n) for p in range(2 * n)]
    return grid


def operator_stack(n):
    side = 2 * n
    return np.array(
        [phase_point_operator(PhasePoint(q, p, n)) for q in range(side) for p in range(side)]
    )


class TestAcceptance:
    def test_1_trace_duality(self):
        rng = np.random.default_rng(2025)
        start = time.perf_counter()
        worst = 0.0
        for dim in (2, 4, 8, 16):
            for _ in range(125):
                rho = random_density_matrix(dim, rng)
                u = random_unitary(dim, rng)
                got = scattering_circuit(rho, u).trace_estimate
                worst = max(worst, abs(got - direct_trace(rho, u)))
        elapsed = time.perf_counter() - start
        report(
            1,
            worst < 1e-10 and elapsed < 10.0,
            f"probe readout vs direct trace, 500 pairs at dims 2/4/8/16: "
            f"max |diff| = {worst:.3e} (tol 1e-10), {elapsed:.2f} s (limit 10 s)",
        )

    def test_2_basis_state_strips_and_noise_linearity(self):
        n = 4
        mixed = wigner_direct(maximally_mixed(n)).values
        worst_strip = 0.0
        worst_linear = 0.0
        for label in range(n):
            pure = wigner_direct(pseudo_pure(label, n)).values
            worst_strip = max(worst_strip, np.abs(pure - strip_pattern(label, n)).max())
            noisy = wigner_direct(pseudo_pure(label, n, noise_p=0.15)).values
            worst_linear = max(
                worst_linear,
                np.abs(noisy - (0.85 * pure + 0.15 * mixed)).max(),
                np.abs((noisy - mixed) - 0.85 * (pure - mixed)).max(),
            )
        report(
            2,
            worst_strip < 1e-10 and worst_linear < 1e-10,
            f"N=4 strip patterns max |diff| = {worst_strip:.3e}, depolarizing "
            f"p=0.15 shrinks strips linearly to {worst_linear:.3e} (tol 1e-10)",
        )

    def test_3_grid_properties(self):
        rng = np.random.default_rng(31)
        dims = (2, 4, 8)

        # P1: the grid is real; measure the raw imaginary residue directly.
        residue = 0.0
        per_dim = (168, 166, 166)  # 500 states total
        for n, count in zip(dims, per_dim):
            stack = operator_stack(n)
            for _ in range(count):
                rho = random_density_matrix(n, rng)
                raw = np.einsum("aij,ji->a", stack, rho)
                residue = max(residue, float(np.abs(raw.imag).max()))

        # P2: Hilbert-Schmidt pairing from grids alone.
        pairing = 0.0
        for n in dims:
            for _ in range(20):
                r1 = random_density_matrix(n, rng)
                r2 = random_density_matrix(n, rng)
                got = overlap_from_grids(wigner_direct(r1), wigner_direct(r2))
                pairing = max(pairing, abs(got - np.trace(r1 @ r2).real))

        # P3: axis-parallel line sums are probabilities.
        low, high = 0.0, 1.0
        for n in dims:
            for _ in range(200):
                w = wigner_direct(random_density_matrix(n, rng))
                for c in range(2 * n):
                    for a, b in ((1, 0), (0, -1)):
                        s = line_sum(w, a, b, c)
                        low = min(low, s)
                        high = max(high, s)
        report(
            3,
            residue < 1e-12 and pairing < 1e-10 and low >= -1e-10 and high <= 1 + 1e-10,
            f"P1 imag residue {residue:.3e} over 500 states (tol 1e-12); "
            f"P2 pairing max |diff| = {pairing:.3e} (tol 1e-10); "
            f"P3 line sums in [{low:.3e}, {high:.12f}] over 200 states per N in 2/4/8",
        )

    def test_4_reconstruction_round_trip(self):
        rng = np.random.default_rng(44)
        worst = 0.0
        all_valid = True
        for n in (2, 4, 8):
            for _ in range(100):
                rho = random_density_matrix(n, rng)
                rebuilt = reconstruct(wigner_direct(rho))
                worst = max(worst, np.abs(rebuilt.matrix - rho).max())
                all_valid = all_valid and rebuilt.valid
        report(
            4,
            worst < 1e-10 and all_valid,
            f"grid -> state round trip, 100 seeds per N in 2/4/8: "
            f"max-norm error {worst:.3e} (tol 1e-10), all reconstructions valid",
        )

    def test_5_spectrometer_circuit_equivalence(self):
        rng = np.random.default_rng(55)
        start = time.perf_counter()

        cases = [
            np.eye(2, dtype=complex),
            np.diag([1.0 + 0j, -1.0]),
            shift_u(4),
            random_unitary(4, rng),
        ]
        worst = 0.0
        for u in cases:
            for n1 in (2, 3, 4):
                direct = spectral_density(u, n1)
                circuit = spectral_density_via_circuit(u, n1)
                worst = max(worst, np.abs(direct.bins - circuit.bins).max())

        # Full 12-qubit budget: 3-qubit system + 8-qubit counter + probe.
        u8 = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 8)))
        direct8 = spectral_density(u8, 8)
        circuit8 = spectral_density_via_circuit(u8, 8)
        worst = max(worst, np.abs(direct8.bins - circuit8.bins).max())

        # Peak recovery for well-separated off-grid eigenphases.
        true_phases = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2]) + 0.15
        series = spectral_density(np.diag(np.exp(1j * true_phases)), 6)
        half = series.num_labels // 2
        bins, phases = series.bins[:half], series.phases[:half]
        thresh = 0.5 * bins.max()
        peaks = [
            e
            for e in range(half)
            if bins[e] > thresh
            and bins[e] >= bins[(e - 1) % half]
            and bins[e] >= bins[(e + 1) % half]
        ]
        bin_width = 4 * np.pi / series.num_labels
        peak_err = (
            max(
                abs((phases[e] - phi + np.pi) % (2 * np.pi) - np.pi)
                for e, phi in zip(peaks, true_phases)
            )
            if len(peaks) == len(true_phases)
            else np.inf
        )
        elapsed = time.perf_counter() - start
        report(
            5,
            worst < 1e-9 and peak_err <= bin_width and elapsed < 60.0,
            f"circuit vs Fourier-of-traces over 13 cases incl. 12-qubit budget: "
            f"max |diff| = {worst:.3e} (tol 1e-9); {len(peaks)}/4 peaks found, "
            f"worst offset {peak_err:.3f} rad (bin {bin_width:.3f}); "
            f"{elapsed:.2f} s (limit 60 s)",
        )

    def test_6_synthesis_exactness_and_tomography(self):
        n = 4
        worst_gate = 0.0
        for q in range(2 * n):
            for p in range(2 * n):
                alpha = PhasePoint(q, p, n)
                seq = synth_phase_point_circuit(alpha)
                target = controlled(2 * n * phase_point_operator(alpha))
                pad = (1 << seq.num_qubits) // target.shape[0]
                dense = np.kron(target, np.eye(pad))
                got = dense_product(seq.gates, seq.num_qubits)
                worst_gate = max(worst_gate, np.abs(got - dense).max())

        rng = np.random.default_rng(66)
        worst_tomo = 0.0
        for rho in (pseudo_pure(2, n), random_density_matrix(n, rng)):
            expected = wigner_direct(rho).values
            for q in range(2 * n):
                for p in range(2 * n):
                    seq = synth_phase_point_circuit(PhasePoint(q, p, n))
                    res = scattering_circuit_gates(rho, seq.gates, seq.num_qubits)
                    got = res.sigma_z / (2 * n)
                    worst_tomo = max(worst_tomo, abs(got - expected[q, p]))
        report(
            6,
            worst_gate <= 1e-12 and worst_tomo < 1e-9,
            f"64 synthesized controlled point operators at N=4: max |diff| = "
            f"{worst_gate:.3e} (tol 1e-12); gate-level tomography vs direct grid: "
            f"max |diff| = {worst_tomo:.3e} (tol 1e-9)",
        )

    def test_7_structure_function_closed_forms(self):
        flat = structure_function(np.eye(4, dtype=complex), 3)
        ident_err = np.abs(flat.bins - np.array([1.0, 0, 0, 0, 0, 0, 0, 0])).max()
        two = structure_function(np.diag([1.0 + 0j, -1.0]), 3)
        sz_err = np.abs(two.bins - np.array([0.5, 0, 0, 0, 0.5, 0, 0, 0])).max()
        report(
            7,
            ident_err < 1e-12 and sz_err < 1e-12,
            f"identity gives one unit peak (err {ident_err:.3e}); sigma_z gives two "
            f"half peaks at E=0 and E=4 (err {sz_err:.3e}); tol 1e-12",
        )
