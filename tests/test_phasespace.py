"""Tests for the discrete phase-space grid.

The conventions under test (full-grid summation with prefactor N, the
1/(4N) orthogonality constant, the strip patterns of computational states)
were fixed once by brute force at N=2; that calibration is checked in as
tests/fixtures/phasespace_calibration.json and re-derived here.
"""

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qscatter import phasespace, scattering
from qscatter.errors import DimensionMismatchError, InvalidValueError, PowerOfTwoError
from qscatter.errors import QubitBudgetError
from qscatter.linalg import assert_unitary
from qscatter.phasespace import (
    PhasePoint,
    WignerGrid,
    line_sum,
    overlap_from_grids,
    phase_point_operator,
    reconstruct,
    wigner_direct,
    wigner_via_circuit,
)
from qscatter.states import basis_state, maximally_mixed, pseudo_pure
from reference import dft_matrix, layouts, point_operator, random_density_matrix, record_calls
from reference import reflection, shift_u, shift_v, wigner_grid_gather

FIXTURES = Path(__file__).parent / "fixtures"


def subgrid_points(n):
    return [(q, p) for q in range(n) for p in range(n)]


def full_grid_points(n):
    return [(q, p) for q in range(2 * n) for p in range(2 * n)]


def strip_pattern(label, n):
    """Ideal grid of |label><label|: a flat strip and an alternating strip."""
    w = np.zeros((2 * n, 2 * n))
    w[2 * label % (2 * n), :] = 1 / (2 * n)
    w[(2 * label + n) % (2 * n), :] = [(-1) ** p / (2 * n) for p in range(2 * n)]
    return w


class TestGridOperators:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_shift_u_cycles_basis(self, n):
        u = shift_u(n)
        vec = np.zeros(n)
        vec[0] = 1
        assert np.allclose(u @ vec, np.eye(n)[:, 1])
        assert np.allclose(np.linalg.matrix_power(u, n), np.eye(n), atol=1e-12)

    def test_shift_v_small_case(self):
        assert np.allclose(shift_v(2), np.diag([1, -1]), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_shift_v_is_fourier_conjugate(self, n):
        f = dft_matrix(n)
        assert np.allclose(shift_v(n), f @ shift_u(n) @ f.conj().T, atol=1e-12)
        assert np.allclose(
            np.linalg.matrix_power(shift_v(n), n), np.eye(n), atol=1e-12
        )

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_reflection(self, n):
        r = reflection(n)
        assert np.allclose(r @ r, np.eye(n), atol=1e-12)
        assert r[0, 0] == 1  # |0> is a fixed point
        vec = np.zeros(n)
        vec[1] = 1
        assert np.allclose(r @ vec, np.eye(n)[:, n - 1])

    def test_origin_operator_is_scaled_reflection(self):
        a = phase_point_operator(PhasePoint(q=0, p=0, n=4))
        assert np.allclose(a, reflection(4) / 8, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_hermitian_everywhere(self, n):
        for q, p in full_grid_points(n):
            a = phase_point_operator(PhasePoint(q=q, p=p, n=n))
            assert np.abs(a - a.conj().T).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_scaled_operator_is_unitary(self, n):
        for q, p in [(0, 0), (1, 0), (0, 1), (n - 1, n + 1), (2 * n - 1, 2 * n - 1)]:
            u = 2 * n * phase_point_operator(PhasePoint(q=q, p=p, n=n))
            assert np.abs(u @ u.conj().T - np.eye(n)).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_grid_redundancy_signs(self, n):
        for q, p in subgrid_points(n):
            a = phase_point_operator(PhasePoint(q=q, p=p, n=n))
            aq = phase_point_operator(PhasePoint(q=q + n, p=p, n=n))
            ap = phase_point_operator(PhasePoint(q=q, p=p + n, n=n))
            assert np.abs(aq - (-1) ** p * a).max() < 1e-12
            assert np.abs(ap - (-1) ** q * a).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    def test_subgrid_orthogonality(self, n):
        pts = subgrid_points(n)
        gram = np.array(
            [
                [
                    np.trace(
                        phase_point_operator(PhasePoint(q=a[0], p=a[1], n=n))
                        @ phase_point_operator(PhasePoint(q=b[0], p=b[1], n=n))
                    ).real
                    for b in pts
                ]
                for a in pts
            ]
        )
        assert np.abs(gram - np.eye(n * n) / (4 * n)).max() < 1e-12

    def test_subgrid_traces_n2(self):
        # brute-forced once and frozen: only the origin operator has trace
        traces = [
            np.trace(phase_point_operator(PhasePoint(q=q, p=p, n=2)))
            for q, p in subgrid_points(2)
        ]
        assert np.allclose(traces, [0.5, 0, 0, 0], atol=1e-12)


class TestExplicitSumOracle:
    """Every route against its defining formula, point by point, odd N included."""

    @staticmethod
    def dense_operators(n):
        return {(q, p): point_operator(q, p, n) for q, p in full_grid_points(n)}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_operator_is_the_dense_product(self, n):
        for (q, p), dense in self.dense_operators(n).items():
            a = phase_point_operator(PhasePoint(q=q, p=p, n=n))
            assert np.abs(a - dense).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_grid_is_the_trace_sum(self, n):
        rho = random_density_matrix(n, np.random.default_rng(40 + n))
        w = wigner_direct(rho).values
        for (q, p), a in self.dense_operators(n).items():
            assert abs(w[q, p] - np.trace(a @ rho).real) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_reconstruct_is_the_operator_sum_for_any_grid(self, n):
        values = np.random.default_rng(50 + n).standard_normal((2 * n, 2 * n))
        expected = n * sum(values[qp] * a for qp, a in self.dense_operators(n).items())
        rec = reconstruct(WignerGrid(n=n, values=values))
        assert np.abs(rec.matrix - expected).max() < 1e-12


class TestCalibrationFixture:
    """Re-derive the frozen summation conventions from scratch at N=2."""

    def setup_method(self):
        with open(FIXTURES / "phasespace_calibration.json") as fh:
            self.fixture = json.load(fh)

    def test_fixture_declares_full_range_prefactor_n(self):
        assert self.fixture["summation_range"] == "full-2Nx2N"
        assert self.fixture["reconstruction_prefactor"] == "N"
        assert self.fixture["p2_prefactor"] == "N"

    def test_orthogonality_constant(self):
        n = self.fixture["n"]
        assert self.fixture["orthogonality_constant"] == pytest.approx(1 / (4 * n))

    def test_full_range_round_trip_and_subgrid_shortfall(self):
        n = self.fixture["n"]
        ops = {
            (q, p): phase_point_operator(PhasePoint(q=q, p=p, n=n))
            for q, p in full_grid_points(n)
        }
        rng = np.random.default_rng(314)
        shortfall = self.fixture["subgrid_shortfall_factor"]
        for _ in range(25):
            rho = random_density_matrix(n, rng)
            w = wigner_direct(rho).values
            full = n * sum(w[q, p] * ops[(q, p)] for q, p in full_grid_points(n))
            sub = n * sum(w[q, p] * ops[(q, p)] for q, p in subgrid_points(n))
            assert np.abs(full - rho).max() < 1e-12
            # the N x N subgrid alone recovers rho only after the frozen factor
            assert np.abs(shortfall * sub - rho).max() < 1e-12


class TestWignerGrids:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_strip_pattern_all_labels(self, n):
        for label in range(n):
            w = wigner_direct(basis_state(label, n))
            assert np.abs(w.values - strip_pattern(label, n)).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 32, 512])
    def test_tiled_grid_matches_the_whole_gather_bit_for_bit(self, n):
        # Odd N too: the grid side 2N is then no power of two.
        rho = random_density_matrix(n, np.random.default_rng(300 + n))
        want = wigner_grid_gather(rho)
        assert np.array_equal(wigner_direct(rho).values.view(np.uint64), want.view(np.uint64))

    def test_maximally_mixed_lattice(self):
        # 1/N^2 on points with both coordinates even, zero elsewhere
        n = 4
        w = wigner_direct(maximally_mixed(n)).values
        expected = np.zeros((8, 8))
        expected[::2, ::2] = 1 / n**2
        assert np.abs(w - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_full_grid_sums_to_one(self, n):
        rng = np.random.default_rng(n + 100)
        for _ in range(10):
            w = wigner_direct(random_density_matrix(n, rng))
            assert w.values.sum() == pytest.approx(1.0, abs=1e-10)
            # equivalently: the even vertical lines carry the populations
            assert sum(
                line_sum(w, 0, -1, 2 * k) for k in range(n)
            ) == pytest.approx(1.0, abs=1e-10)

    def test_depolarized_grid_is_convex_combination(self):
        rho = basis_state(1, 4)
        w_pure = wigner_direct(rho).values
        w_mixed = wigner_direct(maximally_mixed(4)).values
        w_noisy = wigner_direct(pseudo_pure(1, 4, noise_p=0.15)).values
        assert np.abs(w_noisy - (0.85 * w_pure + 0.15 * w_mixed)).max() < 1e-12

    def test_imaginary_residue_guard(self):
        # a valid state never trips it
        w = wigner_direct(random_density_matrix(4, np.random.default_rng(1)))
        assert isinstance(w, WignerGrid)

    def test_rejects_non_state(self):
        with pytest.raises(InvalidValueError):
            wigner_direct(np.eye(4))


class TestCircuitRoute:
    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_direct_everywhere(self, n):
        rng = np.random.default_rng(60 + n)
        rho = random_density_matrix(n, rng)
        w = wigner_direct(rho).values
        for q, p in full_grid_points(n):
            via = wigner_via_circuit(rho, PhasePoint(q=q, p=p, n=n))
            assert abs(via - w[q, p]) < 1e-10

    def test_large_register_points_are_unitary(self):
        # Points where a dense, rounded product of shift powers fails the
        # 1e-12 unitarity check; the route runs 2N A(alpha) unchecked, so the
        # index map it is built from must pass that check.
        n = 128
        rho = random_density_matrix(n, np.random.default_rng(128))
        points = [(3, 77), (128, 64), (64, 200)]
        for q, p in points:
            scaled = 2 * n * phase_point_operator(PhasePoint(q=q, p=p, n=n))
            assert np.array_equal(assert_unitary(scaled), scaled)
        via = [wigner_via_circuit(rho, PhasePoint(q=q, p=p, n=n)) for q, p in points]
        w = wigner_direct(rho).values
        for (q, p), value in zip(points, via):
            assert abs(value - w[q, p]) < 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            wigner_via_circuit(maximally_mixed(2), PhasePoint(q=0, p=0, n=4))

    def test_one_type_check_and_one_budget_per_value(self, monkeypatch):
        # The budget reads the point and the state's shape before either is
        # checked; the probe readout it then runs budgets nothing.
        calls = record_calls(monkeypatch, phasespace, "_expect")
        record_calls(monkeypatch, phasespace, "check_qubit_budget", calls)
        record_calls(monkeypatch, scattering, "check_qubit_budget", calls)
        wigner_via_circuit(maximally_mixed(4), PhasePoint(q=1, p=2, n=4))
        assert calls == ["_expect", "check_qubit_budget"]

    @pytest.mark.parametrize(
        "rho,n,error",
        [
            (np.eye(2), 3, InvalidValueError),
            (maximally_mixed(2), 3, DimensionMismatchError),
            (maximally_mixed(3), 3, PowerOfTwoError),
        ],
        ids=["state", "mismatch", "power-of-two"],
    )
    def test_checks_come_in_order(self, rho, n, error):
        # Budget, state, size against the point's register, power of two: each
        # input fails every check after the one it is refused by.
        with pytest.raises(error):
            wigner_via_circuit(rho, PhasePoint(q=0, p=0, n=n))

    @pytest.mark.parametrize("dim,n", [(4096, 4096), (4096, 4), (4, 4096)])
    def test_register_over_budget_refused_before_the_operator_is_built(
        self, dim, n, monkeypatch
    ):
        def built(*args, **kwargs):
            raise AssertionError("2N A(alpha) was built")

        monkeypatch.setattr(phasespace, "_point_operator", built)
        view = np.broadcast_to(np.complex128(0), (dim, dim))  # zero-cost
        with pytest.raises(QubitBudgetError, match=r"1 probe \+ 12 system"):
            wigner_via_circuit(view, PhasePoint(q=0, p=0, n=n))

    def test_widest_register_reaches_the_operator(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(phasespace, "_point_operator", reached)
        monkeypatch.setattr(phasespace, "assert_density_matrix", lambda rho: rho)
        view = np.broadcast_to(np.complex128(0), (2048, 2048))
        with pytest.raises(Reached):
            wigner_via_circuit(view, PhasePoint(q=0, p=0, n=2048))


class TestReconstruction:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_round_trip(self, n):
        rng = np.random.default_rng(70 + n)
        for _ in range(10):
            rho = random_density_matrix(n, rng)
            rec = reconstruct(wigner_direct(rho))
            assert np.abs(rec.matrix - rho).max() < 1e-10
            assert rec.valid

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 16), rank=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
    def test_reconstruct_inverts_the_grid(self, n, rank, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, min(rank, n))) + 1j * rng.standard_normal((n, min(rank, n)))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert np.abs(reconstruct(wigner_direct(rho)).matrix - rho).max() < 1e-12

    def test_invalid_grid_is_flagged(self):
        rec = reconstruct(WignerGrid(n=2, values=np.zeros((4, 4))))
        assert not rec.valid
        assert np.abs(rec.matrix).max() == 0


class TestPairings:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_overlap_identity(self, n):
        rng = np.random.default_rng(80 + n)
        for _ in range(10):
            r1 = random_density_matrix(n, rng)
            r2 = random_density_matrix(n, rng)
            lhs = overlap_from_grids(wigner_direct(r1), wigner_direct(r2))
            assert lhs == pytest.approx(np.trace(r1 @ r2).real, abs=1e-10)

    def test_purity_from_grid(self):
        w = wigner_direct(basis_state(0, 4))
        assert overlap_from_grids(w, w) == pytest.approx(1.0, abs=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            overlap_from_grids(
                wigner_direct(maximally_mixed(2)), wigner_direct(maximally_mixed(4))
            )


class TestLineSums:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_vertical_even_lines_are_position_populations(self, n):
        rng = np.random.default_rng(90 + n)
        rho = random_density_matrix(n, rng)
        w = wigner_direct(rho)
        for k in range(n):
            assert line_sum(w, 0, -1, 2 * k) == pytest.approx(
                rho[k, k].real, abs=1e-10
            )

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_horizontal_even_lines_are_momentum_populations(self, n):
        rng = np.random.default_rng(95 + n)
        rho = random_density_matrix(n, rng)
        w = wigner_direct(rho)
        f = dft_matrix(n)
        mom = np.diag(f @ rho @ f.conj().T).real
        for s in range(n):
            assert line_sum(w, 1, 0, 2 * s) == pytest.approx(
                mom[(-s) % n], abs=1e-10
            )

    @pytest.mark.parametrize("n", [2, 4])
    def test_odd_lines_vanish(self, n):
        rho = random_density_matrix(n, np.random.default_rng(99))
        w = wigner_direct(rho)
        for k in range(n):
            assert abs(line_sum(w, 0, -1, 2 * k + 1)) < 1e-10
            assert abs(line_sum(w, 1, 0, 2 * k + 1)) < 1e-10

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize(
        "a,b,c",
        [(1, 0, 3), (0, -1, -2), (3, -5, 7), (-7, 2, -1), (17, 18, 40), (2, 4, 6),
         (-1, -1, 10**12 + 3), (10**15 + 3, -(10**13) - 1, -(10**14) - 1)],
    )
    def test_equals_the_explicit_sum_over_the_grid(self, n, a, b, c):
        # The cells with a*p - b*q = c (mod 2N), enumerated with Python integers
        # in row-major order (q, then p) and summed the way numpy sums a mask.
        w = wigner_direct(random_density_matrix(n, np.random.default_rng(70 + n)))
        m = 2 * n
        cells = [w.values[q, p] for q in range(m) for p in range(m) if (a * p - b * q - c) % m == 0]
        assert cells
        assert line_sum(w, a, b, c) == float(np.array(cells).sum())

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 64),
        a=st.integers(-(10**15), 10**15),
        b=st.integers(-(10**15), 10**15),
        c=st.integers(-(10**15), 10**15),
        # a common factor of a or b with 2N: rows with several cells, or
        # rows the line skips
        scale=st.tuples(*[st.sampled_from([1, 1, 2, 3, 4, 6, 8, 64])] * 2),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=3, a=0, b=1, c=2, scale=(1, 1), seed=1)
    @example(n=6, a=4, b=6, c=2, scale=(1, 1), seed=2)
    @example(n=6, a=4, b=6, c=1, scale=(1, 1), seed=3)  # misses every row
    @example(n=64, a=10**15, b=-(10**15) + 1, c=10**15, scale=(1, 1), seed=4)
    def test_equals_the_row_major_cell_sum(self, n, a, b, c, scale, seed):
        # Any real grid, every direction that is not (0, 0) mod 2N: the cells
        # enumerated with Python integers and summed as numpy sums a mask.
        m = 2 * n
        a, b = a * scale[0], b * scale[1]
        assume((a % m, b % m) != (0, 0))
        w = WignerGrid(n, np.random.default_rng(seed).standard_normal((m, m)))
        cells = [w.values[q, p] for q in range(m) for p in range(m) if (a * p - b * q - c) % m == 0]
        got, want = np.array(line_sum(w, a, b, c)), np.array(cells, dtype=float).sum()
        assert got.view(np.uint64) == want.view(np.uint64)

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 8, 32])
    def test_every_axis_line_equals_the_row_major_cell_sum(self, n):
        # Each coefficient prime to 2N makes one whole row (a = 0) or column
        # (b = 0); a shared factor makes several rows or columns, or none.
        # Values spread over ten decades, so a change of summation order
        # shows; the grid in each memory layout.
        m = 2 * n
        rng = np.random.default_rng(n)
        v = rng.standard_normal((m, m)) * 10.0 ** rng.uniform(-5, 5, (m, m))
        for values in layouts(v).values():
            w = WignerGrid(n, values)
            for u in range(1, m):
                for c in range(m):
                    # The line's cells in row-major order: whole rows q with
                    # -u q = c, or the columns p with u p = c, row by row.
                    rows = [q for q in range(m) if (-u * q - c) % m == 0]
                    cols = [p for p in range(m) if (u * p - c) % m == 0]
                    for (a, b), cells in (((0, u), v[rows]), ((u, 0), v[:, cols])):
                        got, want = np.array(line_sum(w, a, b, c)), cells.ravel().sum()
                        assert got.view(np.uint64) == want.view(np.uint64)

    def test_every_axis_line_at_n_1024(self):
        # All 4N axis-parallel lines of an N = 1024 grid: the populations in
        # position and momentum on the even lines, zero on the odd ones.
        n = 1024
        rho = random_density_matrix(n, np.random.default_rng(1024))
        w = wigner_direct(rho)
        f = dft_matrix(n)
        even = np.arange(2 * n) % 2 == 0
        pos = np.where(even, np.repeat(np.diag(rho).real, 2), 0.0)
        mom = np.where(even, np.repeat(np.diag(f @ rho @ f.conj().T).real[(-np.arange(n)) % n], 2), 0.0)
        got_pos = [line_sum(w, 0, -1, c) for c in range(2 * n)]
        got_mom = [line_sum(w, 1, 0, c) for c in range(2 * n)]
        assert np.abs(got_pos - pos).max() < 1e-10
        assert np.abs(got_mom - mom).max() < 1e-10

    def test_one_line_holds_memory_linear_in_n(self):
        # A boolean mask of the N = 512 grid would be 1 MiB; the line's own
        # indices and cells are a few 2N-entry arrays.
        n = 512
        w = WignerGrid(n, np.random.default_rng(512).standard_normal((2 * n, 2 * n)))
        for a, b, c in ((1, 0, 3), (0, -1, 4), (3, 5, 7), (2, 6, 8), (n, 3, 1)):
            line_sum(w, a, b, c)  # first-call allocations, before the baseline
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                line_sum(w, a, b, c)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2 * n  # 64 KiB, eight 2N-entry int64 arrays

    def test_rejects_degenerate_line(self):
        w = wigner_direct(maximally_mixed(2))
        with pytest.raises(InvalidValueError):
            line_sum(w, 0, 0, 1)
        with pytest.raises(InvalidValueError):
            line_sum(w, 1, 0, 0.5)

    @pytest.mark.parametrize("a,b,c", [(0, 8, 0), (8, 0, 3), (-16, 24, 1), (8, 8, 8)])
    def test_rejects_every_direction_that_is_zero_mod_2n(self, a, b, c):
        # (0, 8) mod 8 is (0, 0): no line, however the coefficients are written.
        w = wigner_direct(maximally_mixed(4))
        with pytest.raises(InvalidValueError, match=r"is \(0, 0\) mod 8"):
            line_sum(w, a, b, c)


class TestValidation:
    def test_phase_point_ranges(self):
        with pytest.raises(InvalidValueError):
            PhasePoint(q=8, p=0, n=4)
        with pytest.raises(InvalidValueError):
            PhasePoint(q=0, p=-1, n=4)
        with pytest.raises(InvalidValueError):
            PhasePoint(q=0, p=0, n=1)

    def test_grid_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            WignerGrid(n=4, values=np.zeros((4, 4)))

    def test_grid_over_budget_refused_before_validation(self):
        # zero-cost views: the trace-0 "state" would fail validation, so only
        # a budget check that runs first can raise QubitBudgetError
        with pytest.raises(QubitBudgetError, match=r"1 probe \+ 12 system"):
            wigner_direct(np.broadcast_to(np.complex128(0), (2049, 2049)))
        grid = WignerGrid(n=2049, values=np.broadcast_to(0.0, (4098, 4098)))
        with pytest.raises(QubitBudgetError, match=r"1 probe \+ 12 system"):
            reconstruct(grid)

    def test_largest_grid_passes_the_budget(self, monkeypatch):
        with pytest.raises(InvalidValueError, match="finite"):
            wigner_direct(np.broadcast_to(np.float64(np.nan), (2048, 2048)))

        class Reached(Exception):
            pass

        def fft(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(np.fft, "fft", fft)
        with pytest.raises(Reached):
            reconstruct(WignerGrid(n=2048, values=np.broadcast_to(0.0, (4096, 4096))))

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read in KiB on Linux")
    def test_grid_peak_memory_is_about_one_complex_grid(self):
        # The phase was once gathered through a (2N)^2 int64 index and a (2N)^2
        # complex gather: at N=1024 the call raised the process peak by 177 MB.
        # Applied per block of rows it adds about 86 MB, the 64 MB complex grid
        # and the 32 MB real result.
        code = textwrap.dedent(
            """
            import resource
            import numpy as np
            from qscatter.phasespace import wigner_direct
            rho = np.zeros((1024, 1024), dtype=complex)
            rho[0, 0] = 1.0
            np.linalg.eigvalsh(rho)  # LAPACK workspace, before the baseline
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            wigner_direct(rho)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
            """
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        cp = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, env=env, timeout=120)
        assert cp.returncode == 0, cp.stderr
        complex_grid = 2048**2 * 16
        assert int(cp.stdout) * 1024 < 1.75 * complex_grid

    def test_grid_must_be_finite(self):
        bad = np.zeros((4, 4))
        bad[0, 0] = np.inf
        with pytest.raises(InvalidValueError):
            WignerGrid(n=2, values=bad)

    @pytest.mark.parametrize("value", [1e308, -1e308, np.nextafter(1e100, np.inf), -2e100])
    def test_grid_values_beyond_the_bound_are_refused(self, value):
        # Finite, but a pairing, line sum or reconstruction of such a grid
        # would overflow to inf.
        bad = np.zeros((4, 4))
        bad[1, 2] = value
        with pytest.raises(InvalidValueError, match=r"at most 1e\+100 in magnitude, got "):
            WignerGrid(n=2, values=bad)

    @pytest.mark.parametrize("n", [2, 3, 64, 512])
    def test_every_grid_route_stays_finite_at_the_bound(self, n):
        # The suite turns RuntimeWarning into an error, so an overflow inside
        # any route fails here rather than returning inf.
        values = np.full((2 * n, 2 * n), phasespace.GRID_VALUE_BOUND)
        values[::3] *= -1
        grid = WignerGrid(n=n, values=values)
        assert np.isfinite(overlap_from_grids(grid, grid))
        for a, b, c in ((1, 0, 0), (0, -1, 1), (2, 6, 0), (1, 1, 3), (3, 5, 2)):
            assert np.isfinite(line_sum(grid, a, b, c))
        assert np.isfinite(reconstruct(grid).matrix).all()

    def test_the_largest_pairing_stays_finite_at_the_bound(self):
        # N (2N)^2 B^2 at N = 2048, the budget's largest grid: about 3.4e210.
        grid = WignerGrid(n=2048, values=np.broadcast_to(-phasespace.GRID_VALUE_BOUND,
                                                         (4096, 4096)))
        assert overlap_from_grids(grid, grid) == pytest.approx(2048 * 4096**2 * 1e200)
        assert line_sum(grid, 0, 2, 0) == pytest.approx(-2 * 4096 * 1e100)
