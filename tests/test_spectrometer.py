"""Tests for spectral estimation from traces of unitary powers.

The binning convention (2**n1 counter labels, label-to-phase map
phi = 4*pi*E/D for the density) is the one realized by the counter-register
circuit, and the circuit simulation is tested here as the ground truth the
direct Fourier formula must reproduce.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qscatter import spectrometer
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
from reference import (
    dft_matrix,
    random_unitary,
    shift_u,
    spectral_density_via_circuit_loop,
    trace_powers_loop,
)


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


class TestChunkedPowerSum:
    """The series is summed in blocks of rows lam ** t, bit for bit the per-t loop."""

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 64),
        haar=st.booleans(),
        t_max=st.integers(0, 4095),
        rows=st.integers(1, 128),
        seed=st.integers(0, 2**32 - 1),
    )
    # Chunks of 1 and 2 rows start at t = 2, 3 rows end on it and 4 straddle
    # it; 7 rows straddle t = 100, where numpy's power leaves repeated
    # multiplication for the library cpow and the series takes exp(t log lam);
    # 50 rows end a chunk on t = 99 and start the next on t = 100.
    @example(n=3, haar=True, t_max=4095, rows=7, seed=3)
    @example(n=3, haar=False, t_max=4095, rows=50, seed=8)
    @example(n=16, haar=True, t_max=150, rows=50, seed=9)
    @example(n=1, haar=True, t_max=100, rows=50, seed=10)
    @example(n=3, haar=False, t_max=200, rows=2, seed=4)
    @example(n=64, haar=True, t_max=4095, rows=4, seed=5)
    @example(n=1, haar=False, t_max=2, rows=1, seed=6)
    @example(n=5, haar=True, t_max=150, rows=3, seed=7)
    def test_series_equals_the_per_t_loop_bit_for_bit(self, n, haar, t_max, rows, seed):
        rng = np.random.default_rng(seed)
        if haar:
            u = random_unitary(n, rng)
        else:
            u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=n)))
        with pytest.MonkeyPatch.context() as mp:
            # A block of lam ** t holds 16 n bytes a row.
            mp.setattr(spectrometer, "_BABY_STACK_BYTES", rows * 16 * n)
            got = trace_powers(u, t_max).values
        want = trace_powers_loop(np.linalg.eigvals(u), t_max)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_block_is_chunked_under_the_cap(self, monkeypatch):
        # Unchunked, the N=64, t_max=4095 block alone is 4 MiB; under a 64 KiB
        # cap the whole call peaked at 419 KiB, self-check included.
        monkeypatch.setattr(spectrometer, "_BABY_STACK_BYTES", 64 << 10)
        u = random_unitary(64, np.random.default_rng(8))
        trace_powers(u, 4095)  # first-call allocations, before the baseline
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trace_powers(u, 4095)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPowerIdentity:
    """From |t| = 100 numpy's complex power calls libm's cpow, which glibc
    computes as cexp(t * clog(lam)): the identity the series rests on."""

    @staticmethod
    def _eigenvalues():
        rng = np.random.default_rng(12)
        d = 4096
        return np.concatenate([
            np.exp(1j * rng.uniform(0, 2 * np.pi, size=16)),  # unit modulus
            np.linalg.eigvals(random_unitary(16, rng)),  # modulus off 1 by rounding
            np.exp(4j * np.pi * rng.integers(d, size=16) / d),  # on counter labels
            [1, -1, 1j, -1j],
        ])

    def test_power_is_exp_of_t_log_from_t_100(self):
        lam = self._eigenvalues()
        t = np.arange(100, 4096)[:, None]
        want = lam ** t
        got = np.exp(t * np.log(lam))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_power_differs_below_t_100(self):
        lam = self._eigenvalues()
        t = np.arange(100)[:, None]
        differs = (np.exp(t * np.log(lam)).view(np.uint64) != (lam ** t).view(np.uint64))
        assert differs.any()


def _with_eigvals(monkeypatch, perturb):
    """Make every eigvals call return perturbed eigenvalues."""
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: perturb(eigvals(a)))


def _count_products(monkeypatch, n):
    """A list that gains one entry per np.matmul call on two n x n operands."""
    calls, matmul = [], np.matmul

    def counted(a, b, *args, **kwargs):
        if np.shape(a) == np.shape(b) == (n, n):
            calls.append(n)
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    return calls


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

    def test_phase_drift_fails_at_the_same_t_when_memory_sets_m(self, monkeypatch):
        # The cap holds two 8 x 8 powers, so m = 3, not sqrt(4095) + 1 = 64:
        # 2 stack products, then a giant step by U^3 after each of the giants
        # at t = 1, 4, .., 4090.
        monkeypatch.setattr(spectrometer, "_BABY_STACK_BYTES", 2 * 16 * 8 * 8)
        calls = _count_products(monkeypatch, 8)
        self.test_phase_drift_fails_at_the_first_t_past_tolerance(monkeypatch)
        assert len(calls) == 2 + 1364


class TestSelfCheckCost:
    """Baby steps U^1 .. U^m stacked, giants stepped by U^m into one spare."""

    @pytest.mark.parametrize(
        ("n", "t_max", "products", "peak"),
        [
            (256, 127, 29, 7.25),  # m = 5: 4 stack products, 25 giant steps
            (512, 31, 16, 4.25),  # m = 2: 1 stack product, 15 giant steps
        ],
    )
    def test_products_and_peak_on_the_default_cap(self, monkeypatch, n, t_max, products, peak):
        # The peak of the whole call, in n x n complex arrays, is the check's
        # m stacked powers, the giant and its spare: 7 at N=256, 4 at N=512.
        u = random_unitary(n, np.random.default_rng(n))
        with monkeypatch.context() as mp:
            calls = _count_products(mp, n)
            trace_powers(u, t_max)  # first-call allocations, before the baseline
        assert len(calls) == products
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trace_powers(u, t_max)
            used = (tracemalloc.get_traced_memory()[1] - base) / (16 * n * n)
        finally:
            tracemalloc.stop()
        assert used < peak


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

    @pytest.mark.parametrize("route,dim,n1", [
        pytest.param(route, dim, n1, id=f"{prefix}{dim}-{n1}")
        for route, prefix in (
            (spectral_density, ""), (spectral_density_via_circuit, "via_circuit-"))
        for dim, n1 in ((2, 3), (4, 3), (4, 4), (8, 2))
    ])
    def test_sum_rule(self, route, dim, n1):
        u = random_unitary(dim, np.random.default_rng(dim * n1))
        s = route(u, n1)
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

    @pytest.mark.parametrize("route", [
        lambda u: trace_powers(u, 3),
        lambda u: spectral_density(u, 2),
        lambda u: structure_function(u, 2),
    ], ids=["trace_powers", "spectral_density", "structure_function"])
    def test_system_is_held_to_the_budget(self, route, monkeypatch):
        # Shape-only views: a side of 2**12 reaches the unitarity check, one
        # more is refused before it.
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(spectrometer, "assert_unitary", reached)
        with pytest.raises(Reached):
            route(np.broadcast_to(np.complex128(0), (1 << QUBIT_BUDGET,) * 2))
        with pytest.raises(QubitBudgetError, match=r"\(13 system\)"):
            route(np.broadcast_to(np.complex128(0), ((1 << QUBIT_BUDGET) + 1,) * 2))


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

    @pytest.mark.parametrize(
        "shape,axis",
        [((4, 1, 1), 0), ((128, 16, 16), 0), ((16, 64, 64), 0),
         ((16, 16, 128), -1), ((64, 64, 16), -1), ((512, 512, 4), -1)],
        ids=lambda case: "x".join(map(str, case)) if isinstance(case, tuple) else f"axis{case}",
    )
    def test_in_place_counter_fourier_transform_equals_out_of_place(self, shape, axis):
        # The counter circuit writes its Fourier gate over its own register,
        # along the counter axis, innermost (-1); axis 0 is the strided case.
        rng = np.random.default_rng(shape[axis])
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = np.fft.fft(x, axis=axis, norm="ortho")
        got = np.fft.fft(x, axis=axis, norm="ortho", out=x)
        assert got is x
        assert np.array_equal(x.view(np.uint64), want.view(np.uint64))

    def test_budget_enforced(self):
        with pytest.raises(QubitBudgetError, match="1 probe"):
            spectral_density_via_circuit(np.eye(2), 11)  # 1 + 11 + 1 = 13

    def test_budget_edge_is_allowed(self):
        # 1 + 8 + 3 = 12 qubits: the largest admissible register
        u = np.diag(np.exp(2j * np.pi * np.arange(8) / 8))
        s = spectral_density_via_circuit(u, 8)
        assert np.abs(s.bins - spectral_density(u, 8).bins).max() < 1e-9


# How far the circuit's bins may sit from the gate-by-gate loop's.
CIRCUIT_TOL = 2e-15


class TestCircuitGateByGate:
    """The label loop applies the power map as one scale of the powers by the
    first Fourier gate's output and reads both probe branches from the
    register's squared norm, one dot product over the whole register, and
    from the diagonal of slice E, where the probe-0 branch lies. The scale
    rounds apart from the loop's matrix product, so the bins are held to the
    gates applied to the whole register within CIRCUIT_TOL (6.7e-16
    measured, n1 = 2 ... 11, N = 1 ... 512)."""

    @settings(max_examples=25, deadline=None)
    @given(
        # (n1, system wires) within the budget beside the probe
        shape=st.integers(0, 6).flatmap(
            lambda w: st.tuples(st.integers(2, QUBIT_BUDGET - 1 - w), st.just(w))
        ),
        kind=st.sampled_from(["haar", "labels", "diagonal"]),
        seed=st.integers(0, 2**32 - 1),
    )
    # The budget edges at N = 1, 2, 16 and 64 and the smallest counter at
    # N = 64; eigenphases on labels make exact and signed zeros.
    @example(shape=(11, 0), kind="haar", seed=1)
    @example(shape=(10, 1), kind="labels", seed=2)
    @example(shape=(5, 6), kind="haar", seed=3)
    @example(shape=(2, 6), kind="labels", seed=4)
    @example(shape=(7, 4), kind="labels", seed=5)
    def test_bins_meet_the_gate_by_gate_loop_within_tolerance(self, shape, kind, seed):
        n1, wires = shape
        n, d = 1 << wires, 1 << n1
        rng = np.random.default_rng(seed)
        if kind == "haar":
            u = random_unitary(n, rng)
        elif kind == "labels":  # eigenphases 4 pi E / D on counter labels
            u = np.diag(np.exp(4j * np.pi * rng.integers(d, size=n) / d))
        else:
            u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=n)))
        got = spectral_density_via_circuit(u, n1).bins
        want = spectral_density_via_circuit_loop(u, n1)
        assert np.abs(got - want).max() < CIRCUIT_TOL

    @pytest.mark.parametrize("n1,n", [(2, 512), (3, 256), (4, 128)])
    def test_large_system_budget_edges_meet_the_loop(self, n1, n):
        # 12 qubits with the largest systems, which the property above never
        # draws: one dot product then sums N^2 D amplitudes.
        u = random_unitary(n, np.random.default_rng(n1))
        got = spectral_density_via_circuit(u, n1).bins
        assert np.abs(got - spectral_density_via_circuit_loop(u, n1)).max() < CIRCUIT_TOL

    @staticmethod
    def _peak_in_arrays(n1, n):
        """The route's traced peak, counted in arrays of D * N^2 complex entries."""
        u = random_unitary(n, np.random.default_rng(n1))
        spectral_density_via_circuit(u, n1)  # first-call allocations, before the baseline
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            spectral_density_via_circuit(u, n1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / ((16 << n1) * n * n)

    @pytest.mark.parametrize("n1,n", [(6, 32), (7, 16), (4, 64), (2, 512), (3, 256)])
    def test_peak_memory_under_three_arrays(self, n1, n):
        # The powers and one register, with no weight array, make 2.0
        # (2.0-2.3 measured with the FFT's buffers); the gate-by-gate loop
        # peaks at 6.0.
        assert self._peak_in_arrays(n1, n) < 3.0

    @pytest.mark.parametrize("n1,n", [(6, 32), (7, 16), (4, 64)])
    def test_peak_memory_under_four_and_a_quarter_arrays(self, n1, n):
        # The ceiling the route kept while it still built a weight array
        # (3.7-3.9 measured then); the pin above is the tighter one.
        assert self._peak_in_arrays(n1, n) < 4.25


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


class TestFourierFormulas:
    """Each Fourier route's bins are its formula applied to the trace series,
    normalized after the transform, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 32),
        n1=st.integers(2, 8),
        haar=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bins_equal_the_formula_bit_for_bit(self, n, n1, haar, seed):
        rng = np.random.default_rng(seed)
        if haar:
            u = random_unitary(n, rng)
        else:
            u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=n)))
        d = 1 << n1
        values = trace_powers(u, d - 1).values
        density = np.fft.fft(values)[(2 * np.arange(d)) % d].real / (n * d)
        structure = np.fft.fft(np.abs(values) ** 2).real / (n**2 * d)
        for got, want in ((spectral_density(u, n1), density), (structure_function(u, n1), structure)):
            assert got.bins.view(np.uint64).tolist() == want.view(np.uint64).tolist()


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
