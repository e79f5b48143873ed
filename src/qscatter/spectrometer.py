"""Spectral readout of a unitary through a probe-controlled counter register.

The circuit uses three registers: the probe qubit (wire 0), an n1-qubit
counter prepared in the basis state |E>, and the system register in the
maximally mixed state I/N. Between the probe Hadamards the probe controls a
Fourier transform on the counter, the power map |t>|n> -> |t> U^t |n>, and a
second Fourier transform. With D = 2**n1 counter labels the probe z
polarization evaluates to

    g[E] = Re( sum_{t=0}^{D-1} exp(-4 pi i E t / D) Tr(U^t) ) / (N * D)

the eigenphase density of U smoothed to the counter resolution: a diagonal U
with eigenphase phi produces a peak at the label E where 4 pi E / D = phi
(mod 2 pi). Because that argument advances two full turns while E sweeps the
labels once, the series repeats exactly with period D/2, and summing all
bins gives 1 + Re Tr(U^(D/2)) / N (the doubled kernel aliases t = D/2 onto
t = 0).

The structure function applies the single-turn kernel exp(-2 pi i E t / D)
to |Tr(U^t)|^2 / N^2 instead, measuring correlations between eigenphases.

Both Fourier routes read Tr(U^t) from the eigenvalues of U, checked at every
t against products of U itself: baby steps U^0 .. U^(m-1) and giant steps
U^(am), about 2 sqrt(t_max) matrix products instead of t_max (Paterson and
Stockmeyer, SIAM J. Comput. 2, 60, 1973). The circuit route simulates the
three registers with ``np.fft`` as the counter Fourier gate and one batched
product as the power map. Every route holds the counter to the qubit budget,
so n1 <= 12 (and t_max < 2**12) before any work starts.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValueError
from .linalg import as_real_array, assert_unitary, check_int, check_qubit_budget, largest_side
from .linalg import qubit_count, wire_count

_SERIES_SELF_CHECK_TOL = 1e-9
_BABY_STACK_BYTES = 4 << 20  # caps the self-check's stack of baby-step powers


@dataclass(frozen=True)
class TraceSeries:
    """Tr(U^t) for t = 0 .. t_max; values[0] is the dimension."""

    dim: int
    values: np.ndarray

    @property
    def t_max(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class SpectralSeries:
    """Real bins over all counter labels E = 0 .. 2**n1 - 1.

    ``phase_multiple`` is 2 for the eigenphase density (label-to-phase map
    phi = 4 pi E / D, series periodic with period D/2) and 1 for the
    structure function (phi = 2 pi E / D).
    """

    n1: int
    bins: np.ndarray
    phase_multiple: int = 2

    def __post_init__(self):
        object.__setattr__(self, "n1", check_int(self.n1, "n1", 0, 64))
        check_int(self.phase_multiple, "phase multiple", 1, 3)
        b = as_real_array(self.bins, "spectral bins")
        if b.shape != (1 << self.n1,):
            raise InvalidValueError(
                f"series for n1={self.n1} needs {1 << self.n1} bins, got shape {b.shape}"
            )
        object.__setattr__(self, "bins", b)

    @property
    def num_labels(self) -> int:
        return 1 << self.n1

    @property
    def t_max(self) -> int:
        return (1 << self.n1) - 1

    @property
    def phases(self) -> np.ndarray:
        d = self.num_labels
        return (2 * np.pi * self.phase_multiple * np.arange(d) / d) % (2 * np.pi)


def trace_powers(u: np.ndarray, t_max: int) -> TraceSeries:
    """Trace of every power of U up to t_max < 2**QUBIT_BUDGET.

    Evaluated from the eigenvalues and cross-checked at every t against
    matrix products of U: with m baby-step powers B_b = U^b and giant steps
    G_a = U^(am), Tr(U^(am+b)) = sum(G_a * B_b^T), one matrix-vector product
    per giant step. Disagreement beyond 1e-9 at any t aborts, naming the first
    such t, rather than returning a silently wrong series.
    """
    t_max = check_int(t_max, "t_max", 0)
    check_qubit_budget(counter=t_max.bit_length())
    u = assert_unitary(u)
    n = u.shape[0]
    lam = np.linalg.eigvals(u)
    values = np.array([np.sum(lam**t) for t in range(t_max + 1)])

    m = max(1, min(math.isqrt(t_max) + 1, _BABY_STACK_BYTES // (16 * n * n)))
    baby = np.empty((m, n, n), dtype=complex)  # baby[b] = (U^b)^T
    baby[0] = np.eye(n)
    for b in range(1, m):
        baby[b] = baby[b - 1] @ u.T
    stack = baby.reshape(m, n * n)
    giant_step = (baby[m - 1] @ u.T).T  # U^m
    giant = np.eye(n, dtype=complex)
    products = np.empty(t_max + 1, dtype=complex)
    for start in range(0, t_max + 1, m):
        count = min(m, t_max + 1 - start)
        products[start:start + count] = stack[:count] @ giant.ravel()
        if start + m <= t_max:
            giant = giant @ giant_step
    failed = np.flatnonzero(np.abs(products - values) > _SERIES_SELF_CHECK_TOL)
    if failed.size:
        raise InvalidValueError(
            f"trace series self-check failed at t={failed[0]}: eigenvalue and "
            f"iterated-product routes disagree beyond 1e-9"
        )
    return TraceSeries(dim=n, values=values)


def _check_n1(n1) -> int:
    n1 = check_int(n1, "counter register n1", 2)
    check_qubit_budget(counter=n1)
    return n1


def spectral_density(u: np.ndarray, n1: int) -> SpectralSeries:
    """Eigenphase density bins from the Fourier transform of the trace series."""
    n1 = _check_n1(n1)
    d = 1 << n1
    ts = trace_powers(u, d - 1)  # checks u
    f = np.fft.fft(ts.values)  # f[k] = sum_t values[t] exp(-2 pi i k t / D)
    bins = f[(2 * np.arange(d)) % d].real / (ts.dim * d)
    return SpectralSeries(n1=n1, bins=bins, phase_multiple=2)


def structure_function(u: np.ndarray, n1: int) -> SpectralSeries:
    """Fourier transform of |Tr(U^t)|^2 / N^2 over the counter labels."""
    n1 = _check_n1(n1)
    d = 1 << n1
    ts = trace_powers(u, d - 1)  # checks u
    f = np.fft.fft(np.abs(ts.values) ** 2)
    bins = f.real / (ts.dim**2 * d)
    return SpectralSeries(n1=n1, bins=bins, phase_multiple=1)


def spectral_density_via_circuit(u: np.ndarray, n1: int) -> SpectralSeries:
    """Simulate the three-register circuit for every counter label.

    The system enters as I/N, decomposed into computational basis states that
    are evolved as state vectors in one batch, one (D, N, N) array per label;
    the probe z polarization is read off the final amplitudes. On the probe-1
    branch the counter Fourier gate is an orthonormal FFT over the counter
    axis and the power map |t>|n> -> |t> U^t |n> one batched matrix product.
    The joint register (probe + counter + system) must fit the 12-qubit budget.
    """
    n1 = check_int(n1, "counter register n1", 2)
    check_qubit_budget(probe=1, counter=n1, system=wire_count(largest_side(u)))
    u = assert_unitary(u)
    n = u.shape[0]
    qubit_count(n)  # the register needs a power-of-two dimension
    d = 1 << n1

    upow = np.empty((d, n, n), dtype=complex)
    upow[0] = np.eye(n)
    for t in range(1, d):
        upow[t] = u @ upow[t - 1]

    bins = np.empty(d)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for energy in range(d):
        # Columns track the N pure-state components of the mixed system input.
        psi0 = np.zeros((d, n, n), dtype=complex)
        psi0[energy] = np.eye(n)
        # Probe Hadamard splits |0> into equal branches.
        psi1 = psi0 * inv_sqrt2
        psi0 = psi0 * inv_sqrt2
        # Controlled blocks act on the probe-1 branch only. The Fourier gate
        # has the analysis kernel sign, exp(-2 pi i E k / D) / sqrt(D).
        psi1 = np.fft.fft(psi1, axis=0, norm="ortho")
        psi1 = np.matmul(upow, psi1)
        psi1 = np.fft.fft(psi1, axis=0, norm="ortho")
        # Closing probe Hadamard, then <sigma_z> from the branch norms,
        # averaged over the mixture.
        top = (psi0 + psi1) * inv_sqrt2
        bot = (psi0 - psi1) * inv_sqrt2
        bins[energy] = (
            np.sum(np.abs(top) ** 2) - np.sum(np.abs(bot) ** 2)
        ) / n
    return SpectralSeries(n1=n1, bins=bins, phase_multiple=2)
