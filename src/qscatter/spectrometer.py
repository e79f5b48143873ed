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

The Fourier routes transform the series ``trace_powers`` returns;
``spectral_density_via_circuit`` simulates the circuit itself.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValueError
from .linalg import as_real_array, as_square_matrix, assert_unitary, check_int
from .linalg import check_qubit_budget, largest_side, qubit_count, wire_count

_SERIES_SELF_CHECK_TOL = 1e-9
_BABY_STACK_BYTES = 4 << 20  # caps the self-check's baby-step stack and each block of powers
_CPOW_FROM = 100  # numpy's complex power multiplies repeatedly below this |t|, calls cpow from it


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
        multiple = check_int(self.phase_multiple, "phase multiple", 1, 3)
        object.__setattr__(self, "phase_multiple", multiple)
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
    """Trace of every power of U up to t_max < 2**QUBIT_BUDGET, for U of side
    N <= 2**QUBIT_BUDGET; each limit is checked alone, from t_max and U's
    shape, before U is read.

    Evaluated from the eigenvalues lam as sum(lam**t), in blocks of rows of
    powers, at most 4 MiB each, summed along each row. Rows t < 100 are
    lam ** t, numpy's power, which multiplies repeatedly there, and row t = 2
    is lam**2, numpy's square. From t = 100 on numpy's power calls libm's
    cpow, which glibc computes as cexp(t * clog(lam)); those rows are
    exp(t * log(lam)), the log taken once per call and the exp run in place,
    which rounds identically at a fraction of the cost. So every value has
    the bits of its own np.sum(lam**t). The series is cross-checked at every
    t against matrix products of U: with m baby-step powers B_b = U^b and
    giant steps G_a = U^(am), Tr(U^(am+b)) = sum(G_a * B_b^T), one
    matrix-vector product per giant step, so about m + t_max/m matrix
    products instead of t_max (Paterson and Stockmeyer, SIAM J. Comput. 2,
    60, 1973). m is about sqrt(t_max), capped by a 4 MiB stack of baby
    steps: 35 products at N=256 and t_max=127 (m = 4), and m = 1, so t_max
    products, for N >= 512. Disagreement beyond 1e-9 at any t
    aborts, naming the first such t, rather than returning a silently wrong
    series.
    """
    t_max = check_int(t_max, "t_max", 0)
    check_qubit_budget(counter=t_max.bit_length())
    check_qubit_budget(system=wire_count(largest_side(u)))
    u = assert_unitary(u)
    n = u.shape[0]
    lam = np.linalg.eigvals(u)
    log_lam = np.log(lam)
    values = np.empty(t_max + 1, dtype=complex)
    rows = max(1, _BABY_STACK_BYTES // (16 * n))  # one block holds rows x n powers
    edges = sorted({*range(0, t_max + 1, rows), min(_CPOW_FROM, t_max + 1), t_max + 1})
    for lo, hi in zip(edges, edges[1:]):  # no block straddles t = 100
        t = np.arange(lo, hi)[:, None]
        if lo < _CPOW_FROM:
            block = lam ** t
        else:
            block = t * log_lam
            np.exp(block, out=block)
        values[lo:hi] = block.sum(axis=1)
    if t_max >= 2:  # a scalar 2 takes numpy's square, an array exponent does not
        values[2] = np.sum(lam**2)

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


def _fourier_series(u: np.ndarray, n1, multiple: int) -> SpectralSeries:
    # The FFT of the trace series, read at k = multiple * E: Tr(U^t) / N for
    # the density (multiple 2), |Tr(U^t)|^2 / N^2 for the structure function
    # (multiple 1), normalized after the transform.
    n1 = check_int(n1, "counter register n1", 2)
    check_qubit_budget(counter=n1)
    d = 1 << n1
    ts = trace_powers(u, d - 1)  # checks u
    series, norm = (ts.values, ts.dim) if multiple == 2 else (np.abs(ts.values) ** 2, ts.dim**2)
    f = np.fft.fft(series)  # f[k] = sum_t series[t] exp(-2 pi i k t / D)
    bins = f[(multiple * np.arange(d)) % d].real / (norm * d)
    return SpectralSeries(n1=n1, bins=bins, phase_multiple=multiple)


def spectral_density(u: np.ndarray, n1: int) -> SpectralSeries:
    """Eigenphase density bins from the Fourier transform of the trace series."""
    return _fourier_series(u, n1, 2)


def structure_function(u: np.ndarray, n1: int) -> SpectralSeries:
    """Fourier transform of |Tr(U^t)|^2 / N^2 over the counter labels."""
    return _fourier_series(u, n1, 1)


def spectral_density_via_circuit(u: np.ndarray, n1: int) -> SpectralSeries:
    """Simulate the three-register circuit for every counter label.

    The system enters as I/N, decomposed into computational basis states that
    are evolved as state vectors in one batch, one (D, N, N) array per label;
    the probe z polarization is read off the final amplitudes. On the probe-1
    branch the counter Fourier gate is an orthonormal FFT over the counter
    axis. The first meets the basis state |E>, scaled by the probe Hadamard,
    and leaves slice t as c_t I, so the power map |t>|n> -> |t> U^t |n> is
    one elementwise scale, c_t U^t, and the second gate runs in place. Off
    slice E the probe-0 branch is zero, so both closing-Hadamard branches
    have the weight |f|^2 / 2 of the probe-1 amplitudes f there: half the
    squared norm of the register before and after slice E, one dot product
    each; each branch adds the squared norm of its own slice E. The scale
    rounds apart from a product with c_t I: the bins meet the gates applied
    one by one to the full register within 2e-15, not bit for bit. The joint
    register (probe + counter + system) must fit the 12-qubit budget.
    """
    n1 = check_int(n1, "counter register n1", 2)
    check_qubit_budget(probe=1, counter=n1, system=wire_count(largest_side(u)))
    u = as_square_matrix(u)
    qubit_count(u.shape[0])  # a power-of-two register, before the O(N^3) unitarity check
    u = assert_unitary(u)
    n = u.shape[0]
    d = 1 << n1

    upow = np.empty((d, n, n), dtype=complex)
    upow[0] = np.eye(n)
    for t in range(1, d):
        upow[t] = u @ upow[t - 1]

    bins = np.empty(d)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    label = np.zeros(d, dtype=complex)  # the probe-1 half of the counter input
    final = np.empty_like(upow)
    psi0 = np.eye(n, dtype=complex) * inv_sqrt2  # the probe-0 branch, slice E only
    slice_e = np.empty((2, n, n), dtype=complex)  # slice E of both closing branches
    for energy in range(d):
        # Probe Hadamard, then the counter Fourier gate on the probe-1 branch,
        # with the analysis kernel sign exp(-2 pi i E k / D) / sqrt(D).
        label[energy] = inv_sqrt2
        coeff = np.fft.fft(label, norm="ortho")
        label[energy] = 0
        # The power map takes slice t, coeff[t] I, to coeff[t] U^t.
        np.multiply(upow, coeff[:, None, None], out=final)
        np.fft.fft(final, axis=0, norm="ortho", out=final)  # out= from numpy 2.0
        # Closing probe Hadamard, then <sigma_z> from the branch norms,
        # averaged over the mixture.
        before, after = final[:energy], final[energy + 1:]
        rest = (np.vdot(before, before).real + np.vdot(after, after).real) / 2
        np.add(psi0, final[energy], out=slice_e[0])
        np.subtract(psi0, final[energy], out=slice_e[1])
        slice_e *= inv_sqrt2
        top = rest + np.vdot(slice_e[0], slice_e[0]).real
        bottom = rest + np.vdot(slice_e[1], slice_e[1]).real
        bins[energy] = (top - bottom) / n
    return SpectralSeries(n1=n1, bins=bins, phase_multiple=2)
