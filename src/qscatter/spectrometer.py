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
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidValueError
from .linalg import assert_unitary, check_qubit_budget, dft_matrix, qubit_count

_SERIES_SELF_CHECK_TOL = 1e-9


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
        b = np.asarray(self.bins, dtype=float)
        if len(b) != 1 << self.n1:
            raise InvalidValueError(
                f"series for n1={self.n1} needs {1 << self.n1} bins, got {len(b)}"
            )
        if not np.isfinite(b).all():
            raise InvalidValueError("spectral bins must be finite")
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
    """Trace of every power of U up to t_max.

    Evaluated from the eigenvalues and cross-checked against repeated matrix
    multiplication; disagreement beyond 1e-9 aborts rather than returning a
    silently wrong series.
    """
    u = assert_unitary(u)
    if not (isinstance(t_max, (int, np.integer)) and t_max >= 0):
        raise InvalidValueError(f"t_max must be a non-negative integer, got {t_max!r}")
    n = u.shape[0]
    lam = np.linalg.eigvals(u)
    values = np.array([np.sum(lam**t) for t in range(t_max + 1)])

    acc = np.eye(n, dtype=complex)
    for t in range(t_max + 1):
        if abs(np.trace(acc) - values[t]) > _SERIES_SELF_CHECK_TOL:
            raise InvalidValueError(
                f"trace series self-check failed at t={t}: eigenvalue and "
                f"iterated-product routes disagree beyond 1e-9"
            )
        if t < t_max:
            acc = acc @ u
    return TraceSeries(dim=n, values=values)


def _check_n1(n1) -> int:
    if not (isinstance(n1, (int, np.integer)) and n1 >= 2):
        raise InvalidValueError(f"counter register needs n1 >= 2 qubits, got {n1!r}")
    return int(n1)


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
    are evolved as state vectors in one batch; the probe z polarization is
    read off the final amplitudes. Controlled blocks are applied as full
    matrices on their register slice. The joint register (probe + counter +
    system) must fit the 12-qubit budget.
    """
    u = assert_unitary(u)
    n1 = _check_n1(n1)
    n = u.shape[0]
    k = qubit_count(n)
    check_qubit_budget(1 + n1 + k, f" (1 probe + {n1} counter + {k} system)")
    d = 1 << n1
    fbar = dft_matrix(d).conj()  # Fourier gate with the analysis kernel sign

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
        # Controlled blocks act on the probe-1 branch only.
        psi1 = np.tensordot(fbar, psi1, axes=(1, 0))
        psi1 = np.einsum("tij,tjc->tic", upow, psi1)
        psi1 = np.tensordot(fbar, psi1, axes=(1, 0))
        # Closing probe Hadamard, then <sigma_z> from the branch norms,
        # averaged over the mixture.
        top = (psi0 + psi1) * inv_sqrt2
        bot = (psi0 - psi1) * inv_sqrt2
        bins[energy] = (
            np.sum(np.abs(top) ** 2) - np.sum(np.abs(bot) ** 2)
        ) / n
    return SpectralSeries(n1=n1, bins=bins, phase_multiple=2)
