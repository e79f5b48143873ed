"""Reference values computed with plain numpy, independent of qscatter's routes.

Every benchmark job is checked against one of these. None of them calls into
qscatter, so a fault in the route under test cannot also corrupt its oracle.
"""

import numpy as np


def random_state(n: int, rng) -> np.ndarray:
    """Full-rank density matrix G G^dagger / Tr(G G^dagger)."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def pseudo_pure_state(n: int, label: int, noise_p: float) -> np.ndarray:
    """(1 - p) |label><label| + p I/N."""
    rho = np.eye(n, dtype=complex) * (noise_p / n)
    rho[label, label] += 1.0 - noise_p
    return rho


def haar_unitary(n: int, rng) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def unitary_with_phases(phases: np.ndarray, rng, diagonal: bool) -> np.ndarray:
    """A unitary whose eigenphases are ``phases``: diagonal, or rotated by a Haar V."""
    d = np.exp(1j * phases)
    if diagonal:
        return np.diag(d)
    v = haar_unitary(len(phases), rng)
    return (v * d) @ v.conj().T


def trace(u: np.ndarray, rho: np.ndarray) -> complex:
    """Tr(U rho) as an elementwise sum."""
    return complex(np.sum(u * rho.T))


def wigner_grid(rho: np.ndarray) -> np.ndarray:
    """2N x 2N grid W[q, p] = Re Tr[A(q, p) rho], one FFT per anti-diagonal of rho."""
    n = rho.shape[0]
    m = 2 * n
    j = np.arange(n)
    p = np.arange(m)
    w = np.empty((m, m))
    for q in range(m):
        f = np.fft.fft(rho[j, (q - j) % n])
        w[q] = (np.exp(1j * np.pi * ((p * q) % m) / n) / m * f[p % n]).real
    return w


def phase_point(n: int, q: int, p: int) -> np.ndarray:
    """A(q, p) = U^q R V^(-p) exp(i pi p q / N) / 2N built from index maps."""
    x = np.arange(n)
    r = np.zeros((n, n), dtype=complex)
    r[(q - x) % n, x] = np.exp(-2j * np.pi * p * x / n)  # U^q R V^-p on |x>
    return r * (np.exp(1j * np.pi * ((p * q) % (2 * n)) / n) / (2 * n))


def momentum_populations(rho: np.ndarray) -> np.ndarray:
    """Diagonal of F^dagger rho F with F[j, k] = exp(+2 pi i j k / N) / sqrt(N)."""
    n = rho.shape[0]
    k = np.arange(n)
    f = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return np.einsum("ak,ab,bk->k", f.conj(), rho, f).real


def _trace_series(phases: np.ndarray, d: int) -> np.ndarray:
    t = np.arange(d)
    return np.exp(1j * np.outer(t, phases)).sum(axis=1)


def spectral_density(phases: np.ndarray, n1: int) -> np.ndarray:
    """g[E] = Re sum_t exp(-4 pi i E t / D) Tr(U^t) / (N D) from known eigenphases."""
    d = 1 << n1
    f = np.fft.fft(_trace_series(phases, d))  # f[k] = sum_t exp(-2 pi i k t / D) Tr(U^t)
    return f[(2 * np.arange(d)) % d].real / (len(phases) * d)


def structure_function(phases: np.ndarray, n1: int) -> np.ndarray:
    """Fourier transform of |Tr(U^t)|^2 / N^2 over the counter labels."""
    d = 1 << n1
    f = np.fft.fft(np.abs(_trace_series(phases, d)) ** 2)
    return f.real / (len(phases) ** 2 * d)


def counter_phases(d: int) -> np.ndarray:
    """The eigenphase 4 pi E / D of every counter label E."""
    return (4 * np.pi * np.arange(d) / d) % (2 * np.pi)


def circuit_matrix(gates: list, num_qubits: int) -> np.ndarray:
    """Dense matrix of a gate list made of permutation and phase gates.

    Gates are JSON records as ``qscatter synth`` prints them; wire 0 is the
    most significant bit. Every basis state is tracked as (index, phase), so
    the result is exact up to the rounding of exp(i theta).
    """
    dim = 1 << num_qubits
    idx = np.arange(dim)
    phase = np.ones(dim, dtype=complex)

    def bit(w):
        return (idx >> (num_qubits - 1 - w)) & 1

    for g in gates:
        kind, t = g["kind"], g["targets"]
        if kind in ("PauliX", "CNOT", "Toffoli"):
            on = np.ones(dim, dtype=bool)
            for c in t[:-1]:
                on &= bit(c) == 1
            idx = np.where(on, idx ^ (1 << (num_qubits - 1 - t[-1])), idx)
        elif kind in ("PhaseShift", "ControlledPhase"):
            on = np.ones(dim, dtype=bool)
            for w in t:
                on &= bit(w) == 1
            phase = np.where(on, phase * np.exp(1j * g["theta"]), phase)
        else:
            raise ValueError(f"gate kind {kind!r} is not a permutation or phase gate")
    m = np.zeros((dim, dim), dtype=complex)
    m[idx, np.arange(dim)] = phase
    return m


def controlled_point_operator(n: int, q: int, p: int, num_qubits: int) -> np.ndarray:
    """|0><0| (x) I + |1><1| (x) 2N A(q, p), padded with identity work wires."""
    block = np.eye(2 * n, dtype=complex)
    block[n:, n:] = 2 * n * phase_point(n, q, p)
    return np.kron(block, np.eye((1 << num_qubits) // (2 * n)))
