"""Dense reference operators the tests hold the library's fast routes to,
seeded random states and unitaries, the reading of the gate records the
library writes, and a call recorder for the tests that count checks."""

import numpy as np

from qscatter.circuits import GateOp
from qscatter.errors import InvalidValueError
from qscatter.io import matrix_from_payload


def dft_matrix(n: int) -> np.ndarray:
    """Unitary discrete Fourier matrix with kernel exp(+2*pi*i*p*q/n)/sqrt(n).

    Row index is the output (momentum) label, column index the input
    (position) label. The plus sign in the kernel is load-bearing: it fixes
    which diagonal operator plays the momentum shift in the phase-space
    module, and the tests pin it via dft_matrix(4)[1, 1] == i/2.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidValueError(f"DFT size must be a positive integer, got {n!r}")
    p, q = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * p * q / n) / np.sqrt(n)


def shift_u(n: int) -> np.ndarray:
    """Cyclic position shift |q> -> |q+1 mod n>."""
    return np.roll(np.eye(n, dtype=complex), 1, axis=0)


def shift_v(n: int) -> np.ndarray:
    """Momentum shift F U F^dagger = diag(exp(2 pi i j / n))."""
    return np.diag(np.exp(2j * np.pi * np.arange(n) / n))


def reflection(n: int) -> np.ndarray:
    """Position reflection |q> -> |-q mod n>; fixes |0> and squares to I."""
    return np.eye(n, dtype=complex)[(-np.arange(n)) % n]


def random_unitary(dim: int, rng=None) -> np.ndarray:
    """Haar-like random unitary from the QR factorization of a complex Gaussian."""
    rng = np.random.default_rng(rng)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density_matrix(dim: int, rng=None) -> np.ndarray:
    """Random full-rank state G G^dagger / Tr(G G^dagger)."""
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def gate_from_record(rec: dict) -> GateOp:
    """The gate a ``gate_to_json`` record describes, made through ``GateOp``."""
    unitary = rec.get("unitary")
    if unitary is not None:
        unitary = matrix_from_payload(unitary)
    return GateOp(rec["kind"], tuple(rec["targets"]), theta=rec.get("theta"), unitary=unitary)


def record_calls(monkeypatch, owner, name: str, log=None, entry=None) -> list:
    """Wrap ``owner.name`` so each call first appends ``entry(*args, **kwargs)``,
    or the name, to ``log`` (a new list by default), which is returned."""
    log = [] if log is None else log
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        log.append(name if entry is None else entry(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return log
