"""Dense reference operators the tests hold the library's fast routes to,
the dense gate oracle the gate kernel is held to, seeded random states and
unitaries, the reading of the gate records the library writes, and a call
recorder for the tests that count checks."""

from functools import reduce

import numpy as np

from qscatter.circuits import GateOp
from qscatter.errors import InvalidValueError


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


def controlled(u: np.ndarray) -> np.ndarray:
    """Block form |0><0| (x) I + |1><1| (x) u, control as the leading qubit."""
    d = u.shape[0]
    out = np.eye(2 * d, dtype=complex)
    out[d:, d:] = u
    return out


def dense_gate(g: GateOp, n: int) -> np.ndarray:
    """The 2^n x 2^n matrix of one gate, built without the gate kernel.

    The target matrix is wrapped in one controlled block per control wire.
    Relabeling the basis so the gate's wires become the least significant
    block makes the operator I (x) that block; indexing back with the
    relabeling lands every entry in its place.
    """
    small = g.matrix
    for _ in range(len(g.targets) - (small.shape[0].bit_length() - 1)):
        small = controlled(small)
    idx = np.arange(1 << n)
    key = np.zeros_like(idx)
    for t in [t for t in range(n) if t not in g.targets] + list(g.targets):
        key = (key << 1) | ((idx >> (n - 1 - t)) & 1)
    big = np.kron(np.eye((1 << n) // small.shape[0], dtype=complex), small)
    return big[np.ix_(key, key)]


def dense_product(gates, n: int) -> np.ndarray:
    """Product of ``dense_gate`` over a gate list, gates[0] applied first."""
    return reduce(lambda m, g: dense_gate(g, n) @ m, gates, np.eye(1 << n, dtype=complex))


def gate_from_record(rec: dict) -> GateOp:
    """The gate a ``sequence_to_json`` gate record describes, made through ``GateOp``."""
    return GateOp(rec["kind"], tuple(rec["targets"]), theta=rec.get("theta"))


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
