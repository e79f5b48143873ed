"""Dense reference operators the tests hold the library's fast routes to,
the paper's closed form of the phase-point operator built from them, the
dense gate oracle the gate kernel is held to, seeded random states and
unitaries, sparse states with signed-zero and subnormal entries, a matrix in
three memory layouts, the reading of the gate records the library writes,
the elementwise one-wire update the kernel's in-place branch is held to bit
for bit, the per-gate slice kernel the ket path's composed maps are held to,
the per-t trace series the spectrometer's power sum is held to bit for bit,
the gate-by-gate counter circuit its circuit route is held to bit for bit,
a density-matrix gate pass of its own, the whole-state probe readout run on
it that the scattering readout is held to (its block a dense U or one map
over the whole register, never a gate list) and the prepared whole joint
state its mapped block diagonals are held to, the composition of a gate run
on boolean bit planes, which its composition on integer wire planes is held
to bit for bit and which builds each gate list's map for the readout tests,
the starting wire planes packed from boolean rows that its integer planes
are held to, the Wigner grid with its four blocks gathered whole that the
tiled grid is held to bit for bit, the complex-product unitarity check the
real Gram check is held to verdict for verdict, and a call recorder for the
tests that count checks."""

from functools import reduce
from itertools import groupby

import numpy as np

from qscatter.circuits import HADAMARD, GateOp, pauli_expectation
from qscatter.errors import InvalidValueError
from qscatter.scattering import ScatteringResult


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


def point_operator(q: int, p: int, n: int) -> np.ndarray:
    """A(q, p) = (1/2N) U^q R V^(-p) exp(i pi p q / N), the paper's closed
    form, as the dense product of the shift, reflection and momentum-shift
    matrices above; p q is reduced mod 2N before the exponential."""
    power = np.linalg.matrix_power
    product = power(shift_u(n), q) @ reflection(n) @ power(shift_v(n).conj().T, p)
    return product * (np.exp(1j * np.pi * ((p * q) % (2 * n)) / n) / (2 * n))


# Subnormal and signed-zero parts for the off-diagonals a sparse state leaves zero.
TINY = np.array([5e-324, -5e-324, 1e-320, -1e-320, -3e-310, 0.0, -0.0])


def wigner_grid_gather(rho: np.ndarray) -> np.ndarray:
    """W(q, p) over the 2N x 2N grid with its four N x N blocks gathered whole
    by ``np.ix_``: one FFT per anti-diagonal rho[j, (q - j) % N], the grid
    cell (q, p) read from row q % N, column p % N, and multiplied once by
    exp(i pi (q p mod 2N) / N) / 2N. ``wigner_direct`` tiles the blocks and
    multiplies by rows and must match it bit for bit."""
    n = rho.shape[0]
    m = 2 * n
    j, k = np.arange(n), np.arange(m)
    f = np.fft.fft(rho[j, (j[:, None] - j) % n], axis=1)
    phase = np.exp(1j * np.pi * k / n) / m
    return (f[np.ix_(k % n, k % n)] * phase[k[:, None] * k % m]).real + 0.0


def sparse_state(n: int, rng, real: bool, signed: bool, tiny: bool = False) -> np.ndarray:
    """A state on a random set of basis labels, real or complex; if
    ``signed``, its zero entries carry a random sign on either part; if
    ``tiny``, about half its zero off-diagonals take Hermitian pairs of TINY
    parts, the imaginary part only for a complex state."""
    support = np.flatnonzero(rng.random(n) < 0.5)
    if support.size == 0:
        support = rng.integers(n, size=1)
    k = support.size
    g = rng.standard_normal((k, k)) + (0 if real else 1j) * rng.standard_normal((k, k))
    rho = np.zeros((n, n), dtype=complex)
    rho[np.ix_(support, support)] = g @ g.conj().T / np.sum(np.abs(g) ** 2)
    for part in (rho.real, rho.imag) if signed else ():
        part[(part == 0) & (rng.random((n, n)) < 0.5)] = -0.0
    if tiny:
        i, j = np.triu_indices(n, 1)
        free = (rho[i, j] == 0) & (rng.random(i.size) < 0.5)
        i, j = i[free], j[free]
        rho.real[i, j] = rho.real[j, i] = rng.choice(TINY, i.size)
        if not real:
            rho.imag[i, j] = rng.choice(TINY, i.size)
            rho.imag[j, i] = -rho.imag[i, j]
    return rho


def layouts(m: np.ndarray) -> dict:
    """``m`` C-ordered, F-ordered and as a strided view, every other row and
    column of a zero-padded copy."""
    n = m.shape[0]
    big = np.zeros((2 * n, 2 * n), dtype=m.dtype)
    big[::2, ::2] = m
    return {"C": np.ascontiguousarray(m), "F": np.asfortranarray(m), "strided": big[::2, ::2]}


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

    The 2x2 target matrix is wrapped in one controlled block per control
    wire. Relabeling the basis so the gate's wires become the least
    significant block makes the operator I (x) that block; indexing back with
    the relabeling lands every entry in its place.
    """
    small = g.matrix
    for _ in g.targets[1:]:
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


def contract_elementwise(view: np.ndarray, axis: int, m: np.ndarray) -> None:
    """In place: view[..., i, ...] <- sum_j m[i, j] view[..., j, ...] on
    ``axis``, both slices updated elementwise for any 2x2 m: the update the
    gate kernel's in-place Hadamard branch must match bit for bit, and the
    whole-state probe circuit's dense U at N=2."""
    lead = (slice(None),) * axis
    s0, s1 = view[lead + (0, ...)], view[lead + (1, ...)]
    old0 = s0.copy()
    s0 *= m[0, 0]
    s0 += m[0, 1] * s1
    s1 *= m[1, 1]
    s1 += m[1, 0] * old0


def hadamards_elementwise(state: np.ndarray, n: int) -> np.ndarray:
    """A Hadamard on every wire of an n-wire density matrix or ket, wire 0
    first, each by ``contract_elementwise``: H on the row axis, then its
    conjugate on the column axis. Evolves ``state`` in place and returns it."""
    tensor = state.reshape((2,) * (state.ndim * n))
    for wire in range(n):
        for offset, m in ((0, HADAMARD), (n, HADAMARD.conj()))[: state.ndim]:
            contract_elementwise(tensor, offset + wire, m)
    return state


def kets_gate_by_gate(state: np.ndarray, gates, n: int) -> np.ndarray:
    """Kets along the first axis of ``state``, a (2^n, ...) array, taken
    through each gate in turn by the per-gate controlled slice kernel: where
    every control wire is 1, a diagonal target matrix (m00 = 1 for every
    kind) scales the target axis's 1 slice, an anti-diagonal one swaps the
    two slices with their factors, and a Hadamard runs
    ``contract_elementwise``. Evolves ``state`` in place and returns it: the
    amplitudes the ket path of ``circuits._apply_sequence`` must match."""
    tensor = state.reshape((2,) * n + state.shape[1:])
    for g in gates:
        *controls, t = g.targets
        index = [slice(None)] * tensor.ndim
        for c in controls:
            index[c] = 1
        # Integer indices drop their axes, shifting the later ones down; the
        # trailing Ellipsis keeps a 0-d slice a writable view.
        view = tensor[(*index, ...)]
        axis = t - sum(c < t for c in controls)
        lead = (slice(None),) * axis
        s0, s1 = view[lead + (0, ...)], view[lead + (1, ...)]
        m = g.matrix
        if m[0, 1] == 0 and m[1, 0] == 0:
            if m[1, 1] != 1:
                s1 *= m[1, 1]
        elif m[0, 0] == 0 and m[1, 1] == 0:
            old0 = s0.copy()
            s0[...] = s1 if m[0, 1] == 1 else m[0, 1] * s1
            s1[...] = old0 if m[1, 0] == 1 else m[1, 0] * old0
        else:
            contract_elementwise(view, axis, m)
    return state


def trace_powers_loop(lam: np.ndarray, t_max: int) -> np.ndarray:
    """Tr(U^t) for t = 0 .. t_max from the eigenvalues ``lam``, one
    ``np.sum(lam**t)`` per t: the series the chunked power sum of
    ``trace_powers`` must match bit for bit."""
    return np.array([np.sum(lam**t) for t in range(t_max + 1)])


def spectral_density_via_circuit_loop(u: np.ndarray, n1: int) -> np.ndarray:
    """Bins of the three-register counter circuit for a unitary U, every gate
    applied to the full (D, N, N) register of each label in turn: both probe
    branches, the Fourier gate as an FFT over all N x N columns and the
    closing Hadamard on both branches, read out by two full-array sums. The
    bins ``spectrometer.spectral_density_via_circuit`` must meet to rounding:
    it scales the powers where this loop multiplies them by a matrix."""
    n = u.shape[0]
    d = 1 << n1
    upow = np.empty((d, n, n), dtype=complex)
    upow[0] = np.eye(n)
    for t in range(1, d):
        upow[t] = u @ upow[t - 1]
    bins = np.empty(d)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for energy in range(d):
        psi0 = np.zeros((d, n, n), dtype=complex)
        psi0[energy] = np.eye(n)
        psi1 = psi0 * inv_sqrt2
        psi0 = psi0 * inv_sqrt2
        psi1 = np.fft.fft(psi1, axis=0, norm="ortho")
        psi1 = np.matmul(upow, psi1)
        psi1 = np.fft.fft(psi1, axis=0, norm="ortho")
        top = (psi0 + psi1) * inv_sqrt2
        bot = (psi0 - psi1) * inv_sqrt2
        bins[energy] = (np.sum(np.abs(top) ** 2) - np.sum(np.abs(bot) ** 2)) / n
    return bins


def plus_joint(rho: np.ndarray, num_qubits: int) -> np.ndarray:
    """|+><+| (x) R on ``num_qubits`` wires, R being rho at every w-th row and
    column (the work wires in |0>): each quadrant holds (R h) h at those
    entries, with h = HADAMARD[0, 0], the two products the kernel's probe
    Hadamard forms on |0><0| (x) R, so every value is the kernel's bit for
    bit; the signs of its zeros are not kept."""
    half = 1 << (num_qubits - 1)
    w = half // rho.shape[0]
    h = HADAMARD[0, 0]
    joint = np.zeros((2 * half, 2 * half), dtype=complex)
    joint.reshape(2, half, 2, half)[:, ::w, :, ::w] = (rho * h * h)[:, None]
    return joint


def apply_map(rho: np.ndarray, label: np.ndarray, phase: np.ndarray) -> None:
    """In place: rho[label[i], label[j]] <- phase[i] conj(phase[j]) rho[i, j].
    Scales rho by the phases, rows first, then gathers its rows into one
    spare array and the columns back."""
    if (phase != 1).any():
        rho *= phase[:, None]
        rho *= phase.conj()
    rows = np.arange(label.size)
    if (label != rows).any():
        source = np.empty_like(label)
        source[label] = rows
        spare = np.take(rho, source, axis=0, mode="clip")
        np.take(spare, source, axis=1, out=rho, mode="clip")


def density_gate_by_gate(rho: np.ndarray, gates, n: int) -> np.ndarray:
    """G rho G^dagger for a gate list on an n-wire density matrix, a C-ordered
    array: each Hadamard by ``contract_elementwise`` on its row axis and then,
    conjugated, on its column axis, each run of the other kinds as one map
    from ``compose_map_bool_planes`` applied by ``apply_map``. Evolves rho in
    place and returns it: the whole-state circuit the probe readout is held
    to runs on it, and it shares no arithmetic with ``circuits``."""
    tensor = rho.reshape((2,) * (2 * n))
    for mapped, run in groupby(gates, key=lambda g: g.kind != "Hadamard"):
        if mapped:
            apply_map(rho, *compose_map_bool_planes(run, n))
        else:
            for g in run:
                contract_elementwise(tensor, g.targets[0], HADAMARD)
                contract_elementwise(tensor, n + g.targets[0], HADAMARD.conj())
    return rho


def probe_readout_full(rho: np.ndarray, controlled) -> ScatteringResult:
    """The probe circuit with every probe gate run on the whole joint state by
    ``density_gate_by_gate``: |0><0| (x) rho (rho at every w-th row and
    column), a Hadamard, the controlled block (a dense U on the system, or one
    map (label, phase) over every label of the register, applied by
    ``apply_map``), a Hadamard and the frame PhaseShift(-pi/2), then the z
    and x readout. The polarization ``scattering._probe_readout`` must match,
    bit for bit but for a dense U, which it meets to rounding; it takes the
    same unchecked arguments."""
    d = rho.shape[0]
    size = 2 * d if isinstance(controlled, np.ndarray) else controlled[0].size
    num_qubits, w = size.bit_length() - 1, size // (2 * d)
    hadamard = GateOp("Hadamard", (0,))
    joint = np.zeros((size, size), dtype=complex)
    joint[: d * w : w, : d * w : w] = rho
    density_gate_by_gate(joint, [hadamard], num_qubits)
    if not isinstance(controlled, np.ndarray):
        apply_map(joint, *controlled)
    elif d == 2:
        contract_elementwise(joint[d:], 0, controlled)
        contract_elementwise(joint[:, d:], 1, controlled.conj())
    else:
        joint[d:] = controlled @ joint[d:]
        joint[:, d:] = joint[:, d:] @ controlled.conj().T
    density_gate_by_gate(joint, [hadamard, GateOp("PhaseShift", (0,), theta=-np.pi / 2)],
                         num_qubits)
    return ScatteringResult(sigma_z=pauli_expectation(joint, "z", 0),
                            sigma_x=pauli_expectation(joint, "x", 0))


def wire_planes_packbits(n: int) -> list[int]:
    """Wire w of every label 0 .. 2^n - 1 as a Python int whose bit i is wire
    w of label i, packed from a boolean row by ``np.packbits``: the starting
    planes ``circuits._compose_map`` builds by integer arithmetic."""
    place = 1 << np.arange(n - 1, -1, -1)
    rows = np.arange(1 << n) & place[:, None] != 0
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in rows]


def compose_map_bool_planes(gates, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A run of permutation-times-phase gates on n wires as G|i> = phase[i]
    |label[i]>, composed on numpy boolean planes: row w of ``bits`` holds wire
    w of every image label, and every gate makes a few passes over all 2^n
    labels. The labels and phases ``circuits._compose_map`` must match, the
    phases bit for bit."""
    place = 1 << np.arange(n - 1, -1, -1)
    bits = np.arange(1 << n) & place[:, None] != 0
    phase = np.ones(1 << n, dtype=complex)
    for g in gates:
        *controls, t = g.targets
        u, on = g.matrix, True
        for c in controls:
            on = on & bits[c]
        flip = int(u[0, 0] == 0)
        for b in (0, 1):
            if u[b ^ flip, b] != 1:
                np.multiply(phase, u[b ^ flip, b], out=phase, where=(bits[t] == b) & on)
        if flip:
            bits[t] ^= on
    return place @ bits, phase


def is_unitary_complex(m: np.ndarray) -> bool:
    """Every entry of U U^dagger - I within 1e-12 in modulus, from the full
    complex product m @ m^dagger and the moduli of its entries: the verdict
    ``linalg._is_unitary`` must give. An overflow leaves inf or nan, which
    the comparison refuses."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = m @ m.conj().T
        g -= np.eye(m.shape[0])
        return bool(np.abs(g).max() <= 1e-12)


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
