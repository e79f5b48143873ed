"""Dense reference operators the tests hold the library's fast routes to,
and the reading of the gate records the library writes."""

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


def gate_from_record(rec: dict) -> GateOp:
    """The gate a ``gate_to_json`` record describes, made through ``GateOp``."""
    unitary = rec.get("unitary")
    if unitary is not None:
        unitary = matrix_from_payload(unitary)
    return GateOp(rec["kind"], tuple(rec["targets"]), theta=rec.get("theta"), unitary=unitary)
