"""Dense reference operators the tests hold the library's fast routes to."""

import numpy as np

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
