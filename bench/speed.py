"""The machine's speed, measured with a fixed reference kernel next to the jobs.

On a shared host the speed of a vCPU drifts: on the 2-vCPU guest in
README.md the same code ran 1.3 to 1.7 times slower for stretches of a
fraction of a second to minutes, with CPU time tracking wall time, so the
wall time of a 10 s stretch of identical passes spread by 20-30% between
stretches of one process. The drift slows a plain numpy-and-Python kernel
by the same factor as the program, so every end-to-end time is reported at
a fixed reference speed:

    time = measured wall time * REFERENCE_S / reference kernel time

with the kernel timed right before and right after the measured stretch.
The kernel is part of the benchmark and never calls qscatter, so a change to
the program changes only the measured time. REFERENCE_S is the kernel's time
on that guest in a quiet stretch, so there the reported times equal wall
times. The measured wall times are reported next to them.
"""

import math
import statistics
import time

import numpy as np

REFERENCE_S = 1.15e-3

_rng = np.random.default_rng(12345)
_REAL = _rng.standard_normal((96, 96))
_HERM = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))
_HERM = _HERM + _HERM.conj().T
_COMPLEX = _rng.standard_normal((160, 160)) + 1j * _rng.standard_normal((160, 160))


def sample() -> float:
    """Seconds for one run of the reference kernel: Python loop, BLAS, LAPACK."""
    start = time.perf_counter()
    acc = 0
    for i in range(5000):
        acc += i
    for _ in range(10):
        _REAL @ _REAL
    for _ in range(2):
        np.linalg.eigvalsh(_HERM)
    _COMPLEX @ _COMPLEX
    return time.perf_counter() - start


def samples(count: int) -> list:
    return [sample() for _ in range(count)]


def warm() -> None:
    """First calls allocate and load BLAS code paths; keep them out of any sample."""
    samples(20)


def scale(seconds: float, before: float, after: float) -> float:
    """A measured time at the reference speed, from the kernel on either side of it."""
    return seconds * REFERENCE_S / math.sqrt(before * after)


def scale_by(seconds: float, refs: list) -> float:
    """A measured time at the reference speed, from the median of kernel samples."""
    return seconds * REFERENCE_S / statistics.median(refs)
