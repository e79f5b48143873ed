"""Probe-qubit tomography and spectroscopy of small quantum systems.

Set QSCATTER_THREADS before importing to cap the BLAS/OpenMP thread pools;
the cap must be installed in the environment before numpy loads, which is why
it happens at the top of this module.
"""

import os as _os

_threads = _os.environ.get("QSCATTER_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)

from .circuits import (  # noqa: E402
    GateOp,
    apply_sequence,
    compose_sequence,
    controlled_matrix,
    depolarize,
    gate_matrix,
    gate_to_json,
    pauli_expectation,
)
from .errors import (  # noqa: E402
    DimensionMismatchError,
    InputFormatError,
    InvalidValueError,
    PowerOfTwoError,
    QscatterError,
    QubitBudgetError,
)
from .linalg import (  # noqa: E402
    is_density_matrix,
    is_unitary,
    qubit_count,
    random_density_matrix,
    random_unitary,
)
from .phasespace import (  # noqa: E402
    PhasePoint,
    WignerGrid,
    line_sum,
    overlap_from_grids,
    phase_point_operator,
    reconstruct,
    reflection,
    shift_u,
    shift_v,
    wigner_direct,
    wigner_via_circuit,
)
from .scattering import (  # noqa: E402
    ScatteringResult,
    direct_trace,
    scattering_circuit,
    scattering_circuit_gates,
)
from .spectrometer import (  # noqa: E402
    SpectralSeries,
    TraceSeries,
    spectral_density,
    spectral_density_via_circuit,
    structure_function,
    trace_powers,
)
from .states import basis_state, maximally_mixed, pseudo_pure  # noqa: E402
from .synthesis import (  # noqa: E402
    GateSequence,
    point_circuit_error,
    sequence_to_json,
    synth_controlled_reflection,
    synth_controlled_shift,
    synth_controlled_vshift,
    synth_phase_point_circuit,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatchError",
    "GateOp",
    "GateSequence",
    "InputFormatError",
    "InvalidValueError",
    "PhasePoint",
    "PowerOfTwoError",
    "QscatterError",
    "QubitBudgetError",
    "ScatteringResult",
    "SpectralSeries",
    "TraceSeries",
    "WignerGrid",
    "apply_sequence",
    "basis_state",
    "compose_sequence",
    "controlled_matrix",
    "depolarize",
    "direct_trace",
    "gate_matrix",
    "gate_to_json",
    "is_density_matrix",
    "is_unitary",
    "line_sum",
    "maximally_mixed",
    "overlap_from_grids",
    "pauli_expectation",
    "phase_point_operator",
    "point_circuit_error",
    "pseudo_pure",
    "qubit_count",
    "random_density_matrix",
    "random_unitary",
    "reconstruct",
    "reflection",
    "scattering_circuit",
    "scattering_circuit_gates",
    "sequence_to_json",
    "shift_u",
    "shift_v",
    "spectral_density",
    "spectral_density_via_circuit",
    "structure_function",
    "synth_controlled_reflection",
    "synth_controlled_shift",
    "synth_controlled_vshift",
    "synth_phase_point_circuit",
    "trace_powers",
    "wigner_direct",
    "wigner_via_circuit",
]
