"""Probe-qubit tomography and spectroscopy of small quantum systems."""

from .circuits import (
    GateOp,
    apply_sequence,
    compose_sequence,
    depolarize,
    gate_matrix,
    pauli_expectation,
)
from .errors import (
    DimensionMismatchError,
    InputFormatError,
    InvalidValueError,
    PowerOfTwoError,
    QscatterError,
    QubitBudgetError,
)
from .linalg import is_density_matrix, qubit_count
from .phasespace import (
    PhasePoint,
    WignerGrid,
    line_sum,
    overlap_from_grids,
    phase_point_operator,
    reconstruct,
    wigner_direct,
    wigner_via_circuit,
)
from .scattering import (
    ScatteringResult,
    direct_trace,
    scattering_circuit,
    scattering_circuit_gates,
)
from .spectrometer import (
    SpectralSeries,
    TraceSeries,
    spectral_density,
    spectral_density_via_circuit,
    structure_function,
    trace_powers,
)
from .states import basis_state, maximally_mixed, pseudo_pure
from .synthesis import (
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
    "depolarize",
    "direct_trace",
    "gate_matrix",
    "is_density_matrix",
    "line_sum",
    "maximally_mixed",
    "overlap_from_grids",
    "pauli_expectation",
    "phase_point_operator",
    "point_circuit_error",
    "pseudo_pure",
    "qubit_count",
    "reconstruct",
    "scattering_circuit",
    "scattering_circuit_gates",
    "sequence_to_json",
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
