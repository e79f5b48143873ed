"""Spans around qscatter's public functions, installed from outside the package.

Modules inside qscatter bind each other's functions with ``from .x import y``,
so a wrapper is installed in every qscatter module namespace that holds the
original function object; methods are patched on their class. Each span
records its layer name, the wrapped function, start and end (perf_counter
nanoseconds), the index of its parent span and the job it ran under. Spans
stay in memory until ``dump``.
"""

import functools
import importlib
import json
import os
import sys
import time


def _count(metric, measure):
    return lambda result, args: {metric: measure(result, args)}


_GRID_N = _count("phasespace.grid_n", lambda r, a: r.n)
_RENDER_BYTES = _count("io.render.bytes", lambda r, a: len(r.encode()))

# (module, function, span name, counters taken from the result and arguments)
FUNCTIONS = (
    ("qscatter.linalg", "assert_density_matrix", "linalg.validate", None),
    ("qscatter.linalg", "assert_unitary", "linalg.validate", None),
    ("qscatter.linalg", "is_density_matrix", "linalg.validate", None),
    ("qscatter.circuits", "gate_matrix", "circuits.gate_matrix",
     _count("circuits.gate_matrix.bytes", lambda r, a: r.nbytes)),
    ("qscatter.circuits", "apply_sequence", "circuits.apply_sequence", None),
    ("qscatter.circuits", "pauli_expectation", "circuits.pauli_expectation", None),
    ("qscatter.circuits", "compose_sequence", "circuits.compose_sequence", None),
    ("qscatter.scattering", "scattering_circuit", "scattering.circuit", None),
    ("qscatter.scattering", "scattering_circuit_gates", "scattering.circuit", None),
    ("qscatter.scattering", "direct_trace", "scattering.direct_trace", None),
    ("qscatter.phasespace", "wigner_direct", "phasespace.wigner_direct", _GRID_N),
    ("qscatter.phasespace", "reconstruct", "phasespace.reconstruct", None),
    ("qscatter.phasespace", "wigner_via_circuit", "phasespace.wigner_via_circuit", None),
    ("qscatter.spectrometer", "trace_powers", "spectrometer.trace_powers", None),
    ("qscatter.spectrometer", "spectral_density", "spectrometer.fourier", None),
    ("qscatter.spectrometer", "structure_function", "spectrometer.fourier", None),
    ("qscatter.spectrometer", "spectral_density_via_circuit", "spectrometer.via_circuit", None),
    ("qscatter.synthesis", "synth_phase_point_circuit", "synthesis.synth",
     _count("synthesis.gates", lambda r, a: len(r.gates))),
    ("qscatter.synthesis", "synth_controlled_shift", "synthesis.synth", None),
    ("qscatter.synthesis", "synth_controlled_reflection", "synthesis.synth", None),
    ("qscatter.synthesis", "synth_controlled_vshift", "synthesis.synth", None),
    ("qscatter.io", "load_matrix", "io.load",
     _count("io.load.bytes", lambda r, a: os.path.getsize(a[0]))),
    ("qscatter.io", "wigner_csv", "io.render", _RENDER_BYTES),
    ("qscatter.io", "wigner_point_csv", "io.render", _RENDER_BYTES),
    ("qscatter.io", "wigner_json", "io.render", _RENDER_BYTES),
    ("qscatter.io", "wigner_ascii", "io.render", _RENDER_BYTES),
    ("qscatter.io", "spectrum_csv", "io.render", _RENDER_BYTES),
    ("qscatter.io", "spectrum_json", "io.render", _RENDER_BYTES),
    ("qscatter.io", "scatter_json", "io.render", _RENDER_BYTES),
)

# (module, class, method, span name, counters)
METHODS = (("qscatter.synthesis", "GateSequence", "matrix", "synthesis.matrix", None),)

# Span record fields.
NAME, FN, START, END, PARENT, JOB, COUNTS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, fn.__name__, 0, 0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.job, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                tracer._stack.pop()
            if counter is not None:
                span[COUNTS] = counter(result, args)
            return result

        return traced

    def install(self) -> None:
        importlib.import_module("qscatter.cli")  # imports every module the CLI uses
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qscatter" or n.startswith("qscatter.")]
        for modname, attr, name, counter in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            traced = self.wrap(original, name, counter)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, traced)
        for modname, clsname, attr, name, counter in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def ingest(self, spans: list[list], job) -> None:
        """Append spans recorded in another process, re-based onto this list."""
        base = len(self.spans)
        for s in spans:
            s = list(s)
            if s[PARENT] >= 0:
                s[PARENT] += base
            s[JOB] = job
            self.spans.append(s)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[list]) -> list[int]:
    """Span duration minus the durations of its direct children, in ns.

    Calls are single-threaded, so children never overlap one another and
    their summed durations equal the part of the parent they cover.
    """
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]
