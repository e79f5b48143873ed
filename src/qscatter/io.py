"""File formats and fixed-width text rendering.

Numbers are written with 12 significant digits so repeated runs on one
machine produce identical bytes. The ASCII heatmap maps grid values through
a fixed 10-character ramp over [-1/(2N), +1/(2N)], the attainable range, so
renderings never rescale with the data.
"""

import json

import numpy as np

from .errors import InputFormatError, brief

ASCII_RAMP = " .:-=+*#%@"


def fmt(x: float) -> str:
    """12 significant digits, trailing zeros trimmed."""
    return format(float(x), ".12g")


def round12(x: float) -> float:
    """The float a 12-digit rendering parses back to; used for JSON payloads."""
    return float(fmt(x))


def matrix_to_payload(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": int(m.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


# JSON numbers decode to exactly these types; booleans decode to bool, a
# subclass of int, so the checks compare types rather than use isinstance.
_JSON_NUMBERS = (int, float)


def matrix_from_payload(payload) -> np.ndarray:
    """Decode {"dim": n, "entries": [[re, im], ...]} (row-major) to an array."""
    if not isinstance(payload, dict):
        raise InputFormatError("matrix payload must be a JSON object")
    if "dim" not in payload or "entries" not in payload:
        raise InputFormatError("matrix payload needs 'dim' and 'entries'")
    dim, entries = payload["dim"], payload["entries"]
    if type(dim) is not int:
        raise InputFormatError(f"matrix 'dim' must be an integer, got {brief(dim)}")
    if dim < 1:
        raise InputFormatError(f"matrix 'dim' must be positive, got {brief(dim)}")
    if type(entries) is not list:
        raise InputFormatError(f"matrix 'entries' must be a list, got {type(entries).__name__}")
    if len(entries) != dim * dim:
        shown, need = brief(dim), brief(dim * dim)
        raise InputFormatError(f"matrix of dim {shown} needs {need} entries, got {len(entries)}")
    try:
        flat = [
            complex(re, im)
            for re, im in entries
            if type(re) in _JSON_NUMBERS and type(im) in _JSON_NUMBERS
        ]
    except (TypeError, ValueError, OverflowError):  # not a pair, or an int beyond float
        flat = []
    if len(flat) != len(entries):
        raise InputFormatError("matrix entries must be [re, im] pairs of numbers")
    flat = np.array(flat)
    if not np.isfinite(flat).all():
        raise InputFormatError("matrix entries must be finite")
    return flat.reshape(dim, dim)


def load_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read matrix file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; nesting too deep
        raise InputFormatError(f"matrix file {path} is not valid JSON: {exc}") from exc
    return matrix_from_payload(payload)


def save_matrix(path, m: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_payload(m), fh)
        fh.write("\n")


def wigner_csv(grid) -> str:
    """CSV rows q,p,w in row-major order (q outer, p inner)."""
    lines = ["q,p,w"]
    side = 2 * grid.n
    for q in range(side):
        for p in range(side):
            lines.append(f"{q},{p},{fmt(grid.values[q, p])}")
    return "\n".join(lines) + "\n"


def wigner_point_csv(q: int, p: int, w: float) -> str:
    return f"q,p,w\n{q},{p},{fmt(w)}\n"


def wigner_json(grid) -> str:
    payload = {
        "n": grid.n,
        "values": [[round12(v) for v in row] for row in grid.values],
    }
    return json.dumps(payload) + "\n"


def wigner_ascii(grid) -> str:
    """One text row per q, one ramp character per p."""
    bound = 1.0 / (2 * grid.n)
    scaled = (grid.values + bound) / (2 * bound) * (len(ASCII_RAMP) - 1)
    idx = np.clip(np.rint(scaled).astype(int), 0, len(ASCII_RAMP) - 1)
    return "\n".join("".join(ASCII_RAMP[i] for i in row) for row in idx) + "\n"


def spectrum_csv(series) -> str:
    lines = ["E,phi,g"]
    phases = series.phases
    for e in range(series.num_labels):
        lines.append(f"{e},{fmt(phases[e])},{fmt(series.bins[e])}")
    return "\n".join(lines) + "\n"


def spectrum_json(series) -> str:
    payload = {
        "n1": series.n1,
        "t_max": series.t_max,
        "phase_multiple": series.phase_multiple,
        "E": list(range(series.num_labels)),
        "phi": [round12(v) for v in series.phases],
        "g": [round12(v) for v in series.bins],
    }
    return json.dumps(payload) + "\n"


def scatter_json(result) -> str:
    est = result.trace_estimate
    payload = {
        "sigma_z": round12(result.sigma_z),
        "sigma_x": round12(result.sigma_x),
        "re_trace": round12(est.real),
        "im_trace": round12(est.imag),
    }
    return json.dumps(payload) + "\n"
