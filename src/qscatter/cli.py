"""Command-line front end.

Subcommands:
  scatter    trace of U against a state, via the probe-qubit circuit
  wigner     discrete Wigner grid (or a single phase-space point) of a state
  spectrum   spectral density / structure function of a unitary
  synth      elementary-gate circuit for a controlled phase-point operator
  demo-fig3  four computational-state tomograms for N=4 as CSV files

States and unitaries are JSON matrix files ({"dim": n, "entries": [[re, im],
...]} row-major). Output is deterministic: fixed 12-significant-digit number
formatting and a fixed ASCII ramp, so repeated runs are byte-identical.

Errors exit nonzero with one JSON line {"error": <slug>, "message": ...} on
stderr; each error class has its own exit code.
"""

import argparse
import json
import os
import sys

from . import io
from .circuits import depolarize
from .errors import InputFormatError, InvalidValueError, QscatterError
from .phasespace import PhasePoint, _check_grid, wigner_direct, wigner_via_circuit
from .scattering import _check_probe_budget, scattering_circuit
from .spectrometer import (
    spectral_density,
    spectral_density_via_circuit,
    structure_function,
)
from .states import pseudo_pure
from .synthesis import point_circuit_error, sequence_to_json, synth_phase_point_circuit


def _parse_point(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputFormatError(f"--point expects 'q,p', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputFormatError(f"--point expects integers, got {text!r}") from exc


def cmd_scatter(args) -> int:
    rho = io.load_matrix(args.rho)
    u = io.load_matrix(args.u)
    result = scattering_circuit(rho, u)
    sys.stdout.write(io.scatter_json(result))
    return 0


def cmd_wigner(args) -> int:
    rho = io.load_matrix(args.rho)
    n = rho.shape[0]
    if args.noise_p:  # depolarize checks the state, so the route's budget goes first
        (_check_grid if args.point is None else _check_probe_budget)(n)
        rho = depolarize(rho, args.noise_p)
    if args.point is not None:
        q, p = _parse_point(args.point)
        alpha = PhasePoint(q=q, p=p, n=n)
        w = wigner_via_circuit(rho, alpha)
        if args.format == "csv":
            sys.stdout.write(io.wigner_point_csv(q, p, w))
        elif args.format == "json":
            sys.stdout.write(json.dumps({"q": q, "p": p, "w": io.round12(w)}) + "\n")
        else:
            raise InvalidValueError("ascii rendering needs the full grid, not --point")
        return 0
    grid = wigner_direct(rho)
    if args.format == "csv":
        sys.stdout.write(io.wigner_csv(grid))
    elif args.format == "json":
        sys.stdout.write(io.wigner_json(grid))
    else:
        sys.stdout.write(io.wigner_ascii(grid))
    return 0


def cmd_spectrum(args) -> int:
    u = io.load_matrix(args.u)
    if args.structure and args.via_circuit:
        raise InvalidValueError(
            "--via-circuit simulates the spectral density; drop --structure"
        )
    if args.structure:
        series = structure_function(u, args.n1)
    elif args.via_circuit:
        series = spectral_density_via_circuit(u, args.n1)
    else:
        series = spectral_density(u, args.n1)
    if args.format == "csv":
        sys.stdout.write(io.spectrum_csv(series))
    else:
        sys.stdout.write(io.spectrum_json(series))
    return 0


def cmd_synth(args) -> int:
    alpha = PhasePoint(q=args.q, p=args.p, n=args.n)
    seq = synth_phase_point_circuit(alpha)
    payload = sequence_to_json(seq)
    if args.verify:
        err = point_circuit_error(seq, alpha)
        payload["verify"] = {"max_error": io.round12(err), "ok": bool(err < 1e-12)}
        if err >= 1e-12:
            sys.stdout.write(json.dumps(payload) + "\n")
            raise QscatterError(f"synthesized circuit disagrees with its target ({err:.3e})")
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


def cmd_demo_fig3(args) -> int:
    outdir = args.outdir
    for label in range(4):
        grid = wigner_direct(pseudo_pure(label, 4, args.noise_p))
        path = os.path.join(outdir, f"state{label}.csv")
        try:
            os.makedirs(outdir, exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(io.wigner_csv(grid))
        except OSError as exc:
            raise InputFormatError(f"cannot write {path}: {exc}") from exc
        sys.stdout.write(path + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qscatter",
        description="Probe-qubit tomography and spectroscopy of small quantum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scatter = sub.add_parser("scatter", help="measure Tr(U rho) with the probe circuit")
    p_scatter.add_argument("--rho", required=True, help="density-matrix JSON file")
    p_scatter.add_argument("--u", required=True, help="unitary JSON file")
    p_scatter.set_defaults(func=cmd_scatter)

    p_wigner = sub.add_parser("wigner", help="discrete Wigner function of a state")
    p_wigner.add_argument("--rho", required=True, help="density-matrix JSON file")
    p_wigner.add_argument("--point", help="single phase-space point 'q,p'")
    p_wigner.add_argument("--format", choices=["csv", "json", "ascii"], default="csv")
    p_wigner.add_argument(
        "--noise-p", "--noise_p", dest="noise_p", type=float, default=0.0,
        help="depolarize the state before tomography",
    )
    p_wigner.set_defaults(func=cmd_wigner)

    p_spec = sub.add_parser("spectrum", help="spectral density of a unitary")
    p_spec.add_argument("--u", required=True, help="unitary JSON file")
    p_spec.add_argument("--n1", required=True, type=int, help="counter-register qubits")
    p_spec.add_argument(
        "--structure", action="store_true",
        help="emit the structure function (squared traces) instead",
    )
    p_spec.add_argument(
        "--via-circuit", action="store_true",
        help="simulate the counter circuit instead of the direct Fourier sum",
    )
    p_spec.add_argument("--format", choices=["csv", "json"], default="csv")
    p_spec.set_defaults(func=cmd_spectrum)

    p_synth = sub.add_parser(
        "synth", help="elementary-gate circuit for a controlled phase-point operator"
    )
    p_synth.add_argument("--n", required=True, type=int, help="system dimension")
    p_synth.add_argument("--q", required=True, type=int)
    p_synth.add_argument("--p", required=True, type=int)
    p_synth.add_argument(
        "--verify", action="store_true",
        help="run the gates on two test states and compare against the target operator",
    )
    p_synth.set_defaults(func=cmd_synth)

    p_demo = sub.add_parser(
        "demo-fig3", help="write the four N=4 computational-state tomograms as CSV"
    )
    p_demo.add_argument("--outdir", default=".", help="directory for state0..3.csv")
    p_demo.add_argument(
        "--noise-p", "--noise_p", dest="noise_p", type=float, default=0.0,
        help="depolarize each state before tomography",
    )
    p_demo.set_defaults(func=cmd_demo_fig3)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QscatterError as exc:
        line = json.dumps({"error": exc.slug, "message": str(exc)})
        sys.stderr.write(line + "\n")
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
