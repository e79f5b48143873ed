"""The four benchmark workloads: seeded job lists with their oracle checks.

A job's ``run`` makes the calls a user of qscatter would make and returns
what they return; ``check`` compares that against oracles computed here at
set-up, raising ``Mismatch`` on any disagreement and otherwise returning
numeric-health values. Program functions are looked up on their module at
call time, so spans installed by ``tracing`` see every call.

Workloads exist to move different layers:

* ``tomography``: phase space (grid, reconstruction, marginals) and the
  many-small-gates use of the circuit engine; no spectrometer, no io.
* ``probe``: one large dense controlled-U with boundary validation; no phase
  space, synthesis or spectrometer.
* ``spectroscopy``: the spectrometer through both routes (counter circuit and
  Fourier trace series); no circuit engine, no phase space.
* ``cli``: one ``python -m qscatter`` process per job, the only place import,
  argument parsing, JSON matrix decoding and per-process cold caches are paid.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles
import qscatter.phasespace as phasespace
import qscatter.scattering as scattering
import qscatter.spectrometer as spectrometer
import qscatter.synthesis as synthesis

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
LAUNCHER = os.path.join(BENCH_DIR, "cli_launcher.py")

# The repository's own tolerances.
TRACE_TOL = 1e-10  # probe readout against Tr(U rho), reconstruction, grid values
ROUTE_TOL = 1e-9  # between spectrometer routes and against the closed form


class Mismatch(Exception):
    """A job's output disagrees with its oracle."""


def expect_close(name: str, got, want, tol: float) -> float:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        raise Mismatch(f"{name}: shape {got.shape}, expected {want.shape}")
    gap = float(np.abs(got - want).max()) if got.size else 0.0
    if not gap <= tol:
        raise Mismatch(f"{name}: off by {gap:.3e}, tolerance {tol:.0e}")
    return gap


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    inputs: list  # the arrays the program receives, for fingerprints
    # The direct_trace calls matching this job's probe circuits: the traced
    # run times them as the base of scattering.circuit_over_direct.
    direct: Callable[[], None] | None = None


@dataclass
class Workload:
    name: str
    jobs: list
    tail_pct: float  # highest percentile with >= 10 jobs beyond it at the baseline
    cli: "CliRunner | None" = None

    @property
    def min_jobs(self) -> int:
        return int(np.ceil(10 / (1 - self.tail_pct / 100)))


def _rng(workload: str, seed: int):
    salt = sum(ord(c) << (8 * i) for i, c in enumerate(workload))
    return np.random.default_rng([seed, salt])


# --------------------------------------------------------------- tomography

TOMOGRAPHY_SIZES = (32, 16, 32, 8, 32, 32, 16, 32, 8, 32, 32, 16, 32, 8, 32)


def _tomography_job(i: int, n: int, gate_point: tuple, rng) -> Job:
    if i % 2 == 0:
        rho, kind = oracles.random_state(n, rng), "random"
    else:
        label, noise = int(rng.integers(n)), float(rng.uniform(0.1, 0.9))
        rho, kind = oracles.pseudo_pure_state(n, label, noise), "pseudo-pure"
    q1, p1 = gate_point
    q2, p2 = rng.integers(2 * n, size=2).tolist()
    w = oracles.wigner_grid(rho)
    even = np.arange(2 * n) % 2 == 0
    pos = np.where(even, np.repeat(np.diag(rho).real, 2)[: 2 * n], 0.0)
    mom = np.where(even, np.repeat(oracles.momentum_populations(rho), 2)[: 2 * n], 0.0)
    purity = float(np.sum(np.abs(rho) ** 2))
    a1 = 2 * n * oracles.phase_point(n, q1, p1)
    a2 = 2 * n * oracles.phase_point(n, q2, p2)

    def run():
        grid = phasespace.wigner_direct(rho)
        rec = phasespace.reconstruct(grid)
        pos_sums = [phasespace.line_sum(grid, 0, -1, c) for c in range(2 * n)]
        mom_sums = [phasespace.line_sum(grid, 1, 0, c) for c in range(2 * n)]
        overlap = phasespace.overlap_from_grids(grid, grid)
        seq = synthesis.synth_phase_point_circuit(phasespace.PhasePoint(q=q1, p=p1, n=n))
        res = scattering.scattering_circuit_gates(rho, seq.gates, seq.num_qubits)
        w_via = phasespace.wigner_via_circuit(rho, phasespace.PhasePoint(q=q2, p=p2, n=n))
        return grid, rec, pos_sums, mom_sums, overlap, res.sigma_z / (2 * n), w_via

    def check(out):
        grid, rec, pos_sums, mom_sums, overlap, w_gates, w_via = out
        expect_close("grid", grid.values, w, TRACE_TOL)
        recon_gap = expect_close("reconstruction", rec.matrix, rho, TRACE_TOL)
        expect(rec.valid, "reconstruction of a valid state flagged invalid")
        expect_close("position line sums", pos_sums, pos, TRACE_TOL)
        expect_close("momentum line sums", mom_sums, mom, TRACE_TOL)
        expect_close("purity from grids", overlap, purity, TRACE_TOL)
        gate_gap = expect_close("gate-circuit point", w_gates, w[q1, p1], TRACE_TOL)
        expect_close("dense-circuit point", w_via, w[q2, p2], TRACE_TOL)
        return {"phasespace.recon_gap_max": recon_gap, "synthesis.max_error": gate_gap}

    def direct():
        scattering.direct_trace(rho, a1)
        scattering.direct_trace(rho, a2)

    points = np.array([q1, p1, q2, p2])
    return Job(f"tomography N={n} {kind}", run, check, [rho, points], direct)


def _gate_points(n: int, count: int) -> np.ndarray:
    """A fixed list of phase points, the same for every seed.

    A synthesized point circuit has 43 to 112 gates at N=32, depending on the
    point, and costs accordingly. So that the seed does not change the work
    in a pass, points for synthesized circuits come from this list.
    """
    return np.random.default_rng(n).integers(2 * n, size=(count, 2))


def tomography(seed: int, workdir: str) -> Workload:
    rng = _rng("tomography", seed)
    gate_points = {}  # the seed only decides which job gets which point
    for n in sorted(set(TOMOGRAPHY_SIZES)):
        count = TOMOGRAPHY_SIZES.count(n)
        gate_points[n] = iter(_gate_points(n, count)[rng.permutation(count)].tolist())
    jobs = [_tomography_job(i, n, next(gate_points[n]), rng)
            for i, n in enumerate(TOMOGRAPHY_SIZES)]
    return Workload("tomography", jobs, tail_pct=90)


# -------------------------------------------------------------------- probe

# Seven of eleven jobs at N=256, so the median and the tail fall in one class.
PROBE_SIZES = (256, 128, 256, 64, 256, 256, 128, 256, 64, 256, 256)


def _probe_job(n: int, rng) -> Job:
    rho, u = oracles.random_state(n, rng), oracles.haar_unitary(n, rng)
    want = oracles.trace(u, rho)

    def run():
        return scattering.scattering_circuit(rho, u)

    def check(res):
        gap = expect_close("Tr(U rho)", res.trace_estimate, want, TRACE_TOL)
        return {"scattering.gap_max": gap}

    def direct():
        scattering.direct_trace(rho, u)

    return Job(f"probe N={n}", run, check, [rho, u], direct)


def probe(seed: int, workdir: str) -> Workload:
    rng = _rng("probe", seed)
    return Workload("probe", [_probe_job(n, rng) for n in PROBE_SIZES], tail_pct=75)


# ------------------------------------------------------------- spectroscopy

# (n1, N, diagonal, via circuit). Circuit jobs fit the 12-qubit budget; the
# Fourier-only ones lie beyond it, where trace_powers does the work. Each half
# takes about half of a pass. (4, 64) and (8, 128) cost about the same, so the
# p75 job time falls inside a pair of jobs rather than at the upper quartile
# of a single job's times.
SPECTROSCOPY_SPECS = (
    (7, 16, False, True),
    (7, 256, False, False),
    (6, 8, False, True),
    (10, 64, True, False),
    (7, 8, True, True),
    (9, 128, False, False),
    (6, 16, False, True),
    (11, 32, True, False),
    (8, 4, True, True),
    (12, 16, False, False),
    (5, 32, False, True),
    (5, 16, True, True),
    (4, 64, True, True),
    (8, 128, False, False),
)


def _spectroscopy_job(n1: int, n: int, diagonal: bool, via_circuit: bool, rng) -> Job:
    d = 1 << n1
    if diagonal:  # eigenphases on counter labels give sharp, known peaks
        phases = oracles.counter_phases(d)[rng.integers(d, size=n)]
    else:
        phases = rng.uniform(0, 2 * np.pi, size=n)
    u = oracles.unitary_with_phases(phases, rng, diagonal)
    density = oracles.spectral_density(phases, n1)
    structure = oracles.structure_function(phases, n1)

    def run():
        out = [spectrometer.spectral_density(u, n1), spectrometer.structure_function(u, n1)]
        if via_circuit:
            out.append(spectrometer.spectral_density_via_circuit(u, n1))
        return out

    def check(out):
        expect_close("spectral density", out[0].bins, density, ROUTE_TOL)
        expect_close("structure function", out[1].bins, structure, ROUTE_TOL)
        health = {}
        if via_circuit:
            gap = expect_close("circuit route", out[2].bins, out[0].bins, ROUTE_TOL)
            expect_close("circuit route vs closed form", out[2].bins, density, ROUTE_TOL)
            health["spectrometer.route_gap_max"] = gap
        return health

    kind = ("diagonal" if diagonal else "random") + (" circuit" if via_circuit else "")
    return Job(f"spectroscopy n1={n1} N={n} {kind}", run, check, [u])


def spectroscopy(seed: int, workdir: str) -> Workload:
    rng = _rng("spectroscopy", seed)
    jobs = [_spectroscopy_job(*spec, rng) for spec in SPECTROSCOPY_SPECS]
    return Workload("spectroscopy", jobs, tail_pct=75)


# ---------------------------------------------------------------------- cli


class CliRunner:
    """Runs one qscatter process per call; through the span launcher when tracing."""

    def __init__(self, workdir: str):
        self.tracing = False
        self.spans_path = os.path.join(workdir, "spans.json")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def __call__(self, args: list) -> tuple:
        if self.tracing:
            argv = [sys.executable, LAUNCHER, self.spans_path, *args]
        else:
            argv = [sys.executable, "-m", "qscatter", *args]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=self.env,
                              timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def take_spans(self) -> list:
        with open(self.spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)
        os.remove(self.spans_path)
        return spans


def _write_matrix(path: str, m: np.ndarray) -> str:
    entries = [[float(z.real), float(z.imag)] for z in m.ravel()]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": m.shape[0], "entries": entries}, fh)
    return path


def _number(text: str) -> float:
    """Parse a printed number, requiring the 12-significant-digit rendering."""
    expect(format(float(text), ".12g") == text, f"{text!r} is not a 12-digit rendering")
    return float(text)


def _json_number(v) -> float:
    expect(isinstance(v, float) and float(format(v, ".12g")) == v,
           f"{v!r} is not rounded to 12 digits")
    return v


def _csv_rows(text: str, header: str) -> list:
    lines = text.splitlines()
    expect(bool(lines) and lines[0] == header, f"CSV header {lines[:1]!r}, expected {header!r}")
    return [line.split(",") for line in lines[1:]]


def _succeeded(out) -> tuple:
    code, stdout, stderr = out
    expect(code == 0, f"exit code {code}: {stderr.strip()[-300:]}")
    return stdout, stderr


def _grid_from_csv(text: str, n: int) -> np.ndarray:
    rows = _csv_rows(text, "q,p,w")
    side = 2 * n
    expect(len(rows) == side * side, f"{len(rows)} grid rows, expected {side * side}")
    qp = np.array([[int(r[0]), int(r[1])] for r in rows])
    expect(bool((qp == np.indices((side, side)).reshape(2, -1).T).all()),
           "grid rows out of row-major order")
    return np.array([_number(r[2]) for r in rows]).reshape(side, side)


def _cli_jobs(rng, workdir: str, cli: CliRunner) -> list:
    def path(name):
        return os.path.join(workdir, name)

    jobs = []

    def add(label, args, check, inputs):
        jobs.append(Job(label, lambda: cli(args), check, inputs))

    # scatter: JSON decoding of two large matrices plus the probe circuit.
    def scatter_job(n):
        rho, u = oracles.random_state(n, rng), oracles.haar_unitary(n, rng)
        want = oracles.trace(u, rho)

        def check(out):
            stdout, _ = _succeeded(out)
            rec = json.loads(stdout)
            z, x = _json_number(rec["sigma_z"]), _json_number(rec["sigma_x"])
            re_, im = _json_number(rec["re_trace"]), _json_number(rec["im_trace"])
            gap = expect_close("Tr(U rho)", complex(re_, im), want, TRACE_TOL)
            expect_close("probe polarization", complex(z, -x), want, TRACE_TOL)
            return {"scattering.gap_max": gap}

        add(f"cli scatter N={n}",
            ["scatter", "--rho", _write_matrix(path(f"rho{n}.json"), rho),
             "--u", _write_matrix(path(f"u{n}.json"), u)],
            check, [rho, u])

    scatter_job(256)

    # wigner grid, N=32, CSV: the phase-space point stack is built cold.
    rho32 = oracles.random_state(32, rng)
    w32 = oracles.wigner_grid(rho32)
    rho32_path = _write_matrix(path("rho32.json"), rho32)

    def check_grid(out):
        stdout, _ = _succeeded(out)
        expect_close("grid", _grid_from_csv(stdout, 32), w32, TRACE_TOL)
        return {}

    add("cli wigner N=32 grid", ["wigner", "--rho", rho32_path], check_grid, [rho32])

    def spectrum_job(label, n1, n, diagonal, args_extra, fmt):
        d = 1 << n1
        if diagonal:
            phases = oracles.counter_phases(d)[rng.integers(d, size=n)]
        else:
            phases = rng.uniform(0, 2 * np.pi, size=n)
        u = oracles.unitary_with_phases(phases, rng, diagonal)
        want = oracles.spectral_density(phases, n1)
        phi = oracles.counter_phases(d)
        u_path = _write_matrix(path(f"u{n}_{n1}.json"), u)

        def check(out):
            stdout, _ = _succeeded(out)
            if fmt == "json":
                rec = json.loads(stdout)
                expect(rec["n1"] == n1 and rec["E"] == list(range(d)), "bad n1 or labels")
                got_phi = [_json_number(v) for v in rec["phi"]]
                got = [_json_number(v) for v in rec["g"]]
            else:
                rows = _csv_rows(stdout, "E,phi,g")
                expect([int(r[0]) for r in rows] == list(range(d)), "bad labels")
                got_phi = [_number(r[1]) for r in rows]
                got = [_number(r[2]) for r in rows]
            expect_close("phases", got_phi, phi, TRACE_TOL)
            gap = expect_close("spectral density", got, want, ROUTE_TOL)
            return {"spectrometer.route_gap_max": gap} if "--via-circuit" in args_extra else {}

        add(label, ["spectrum", "--u", u_path, "--n1", str(n1), *args_extra], check, [u])

    # spectrum through the counter circuit, N=8, n1=7 (11 qubits).
    spectrum_job("cli spectrum via circuit n1=7 N=8", 7, 8, True, ["--via-circuit"], "csv")

    scatter_job(128)

    # wigner at one point, N=32, through the dense probe circuit.
    q, p = rng.integers(64, size=2).tolist()

    def check_point(out):
        stdout, _ = _succeeded(out)
        rows = _csv_rows(stdout, "q,p,w")
        expect(len(rows) == 1 and rows[0][:2] == [str(q), str(p)], f"bad point rows {rows!r}")
        expect_close("grid point", _number(rows[0][2]), w32[q, p], TRACE_TOL)
        return {}

    add("cli wigner N=32 point", ["wigner", "--rho", rho32_path, "--point", f"{q},{p}"],
        check_point, [rho32, np.array([q, p])])

    # refused: a 14-qubit counter circuit is over the 12-qubit budget (exit 6).
    u16 = oracles.unitary_with_phases(rng.uniform(0, 2 * np.pi, size=16), rng, False)

    def refused(code, slug):
        def check(out):
            got_code, stdout, stderr = out
            expect(got_code == code, f"exit code {got_code}, expected {code}")
            expect(stdout == "", "refused input wrote to stdout")
            lines = stderr.strip().splitlines()
            expect(bool(lines), "refused input wrote no JSON error line")
            expect(json.loads(lines[-1]).get("error") == slug, f"error line {lines[-1]!r}")
            return {}
        return check

    add("cli refused qubit budget",
        ["spectrum", "--u", _write_matrix(path("u16.json"), u16), "--n1", "9", "--via-circuit"],
        refused(6, "qubit-budget"), [u16])

    # wigner grid, N=16, JSON.
    rho16 = oracles.random_state(16, rng)
    w16 = oracles.wigner_grid(rho16)

    def check_json_grid(out):
        stdout, _ = _succeeded(out)
        rec = json.loads(stdout)
        expect(rec["n"] == 16, f"grid for n={rec['n']!r}, expected 16")
        got = [[_json_number(v) for v in row] for row in rec["values"]]
        expect_close("grid", got, w16, TRACE_TOL)
        return {}

    add("cli wigner N=16 json",
        ["wigner", "--rho", _write_matrix(path("rho16.json"), rho16), "--format", "json"],
        check_json_grid, [rho16])

    # synth --verify, N=32, at a fixed point (see _gate_points): the printed
    # gates are replayed as index maps here.
    sq, sp = _gate_points(32, 1)[0].tolist()

    def check_synth(out):
        stdout, _ = _succeeded(out)
        rec = json.loads(stdout)
        nq = rec["num_qubits"]
        expect(rec["verify"]["ok"] is True, f"verify reported {rec['verify']!r}")
        err = expect_close("synthesized circuit", oracles.circuit_matrix(rec["gates"], nq),
                           oracles.controlled_point_operator(32, sq, sp, nq), TRACE_TOL)
        return {"synthesis.max_error": max(err, rec["verify"]["max_error"])}

    add("cli synth N=32 verify",
        ["synth", "--n", "32", "--q", str(sq), "--p", str(sp), "--verify"], check_synth,
        [np.array([sq, sp])])

    # spectrum through the Fourier route beyond the circuit budget, JSON.
    spectrum_job("cli spectrum fourier n1=10 N=64", 10, 64, False, ["--format", "json"], "json")

    # demo-fig3: four N=4 tomograms written as files.
    noise = float(np.round(rng.uniform(0.1, 0.5), 6))
    fig3_dir = path("fig3")
    fig3 = [oracles.wigner_grid(oracles.pseudo_pure_state(4, label, noise)) for label in range(4)]

    def check_fig3(out):
        stdout, _ = _succeeded(out)
        files = [os.path.join(fig3_dir, f"state{label}.csv") for label in range(4)]
        expect(stdout.splitlines() == files, f"listed {stdout.splitlines()!r}")
        for f, w in zip(files, fig3):
            with open(f, encoding="utf-8") as fh:
                expect_close(os.path.basename(f), _grid_from_csv(fh.read(), 4), w, TRACE_TOL)
        return {}

    add("cli demo-fig3", ["demo-fig3", "--outdir", fig3_dir, "--noise-p", repr(noise)],
        check_fig3, [np.array([noise])])

    # refused: a non-unitary U at N=128 (exit 7).
    rho128 = oracles.random_state(128, rng)
    bad128 = oracles.haar_unitary(128, rng) * 1.001
    add("cli refused non-unitary N=128",
        ["scatter", "--rho", _write_matrix(path("refused_rho128.json"), rho128),
         "--u", _write_matrix(path("refused_u128.json"), bad128)],
        refused(7, "invalid-value"), [rho128, bad128])
    return jobs


def cli(seed: int, workdir: str) -> Workload:
    runner = CliRunner(workdir)
    jobs = _cli_jobs(_rng("cli", seed), workdir, runner)
    return Workload("cli", jobs, tail_pct=75, cli=runner)


WORKLOADS = {
    "tomography": tomography,
    "probe": probe,
    "spectroscopy": spectroscopy,
    "cli": cli,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[name](seed, workdir)


def fingerprint(workload: Workload) -> tuple:
    """Job labels with input shapes, and a hash of every input's bytes."""
    h = hashlib.sha256()
    shapes = []
    for job in workload.jobs:
        shapes.append((job.label, tuple(a.shape for a in job.inputs)))
        for a in job.inputs:
            h.update(np.ascontiguousarray(a).tobytes())
    return shapes, h.hexdigest()
