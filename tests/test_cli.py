"""End-to-end tests of the command-line interface.

Commands run in subprocesses against JSON matrix files on disk, the way a
user would drive the tool; outputs are checked for format stability
(byte-identical reruns, golden files) and against the library's own numbers.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscatter import circuits, cli, errors, io, synthesis
from qscatter.phasespace import PhasePoint, wigner_direct
from qscatter.scattering import direct_trace
from qscatter.spectrometer import spectral_density
from qscatter.states import maximally_mixed
from reference import random_density_matrix, random_unitary

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args, env=None, timeout=None):
    cmd = [sys.executable, "-m", "qscatter.cli", *map(str, args)]
    merged = dict(os.environ, **(env or {}))
    return subprocess.run(cmd, capture_output=True, text=True, env=merged, timeout=timeout)


def run_pkg_main(*args):
    cmd = [sys.executable, "-m", "qscatter", *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True)


def error_payload(cp):
    assert cp.stderr.count("\n") == 1, cp.stderr
    return json.loads(cp.stderr)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("matrices")
    rng = np.random.default_rng(1234)
    files = {
        "rho4": random_density_matrix(4, rng),
        "u4": random_unitary(4, rng),
        "mixed4": maximally_mixed(4),
        "sz": np.diag([1.0 + 0j, -1.0]),
        "eye3": np.eye(3),
        "mixed3": np.eye(3) / 3,
        "diag123": np.diag([1.0, 2.0, 3.0]),  # not unitary
    }
    paths = {}
    for name, m in files.items():
        path = root / f"{name}.json"
        io.save_matrix(path, m)
        paths[name] = str(path)
    paths["_matrices"] = files
    return paths


class TestHelp:
    def test_cli_module_help(self):
        cp = run_cli("--help")
        assert cp.returncode == 0
        assert "tomography" in cp.stdout

    def test_pkg_main_help(self):
        cp = run_pkg_main("--help")
        assert cp.returncode == 0
        assert "spectroscopy" in cp.stdout


class TestScatter:
    def test_matches_direct_trace(self, inputs):
        cp = run_cli("scatter", "--rho", inputs["rho4"], "--u", inputs["u4"])
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        expected = direct_trace(inputs["_matrices"]["rho4"], inputs["_matrices"]["u4"])
        assert payload["re_trace"] == pytest.approx(expected.real, abs=1e-10)
        assert payload["im_trace"] == pytest.approx(expected.imag, abs=1e-10)
        assert payload["sigma_x"] == pytest.approx(-payload["im_trace"], abs=1e-12)

    def test_byte_identical_reruns(self, inputs):
        a = run_cli("scatter", "--rho", inputs["rho4"], "--u", inputs["u4"])
        b = run_cli("scatter", "--rho", inputs["rho4"], "--u", inputs["u4"])
        assert a.stdout == b.stdout

    def test_a_real_trace_prints_a_positive_zero(self, tmp_path, capsys):
        # Tr(Z diag(0.75, 0.25)) = 0.5: every zero prints unsigned.
        io.save_matrix(tmp_path / "rho.json", np.diag([0.75, 0.25]))
        io.save_matrix(tmp_path / "u.json", np.diag([1.0, -1.0]))
        argv = ["scatter", "--rho", str(tmp_path / "rho.json"), "--u", str(tmp_path / "u.json")]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == (
            '{"sigma_z": 0.5, "sigma_x": 0.0, "re_trace": 0.5, "im_trace": 0.0}\n')


class TestWigner:
    def test_csv_grid(self, inputs):
        cp = run_cli("wigner", "--rho", inputs["rho4"])
        assert cp.returncode == 0, cp.stderr
        lines = cp.stdout.strip().splitlines()
        assert lines[0] == "q,p,w"
        assert len(lines) == 1 + 64
        grid = np.zeros((8, 8))
        for row in lines[1:]:
            q, p, w = row.split(",")
            grid[int(q), int(p)] = float(w)
        expected = wigner_direct(inputs["_matrices"]["rho4"]).values
        assert np.abs(grid - expected).max() < 1e-10

    def test_csv_json_agree_to_twelve_digits(self, inputs):
        csv_out = run_cli("wigner", "--rho", inputs["rho4"]).stdout
        json_out = run_cli("wigner", "--rho", inputs["rho4"], "--format", "json").stdout
        values = json.loads(json_out)["values"]
        for row in csv_out.strip().splitlines()[1:]:
            q, p, w = row.split(",")
            assert float(w) == values[int(q)][int(p)]

    def test_ascii_mixed_state_lattice(self, inputs):
        cp = run_cli("wigner", "--rho", inputs["mixed4"], "--format", "ascii")
        assert cp.returncode == 0
        # 1/16 on the even-even lattice renders above the zero level
        assert cp.stdout == "#=#=#=#=\n========\n" * 4

    def test_point_json(self, inputs):
        cp = run_cli("wigner", "--rho", inputs["rho4"], "--point", "3,5", "--format", "json")
        payload = json.loads(cp.stdout)
        expected = wigner_direct(inputs["_matrices"]["rho4"]).values[3, 5]
        assert payload == {"q": 3, "p": 5, "w": io.round12(expected)}

    def test_point_csv(self, inputs):
        cp = run_cli("wigner", "--rho", inputs["rho4"], "--point", "0,0")
        assert cp.stdout.splitlines()[0] == "q,p,w"
        assert cp.stdout.startswith("q,p,w\n0,0,")

    def test_noise_knob(self, inputs):
        cp = run_cli("wigner", "--rho", inputs["rho4"], "--noise-p", "0.5", "--format", "json")
        values = np.array(json.loads(cp.stdout)["values"])
        pure = wigner_direct(inputs["_matrices"]["rho4"]).values
        mixed = wigner_direct(maximally_mixed(4)).values
        assert np.abs(values - (0.5 * pure + 0.5 * mixed)).max() < 1e-10


class TestSpectrum:
    def test_csv_density(self, inputs):
        cp = run_cli("spectrum", "--u", inputs["sz"], "--n1", 3)
        lines = cp.stdout.strip().splitlines()
        assert lines[0] == "E,phi,g"
        assert len(lines) == 9
        g = [float(r.split(",")[2]) for r in lines[1:]]
        assert np.allclose(g, [0.5, 0, 0.5, 0, 0.5, 0, 0.5, 0], atol=1e-10)

    def test_structure_json(self, inputs):
        cp = run_cli("spectrum", "--u", inputs["sz"], "--n1", 3, "--structure", "--format", "json")
        payload = json.loads(cp.stdout)
        assert payload["phase_multiple"] == 1
        assert payload["g"] == [0.5, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0]

    def test_via_circuit_matches_direct(self, inputs):
        direct = run_cli("spectrum", "--u", inputs["u4"], "--n1", 4, "--format", "json")
        circuit = run_cli(
            "spectrum", "--u", inputs["u4"], "--n1", 4, "--via-circuit", "--format", "json"
        )
        g1 = np.array(json.loads(direct.stdout)["g"])
        g2 = np.array(json.loads(circuit.stdout)["g"])
        assert np.abs(g1 - g2).max() < 1e-9

    def test_non_qubit_dimension_is_fine_directly(self, inputs):
        cp = run_cli("spectrum", "--u", inputs["eye3"], "--n1", 2)
        assert cp.returncode == 0
        assert cp.stdout.splitlines()[1] == "0,0,1"


class TestSynth:
    def test_emits_loadable_sequence(self, inputs):
        cp = run_cli("synth", "--n", 4, "--q", 1, "--p", 3)
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        gates = tuple(
            circuits.GateOp(rec["kind"], tuple(rec["targets"]), theta=rec.get("theta"))
            for rec in payload["gates"]
        )
        seq = synthesis.GateSequence(num_qubits=payload["num_qubits"], gates=gates)
        assert seq.num_qubits == 3
        assert len(seq.gates) > 0

    def test_emit_flag_is_a_usage_error(self):
        cp = run_cli("synth", "--n", 4, "--q", 1, "--p", 3, "--emit", "json")
        assert cp.returncode == 2
        assert cp.stdout == ""

    def test_verify_flag_reports_exactness(self, inputs):
        cp = run_cli("synth", "--n", 8, "--q", 5, "--p", 7, "--verify")
        payload = json.loads(cp.stdout)
        assert payload["verify"]["ok"] is True
        assert payload["verify"]["max_error"] < 1e-12

    def test_verify_at_the_widest_register(self):
        # 4,496 gates on 12 wires; composing 4096x4096 matrices would take hours.
        cp = run_cli("synth", "--n", 1024, "--q", 1023, "--p", 2047, "--verify", timeout=30)
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        assert (payload["num_qubits"], len(payload["gates"])) == (12, 4496)
        assert payload["verify"]["ok"] is True

    def test_verify_failure_prints_the_payload_then_refuses(self, monkeypatch, capsys):
        # A gap of 2e-12 is over the 1e-12 bound: the payload still goes to
        # stdout, marked not ok, and the refusal to stderr.
        monkeypatch.setattr(cli, "point_circuit_error", lambda seq, alpha: 2e-12)
        assert cli.main(["synth", "--n", "4", "--q", "1", "--p", "3", "--verify"]) == 1
        out = capsys.readouterr()
        seq = synthesis.synth_phase_point_circuit(PhasePoint(q=1, p=3, n=4))
        payload = {**synthesis.sequence_to_json(seq), "verify": {"max_error": 2e-12, "ok": False}}
        assert out.out == json.dumps(payload) + "\n"
        assert [json.loads(line) for line in out.err.splitlines()] == [{
            "error": "error",
            "message": "synthesized circuit disagrees with its target (2.000e-12)",
        }]

    @pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["emit", "verify"])
    @pytest.mark.parametrize("n", [2048, 4096, 2**40])
    def test_register_over_budget_is_refused_before_emission(self, n, verify):
        # 2**40 used to end in a MemoryError traceback, 2**22 ran for minutes.
        cp = run_cli("synth", "--n", n, "--q", 1, "--p", 1, *verify, timeout=30)
        assert cp.returncode == 6
        assert error_payload(cp)["error"] == "qubit-budget"
        assert cp.stdout == ""


class TestDemoFig3:
    def test_writes_four_grids_matching_goldens(self, inputs, tmp_path):
        out = tmp_path / "fig3"
        cp = run_cli("demo-fig3", "--outdir", out)
        assert cp.returncode == 0, cp.stderr
        listed = cp.stdout.strip().splitlines()
        assert len(listed) == 4
        for label in range(4):
            produced = (out / f"state{label}.csv").read_text()
            golden = (FIXTURES / "fig3" / f"state{label}.csv").read_text()
            assert produced == golden

    def test_goldens_are_the_ideal_strips(self):
        for label in range(4):
            grid = np.zeros((8, 8))
            rows = (FIXTURES / "fig3" / f"state{label}.csv").read_text().strip().splitlines()
            for row in rows[1:]:
                q, p, w = row.split(",")
                grid[int(q), int(p)] = float(w)
            ideal = np.zeros((8, 8))
            ideal[2 * label, :] = 1 / 8
            ideal[(2 * label + 4) % 8, :] = [(-1) ** p / 8 for p in range(8)]
            assert np.array_equal(grid, ideal)

    def test_noise_shrinks_strips_linearly(self, tmp_path):
        out = tmp_path / "noisy"
        run_cli("demo-fig3", "--outdir", out, "--noise-p", "0.15")
        mixed = wigner_direct(maximally_mixed(4)).values
        for label in range(4):
            grid = np.zeros((8, 8))
            rows = (out / f"state{label}.csv").read_text().strip().splitlines()
            for row in rows[1:]:
                q, p, w = row.split(",")
                grid[int(q), int(p)] = float(w)
            ideal = np.zeros((8, 8))
            ideal[2 * label, :] = 1 / 8
            ideal[(2 * label + 4) % 8, :] = [(-1) ** p / 8 for p in range(8)]
            assert np.abs((grid - mixed) - 0.85 * (ideal - mixed)).max() < 1e-10


class TestErrorExits:
    def test_unwritable_output_path_is_bad_input(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("not a directory\n")
        cp = run_cli("demo-fig3", "--outdir", blocker / "x")
        assert cp.returncode == 3
        assert error_payload(cp)["error"] == "bad-input"
        assert cp.stdout == ""

    def test_missing_file_is_bad_input(self, tmp_path):
        cp = run_cli("scatter", "--rho", tmp_path / "none.json", "--u", tmp_path / "none.json")
        assert cp.returncode == 3
        assert error_payload(cp)["error"] == "bad-input"

    def test_unparsable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        cp = run_cli("wigner", "--rho", bad)
        assert cp.returncode == 3
        assert error_payload(cp)["error"] == "bad-input"

    def test_dimension_mismatch(self, inputs):
        cp = run_cli("scatter", "--rho", inputs["rho4"], "--u", inputs["sz"])
        assert cp.returncode == 4
        assert error_payload(cp)["error"] == "dimension-mismatch"

    def test_power_of_two_required_by_circuit(self, inputs):
        cp = run_cli("spectrum", "--u", inputs["eye3"], "--n1", 2, "--via-circuit")
        assert cp.returncode == 5
        assert error_payload(cp)["error"] == "not-power-of-two"

    @pytest.mark.parametrize(
        "command",
        [["scatter", "--rho", "mixed3"], ["spectrum", "--n1", "2", "--via-circuit"]],
        ids=["scatter", "spectrum"],
    )
    def test_circuit_routes_refuse_the_dimension_before_unitarity(self, inputs, command):
        args = [inputs.get(a, a) for a in command]
        cp = run_cli(*args, "--u", inputs["diag123"])
        assert cp.returncode == 5
        assert error_payload(cp)["error"] == "not-power-of-two"

    def test_qubit_budget(self, inputs):
        cp = run_cli("spectrum", "--u", inputs["sz"], "--n1", 11, "--via-circuit")
        assert cp.returncode == 6
        assert error_payload(cp)["error"] == "qubit-budget"

    @pytest.mark.parametrize("extra", [[], ["--structure"]])
    def test_fourier_routes_refuse_a_counter_over_budget(self, inputs, extra):
        # 2**40 counter labels would loop and allocate without end: refused first
        cp = run_cli("spectrum", "--u", inputs["sz"], "--n1", 40, *extra, timeout=60)
        assert cp.returncode == 6
        assert error_payload(cp)["error"] == "qubit-budget"
        assert cp.stdout == ""

    def test_synth_verify_refuses_a_register_over_budget(self):
        cp = run_cli("synth", "--n", 4096, "--p", 0, "--q", 0, "--verify")
        assert cp.returncode == 6
        assert error_payload(cp)["error"] == "qubit-budget"
        assert cp.stdout == ""

    def test_invalid_value(self, inputs):
        cp = run_cli("wigner", "--rho", inputs["rho4"], "--point", "9,0")
        assert cp.returncode == 7
        assert error_payload(cp)["error"] == "invalid-value"

    def test_non_state_input(self, inputs):
        cp = run_cli("wigner", "--rho", inputs["u4"])
        assert cp.returncode == 7
        assert error_payload(cp)["error"] == "invalid-value"

    @pytest.mark.parametrize("command", [
        "scatter --rho {overflowing} --u {pauli_x}",
        "wigner --rho {overflowing} --point 1,1",
        "scatter --rho {huge_trace} --u {pauli_x}",
        "wigner --rho {huge_trace}",
        "scatter --rho {mixed2} --u {huge_u}",
        "spectrum --u {huge_u} --n1 3",
        "spectrum --u {huge_u} --n1 3 --via-circuit",
    ], ids=["scatter-hermitian", "wigner-hermitian", "scatter-trace", "wigner-trace",
            "scatter-unitary", "spectrum", "spectrum-circuit"])
    def test_finite_entries_whose_sums_overflow(self, command, tmp_path):
        # Refused with one JSON line and no numpy warning.
        paths = {}
        for name, m in {
            "overflowing": [[0.5, 1e308], [1e308, 0.5]],  # its Hermitian part overflows
            "huge_trace": np.diag([1e308, 1e308]),  # its trace overflows
            "huge_u": np.full((2, 2), 1e200),  # U U^dagger overflows
            "pauli_x": [[0, 1], [1, 0]],
            "mixed2": np.eye(2) / 2,
        }.items():
            paths[name] = tmp_path / f"{name}.json"
            io.save_matrix(paths[name], np.asarray(m))
        cp = run_cli(*command.format(**paths).split())
        assert cp.returncode == 7
        assert error_payload(cp)["error"] == "invalid-value"
        assert cp.stdout == ""

    def test_point_format_error(self, inputs):
        cp = run_cli("wigner", "--rho", inputs["rho4"], "--point", "3;5")
        assert cp.returncode == 3

    @pytest.mark.parametrize("point,message", [
        ("3", "--point expects 'q,p', got '3'"),
        ("a,b", "--point expects integers, got 'a,b'"),
    ], ids=["one-part", "not-integers"])
    def test_point_refusals(self, inputs, point, message, capsys):
        assert cli.main(["wigner", "--rho", inputs["rho4"], "--point", point]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {"error": "bad-input", "message": message}

    def test_entries_that_are_not_a_list(self, tmp_path, capsys):
        path = tmp_path / "matrix.json"
        path.write_text('{"dim": 1, "entries": {"0": [1, 0]}}')
        assert cli.main(["wigner", "--rho", str(path)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {
            "error": "bad-input", "message": "matrix 'entries' must be a list, got dict"}

    def test_structure_with_via_circuit_rejected(self, inputs):
        cp = run_cli("spectrum", "--u", inputs["sz"], "--n1", 3, "--structure", "--via-circuit")
        assert cp.returncode == 7

    @pytest.mark.parametrize(
        "argv",
        [
            ["wigner", "--rho", "rho.json", "--point", "1,2", "--format", "ascii"],
            ["spectrum", "--u", "u.json", "--n1", "3", "--structure", "--via-circuit"],
        ],
        ids=["wigner-point-ascii", "spectrum-structure-via-circuit"],
    )
    def test_conflicting_options_are_refused_before_loading(self, argv, monkeypatch, capsys):
        def refuse(path):
            raise AssertionError("a conflicting invocation loaded its matrix file")

        monkeypatch.setattr(io, "load_matrix", refuse)
        assert cli.main(argv) == 7
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err)["error"] == "invalid-value"

    def test_usage_error_is_argparse_code(self):
        cp = run_cli("wigner")
        assert cp.returncode == 2


SPECTRUM_FIXTURES = FIXTURES / "spectrum"


class TestSpectrumGoldens:
    """Frozen Fourier-route stdout: <matrix>_n1-<n1>_<density|structure>.<format>."""

    @pytest.mark.parametrize(
        "golden", sorted(SPECTRUM_FIXTURES.glob("*_n1-*")), ids=lambda path: path.name
    )
    def test_stdout_bytes(self, golden, capsys):
        matrix, n1, kind = golden.stem.split("_")
        args = ["spectrum", "--u", str(SPECTRUM_FIXTURES / f"{matrix}.json"),
                "--n1", n1.removeprefix("n1-"), "--format", golden.suffix[1:]]
        if kind == "structure":
            args.append("--structure")
        assert cli.main(args) == 0
        assert capsys.readouterr().out.encode() == golden.read_bytes()

    def test_every_golden_is_collected(self):
        assert len(list(SPECTRUM_FIXTURES.glob("*_n1-*"))) == 24


SYNTH_FIXTURES = FIXTURES / "synth"
SYNTH_SHA256 = json.loads((SYNTH_FIXTURES / "sha256.json").read_text())
SYNTH_VERIFY = json.loads((FIXTURES / "synth_verify.json").read_text())


def _synth_point(stem):
    return tuple(int(part[1:]) for part in stem.split("_"))


def _synth_argv(stem):
    n, q, p = _synth_point(stem)
    return ["synth", "--n", str(n), "--q", str(q), "--p", str(p)]


class TestSynthGoldens:
    """Frozen ``synth`` stdout: n<N>_q<q>_p<p>.json, larger circuits as sha256.json,
    and ``--verify`` runs as synth_verify.json."""

    @pytest.mark.parametrize(
        "golden", sorted(SYNTH_FIXTURES.glob("n*.json")), ids=lambda path: path.stem
    )
    def test_stdout_bytes(self, golden, capsys):
        assert cli.main(_synth_argv(golden.stem)) == 0
        assert capsys.readouterr().out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("stem", SYNTH_SHA256)
    def test_stdout_sha256(self, stem, capsys):
        assert cli.main(_synth_argv(stem)) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == SYNTH_SHA256[stem]

    @pytest.mark.parametrize("stem", SYNTH_VERIFY)
    def test_verify_stdout_sha256(self, stem, capsys):
        # max_error, printed to 12 digits, shows any change to the ket path's rounding.
        assert cli.main([*_synth_argv(stem), "--verify"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["verify"] == SYNTH_VERIFY[stem]["verify"]
        assert hashlib.sha256(out.encode()).hexdigest() == SYNTH_VERIFY[stem]["sha256"]

    def test_goldens_cover_both_register_layouts(self):
        # N = 2, 4 need no work wire; from N = 8 on the reflection expands around it.
        work_wires = {
            json.loads(path.read_text())["num_qubits"] - _synth_point(path.stem)[0].bit_length()
            for path in SYNTH_FIXTURES.glob("n*.json")
        }
        assert work_wires == {0, 1}
        assert {_synth_point(stem)[0] for stem in SYNTH_SHA256} == {256, 1024}


PROBE_STDOUT = json.loads((FIXTURES / "probe_stdout.json").read_text())


def probe_inputs(n, seed):
    """A full-rank state and a dense, non-Hermitian unitary on n levels, built
    entrywise from one frozen random stream: 3/4 |psi><psi| + I/4n, and a
    diagonal of phases times the Householder reflection I - 2 v v^dagger / |v|^2."""
    rs = np.random.RandomState(seed)
    psi, v = (rs.standard_normal(n) + 1j * rs.standard_normal(n) for _ in range(2))
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2))
    rho = 0.75 * np.outer(psi, psi.conj()) + 0.25 * np.eye(n) / n
    reflection = np.eye(n) - 2 * np.outer(v, v.conj()) / np.sum(np.abs(v) ** 2)
    return rho, np.exp(2j * np.pi * rs.uniform(size=n))[:, None] * reflection


def probe_argv(stem, root):
    """The ``scatter`` or ``wigner --point`` call a probe golden's name describes:
    scatter_n<N>[_s<seed>], or wigner_n<N>_q<q>_p<p>_<format>. The seed is N
    unless named; the named ones at N=2 sit on a 12-digit rounding edge, where
    the order of the readout's sums could show."""
    command, n, *rest = stem.split("_")
    n = int(n[1:])
    rho, u = probe_inputs(n, int(rest[0][1:]) if command == "scatter" and rest else n)
    io.save_matrix(root / "rho.json", rho)
    if command == "scatter":
        io.save_matrix(root / "u.json", u)
        return ["scatter", "--rho", str(root / "rho.json"), "--u", str(root / "u.json")]
    q, p, fmt = rest
    return ["wigner", "--rho", str(root / "rho.json"), "--point", f"{q[1:]},{p[1:]}",
            "--format", fmt]


class TestProbeGoldens:
    """Frozen stdout of the dense probe routes, ``scatter`` and ``wigner --point``,
    as sha256 in probe_stdout.json."""

    @pytest.mark.parametrize("stem", PROBE_STDOUT)
    def test_stdout_sha256(self, stem, tmp_path, capsys):
        assert cli.main(probe_argv(stem, tmp_path)) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == PROBE_STDOUT[stem]

    def test_goldens_cover_every_size_and_format(self):
        stems = [stem.split("_") for stem in PROBE_STDOUT]
        assert {s[1] for s in stems if s[0] == "scatter"} == {"n2", "n4", "n16", "n64", "n256"}
        for fmt in ("json", "csv"):
            assert {s[1] for s in stems if s[-1] == fmt} == {"n2", "n4", "n16", "n64"}


class TestDeterminism:
    def test_thread_cap_does_not_change_bytes(self, inputs):
        plain = run_cli("wigner", "--rho", inputs["rho4"])
        one_thread = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        capped = run_cli("wigner", "--rho", inputs["rho4"], env=one_thread)
        assert capped.returncode == 0
        assert plain.stdout == capped.stdout

    def test_seed_flag_is_a_usage_error(self, inputs):
        cp = run_cli("--seed", 7, "scatter", "--rho", inputs["rho4"], "--u", inputs["u4"])
        assert cp.returncode == 2
        assert cp.stdout == ""


def _all_subcommands(inputs, outdir):
    rho, u, sz = inputs["rho4"], inputs["u4"], inputs["sz"]
    return {
        "scatter": ["scatter", "--rho", rho, "--u", u],
        "wigner-csv": ["wigner", "--rho", rho, "--noise-p", "0.1"],
        "wigner-json": ["wigner", "--rho", rho, "--format", "json"],
        "wigner-ascii": ["wigner", "--rho", rho, "--format", "ascii"],
        "wigner-point": ["wigner", "--rho", rho, "--point", "3,5", "--format", "json"],
        "spectrum": ["spectrum", "--u", u, "--n1", "4"],
        "spectrum-structure": ["spectrum", "--u", sz, "--n1", "3", "--structure"],
        "spectrum-via-circuit": ["spectrum", "--u", u, "--n1", "3", "--via-circuit"],
        "synth": ["synth", "--n", "8", "--q", "5", "--p", "7"],
        "synth-verify": ["synth", "--n", "64", "--q", "101", "--p", "37", "--verify"],
        "demo-fig3": ["demo-fig3", "--outdir", str(outdir)],
    }


class TestNoDenseOracleOnAnyRoute:
    """The dense 2^n x 2^n builders serve the tests; no subcommand calls them."""

    def test_every_subcommand_runs_with_the_oracles_refused(self, inputs, tmp_path, monkeypatch,
                                                           capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a CLI route built a dense gate matrix")

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qscatter"]
        for name in ("compose_sequence", "gate_matrix"):
            original = getattr(circuits, name)
            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(synthesis.GateSequence, "matrix", refuse)
        commands = _all_subcommands(inputs, tmp_path / "fig3")
        assert {argv[0] for argv in commands.values()} == {
            "scatter", "wigner", "spectrum", "synth", "demo-fig3"
        }
        for label, argv in commands.items():
            assert cli.main(argv) == 0, label
        assert '"ok": true' in capsys.readouterr().out


_EXIT_CODES = {
    cls.slug: cls.exit_code
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.QscatterError)
}
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([10**400, -(10**400), 0.5, 2, 4])
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def matrix_file(draw):
    """Bytes of a malformed matrix file: raw bytes, any JSON, or a near-miss payload."""
    kind = draw(st.sampled_from(["bytes", "json", "payload"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    if kind == "json":
        return json.dumps(draw(_JSON)).encode()
    dim = draw(st.integers(-1, 3) | _JSON_LEAVES)
    entry = st.lists(st.floats(-1, 1) | _JSON_LEAVES, max_size=3) | _JSON_LEAVES
    payload = {"dim": dim, "entries": draw(st.lists(entry, max_size=9))}
    for key in draw(st.sets(st.sampled_from(["dim", "entries"]), max_size=1)):
        del payload[key]
    return json.dumps(payload).encode()


@settings(max_examples=120, deadline=None)
@given(data=matrix_file(), command=st.sampled_from(["scatter", "wigner", "spectrum"]))
def test_malformed_matrix_json_never_leaks_a_traceback(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "matrix.json")
        with open(path, "wb") as fh:
            fh.write(data)
        argv = {
            "scatter": ["scatter", "--rho", path, "--u", path],
            "wigner": ["wigner", "--rho", path],
            "spectrum": ["spectrum", "--u", path, "--n1", "2"],
        }[command]
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors only
                assert exc.code == 2
                return
    if code != 0:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, err.getvalue()
        assert _EXIT_CODES[json.loads(lines[0])["error"]] == code


@pytest.mark.parametrize(
    "data",
    [b"\xff\xfe\x00", b"[" * 100000, b'{"dim": 1, "entries": [[1' + b"0" * 400 + b', 0]]}'],
    ids=["not-utf8", "nested-too-deep", "integer-beyond-float"],
)
def test_unreadable_matrix_files_are_bad_input(tmp_path, data):
    path = tmp_path / "matrix.json"
    path.write_bytes(data)
    cp = run_cli("wigner", "--rho", path)
    assert cp.returncode == 3
    assert error_payload(cp)["error"] == "bad-input"


def test_dim_too_long_to_print_is_bad_input(tmp_path):
    # JSON reads a 4,300-digit integer, but dim * dim is too long to print.
    path = tmp_path / "matrix.json"
    path.write_bytes(b'{"dim": 1' + b"0" * 4299 + b', "entries": []}')
    cp = run_cli("scatter", "--rho", path, "--u", path)
    assert cp.returncode == 3
    assert error_payload(cp)["error"] == "bad-input"
