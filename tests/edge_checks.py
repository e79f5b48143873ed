"""The checks at the edges of the 12-qubit budget, each against an independent
oracle, outside tier-1: about 35 s and 1.1 GB. From a scratch directory,
``PYTHONPATH=<repo>/src python <repo>/tests/edge_checks.py`` writes the inputs
there, prints one line per check and exits nonzero, naming each that failed."""

import json
import multiprocessing
import resource
import subprocess
import sys
import time
import traceback

import numpy as np

from qscatter import GateOp, apply_sequence, compose_sequence, io
from reference import kets_gate_by_gate, point_operator

QSCATTER = [sys.executable, "-m", "qscatter"]


def cli_json(*args):
    """The JSON record that a qscatter run must print; its stderr passes through."""
    proc = subprocess.run([*QSCATTER, *args], stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def refused(args, phrase):
    """Whether a qscatter run refuses its input as invalid: exit 7, empty stdout
    and one ``invalid-value`` record on stderr whose message holds phrase."""
    proc = subprocess.run([*QSCATTER, *args], capture_output=True, text=True)
    err = proc.stderr.splitlines()
    rec = json.loads(err[0]) if len(err) == 1 else {}
    ok = proc.returncode == 7 and proc.stdout == "" and rec.get("error") == "invalid-value"
    return ok and phrase in rec.get("message", ""), f"exit {proc.returncode}, stderr {err}"


def explicit_sums(phi, d):
    """The density and structure bins of eigenphases phi over d counter labels,
    each bin an explicit sum over t of the series sum_k exp(i phi_k t)."""
    n, t = len(phi), np.arange(d)
    series = np.exp(1j * np.outer(t, phi)).sum(axis=1)
    kernel = np.exp(-2j * np.pi * np.arange(d) / d)  # kernel[j] = exp(-2 pi i j / D)
    density = [(kernel[(2 * e * t) % d] @ series).real / (n * d) for e in range(d)]
    structure = [(kernel[(e * t) % d] @ np.abs(series) ** 2).real / (n * n * d) for e in range(d)]
    return np.array(density), np.array(structure)


def spectrum_bins(u_path, n1, want, *flags):
    """A ``spectrum`` run's n1, bin count and bins against want, to 1e-9."""
    got = cli_json("spectrum", "--u", u_path, "--n1", str(n1), *flags, "--format", "json")
    gap = np.abs(np.array(got["g"]) - want).max()
    ok = got["n1"] == n1 and len(got["g"]) == 1 << n1 and gap < 1e-9
    return ok, f"n1={got['n1']}, {len(got['g'])} bins, gap {gap:.3e}"


def circuit_vs_fourier(u_path, n1):
    """The counter circuit's bins against the Fourier route's on one unitary."""
    want = cli_json("spectrum", "--u", u_path, "--n1", str(n1), "--format", "json")["g"]
    return spectrum_bins(u_path, n1, want, "--via-circuit")


def write_probe_inputs():
    """N=512 and N=1024 states, 3/4 |psi><psi| + I/4N, and dense unitaries,
    phases times a Householder reflection, for the dense probe route."""
    for n in (512, 1024):
        rs = np.random.RandomState(n)
        psi, v = (rs.standard_normal(n) + 1j * rs.standard_normal(n) for _ in range(2))
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2))
        io.save_matrix(f"rho{n}.json", 0.75 * np.outer(psi, psi.conj()) + 0.25 * np.eye(n) / n)
        reflection = np.eye(n) - 2 * np.outer(v, v.conj()) / np.sum(np.abs(v) ** 2)
        u = np.exp(2j * np.pi * rs.uniform(size=n))[:, None] * reflection
        io.save_matrix(f"u{n}.json", u)
        if n == 512:
            # The same state with the eigenvalue of one vector orthogonal to
            # psi pushed to -1e-3, renormalized: the check's factorization
            # fails and the eigenvalues word the refusal.
            phi = np.eye(n)[0] - psi.conj()[0] * psi
            phi /= np.sqrt(np.sum(np.abs(phi) ** 2))
            bad = 0.75 * np.outer(psi, psi.conj()) + 0.25 * np.eye(n) / n
            bad -= (0.25 / n + 1e-3) * np.outer(phi, phi.conj())
            io.save_matrix("bad512.json", bad / np.trace(bad).real)
        if n == 1024:
            # The same unitary times I + i eps A, A real antisymmetric with
            # max |A_ij| = 1: U U^dagger - I is about 2 i eps A = 1e-9 i A,
            # a defect in the imaginary part alone, which the check's
            # W - W^T term must read.
            a = rs.standard_normal((n, n))
            a -= a.T
            a /= np.abs(a).max()
            io.save_matrix("badu1024.json", (np.eye(n) + 5e-10j * a) @ u)


def synth_1024():
    verify = cli_json("synth", "--n", "1024", "--q", "1023", "--p", "2047", "--verify")["verify"]
    return verify["ok"] is True, f"verify {verify}"


def gates_12():
    """One 12-wire list of Hadamards and mapped runs."""
    n = 12
    gates = [GateOp("Hadamard", (w,)) for w in range(0, n, 3)]
    gates += [GateOp("CNOT", (w, (w + 1) % n)) for w in range(n)]
    gates += [GateOp("Toffoli", (0, 5, 9)), GateOp("PhaseShift", (4,), theta=0.3),
              GateOp("ControlledPhase", (2, 7), theta=-1.1), GateOp("PauliY", (11,))]
    gates += [GateOp("Hadamard", (w,)) for w in range(1, n, 4)]
    return gates + [GateOp("PauliZ", (3,)), GateOp("CNOT", (8, 1))]


def compose_12_wires():
    """The 12-wire list composed on the columns of the identity as kets on 12
    wires: G must be unitary, and the process must stay well under the 4.4 GB
    that composing on one 24-wire ket took."""
    n, gates = 12, gates_12()
    g = compose_sequence(gates, n)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    product = g @ g.conj().T
    del g
    product[np.diag_indices(1 << n)] -= 1
    gap = np.abs(product).max()
    ok = gap < 1e-12 and rss_mb < 1536
    return ok, f"{len(gates)} gates: ru_maxrss {rss_mb:.0f} MB, |G G^dagger - I| {gap:.3e}"


def apply_12_wires():
    """The 12-wire list on rho = 3/4 |psi><psi| + I/4N, N = 4096: the result
    must be 3/4 |G psi><G psi| + I/4N, with G psi taken gate by gate
    (``reference.kets_gate_by_gate``), and the route, input included, must
    stay under 1280 MB."""
    n, gates = 12, gates_12()
    d = 1 << n
    rs = np.random.RandomState(d)
    psi = rs.standard_normal(d) + 1j * rs.standard_normal(d)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2))
    rho = 0.75 * np.outer(psi, psi.conj())
    rho[np.diag_indices(d)] += 0.25 / d
    got = apply_sequence(rho, gates)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    del rho
    g_psi = kets_gate_by_gate(psi.copy(), gates, n)
    got -= 0.75 * np.outer(g_psi, g_psi.conj())
    got[np.diag_indices(d)] -= 0.25 / d
    gap = np.abs(got).max()
    ok = gap < 1e-12 and rss_mb < 1280
    return ok, f"{len(gates)} gates: ru_maxrss {rss_mb:.0f} MB, gap {gap:.3e}"


def scatter():
    """Tr(U rho) at N=512 and 1024. At N=1024 the readout's closing probe
    gates run on the largest block diagonals outside the tests."""
    gaps = []
    for n in (512, 1024):
        out = cli_json("scatter", "--rho", f"rho{n}.json", "--u", f"u{n}.json")
        want = np.trace(io.load_matrix(f"u{n}.json") @ io.load_matrix(f"rho{n}.json"))
        gaps.append(max(abs(out["re_trace"] - want.real), abs(out["im_trace"] - want.imag)))
    return max(gaps) < 1e-10, f"gap {gaps[0]:.3e} at N=512, {gaps[1]:.3e} at N=1024"


def wigner():
    """One Wigner value on the same states: the probe readout applies the
    controlled 2N A(alpha) as its index map; the oracle is Re Tr(A rho), with
    A from the paper's closed form as a dense product (``reference``), which
    shares nothing with that map."""
    gaps = []
    for n in (512, 1024):
        out = cli_json("wigner", "--rho", f"rho{n}.json", "--point", "301,77", "--format", "json")
        a = point_operator(out["q"], out["p"], n)
        gaps.append(abs(out["w"] - np.trace(a @ io.load_matrix(f"rho{n}.json")).real))
    return max(gaps) < 1e-10, f"gap {gaps[0]:.3e} at N=512, {gaps[1]:.3e} at N=1024"


def refused_state():
    return refused(["scatter", "--rho", "bad512.json", "--u", "u512.json"], "negative eigenvalue")


def refused_operator():
    return refused(["scatter", "--rho", "rho1024.json", "--u", "badu1024.json"], "not unitary")


def fourier_12():
    """Both Fourier routes at the counter budget, n1=12: a 16x16 diagonal
    unitary whose eigenphases sit on counter labels, phi = 4 pi E / D."""
    phi = 4 * np.pi * (37 * np.arange(16) + 5) / 4096
    io.save_matrix("diag16.json", np.diag(np.exp(1j * phi)))
    density, structure = explicit_sums(phi, 4096)
    ok, density_bins = spectrum_bins("diag16.json", 12, density)
    ok_structure, structure_bins = spectrum_bins("diag16.json", 12, structure, "--structure")
    return ok and ok_structure, f"density {density_bins}; structure {structure_bins}"


def fourier_512():
    """Both Fourier routes on a dense N=512 unitary V diag(exp(i phi)) V^dagger,
    V Haar, with phi on counter labels, phi = 4 pi E / D, at n1=8: there the
    trace series' self-check takes about t_max/2 N x N products."""
    rs = np.random.RandomState(512)
    q, r = np.linalg.qr(rs.standard_normal((512, 512)) + 1j * rs.standard_normal((512, 512)))
    v = q * (np.diag(r) / np.abs(np.diag(r)))
    phi = 4 * np.pi * rs.randint(256, size=512) / 256
    io.save_matrix("dense512.json", (v * np.exp(1j * phi)) @ v.conj().T)
    density, structure = explicit_sums(phi, 256)
    start = time.perf_counter()
    ok, density_bins = spectrum_bins("dense512.json", 8, density)
    ok_structure, structure_bins = spectrum_bins("dense512.json", 8, structure, "--structure")
    took = time.perf_counter() - start
    return ok and ok_structure, f"density {density_bins}; structure {structure_bins}; {took:.1f} s"


def circuit_9():
    """The counter circuit at its budget edge, 1 + 9 + 2 = 12 qubits: a 4x4
    diagonal unitary whose eigenphases sit on counter labels."""
    phi = 4 * np.pi * (101 * np.arange(4) + 3) / 512
    io.save_matrix("diag4.json", np.diag(np.exp(1j * phi)))
    return spectrum_bins("diag4.json", 9, explicit_sums(phi, 512)[0], "--via-circuit")


def circuit_5():
    """The counter circuit at its other budget edge, 1 + 5 + 6 = 12 qubits: a
    dense 64x64 Haar unitary, so the power map scales every entry of U^t."""
    rs = np.random.RandomState(64)
    q, r = np.linalg.qr(rs.standard_normal((64, 64)) + 1j * rs.standard_normal((64, 64)))
    io.save_matrix("haar64.json", q * (np.diag(r) / np.abs(np.diag(r))))
    return circuit_vs_fourier("haar64.json", 5)


def circuit_2():
    """The counter circuit at its largest system, 1 + 2 + 9 = 12 qubits:
    each register norm of u512.json runs over 262,144 amplitudes."""
    return circuit_vs_fourier("u512.json", 2)


def main():
    # The 12-wire checks read their routes' peaks each in its own interpreter,
    # which starts at its parent's ru_maxrss, so both start before the inputs
    # exist.
    spawn = multiprocessing.get_context("spawn")
    with spawn.Pool(1) as compose_pool, spawn.Pool(1) as apply_pool:
        fresh = {compose_12_wires: compose_pool, apply_12_wires: apply_pool}
        write_probe_inputs()
        failed = []
        for check in (synth_1024, compose_12_wires, apply_12_wires, scatter, wigner,
                      refused_state, refused_operator, fourier_12, fourier_512, circuit_9,
                      circuit_5, circuit_2):
            try:
                ok, detail = fresh[check].apply(check) if check in fresh else check()
            except Exception:  # a check that raises fails, and the others still run
                traceback.print_exc()
                ok, detail = False, "raised"
            print(f"{'pass' if ok else 'FAIL'} {check.__name__}: {detail}", flush=True)
            failed += [] if ok else [check.__name__]
    if failed:
        sys.exit(f"failed: {', '.join(failed)}")


if __name__ == "__main__":
    main()
