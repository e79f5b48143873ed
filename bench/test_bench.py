"""Tests of the benchmark itself: seeded inputs, oracle checks that bite, spans.

Run from the repository root: python -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import qscatter  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import qscatter.phasespace as phasespace  # noqa: E402
import qscatter.scattering as scattering  # noqa: E402
import qscatter.spectrometer as spectrometer  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import NAME, PARENT, Tracer, self_times  # noqa: E402


def _subset(wl, keep):
    return dataclasses.replace(wl, jobs=[j for j in wl.jobs if keep(j.label)])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_job_list(name, tmp_path):
    shapes, digest = workloads.fingerprint(workloads.build(name, 7, str(tmp_path)))
    again = workloads.fingerprint(workloads.build(name, 7, str(tmp_path)))
    other_shapes, other_digest = workloads.fingerprint(workloads.build(name, 8, str(tmp_path)))
    assert again == (shapes, digest)
    assert other_shapes == shapes
    assert other_digest != digest


def test_seed_only_permutes_the_gate_circuit_points(tmp_path):
    def points(seed):
        wl = workloads.build("tomography", seed, str(tmp_path))
        return [tuple(j.inputs[1][:2]) for j in wl.jobs]

    assert points(7) != points(8)
    assert sorted(points(7)) == sorted(points(8))


def test_times_scale_with_the_reference_kernel():
    ref = speed.REFERENCE_S
    assert worker.at_reference_speed([0.2, 0.3], [ref, ref, ref]) == pytest.approx([0.2, 0.3])
    # a job between two samples at half speed counts half its measured time
    assert worker.at_reference_speed([0.2], [2 * ref, 2 * ref]) == pytest.approx([0.1])
    assert speed.scale_by(4.0, [ref, 2 * ref, 2 * ref]) == pytest.approx(2.0)
    assert 0 < speed.sample() < 1


def test_untouched_jobs_pass(tmp_path):
    wl = _subset(workloads.build("tomography", 3, str(tmp_path)), lambda s: "N=8" in s)
    _, _, failures, health = worker.run_pass(wl, None, 0)
    assert failures == []
    assert health["phasespace.recon_gap_max"] < 1e-12


def test_corrupted_probe_readout_fails(tmp_path, monkeypatch):
    wl = _subset(workloads.build("probe", 3, str(tmp_path)), lambda s: s == "probe N=64")
    real = scattering.scattering_circuit

    def corrupted(rho, u):
        res = real(rho, u)
        return scattering.ScatteringResult(res.sigma_z + 1e-8, res.sigma_x)

    monkeypatch.setattr(scattering, "scattering_circuit", corrupted)
    _, _, failures, _ = worker.run_pass(wl, None, 0)
    assert len(failures) == len(wl.jobs) == 2


def test_corrupted_reconstruction_fails(tmp_path, monkeypatch):
    wl = _subset(workloads.build("tomography", 3, str(tmp_path)), lambda s: "N=8" in s)
    real = phasespace.reconstruct

    def corrupted(grid):
        rec = real(grid)
        return phasespace.Reconstruction(rec.matrix + 1e-9, rec.valid)

    monkeypatch.setattr(phasespace, "reconstruct", corrupted)
    _, _, failures, _ = worker.run_pass(wl, None, 0)
    assert len(failures) == len(wl.jobs) == 3
    assert all("reconstruction" in f for f in failures)


def test_corrupted_circuit_route_fails(tmp_path, monkeypatch):
    wl = _subset(workloads.build("spectroscopy", 3, str(tmp_path)),
                 lambda s: s.endswith("circuit") and ("N=8 " in s or "N=16 " in s))
    real = spectrometer.spectral_density_via_circuit

    def corrupted(u, n1):
        series = real(u, n1)
        bins = series.bins.copy()
        bins[1] += 1e-8
        return spectrometer.SpectralSeries(n1=n1, bins=bins)

    monkeypatch.setattr(spectrometer, "spectral_density_via_circuit", corrupted)
    _, _, failures, _ = worker.run_pass(wl, None, 0)
    assert len(failures) == len(wl.jobs) >= 2
    assert all("circuit route" in f for f in failures)


def _shifted_point(csv, shift):
    header, row = csv.splitlines()
    q, p, w = row.split(",")
    return f"{header}\n{q},{p},{format(float(w) + shift, '.12g')}\n"


def test_corrupted_cli_output_fails(tmp_path):
    wl = workloads.build("cli", 3, str(tmp_path))
    point, refusal = (next(j for j in wl.jobs if j.label == label)
                      for label in ("cli wigner N=32 point", "cli refused qubit budget"))
    code, out, err = point.run()
    assert point.check((code, out, err)) == {}
    assert point.check((code, _shifted_point(out, 1e-12), err)) == {}  # within 1e-10
    with pytest.raises(workloads.Mismatch):
        point.check((code, _shifted_point(out, 1e-8), err))
    with pytest.raises(workloads.Mismatch):  # digits beyond the 12-digit rendering
        point.check((code, out.replace("\n", "1\n").replace("w1\n", "w\n"), err))
    code, out, err = refusal.run()
    assert code == 6 and refusal.check((code, out, err)) == {}
    with pytest.raises(workloads.Mismatch):
        refusal.check((7, out, err))


def test_failures_count_in_fail_rate(tmp_path, monkeypatch):
    wl = _subset(workloads.build("probe", 3, str(tmp_path)), lambda s: s == "probe N=64")
    calls = {"n": 0}
    real = scattering.scattering_circuit

    def every_other_raises(rho, u):
        calls["n"] += 1
        if calls["n"] % 2:
            raise RuntimeError("injected")
        return real(rho, u)

    monkeypatch.setattr(scattering, "scattering_circuit", every_other_raises)
    _, _, warm_failures, _ = worker.run_pass(wl, None, -1)
    log = worker.timed_passes(wl, 0.0)
    e2e = run.pool([1.0], [worker.raw_result(wl, log, warm_failures)])
    assert e2e["failed"] == len(warm_failures) + len(log["failures"]) > 0
    assert e2e["fail_rate"] == pytest.approx(e2e["failed"] / e2e["attempted"])
    assert e2e["fail_rate"] == pytest.approx(0.5)


def test_pooled_percentiles_match_numpy():
    values = list(np.random.default_rng(2).exponential(size=37))
    for pct in (50, 75, 90):
        assert run.percentile(values, pct) == pytest.approx(np.percentile(values, pct))


def test_oracles_agree_with_the_program():
    rng = np.random.default_rng(0)
    for n in (2, 4, 8):
        rho = oracles.random_state(n, rng)
        assert np.abs(oracles.wigner_grid(rho) - qscatter.wigner_direct(rho).values).max() < 1e-14
        for q, p in ((0, 0), (1, 3), (2 * n - 1, n)):
            a = qscatter.phase_point_operator(qscatter.PhasePoint(q=q, p=p, n=n))
            assert np.abs(oracles.phase_point(n, q, p) - a).max() < 1e-14
    seq = qscatter.synth_phase_point_circuit(qscatter.PhasePoint(q=5, p=3, n=8))
    gates = qscatter.sequence_to_json(seq)["gates"]
    assert np.abs(oracles.circuit_matrix(gates, seq.num_qubits) - seq.matrix()).max() < 1e-12


def test_tracer_wraps_every_binding_and_restores_them():
    rng = np.random.default_rng(1)
    rho = oracles.random_state(4, rng)
    original = qscatter.scattering_circuit
    tracer = Tracer()
    tracer.install()
    try:
        assert qscatter.scattering_circuit is not original
        assert phasespace.scattering_circuit is scattering.scattering_circuit
        tracer.job = (0, 0)
        qscatter.wigner_via_circuit(rho, qscatter.PhasePoint(q=1, p=2, n=4))
    finally:
        tracer.uninstall()
    assert qscatter.scattering_circuit is original
    assert phasespace.scattering_circuit is original
    names = [s[NAME] for s in tracer.spans]
    assert names[0] == "phasespace.wigner_via_circuit"
    assert "scattering.circuit" in names and "circuits.apply_sequence" in names
    circuit = names.index("scattering.circuit")
    assert tracer.spans[circuit][PARENT] == 0
    selfs = self_times(tracer.spans)
    assert all(t >= 0 for t in selfs)
    assert sum(selfs) == tracer.spans[0][3] - tracer.spans[0][2]


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(worker.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "probe", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
