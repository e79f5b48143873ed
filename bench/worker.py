"""One run of one workload, in a fresh interpreter started by run.py.

Usage: python bench/worker.py WORKLOAD SEED SECONDS TRACE PASSES_DONE JOBS_DONE WORKERS_LEFT
                              WORKDIR

Builds the seeded job list and its oracles, runs one untimed warm-up pass,
then prints ``READY``; run.py counts the time to that line as set-up. Timed
passes over the job list follow until SECONDS have passed and this worker
has run its share of the passes and jobs the run still needs (the run's
earlier workers timed PASSES_DONE and JOBS_DONE; WORKERS_LEFT includes this
one). Input files and other scratch go to WORKDIR, which is removed at the
end. The last line is ``RESULT <json>`` with the timings, both at the
reference speed of speed.py and as measured, which run.py pools across
workers. The reference kernel is sampled along set-up and around every job.
With TRACE=1, traced and untraced passes alternate; the traced ones give the
per-layer numbers and the pair gives the tracing overhead.
"""

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import END, FN, JOB, NAME, START, COUNTS, Tracer, self_times  # noqa: E402

MIN_PASSES = 3  # per run and kind of pass, so wall_s is a median of at least three

# Every per-layer metric; a layer that a workload never calls reports 0.
PER_LAYER = (
    "linalg.validate.calls", "linalg.validate.self_ms",
    "circuits.gate_matrix.calls", "circuits.gate_matrix.self_ms",
    "circuits.gate_matrix.bytes", "circuits.apply_sequence.self_ms",
    "circuits.pauli_expectation.self_ms", "circuits.compose_sequence.self_ms",
    "scattering.circuit.self_ms", "scattering.circuit_over_direct",
    "scattering.direct_trace_ms", "scattering.gap_max",
    "phasespace.wigner_direct.self_ms", "phasespace.wigner_direct.cold_ms",
    "phasespace.reconstruct.self_ms", "phasespace.wigner_via_circuit.self_ms",
    "phasespace.recon_gap_max",
    "spectrometer.trace_powers.calls", "spectrometer.trace_powers.self_ms",
    "spectrometer.fourier.self_ms", "spectrometer.via_circuit.self_ms",
    "spectrometer.circuit_over_fourier", "spectrometer.fourier_base_ms",
    "spectrometer.route_gap_max",
    "synthesis.synth.self_ms", "synthesis.gates", "synthesis.matrix.self_ms",
    "synthesis.max_error",
    "io.load.self_ms", "io.load.bytes", "io.render.self_ms", "io.render.bytes",
    "cli.spawn_ms", "cli.import_ms", "cli.import_numpy_ms", "cli.self_ms",
    "trace.overhead_pct",
)


def run_pass(wl, tracer, pass_no):
    """Run every job once; time the jobs, then check their outputs.

    The reference kernel runs before each job and after the last one, so
    every job time has a speed sample on either side of it.
    """
    outputs, times, refs = [], [], []
    for i, job in enumerate(wl.jobs):
        if tracer is not None:
            tracer.job = (pass_no, i)
        refs.append(speed.sample())
        t = time.perf_counter()
        try:
            outputs.append((job.run(), None))
        except Exception as exc:  # a raising job is a failed job, not a crash
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        times.append(time.perf_counter() - t)
        if tracer is not None and wl.cli is not None and wl.cli.tracing:
            if os.path.exists(wl.cli.spans_path):
                tracer.ingest(wl.cli.take_spans(), (pass_no, i))
    refs.append(speed.sample())
    failures, health = [], {}
    for job, (out, err) in zip(wl.jobs, outputs):
        if err is None:
            try:
                for k, v in job.check(out).items():
                    health[k] = max(health.get(k, 0.0), v)
            except workloads.Mismatch as exc:
                err = str(exc)
            except Exception as exc:  # malformed output counts as wrong output
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(f"{job.label}: {err}")
    return times, refs, failures, health


def at_reference_speed(times, refs) -> list:
    return [speed.scale(t, before, after) for t, before, after in zip(times, refs, refs[1:])]


def set_tracing(wl, tracer, on):
    if wl.cli is not None:
        wl.cli.tracing = on
    elif on:
        tracer.install()
    else:
        tracer.uninstall()


def machine() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        pass
    return {"numpy": np.__version__, "blas": blas}


def timed_passes(wl, seconds, done=(0, 0, 1), tracer=None):
    """Timed passes until the deadline; with a tracer, untraced and traced alternate."""
    deadline = time.perf_counter() + seconds
    passes_done, jobs_done, workers_left = done
    min_passes, min_jobs = (-(-max(0, need - have) // workers_left)
                            for need, have in ((MIN_PASSES, passes_done),
                                               (wl.min_jobs, jobs_done)))
    log = {"walls": {False: [], True: []}, "times": [], "raw_walls": [], "raw_times": [],
           "failures": [], "health": {}, "attempted": 0, "traced": []}
    pass_no = 0
    while True:
        traced = tracer is not None and pass_no % 2 == 1
        if tracer is not None:
            set_tracing(wl, tracer, traced)
        raw, refs, failures, health = run_pass(wl, tracer if traced else None, pass_no)
        if tracer is not None:
            set_tracing(wl, tracer, False)
        times = at_reference_speed(raw, refs)
        log["walls"][traced].append(sum(times))
        if not traced:
            log["times"].extend(times)
            log["raw_walls"].append(sum(raw))
            log["raw_times"].extend(raw)
        else:
            log["traced"].append(pass_no)
        log["failures"].extend(failures)
        log["attempted"] += len(wl.jobs)
        for k, v in health.items():
            log["health"][k] = max(log["health"].get(k, 0.0), v)
        pass_no += 1
        if (time.perf_counter() >= deadline
                and len(log["walls"][False]) >= min_passes
                and len(log["times"]) >= min_jobs
                and (tracer is None or len(log["walls"][True]) >= min_passes)):
            return log


def raw_result(wl, log, warm_failures, setup_refs=()) -> dict:
    """This worker's share of the end-to-end numbers; run.py pools them.

    Pass and job times are at the reference speed (see speed.py); the
    ``raw_`` ones are the measured wall times.
    """
    who = resource.RUSAGE_CHILDREN if wl.cli is not None else resource.RUSAGE_SELF
    failures = warm_failures + log["failures"]
    return {
        "pass_walls_s": log["walls"][False],
        "job_ms": [t * 1e3 for t in log["times"]],
        "raw_pass_walls_s": log["raw_walls"],
        "raw_job_ms": [t * 1e3 for t in log["raw_times"]],
        "setup_refs_s": list(setup_refs),
        "tail_pct": wl.tail_pct,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "attempted": log["attempted"] + len(wl.jobs),
        "failed": len(failures),
        "failures": failures[:20],
    }


def _median_ms(fn, repeats=3) -> float:
    ts = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t)
    return statistics.median(ts) * 1e3


def spawn_metrics() -> dict:
    """Bare interpreter start, and `import qscatter.cli` split with -X importtime."""
    spawn = _median_ms(lambda: subprocess.run([sys.executable, "-c", "pass"], check=True,
                                              capture_output=True), 5)
    total, numpy_ms = [], []
    for _ in range(3):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qscatter.cli"],
                             check=True, capture_output=True, text=True).stderr
        cum = {}
        for line in err.splitlines()[1:]:
            parts = line.split("|")
            if len(parts) == 3:
                cum.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
        total.append(cum["qscatter.cli"])
        numpy_ms.append(cum["numpy"])
    return {"cli.spawn_ms": spawn, "cli.import_ms": statistics.median(total),
            "cli.import_numpy_ms": statistics.median(numpy_ms)}


def per_layer(wl, tracer, log) -> dict:
    spans = tracer.spans
    selfs = self_times(spans)
    traced = log["traced"]
    acc = {p: defaultdict(float) for p in traced}
    cold = defaultdict(float)
    seen = set()
    via_jobs = {s[JOB] for s in spans if s[FN] == "spectral_density_via_circuit"}
    for s, self_ns in zip(spans, selfs):
        job = s[JOB]
        if job is None:
            continue
        incl_ms = (s[END] - s[START]) / 1e6
        if s[NAME] == "phasespace.wigner_direct":
            # first call per grid size in each process: the cold cost
            key = (job if wl.cli is not None else None, s[COUNTS]["phasespace.grid_n"])
            if key not in seen:
                seen.add(key)
                cold[job[0]] += incl_ms
        if job[0] not in acc:
            continue
        a = acc[job[0]]
        a[s[NAME] + ".calls"] += 1
        a[s[NAME] + ".self_ms"] += self_ns / 1e6
        for k, v in (s[COUNTS] or {}).items():
            a[k] += v
        if s[NAME] == "scattering.circuit" and wl.jobs[job[1]].direct is not None:
            a["scattering.circuit_incl_ms"] += incl_ms
        if job in via_jobs and s[FN] == "spectral_density":
            a["spectrometer.fourier_base_ms"] += incl_ms
        if s[FN] == "spectral_density_via_circuit":
            a["spectrometer.via_circuit_incl_ms"] += incl_ms

    direct_ms = sum(_median_ms(job.direct) for job in wl.jobs if job.direct is not None)
    for a in acc.values():
        a["scattering.direct_trace_ms"] = direct_ms
        a["scattering.circuit_over_direct"] = (
            a["scattering.circuit_incl_ms"] / direct_ms if direct_ms else 0.0)
        base = a["spectrometer.fourier_base_ms"]
        a["spectrometer.circuit_over_fourier"] = (
            a["spectrometer.via_circuit_incl_ms"] / base if base else 0.0)
        a["phasespace.wigner_direct.cold_ms"] = cold[-1] if wl.cli is None else 0.0
    if wl.cli is not None:
        for p in traced:
            acc[p]["phasespace.wigner_direct.cold_ms"] = cold[p]

    out = {k: statistics.median(acc[p][k] for p in traced) for k in PER_LAYER}
    for k in ("scattering.gap_max", "phasespace.recon_gap_max",
              "spectrometer.route_gap_max", "synthesis.max_error"):
        out[k] = log["health"].get(k, 0.0)
    untraced, traced_w = (statistics.median(log["walls"][k]) for k in (False, True))
    out["trace.overhead_pct"] = (traced_w - untraced) / untraced * 100
    out.update(spawn_metrics())
    return {k: out[k] for k in PER_LAYER}


def main() -> int:
    name, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    done = tuple(int(a) for a in sys.argv[5:8])
    workdir = sys.argv[8]
    os.makedirs(workdir)
    try:
        speed.warm()
        setup_refs = speed.samples(3)  # set-up is timed too; sample the speed along it
        wl = workloads.build(name, seed, workdir)
        if wl.cli is not None:
            # One CPU for this process and the qscatter processes it starts, so
            # the reference kernel samples the speed of the CPU the jobs run on.
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        setup_refs += speed.samples(3)
        tracer = Tracer() if trace == "1" else None
        if tracer is not None:
            set_tracing(wl, tracer, True)
        _, warm_refs, warm_failures, _ = run_pass(wl, tracer, -1)
        if tracer is not None:
            set_tracing(wl, tracer, False)
        print("READY", flush=True)
        log = timed_passes(wl, seconds, done, tracer)
        result = dict(raw_result(wl, log, warm_failures, setup_refs + warm_refs),
                      machine=machine(),
                      per_layer=per_layer(wl, tracer, log) if tracer is not None else {})
        if tracer is not None:
            tracer.dump(os.path.join(workloads.ROOT, ".bench_work",
                                     f"spans-{name}-seed{seed}.json"))
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
