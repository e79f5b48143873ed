"""qscatter benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 bench/run.py --workload probe --seed 1 --seconds 12 --trace 0

With ``--trace 0`` a run starts two fresh interpreters one after another;
each sets up and then measures its share of the ``--seconds`` left, so
``setup_s`` is a median of two and the timed passes are spread over the
whole run. The pooled passes and jobs give the other metrics. ``--trace 1``
uses one interpreter for the whole time.
Every child imports qscatter from ``src/`` of this checkout, with the BLAS
pool pinned to one thread. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics named in
BENCHMARK.json: the end-to-end ones with ``--trace 0``, the per-layer ones
with ``--trace 1``. The lines before it give every metric with its unit,
the tail percentile, the fail rate and the machine.
End-to-end times are reported at the reference speed of speed.py: each
measured time is scaled by a fixed kernel timed next to it, which takes out
the drift of a shared host's CPU speed. The measured times are printed too.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
SETUP_SAMPLES = 2
THREADS = "1"  # one BLAS thread: steadier than two on a shared two-core machine
RUN_TIMEOUT_S = 170  # a whole run, every child included, ends within this


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["QSCATTER_THREADS"] = THREADS
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = THREADS
    return env


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_worker(args, earlier: list, workers_left: int, deadline: float) -> tuple:
    """Start a worker; return (seconds until READY, the same at the reference speed,
    RESULT payload)."""
    walls = [w for r in earlier for w in r["pass_walls_s"]]
    jobs = sum(len(r["job_ms"]) for r in earlier)
    seconds = max(0.0, args.seconds - sum(walls)) / workers_left
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}-{len(earlier)}")
    argv = [sys.executable, WORKER, args.workload, str(args.seed), str(seconds),
            str(args.trace), str(len(walls)), str(jobs), str(workers_left), workdir]
    refs = speed.samples(3)
    start = time.perf_counter()
    # Its own process group, so a kill also ends any qscatter process it started.
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
    timer.start()
    try:
        setup_s, result = None, None
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or setup_s is None or result is None:
        raise RuntimeError(f"worker {' '.join(argv[2:9])} exited with code {code}")
    return setup_s, speed.scale_by(setup_s, refs + result["setup_refs_s"]), result


def percentile(values, pct) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    k = (len(v) - 1) * pct / 100
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def pool(setups, results) -> dict:
    """End-to-end metrics from every worker's timings, at the reference speed."""
    walls = [w for r in results for w in r["pass_walls_s"]]
    jobs = [t for r in results for t in r["job_ms"]]
    tail_pct = results[0]["tail_pct"]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "wall_s": statistics.median(walls),
        "job_ms.p50": percentile(jobs, 50),
        "job_ms.tail": percentile(jobs, tail_pct),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "setup_s": statistics.median(setups),
        "fail_rate": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "tail_pct": tail_pct,
        "jobs_timed": len(jobs),
        "passes_timed": len(walls),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "qscatter", "__init__.py")):
        print("bench: no qscatter sources under src/ in this checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_TIMEOUT_S
    # Untimed: compile the bytecode caches once, so no set-up sample pays it.
    try:
        warm = subprocess.run([sys.executable, "-c", "import qscatter.cli"], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        print("bench: importing qscatter timed out", file=sys.stderr)
        return 2
    if warm.returncode != 0:
        print(f"bench: cannot import qscatter:\n{warm.stderr}", file=sys.stderr)
        return 2

    speed.warm()
    workers = 1 if args.trace else SETUP_SAMPLES
    raw_setups, setups, results = [], [], []
    try:
        for i in range(workers):
            raw_setup, setup_s, result = run_worker(args, results, workers - i, deadline)
            raw_setups.append(raw_setup)
            setups.append(setup_s)
            results.append(result)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    e2e = pool(setups, results)
    values = dict(e2e, **results[0]["per_layer"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"bench: worker reported no {', '.join(missing)}", file=sys.stderr)
        return 1
    attempted, failed = e2e["attempted"], e2e["failed"]
    failures = [f for r in results for f in r["failures"]]
    raw_jobs = [t for r in results for t in r["raw_job_ms"]]
    measured = {  # the same metrics as measured, before scaling to the reference speed
        "wall_s": statistics.median(w for r in results for w in r["raw_pass_walls_s"]),
        "job_ms.p50": percentile(raw_jobs, 50),
        "job_ms.tail": percentile(raw_jobs, e2e["tail_pct"]),
        "setup_s": statistics.median(raw_setups),
    }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": dict(results[0]["machine"], nproc=os.cpu_count(),
                        python=platform.python_version(), qscatter_threads=THREADS,
                        commit=git_commit()),
        "reference_s": speed.REFERENCE_S,
        "setup_samples_s": setups, "measured_setup_samples_s": raw_setups,
        "pass_walls_s": [w for r in results for w in r["pass_walls_s"]],
        "measured_pass_walls_s": [w for r in results for w in r["raw_pass_walls_s"]],
        "measured": measured,
        "job_ms.tail_pct": e2e["tail_pct"], "jobs_timed": e2e["jobs_timed"],
        "fail_rate": e2e["fail_rate"], "failures": failures,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    out_path = os.path.join(ROOT, ".bench_work",
                            f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {attempted} jobs attempted, "
          f"{failed} failed")
    print(f"job_ms.tail is p{e2e['tail_pct']:g} of {e2e['jobs_timed']} timed jobs "
          f"in {e2e['passes_timed']} passes")
    if not args.trace:
        print(f"times at the reference speed (kernel {speed.REFERENCE_S * 1e3:g} ms, "
              "see bench/speed.py); as measured in brackets")
    for name, m in record["metrics"].items():
        raw = f" ({measured[name]:.6g})" if name in measured and not args.trace else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{raw}")
    if not args.trace:  # 0 at a correct commit, so it carries no bound
        print(f"  fail_rate = {e2e['fail_rate']:.6g} jobs/jobs")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
