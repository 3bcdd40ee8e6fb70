"""cyclosc benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload scan-closed --seed 1 --seconds 38 --trace 0

Run from the repository root.  The run measures set-up time in fresh
interpreters, then starts one hermetic single-threaded worker process
(PYTHONPATH=src, CYCLOSC_WORKERS unset) that serves the workload as one
closed-loop caller, round after round over a fixed deck of requests, and
checks every output outside the timed region.  With --trace 0 it reports
the end-to-end metrics; with --trace 1 it runs one round untraced and
traced and reports the per-layer metrics.  The last line of stdout is one JSON object; the lines before it
are a readable report.  Exit code 0 means every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
WORKLOADS = ("scan-closed", "cycle-bessel", "selfcheck")
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 150
THROUGHPUT_NAMES = {
    "scan-closed": "scan_points_per_s",
    "cycle-bessel": "cycles_per_s",
    "selfcheck": "selfcheck passes per second",
}
LATENCY_NAMES = {
    "scan-closed": "scan calls",
    "cycle-bessel": "cycles",
    "selfcheck": "passes (verify + 4 perturb calls)",
}


class BenchError(RuntimeError):
    pass


def hermetic_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CYCLOSC_WORKERS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict) -> list:
    """Seconds from spawning a fresh interpreter until `import cyclosc.cli` returns.

    One unmeasured start first writes the bytecode caches, as an installed
    package has them.
    """
    code = "import time, cyclosc.cli; print(repr(time.time()))"
    samples = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.time()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import cyclosc.cli failed:\n{proc.stderr[-2000:]}")
        if i:
            samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def run_worker(args: argparse.Namespace, env: dict, workdir: Path) -> tuple:
    cmd = [sys.executable]
    if args.trace:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "worker.py"), args.workload, str(args.seed), str(args.seconds),
            str(args.trace), str(workdir)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def environment(seed: int, versions: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {**versions, "nproc": os.cpu_count(), "cpu": cpu, "commit": commit, "seed": seed}


def end_to_end(args: argparse.Namespace, out: dict, setup: list) -> dict:
    lat_ms = np.array(out["latencies"]) * 1e3
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "items_per_s": (out["items"] / out["round_s"], "1/s"),
        "request_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "request_p99_ms": (float(np.percentile(lat_ms, 99)), "ms"),
    }
    n, rounds = len(lat_ms), out["rounds"]
    best = f"each the fastest of {rounds} rounds"
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mb": "ru_maxrss of the worker at the end of the timed loop",
        "items_per_s": f"{THROUGHPUT_NAMES[args.workload]}: {out['items']} {out['unit']} "
                       f"in one round of {out['round_s']:.3f} s, {best}",
        "request_p50_ms": f"median over n={n} {LATENCY_NAMES[args.workload]}, {best}",
        "request_p99_ms": f"99th percentile over n={n} {LATENCY_NAMES[args.workload]}, {best}",
    }
    for name, (value, unit) in metrics.items():
        print(f"# {name:<16} {value:<14.6g} {unit:<4} {notes[name]}")
    print(f"# timed loop: {out['requests']} requests in {rounds} rounds, "
          f"{out['wall_s']:.3f} s; {out['items'] * rounds / out['wall_s']:.6g} "
          f"{out['unit']} per second of all timings")
    return metrics


def per_layer(out: dict, stderr: str) -> dict:
    values = {**tracing.import_times(stderr), **out["metrics"]}
    metrics = {name: (values[name], unit) for name, unit in tracing.LAYER_METRICS.items()}
    for name, (value, unit) in metrics.items():
        print(f"# {name:<34} {value:<14.6g} {unit}")
    print(f"# spans recorded: {out['spans']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "cyclosc" / "__init__.py").is_file():
        print(f"bench: no cyclosc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = hermetic_env()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else measure_setup(env)
        out, stderr = run_worker(args, env, workdir)
        if args.trace:
            shutil.copy(workdir / "spans.csv", WORK / f"spans-{args.workload}.csv")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# cyclosc benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(environment(args.seed, out['versions']))}")
    metrics = per_layer(out, stderr) if args.trace else end_to_end(args, out, setup)
    attempted, failed = out["attempted"], out["failed"]
    print(f"# failed_share     {failed / max(attempted, 1):<14.6g} ratio "
          f"{failed} of {attempted} operations failed")
    for note in out["notes"]:
        print(f"# note: {note}")
    for problem in out["problems"][:20]:
        print(f"# CHECK FAILED: {problem}")
    correct = not out["problems"]
    print(f"# output checks: {'ok' if correct else 'FAILED'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
