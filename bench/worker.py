"""One benchmark run inside a fresh interpreter; started by run.py.

Usage: PYTHONPATH=src python bench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

Prints one JSON object.  Untraced (TRACE=0): the closed loop runs rounds
over the workload's deck for about SECONDS of measured time.  Traced
(TRACE=1): one round runs untraced and traced, request by request; spans
go to WORKDIR/spans.csv.
"""

import json
import resource
import sys
import time

import cyclosc.cli  # first: the traced run's -X importtime report starts here

from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads


def timed_run(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    wl = workloads.make(name, seed, workdir)
    timings = workloads.run_rounds(wl, seconds)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies, round_s = wl.best_latencies(timings)
    wl.finish()
    rounds = len(timings)
    return {
        "items": wl.items // rounds, "unit": wl.unit, "latencies": latencies, "round_s": round_s,
        "rounds": rounds, "requests": int(timings.size), "wall_s": float(timings.sum()),
        "peak_rss_mb": peak_rss_kb / 1024.0, "attempted": wl.attempted,
        "failed": wl.failed, "problems": wl.problems, "notes": wl.notes,
    }


def traced_run(name: str, seed: int, workdir: Path) -> dict:
    """One round over the deck, each request run untraced and then traced.

    Interleaving the two keeps drifts in machine speed out of the overhead
    estimate; one untimed request first pays the first-call costs.
    """
    warm = workloads.make(name, seed, workdir)
    warm.after(0, warm.request(0))
    plain, traced = workloads.make(name, seed, workdir), workloads.make(name, seed, workdir)
    tracer = tracing.Tracer()
    busy_plain = busy_traced = 0.0
    for key in range(plain.deck_size):
        t0 = time.perf_counter()
        result = plain.request(key)
        busy_plain += time.perf_counter() - t0
        plain.after(key, result)
        with tracing.installed(tracer):
            t0 = time.perf_counter()
            result = traced.request(key)
            busy_traced += time.perf_counter() - t0
        traced.after(key, result)
    traced.finish()
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_share"] = (busy_traced - busy_plain) / busy_plain
    calls, _ = tracer.self_times()
    artifact = traced.artifact_bytes()
    if calls["cli.main"]:
        metrics["cli.rows"] = sum(max(len(a.splitlines()) - 2, 0) for a in traced.artifact)
        metrics["cli.bytes_written"] = sum(len(a) for a in traced.artifact)
    else:
        metrics["cli.rows"] = metrics["cli.bytes_written"] = 0
    problems = list(traced.problems)
    if plain.artifact_bytes() != artifact:
        problems.append("traced artifacts differ from untraced ones")
    tracer.write(workdir / "spans.csv")
    return {
        "metrics": metrics, "spans": len(tracer.spans), "attempted": traced.attempted,
        "failed": traced.failed, "problems": problems, "notes": traced.notes,
    }


def main(argv) -> int:
    name, seed, seconds, trace, workdir = argv
    workdir = Path(workdir)
    if trace == "1":
        out = traced_run(name, int(seed), workdir)
    else:
        out = timed_run(name, int(seed), float(seconds), workdir)
    out["versions"] = {
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
        "cyclosc": cyclosc.__version__,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
