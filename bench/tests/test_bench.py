"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench/tests -q

Tiny-size smoke runs of every workload, the traced path, and the output
checks rejecting corrupted artifacts.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cyclosc.cli  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

SMOKE_DECK = {"scan-closed": 2, "cycle-bessel": 30, "selfcheck": 5}


def smoke(name, tmp_path, tracer=None, seed=3, rounds=1):
    wl = workloads.make(name, seed, tmp_path, small=True)
    if tracer is None:
        timings = workloads.run_rounds(wl, 0.0, rounds)
    else:
        with tracing.installed(tracer):
            timings = workloads.run_rounds(wl, 0.0, rounds)
    wl.finish()
    return wl, timings


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_passes_its_checks(name, tmp_path):
    wl, timings = smoke(name, tmp_path, rounds=2)
    assert timings.shape == (2, SMOKE_DECK[name])
    assert wl.problems == []
    assert wl.attempted > 0 and wl.failed == 0 and wl.items > 0
    latencies, round_s = wl.best_latencies(timings)
    assert round_s == pytest.approx(timings.min(axis=0).sum())
    assert len(latencies) == (1 if name == "selfcheck" else SMOKE_DECK[name])
    assert sum(latencies) == pytest.approx(round_s)


def test_best_latencies_take_the_fastest_round_and_sum_groups():
    wl = workloads.Workload()
    wl.deck_size = 3
    timings = np.array([[1.0, 5.0, 2.0], [3.0, 4.0, 1.0]])
    assert wl.best_latencies(timings) == ([1.0, 4.0, 1.0], 6.0)
    wl.groups = [range(0, 2), range(2, 3)]
    assert wl.best_latencies(timings) == ([5.0, 1.0], 6.0)


def test_a_repeat_that_differs_is_a_problem():
    wl = workloads.Workload()
    assert wl.repeat(0, b"a") is False
    assert wl.repeat(0, b"a") is True and wl.problems == []
    wl.repeat(0, b"b")
    assert wl.problems == ["request 0 returned a different result than its first call"]
    assert wl.artifact_bytes() == b"a"


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reproduces_artifacts_and_restores(name, tmp_path):
    plain, _ = smoke(name, tmp_path)
    original = cyclosc.cli.main
    tracer = tracing.Tracer()
    traced, _ = smoke(name, tmp_path, tracer)
    assert cyclosc.cli.main is original
    assert traced.artifact_bytes() == plain.artifact_bytes()
    metrics = tracer.layer_metrics()
    assert all(v >= 0 for v in metrics.values())
    assert metrics["core.gain_factor.calls"] > 0
    if name == "scan-closed":
        assert metrics["ode.legs"] == 0
        assert metrics["closed_form.inverse_linear.calls"] == 2 * 12 * 5 * 2
    else:
        assert metrics["ode.legs"] > 0 and metrics["ode.steps"] > 0


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1]]
    calls, self_s = tracer.self_times()
    assert self_s == {"a": 7.0, "b": 2.0, "c": 1.0}
    assert calls == {"a": 1, "b": 1, "c": 1}


def test_import_times_parses_importtime_report():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       200 |     500000 | scipy.interpolate",
        "import time:      3000 |       9000 |   scipy.special",
        "import time:      1000 |       1000 | cyclosc.core",
        "import time:       500 |     800000 | cyclosc",
    ])
    got = tracing.import_times(report)
    assert got["setup.scipy_interpolate_s"] == 0.5
    assert got["setup.scipy_special_s"] == 0.009
    assert got["setup.scipy_optimize_s"] == 0.0
    assert got["setup.cyclosc_self_s"] == pytest.approx(0.0015)


# --- the checks reject corrupted artifacts -----------------------------------


@pytest.fixture()
def scan_artifact(tmp_path):
    wl = workloads.make("scan-closed", 5, tmp_path, small=True)
    wl.request(0)
    text = wl.out.read_text("utf-8")
    v_grid, lam_grid, _ = wl.grids[0]
    assert checks.check_scan(text, v_grid, lam_grid).problems == []
    return text, v_grid, lam_grid


def _rows(text):
    lines = text.splitlines(keepends=True)
    return lines[:2], lines[2:]


def test_scan_check_rejects_gain_below_one(scan_artifact):
    text, v_grid, lam_grid = scan_artifact
    head, rows = _rows(text)
    cells = rows[3].split(",")
    cells[3] = "0.98999999999999999"
    bad = "".join(head + rows[:3] + [",".join(cells)] + rows[4:])
    assert any("gain <" in p for p in checks.check_scan(bad, v_grid, lam_grid).problems)


def test_scan_check_rejects_dropped_row(scan_artifact):
    text, v_grid, lam_grid = scan_artifact
    head, rows = _rows(text)
    bad = "".join(head + rows[:7] + rows[8:])
    assert checks.check_scan(bad, v_grid, lam_grid).problems


def test_scan_check_rejects_swapped_rows(scan_artifact):
    text, v_grid, lam_grid = scan_artifact
    head, rows = _rows(text)
    rows[2], rows[9] = rows[9], rows[2]
    problems = checks.check_scan("".join(head + rows), v_grid, lam_grid).problems
    assert problems == ["scan: 2 rows out of grid order"]


def test_scan_check_counts_nan_rows_and_needs_a_note(scan_artifact):
    text, v_grid, lam_grid = scan_artifact
    head, rows = _rows(text)
    cells = rows[0].rstrip("\n").split(",")
    cells[3:] = ["nan", "nan", ""]
    report = checks.check_scan("".join(head + [",".join(cells) + "\n"] + rows[1:]),
                               v_grid, lam_grid)
    assert report.nan_rows == 1
    assert report.problems == ["scan row 0: NaN gain without a note"]


def test_scan_oracle_rejects_a_wrong_gain(scan_artifact):
    text, v_grid, lam_grid = scan_artifact
    row = checks.check_scan(text, v_grid, lam_grid).rows[4]
    assert checks.check_scan_point_ode(row) == []
    wrong = checks.ScanRow(row.omega0, row.lam, row.v, row.gain * (1 + 1e-5), row.det_error, "")
    assert checks.check_scan_point_ode(wrong)


def test_cycle_checks_reject_wrong_gains(tmp_path):
    wl, _ = smoke("cycle-bessel", tmp_path)
    rec = wl.lowest
    assert checks.check_cycle_ode(rec) == []
    low = checks.CycleRecord(rec.spec, rec.matrix, 0.99, rec.det_error)
    assert checks.check_cycle(low)
    off = checks.CycleRecord(rec.spec, rec.matrix, rec.gain * (1 + 1e-5), rec.det_error)
    assert checks.check_cycle_ode(off)


def test_verify_check_counts_failed_suites():
    text = ("#cyclosc 0.1.0 verify seed=1\nsuite,passed,total,worst_deviation,status\n"
            "a,3,3,0,ok\nb,1,2,0.5,FAIL\n")
    report = checks.check_verify(1, text)
    assert (report.attempted, report.failed) == (2, 1)
    assert report.problems == ["verify: suite b is FAIL", "verify exited 1"]


def test_perturb_check_rejects_negative_shift_and_inverted_probabilities():
    text = ("#cyclosc 0.1.0 perturb power=2\nn,energy_shift,p_up,p_down\n"
            "0,1e-9,1e-9,0\n1,-1e-12,1e-9,0\n2,1e-9,1e-9,2e-9\n")
    problems = checks.check_perturb(0, text)
    assert len(problems) == 2
    assert "energy_shift" in problems[0] and "p_up" in problems[1]


# --- the entry point -----------------------------------------------------------


def test_entry_point_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "selfcheck", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_entry_point_prints_every_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "selfcheck", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
