"""End-to-end CLI behavior: exit codes, artifact formats, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclosc
import cyclosc.cli as cli
from cyclosc import __version__
from cyclosc.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--format", "json")
    assert rc == 0, err
    return json.loads(out)


def column(doc, name):
    i = doc["columns"].index(name)
    return [row[i] for row in doc["rows"]]


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"cyclosc {__version__}"

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_family(self, capsys):
        rc, _, err = run(capsys, "propagate", "--family", "linear")
        assert rc == 2
        assert json.loads(err)["error"] == "config"

    def test_import_loads_no_scipy_solver_packages(self):
        # closed-form runs use none of these, so importing the CLI must not pay for them
        src = str(Path(cyclosc.__file__).resolve().parents[1])
        code = (
            "import sys, cyclosc.cli; "
            "sys.exit(any(m in sys.modules for m in "
            "('scipy.interpolate', 'scipy.integrate', 'scipy.optimize')))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestPropagate:
    def test_fast_power_law_limit(self, capsys):
        doc = run_json(
            capsys, "propagate", "--family", "power", "--k", "-2",
            "--v", "1000", "--lambda", "0.1",
        )
        (energy,) = column(doc, "final_energy")
        assert abs(energy - 25.25) / 25.25 < 0.02
        assert doc["meta"]["k"] == -2.0

    def test_v_grid_sweep_csv_layout(self, capsys):
        rc, out, err = run(
            capsys, "propagate", "--family", "inverse-linear",
            "--lambda", "3", "--v-grid", "0.1:10:7:log",
        )
        assert rc == 0, err
        lines = out.splitlines()
        assert lines[0].startswith(f"#cyclosc {__version__} propagate ")
        assert lines[1].split(",")[:2] == ["v", "lambda"]
        assert len(lines) == 2 + 7
        det_col = lines[1].split(",").index("det_error")
        assert all(float(row.split(",")[det_col]) < 1e-9 for row in lines[2:])

    def test_ode_method_agrees_with_closed_form(self, capsys):
        argv = ["propagate", "--family", "exponential", "--v", "0.8", "--lambda", "0.4"]
        closed = run_json(capsys, *argv, "--method", "closed")
        ode = run_json(capsys, *argv, "--method", "ode")
        for name in ("a", "b", "c", "d"):
            (x,) = column(closed, name)
            (y,) = column(ode, name)
            assert abs(x - y) < 1e-6

    def test_lambda_one_rejected(self, capsys):
        rc, _, err = run(capsys, "propagate", "--lambda", "1")
        assert rc == 2

    def test_degenerate_power_exponent_rejected(self, capsys):
        rc, _, err = run(capsys, "propagate", "--family", "power", "--k", "2")
        assert rc == 2
        assert "k" in json.loads(err)["message"]

    def test_bad_rate_and_method_rejected(self, tmp_path, capsys):
        assert run(capsys, "propagate", "--v=-1")[0] == 2
        assert run(capsys, "propagate", "--v-grid=-1:1:3")[0] == 2
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"method": "euler"}))
        assert run(capsys, "propagate", "--config", str(cfg))[0] == 2

    def test_bessel_order_out_of_range_exits_3(self, capsys):
        rc, _, err = run(capsys, "propagate", "--family", "power", "--k", "0.05")
        assert rc == 3
        assert json.loads(err)["error"] == "numeric"


class TestCycleAndScan:
    def test_cycle_gain_floor(self, capsys):
        doc = run_json(
            capsys, "cycle", "--family", "power", "--k", "-3",
            "--v", "2.5", "--lambda", "4",
        )
        (gain,) = column(doc, "gain")
        assert gain >= 1.0 - 1e-9

    def test_scan_rows_and_floor(self, capsys):
        doc = run_json(
            capsys, "scan", "--family", "inverse-linear",
            "--lambda", "10", "--v-grid", "0.01:10:50:log",
        )
        gains = column(doc, "gain")
        assert len(gains) == 50
        assert all(g >= 1.0 - 1e-9 for g in gains)
        assert max(gains) > 5.0

    def test_bad_grid_specs(self, capsys):
        for grid in ("1:2", "a:b:c", "1:2:5:exp"):
            rc, _, err = run(capsys, "scan", "--v-grid", grid)
            assert rc == 2, grid
        # leading - needs the = form to get past argparse
        rc, _, _ = run(capsys, "scan", "--v-grid=-1:2:5:log")
        assert rc == 2

    def test_worker_validation(self, capsys):
        for bad in ("0", "x"):
            rc, _, _ = run(capsys, "scan", "--v-grid", "0.1:1:2", "--workers", bad)
            assert rc == 2


class TestDeterminism:
    ARGS = ["scan", "--family", "inverse-linear", "--lambda", "6",
            "--v-grid", "0.05:5:8:log"]

    def _emit_to(self, tmp_path, name, *extra, env=None, monkeypatch=None):
        path = tmp_path / name
        if env and monkeypatch:
            for k, v in env.items():
                monkeypatch.setenv(k, v)
        rc = main(self.ARGS + ["--output", str(path), *extra])
        if env and monkeypatch:
            for k in env:
                monkeypatch.delenv(k)
        assert rc == 0
        return path.read_bytes()

    def test_repeat_runs_identical(self, tmp_path, capsys):
        a = self._emit_to(tmp_path, "a.csv")
        b = self._emit_to(tmp_path, "b.csv")
        assert a == b

    def test_worker_count_invisible_in_output(self, tmp_path, capsys, monkeypatch):
        serial = self._emit_to(tmp_path, "w1.csv", "--workers", "1")
        parallel = self._emit_to(tmp_path, "w2.csv", "--workers", "2")
        via_env = self._emit_to(
            tmp_path, "env.csv", env={"CYCLOSC_WORKERS": "2"}, monkeypatch=monkeypatch
        )
        assert serial == parallel == via_env

    def test_stdout_matches_file(self, tmp_path, capsys):
        from_file = self._emit_to(tmp_path, "f.csv")
        rc, out, _ = run(capsys, *self.ARGS)
        assert rc == 0
        assert out.encode() == from_file

    def test_csv_and_json_carry_the_same_numbers(self, capsys):
        rc, out, _ = run(capsys, *self.ARGS)
        doc = run_json(capsys, *self.ARGS)
        lines = out.splitlines()
        header = lines[1].split(",")
        gain_col = header.index("gain")
        csv_gains = [float(row.split(",")[gain_col]) for row in lines[2:]]
        assert csv_gains == column(doc, "gain")


class TestJsonSchema:
    def test_document_shape(self, capsys):
        doc = run_json(capsys, "cycle", "--v", "1.5", "--lambda", "3")
        assert set(doc) == {"tool", "version", "subcommand", "meta", "columns", "rows"}
        assert doc["tool"] == "cyclosc"
        assert doc["version"] == __version__
        assert doc["subcommand"] == "cycle"
        assert len(doc["columns"]) == len(doc["rows"][0])


class TestConfigFile:
    def test_config_supplies_values_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "family": "power", "k": -3, "v": 1000, "lambda": 0.1,
        }))
        doc = run_json(capsys, "propagate", "--config", str(cfg))
        (energy,) = column(doc, "final_energy")
        assert abs(energy - 25.25) / 25.25 < 0.02
        assert doc["meta"]["k"] == -3.0
        # flag beats config
        doc = run_json(capsys, "propagate", "--config", str(cfg), "--k", "-4")
        assert doc["meta"]["k"] == -4.0
        (energy,) = column(doc, "final_energy")
        assert abs(energy - 25.25) / 25.25 < 0.02

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"familly": "power"}))
        rc, _, err = run(capsys, "propagate", "--config", str(cfg))
        assert rc == 2
        assert "familly" in json.loads(err)["message"]

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        assert run(capsys, "propagate", "--config", str(cfg))[0] == 2
        cfg.write_text(json.dumps([1, 2]))
        assert run(capsys, "propagate", "--config", str(cfg))[0] == 2
        assert run(capsys, "propagate", "--config", str(tmp_path / "nope.json"))[0] == 2


class TestForced:
    def test_sampled_gains_respect_theorem(self, capsys):
        doc = run_json(capsys, "forced", "--samples", "4", "--seed", "3")
        assert all(g >= 1.0 - 1e-9 for g in column(doc, "gain"))
        e_free = column(doc, "e_free")
        e_drive = column(doc, "e_drive")
        e_final = column(doc, "e_final")
        for f, d, t in zip(e_free, e_drive, e_final):
            assert t == pytest.approx(f + d, rel=1e-12)

    def test_seed_changes_numbers(self, capsys):
        a = run_json(capsys, "forced", "--samples", "2", "--seed", "1")
        b = run_json(capsys, "forced", "--samples", "2", "--seed", "2")
        assert a["rows"] != b["rows"]


class TestPerturb:
    def test_rows_and_positivity(self, capsys):
        doc = run_json(capsys, "perturb", "--n-max", "3")
        assert column(doc, "n") == [0, 1, 2, 3]
        assert all(s >= 0.0 for s in column(doc, "energy_shift"))
        p_down = column(doc, "p_down")
        assert p_down[0] == 0.0 and p_down[1] == 0.0  # below the N = 2 ladder

    def test_undersampled_drive_exits_3(self, capsys):
        rc, _, err = run(capsys, "perturb", "--drive-freq", "4000", "--n-max", "0")
        assert rc == 3
        assert json.loads(err)["error"] == "numeric"


class TestSpectrum:
    def test_meta_and_stage_rows(self, capsys):
        doc = run_json(capsys, "spectrum", "--points", "32")
        stages = column(doc, "stage")
        assert stages.count("before") == 32 and stages.count("after") == 32
        fitted = doc["meta"]["fitted_temperature"]
        assert fitted == pytest.approx(300.0 / 1e-4, rel=1e-6)

    def test_relativistic_wall_is_config_error(self, capsys):
        rc, _, _ = run(capsys, "spectrum", "--rate", "1e10")
        assert rc == 2


class TestVerify:
    def test_default_seed_passes(self, capsys):
        doc = run_json(capsys, "verify")
        assert all(status == "ok" for status in column(doc, "status"))
        assert all(p == t for p, t in zip(column(doc, "passed"), column(doc, "total")))

    def test_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "_SUITES", (("always-fails", lambda rng: (0, 1, 42.0)),)
        )
        rc, out, _ = run(capsys, "verify", "--format", "json")
        assert rc == 1
        doc = json.loads(out)
        assert column(doc, "status") == ["FAIL"]
