"""End-to-end CLI behavior: exit codes, artifact formats, determinism."""

from __future__ import annotations

import json
import math
import os
import shlex
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

    def test_non_symplectic_points_become_nan_rows(self, capsys):
        # 30 stacked resonant cycles trip compose's absolute det tolerance
        # at v = 1 and 1.25; the README promises NaN rows, not exit 3
        doc = run_json(capsys, "scan", "--v-grid", "1:1.5:3", "--lambda", "10", "--cycles", "30")
        gains, notes = column(doc, "gain"), column(doc, "note")
        assert all(math.isnan(g) for g in gains[:2])
        assert all(note.startswith("compose: det") for note in notes[:2])
        assert gains[2] == 18.038492822866395 and notes[2] == ""

    def test_power_law_note_prints_plain_floats(self, capsys):
        rc, out, err = run(
            capsys, "scan", "--family", "power", "--k", "-3",
            "--v-grid", "0.05:5:4:log", "--lambda", "6", "--cycles", "40",
        )
        assert rc == 0, err
        assert "compose: det = 1.0000038146972656 deviates" in out
        assert "np.float64" not in out


class TestDeterminism:
    ARGS = ["scan", "--family", "inverse-linear", "--lambda", "6",
            "--v-grid", "0.05:5:8:log"]

    GOLDEN = (
        f"#cyclosc {__version__} scan cycles=1 family=inverse-linear k=-2\n"
        "omega0,lambda,v,gain,det_error,note\n"
        "1,6,0.050000000000000003,1.0108179271051252,2.2204460492503131e-16,\n"
        "1,6,0.096534886444162471,1.0035290572018851,0,\n"
        "1,6,0.18637968601574698,1.8556039796023656,4.4408920985006262e-16,\n"
        "1,6,0.35984283650057591,3.5223053031186478,4.4408920985006262e-16,\n"
        "1,6,0.69474774718656862,4.6121103695672572,0,\n"
        "1,6,1.3413478976398621,5.0589298454625728,4.4408920985006262e-16,\n"
        "1,6,2.5897373396156045,2.552272021085753,1.1102230246251565e-16,\n"
        "1,6,5,1.4569131502066768,6.6613381477509392e-16,\n"
    )

    def _emit_to(self, tmp_path, name):
        path = tmp_path / name
        assert main(self.ARGS + ["--output", str(path)]) == 0
        return path.read_bytes()

    def test_repeat_runs_identical(self, tmp_path, capsys):
        a = self._emit_to(tmp_path, "a.csv")
        b = self._emit_to(tmp_path, "b.csv")
        assert a == b

    def test_scan_output_matches_golden_bytes(self, tmp_path):
        assert self._emit_to(tmp_path, "g.csv") == self.GOLDEN.encode()

    def test_worker_count_invisible_in_output(self, tmp_path, capsys, monkeypatch):
        # scans are serial: a worker count in the environment is ignored and
        # a --workers option is an argparse error that writes nothing
        for n in ("1", "2"):
            monkeypatch.setenv("CYCLOSC_WORKERS", n)
            assert self._emit_to(tmp_path, f"env{n}.csv") == self.GOLDEN.encode()
        monkeypatch.delenv("CYCLOSC_WORKERS")
        path = tmp_path / "w2.csv"
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--output", str(path), "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not path.exists()

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


def _readme_examples():
    """(argv, shown lines) for each `$ cyclosc ...` block in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in text.split("```text\n")[1:]:
        lines = block.split("```")[0].splitlines()
        if lines and lines[0].startswith("$ cyclosc "):
            examples.append((shlex.split(lines[0])[2:], lines[1:]))
    return examples


def _cell_matches(shown: str, actual: str) -> bool:
    """A trailing ... shows a prefix; a bare number shows a value rounded to its digits."""
    if shown.endswith("..."):
        return actual.startswith(shown[:-3])
    if shown == actual:
        return True
    try:
        value = float(shown)
    except ValueError:
        return False
    mantissa = shown.lower().split("e")[0].lstrip("+-").replace(".", "")
    digits = len(mantissa.lstrip("0")) or 1
    return float(f"{float(actual):.{digits}g}") == value


_README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize(
    "argv,shown", _README_EXAMPLES, ids=[argv[0] for argv, _ in _README_EXAMPLES]
)
def test_readme_example_matches_real_output(capsys, argv, shown):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    actual = out.splitlines()
    if shown[-1] == "...":
        shown = shown[:-1]
        assert len(actual) > len(shown)
    else:
        assert len(actual) == len(shown)
    for shown_line, actual_line in zip(shown, actual):
        shown_cells, actual_cells = shown_line.split(","), actual_line.split(",")
        assert len(shown_cells) == len(actual_cells), (shown_line, actual_line)
        for s_cell, a_cell in zip(shown_cells, actual_cells):
            assert _cell_matches(s_cell, a_cell), (s_cell, a_cell)
