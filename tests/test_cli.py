"""End-to-end CLI behavior: exit codes, artifact formats, determinism."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclosc
import cyclosc.cli as cli
import cyclosc.closed_form
from cyclosc import __version__
from cyclosc.cli import main
from cyclosc.cycles import leg


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
        # scipy.special loads on the first Bessel leg, and the rest of scipy
        # where it is used, so importing the CLI loads no scipy module at all
        src = str(Path(cyclosc.__file__).resolve().parents[1])
        code = "import sys, cyclosc.cli; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
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

    @pytest.mark.parametrize("family, lam, k", [
        ("power-law", 0.1, -3.0), ("inverse-linear", 3.0, -2.0), ("exponential", 0.4, -2.0),
    ])
    def test_ode_v_grid_is_one_batch_with_the_bits_of_each_leg(self, capsys, monkeypatch, family, lam, k):
        calls = []
        batch = cyclosc.cycles.propagate_ode_batch
        monkeypatch.setattr(cyclosc.cycles, "propagate_ode_batch", lambda *a: calls.append(a) or batch(*a))
        doc = run_json(capsys, "propagate", "--method", "ode", "--family", family,
                       "--v-grid", "0.1:30:20:log", "--lambda", repr(lam), "--k", repr(k))
        assert len(calls) == 1 and len(calls[0][0]) == 20
        for v, *entries in zip(*(column(doc, name) for name in ("v", "a", "b", "c", "d"))):
            s = leg(family, v, lam, k, "ode")
            assert entries == [s.a, s.b, s.c, s.d]

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

    def test_resonant_stacks_are_gains_not_nan_rows(self, capsys):
        # 30 stacked resonant cycles at v = 1 and 1.25 grow to R ~ 1e30 and
        # 2e16 with det S - 1 at roundoff of that scale (4.4e12 and 0.5):
        # valid gains under the det contract, which scales with R
        doc = run_json(capsys, "scan", "--v-grid", "1:1.5:3", "--lambda", "10", "--cycles", "30")
        assert column(doc, "gain") == [
            1.2979658584323882e30, 2.3511594829134916e16, 18.038492822866395
        ]
        assert column(doc, "det_error") == [4398046511105.0, 0.5, 2.0872192862952943e-14]
        assert column(doc, "note") == ["", "", ""]

    # (omega0/v)**2 or omega0**2 past the float range: v = 1e-200 on the
    # outbound leg, omega0 = 1/lambda = 1e300 on the return leg
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", [
        ["--v-grid", "1e-200:1e-199:2", "--lambda", "2"],
        ["--v-grid", "0.5:50:3", "--lambda", "1e-300"],
    ])
    def test_overflowing_squares_become_nan_rows(self, capsys, grid):
        rc, out, err = run(capsys, "scan", *grid)
        assert (rc, err) == (0, "")
        rows = out.splitlines()[2:]
        assert rows and all(",nan,nan," in row for row in rows)
        assert all(row.endswith("**2 or omega0**2 overflows") for row in rows)

    @pytest.mark.parametrize("sub", ["cycle", "propagate"])
    def test_overflowing_squares_exit_3(self, capsys, sub):
        rc, out, err = run(capsys, sub, "--v", "1e-200")
        assert (rc, out) == (3, "")
        assert json.loads(err) == {
            "error": "numeric",
            "message": "omega0 = 1.0 with rate v = 1e-200 is out of range: "
                       "(omega0/v)**2 or omega0**2 overflows",
        }

    def test_sudden_limit_gain_is_one_to_roundoff(self, capsys):
        # R >= det S holds exactly ((a^2 + b^2 + c^2 + d^2)/2 >= ad - bc), so
        # R may fall below 1 by no more than det S does: a few ulps here
        doc = run_json(capsys, "scan", "--v-grid", "1e300:1.7e308:3", "--lambda", "2")
        eps = np.finfo(float).eps
        for gain, det_error, note in zip(*(column(doc, name) for name in ("gain", "det_error", "note"))):
            assert gain >= 1.0 - 4.0 * eps
            assert det_error <= 4.0 * eps
            assert note == ""

    def test_power_law_note_prints_plain_floats(self, capsys):
        # the resonant point at v = 0.232 grows by ~6.6 per cycle and
        # overflows within 400 cycles
        rc, out, err = run(
            capsys, "scan", "--family", "power", "--k", "-3",
            "--v-grid", "0.05:5:4:log", "--lambda", "6", "--cycles", "400",
        )
        assert rc == 0, err
        assert "1,6,0.2320794416806389,nan,nan,compose: Tr[S S^T]/2 overflows to inf\n" in out
        assert "np.float64" not in out

    # a Bessel frame whose Wronskian evaluates to 0 at w = z/v = 1e200 or 1e100
    @pytest.mark.filterwarnings("error")
    def test_degenerate_bessel_frame_leaves_only_the_json_line(self, capsys):
        note = "the Bessel frame is degenerate: its Wronskian evaluates to 0"
        rc, out, err = run(capsys, "cycle", "--family", "exponential", "--v", "1e-200")
        assert (rc, out) == (3, "")
        assert err == json.dumps({"error": "numeric", "message": note}) + "\n"
        rc, out, err = run(
            capsys, "scan", "--family", "exponential", "--v-grid", "1e-200:1:3:log", "--lambda", "2"
        )
        assert (rc, err) == (0, "")
        assert out.splitlines()[2:] == [
            f"1,2,9.9999999999999998e-201,nan,nan,{note}",
            f"1,2,1e-100,nan,nan,{note}",
            "1,2,1,1.1738286005928731,6.6613381477509392e-16,",
        ]

    # power-law frames at u = v/omega0 ~ 1e300 overflow to nan
    @pytest.mark.filterwarnings("error")
    def test_non_finite_bessel_frame_is_a_nan_row(self, capsys):
        note = "the Bessel frame is not finite: its Wronskian evaluates to nan"
        rc, out, err = run(
            capsys, "scan", "--family", "power", "--k", "-3", "--omega0-grid", "1e-300:1e-300:1",
            "--v-grid", "0.5:2:3", "--lambda", "2",
        )
        assert (rc, err) == (0, "")
        assert out.splitlines()[2:] == [f"1e-300,2,{v},nan,nan,{note}" for v in ("0.5", "1.25", "2")]

    # v/omega0 overflows although v itself is finite; the note says so
    @pytest.mark.filterwarnings("error")
    def test_overflowing_normalized_rate_is_named_in_the_note(self, capsys):
        rc, out, err = run(
            capsys, "scan", "--family", "exponential", "--v-grid", "1e300:1e300:1",
            "--omega0-grid", "1e-10:1e-10:1", "--lambda", "2",
        )
        assert (rc, err) == (0, "")
        assert out.splitlines()[2:] == [
            '1e-10,2,1.0000000000000001e+300,nan,nan,'
            '"v/omega0 = inf leaves the float range at v = 1e+300, omega0 = 1e-10"'
        ]

    # inverse-linear takes v/omega0 = inf, the sudden limit, but not 0, which
    # a positive v reaches only by underflow
    @pytest.mark.filterwarnings("error")
    def test_underflowing_normalized_rate_is_named_in_the_note(self, capsys):
        rc, out, err = run(
            capsys, "scan", "--family", "inverse-linear", "--v-grid", "1e-320:1e-320:1",
            "--omega0-grid", "1e10:1e10:1", "--lambda", "2",
        )
        assert (rc, err) == (0, "")
        assert out.splitlines()[2:] == [
            '10000000000,2,9.9998886718268301e-321,nan,nan,'
            '"v/omega0 = 0.0 leaves the float range at v = 1e-320, omega0 = 10000000000.0"'
        ]


# Float columns with repeats, signed zeros, nan, infinities and subnormals;
# text cells with csv's special characters; mixed Python and numpy values.
_FLOAT = st.one_of(
    st.sampled_from([-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -1e-310, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
_TEXT = st.one_of(
    st.sampled_from(["", ",", '"', "\r", "\n", '""', " ", 'a,"b"\r\nc']),
    st.text(alphabet=st.sampled_from('ab ,"\r\n\t;\'0.-'), max_size=6),
)
_MIXED = st.one_of(
    _FLOAT, _TEXT, st.integers(), st.booleans(), st.none(),
    _FLOAT.map(np.float64), st.integers(-10**6, 10**6).map(np.int64), _TEXT.map(np.str_),
)


def _float_bits(x):
    return np.float64(x).view(np.int64).item()


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 12))
    names = draw(st.lists(_TEXT, min_size=1, max_size=4))
    columns = []
    for _ in names:
        kind = draw(st.sampled_from(["float", "distinct", "text", "mixed"]))
        if kind == "float":
            pool = draw(st.lists(_FLOAT, min_size=1, max_size=4))
            columns.append(np.array(draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))))
        elif kind == "distinct":  # every bit pattern once, as in a gain column
            cells = st.lists(_FLOAT, min_size=rows, max_size=rows, unique_by=_float_bits)
            columns.append(np.array(draw(cells)))
        else:
            cells = draw(st.lists(_TEXT if kind == "text" else _MIXED, min_size=rows, max_size=rows))
            columns.append(tuple(cells) if kind == "text" else cells)
    return names, columns


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

    # NaN rows whose notes hold a comma, so csv quoting is pinned too
    NAN_ROWS = ["scan", "--v-grid=-1:1:3", "--lambda", "2"]
    NAN_ROWS_CSV = (
        f"#cyclosc {__version__} scan cycles=1 family=inverse-linear k=-2\n"
        "omega0,lambda,v,gain,det_error,note\n"
        '1,2,-1,nan,nan,"v must be a positive rate magnitude, got -1.0"\n'
        '1,2,0,nan,nan,"v must be a positive rate magnitude, got 0.0"\n'
        "1,2,1,1.2331816118858072,0,\n"
    )
    NAN_ROWS_JSON = (
        '{"columns":["omega0","lambda","v","gain","det_error","note"],'
        '"meta":{"cycles":1,"family":"inverse-linear","k":-2.0},"rows":['
        '[1.0,2.0,-1.0,NaN,NaN,"v must be a positive rate magnitude, got -1.0"],'
        '[1.0,2.0,0.0,NaN,NaN,"v must be a positive rate magnitude, got 0.0"],'
        '[1.0,2.0,1.0,1.2331816118858072,0.0,""]],'
        f'"subcommand":"scan","tool":"cyclosc","version":"{__version__}"}}\n'
    )

    def test_nan_rows_match_golden_bytes(self, capsys):
        for fmt, golden in (("csv", self.NAN_ROWS_CSV), ("json", self.NAN_ROWS_JSON)):
            rc, out, _ = run(capsys, *self.NAN_ROWS, "--format", fmt)
            assert rc == 0
            assert out == golden

    # a growing grid run for many cycles: six points overflow after a few
    # repeats and fail a compose check, as on the per-point path, without
    # numpy warnings on stderr; v = 14 stays finite at R ~ 2.6e253
    MANY_CYCLES = ["scan", "--lambda", "1000", "--v-grid", "2:20:10", "--cycles", "300"]
    MANY_CYCLES_CSV = (
        f"#cyclosc {__version__} scan cycles=300 family=inverse-linear k=-2\n"
        "omega0,lambda,v,gain,det_error,note\n"
        "1,1000,2,nan,nan,compose: Tr[S S^T]/2 overflows to inf\n"
        "1,1000,4,nan,nan,compose: Tr[S S^T]/2 overflows to inf\n"
        "1,1000,6,nan,nan,compose: Tr[S S^T]/2 overflows to inf\n"
        "1,1000,8,nan,nan,compose: Tr[S S^T]/2 overflows to inf\n"
        "1,1000,10,nan,nan,compose: Tr[S S^T]/2 overflows to inf\n"
        "1,1000,12,nan,nan,compose: Tr[S S^T]/2 overflows to inf\n"
        "1,1000,14,2.5677685188056162e+253,1.2718228212127408e+235,\n"
        "1,1000,16,7625.3898554748921,6.7768013423119555e-12,\n"
        "1,1000,18,1285.4831392697442,1.2141843086510562e-11,\n"
        "1,1000,20,98.141653222057101,1.5130008357289171e-11,\n"
    )

    # Bessel-family runs: NaN rows from drifting and degenerate Bessel
    # frames, an omega0 axis, a cycle and a v-grid of legs.  The v = 1e-150
    # and 1e150 legs of power-scan are wrong (a 400-digit mpmath map gives
    # R - 1 <= 5e-269 for all four), so their Wronskians drift.
    BESSEL = {
        "power-scan": (
            ["scan", "--family", "power", "--k", "-3", "--v-grid", "1e-150:1e150:3:log",
             "--lambda-grid", "1e-10:1e10:2:log", "--cycles", "2"],
            f"#cyclosc {__version__} scan cycles=2 family=power-law k=-3\n"
            "omega0,lambda,v,gain,det_error,note\n"
            "1,1e-10,1e-150,nan,nan,the Bessel frame at z = 9.999999999999995e-05 is inaccurate: "
            "its Wronskian drifts by 0.8029005021684047 (tolerance 1e-06)\n"
            "1,1e-10,1,1.0938248202371099,2.2204460492503131e-16,\n"
            "1,1e-10,9.9999999999999998e+149,nan,nan,the Bessel frame at z = 9.999999999999995e-05 "
            "is inaccurate: its Wronskian drifts by 0.99993896484375 (tolerance 1e-06)\n"
            "1,10000000000,1e-150,nan,nan,the Bessel frame at z = 10000.000000000005 is inaccurate: "
            "its Wronskian drifts by 0.47792128283688173 (tolerance 1e-06)\n"
            "1,10000000000,1,12427696867102862,0,\n"
            "1,10000000000,9.9999999999999998e+149,nan,nan,the Bessel frame at z = 10000.000000000005 "
            "is inaccurate: its Wronskian drifts by 4097.0 (tolerance 1e-06)\n",
        ),
        "exponential-scan": (
            ["scan", "--family", "exponential", "--v-grid", "1e-150:10:3:log",
             "--lambda-grid", "0.2:5:2:log", "--omega0-grid", "0.5:2:2", "--cycles", "2"],
            f"#cyclosc {__version__} scan cycles=2 family=exponential k=-2\n"
            "omega0,lambda,v,gain,det_error,note\n"
            "0.5,0.20000000000000001,1e-150,nan,nan,the Bessel frame is degenerate: its Wronskian evaluates to 0\n"
            "0.5,0.20000000000000001,3.1622776601683794e-75,nan,nan,"
            "the Bessel frame is degenerate: its Wronskian evaluates to 0\n"
            "0.5,0.20000000000000001,10,2.7134581038223113,1.9984014443252818e-15,\n"
            "0.5,5,1e-150,nan,nan,the Bessel frame is degenerate: its Wronskian evaluates to 0\n"
            "0.5,5,3.1622776601683794e-75,nan,nan,the Bessel frame is degenerate: its Wronskian evaluates to 0\n"
            "0.5,5,10,1.025294083727929,1.9984014443252818e-15,\n"
            "2,0.20000000000000001,1e-150,nan,nan,the Bessel frame is degenerate: its Wronskian evaluates to 0\n"
            "2,0.20000000000000001,3.1622776601683794e-75,nan,nan,"
            "the Bessel frame is degenerate: its Wronskian evaluates to 0\n"
            "2,0.20000000000000001,10,2.2977068308437993,4.4408920985006262e-16,\n"
            "2,5,1e-150,nan,nan,the Bessel frame is degenerate: its Wronskian evaluates to 0\n"
            "2,5,3.1622776601683794e-75,nan,nan,the Bessel frame is degenerate: its Wronskian evaluates to 0\n"
            "2,5,10,1.3547471014206716,2.2204460492503131e-16,\n",
        ),
        "power-cycle": (
            ["cycle", "--family", "power", "--k", "-3"],
            f"#cyclosc {__version__} cycle cycles=1 family=power-law k=-3\n"
            "v,lambda,omega0,a,b,c,d,det_error,gain\n"
            "1,2,1,0.8947547282321402,0.62047371287237485,-0.32138988674165847,0.8947547282321402,"
            "0,1.0447255675264941\n",
        ),
        "exponential-legs": (
            ["propagate", "--family", "exponential", "--v-grid", "0.1:3:5", "--lambda", "0.3"],
            f"#cyclosc {__version__} propagate family=exponential method=closed state_n=0\n"
            "v,lambda,omega_final,a,b,c,d,det_error,final_energy\n"
            "0.10000000000000001,0.29999999999999999,3.3333333333333335,-0.14619876306107576,"
            "-0.53417143683151191,1.7704173652926265,-0.37136847845625343,0,1.6700541658835675\n"
            "0.82499999999999996,0.29999999999999999,3.3333333333333335,-0.4908293796385127,"
            "0.13510049396443358,-0.93452357292285204,-1.7801407982550146,2.2204460492503131e-16,"
            "1.7304634018950156\n"
            "1.55,0.29999999999999999,3.3333333333333335,0.32703829254227235,0.5091855340059056,"
            "-2.2253118710739082,-0.4069756246823758,0,2.2966992785176954\n"
            "2.2749999999999999,0.29999999999999999,3.3333333333333335,0.65671544023728834,"
            "0.43922100534527775,-1.8744963791837923,0.26903862006803403,2.2204460492503131e-16,"
            "2.6303914497280148\n"
            "3,0.29999999999999999,3.3333333333333335,0.79568546267263862,0.36117870680551112,"
            "-1.530210304864922,0.56218272412054515,2.2204460492503131e-16,2.7854132863210221\n",
        ),
    }

    @pytest.mark.parametrize("name", sorted(BESSEL))
    def test_bessel_family_runs_match_golden_bytes(self, capsys, name):
        argv, golden = self.BESSEL[name]
        assert run(capsys, *argv) == (0, golden, "")

    @pytest.mark.parametrize("grid, k, lam, note", [
        ("1:2:2", "1.9", "1e300", "lambda^(-2/(k-2)) overflows"),
        ("5e-324:5e-324:2", "-0.1", "2", "is not a positive float"),
    ])
    def test_power_law_range_failures_are_nan_rows(self, capsys, grid, k, lam, note):
        doc = run_json(capsys, "scan", "--family", "power", "--k", k, "--lambda", lam, "--v-grid", grid)
        assert all(math.isnan(g) for g in column(doc, "gain"))
        assert all(note in e for e in column(doc, "note"))

    @pytest.mark.filterwarnings("error")
    def test_many_cycles_match_golden_bytes_without_warnings(self, capsys):
        rc, out, err = run(capsys, *self.MANY_CYCLES)
        assert (rc, out, err) == (0, self.MANY_CYCLES_CSV, "")

    def test_float_columns_format_like_single_cells(self):
        col = np.array([-0.0, 0.0, math.nan, 1.5, -0.0, math.inf, 0.1, 1.5])
        assert cli._float_cells(col) == [cli._fmt(x) for x in col.tolist()]
        assert cli._float_cells(col)[:2] == ["-0", "0"]

    @given(table=_tables())
    @settings(max_examples=300, deadline=None)
    def test_csv_table_is_what_csv_writer_writes(self, table):
        self.assert_csv_writer_bytes(*table)

    # all-text columns whose cells need quoting, with the lone empty cell
    # csv.writer quotes in a one-cell row; all-distinct float columns
    QUOTED = ("a,b", 'say "hi"', "two\nlines", "", "plain")
    DISTINCT = np.array([0.1, -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0 / 3.0])

    @pytest.mark.parametrize("columns", [
        [QUOTED], [QUOTED, QUOTED[::-1]], [DISTINCT], [DISTINCT[:5], QUOTED], [QUOTED, DISTINCT[3:]],
    ])
    def test_text_and_distinct_float_columns_are_what_csv_writer_writes(self, columns):
        self.assert_csv_writer_bytes([f"c{i}" for i in range(len(columns))], columns)

    @staticmethod
    def assert_csv_writer_bytes(names, columns):
        want = io.StringIO()
        want.write(f"#cyclosc {__version__} t\n")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(zip(*([cli._fmt(x) for x in col] for col in columns)))
        got = io.StringIO()
        with contextlib.redirect_stdout(got):
            cli._emit("t", names, columns, {}, "csv", "-")
        assert got.getvalue() == want.getvalue()

    def test_one_process_writes_what_fresh_processes_write(self, tmp_path, capsys):
        # main keeps one parser per process; no call may leave state in it
        cfg = tmp_path / "scan.json"
        cfg.write_text(json.dumps({"lambda": 3, "cycles": 2, "v-grid": "0.1:10:5:log"}))
        calls = [
            ["scan", "--config", str(cfg)],
            ["scan", "--v-grid", "0.2:2:4", "--omega0-grid", "1:2:2"],
            ["verify", "--seed", "3"],
            ["perturb", "--power", "3", "--n-max", "4"],
            ["scan", "--config", str(cfg), "--lambda", "0.5"],
        ]
        src = str(Path(cyclosc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        for argv in calls:
            fresh = subprocess.run(
                [sys.executable, "-m", "cyclosc.cli", *argv], env=env, capture_output=True, text=True
            )
            assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv

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


# A valid value and a second valid value for every option in the tables.
_SAMPLES = {
    "family": ("power", "exponential"),
    "k": ("-3", "-4"),
    "v": ("0.5", "0.25"),
    "lambda": ("3", "0.5"),
    "v-grid": ("0.1:1:3:log", "1:2:2"),
    "state-n": ("2", "1"),
    "method": ("ode", "closed"),
    "omega0": ("2", "3"),
    "cycles": ("3", "2"),
    "lambda-grid": ("2:4:3", "5:6:2"),
    "omega0-grid": ("1:2:2", "0.5:1:3:log"),
    "seed": ("7", "3"),
    "samples": ("3", "2"),
    "power": ("3", "1"),
    "epsilon": ("0.01", "0.02"),
    "duration": ("5", "4"),
    "drive-freq": ("1.5", "2.5"),
    "n-max": ("4", "5"),
    "size": ("0.01", "0.02"),
    "temperature": ("200", "100"),
    "rate": ("0.5", "0.25"),
    "points": ("32", "64"),
    "output": ("a.csv", "b.csv"),
    "format": ("json", "csv"),
}
_TEXT_OPTIONS = {"family", "method", "format", "output"}
_TABLE = [
    (sub, flag)
    for sub, (_, _, options) in cli._COMMANDS.items()
    for flag, *_ in options + cli._COMMON
]


_INT_OPTIONS = {
    flag
    for _, _, options in cli._COMMANDS.values()
    for flag, default, *_ in options
    if isinstance(default, int)
}
# A malformed value per numeric or grid option: "x" from either source, JSON
# true from a config file, and for integer options 3.0 as flag text and 2.7
# or 3.0 from a config file, which must be refused, not truncated.
_MALFORMED = [
    pytest.param(sub, flag, source, bad, id=f"{sub}-{flag}-{tag}")
    for sub, flag in _TABLE
    if flag not in _TEXT_OPTIONS
    for source, bad, tag in [("flag", "x", "flag"), ("config", "x", "config"),
                             ("config", True, "config-true")]
    + ([("flag", "3.0", "flag-3.0"), ("config", 2.7, "config-2.7"),
        ("config", 3.0, "config-3.0")] if flag in _INT_OPTIONS else [])
]


def _resolved(tmp_path, sub, flag, argv=(), config=None):
    """Typed value of one option after flag > config > default resolution."""
    args = [sub, *argv]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    ns = cli._resolve(cli.build_parser().parse_args(args))
    return getattr(ns, cli._dest(flag))


class TestOptionTable:
    @pytest.mark.parametrize("sub,flag", _TABLE)
    def test_flag_and_config_spellings_agree_and_flag_wins(self, tmp_path, sub, flag):
        good, other = _SAMPLES[flag]
        from_flag = _resolved(tmp_path, sub, flag, [f"--{flag}={good}"])
        assert from_flag != _resolved(tmp_path, sub, flag)
        assert flag in _TEXT_OPTIONS or not isinstance(from_flag, str)
        keys = {flag, flag.replace("-", "_")} | ({"lam"} if flag == "lambda" else set())
        for key in keys:
            assert _resolved(tmp_path, sub, flag, config={key: good}) == from_flag, key
        beaten = _resolved(tmp_path, sub, flag, [f"--{flag}={other}"], config={flag: good})
        assert beaten == _resolved(tmp_path, sub, flag, [f"--{flag}={other}"])
        assert beaten != from_flag

    @pytest.mark.parametrize("sub,flag,source,bad", _MALFORMED)
    def test_malformed_number_or_grid_names_the_flag(
        self, tmp_path, capsys, sub, flag, source, bad
    ):
        if source == "flag":
            rc, out, err = run(capsys, sub, f"--{flag}={bad}")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag: bad}))
            rc, out, err = run(capsys, sub, "--config", str(cfg))
        assert rc == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "config"
        assert doc["message"].startswith(f"{flag}: ")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "sub,flag", [(sub, flag) for sub, flag in _TABLE if flag in ("format", "method")]
    )
    def test_bad_choice_is_a_json_config_error(self, tmp_path, capsys, sub, flag, source):
        if source == "flag":
            rc, out, err = run(capsys, sub, f"--{flag}", "xml")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag: "xml"}))
            rc, out, err = run(capsys, sub, "--config", str(cfg))
        assert rc == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "config"
        assert doc["message"].startswith(f"{flag} must be ")

    @pytest.mark.parametrize("sub", list(cli._COMMANDS))
    def test_help_lists_exactly_the_table(self, capsys, sub):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z0-9][\w-]*", capsys.readouterr().out))
        options = cli._COMMANDS[sub][2] + cli._COMMON
        assert listed - {"--help"} == {f"--{flag}" for flag, *_ in options} | {"--config"}


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

    def test_a_sample_does_not_depend_on_how_many_are_drawn(self, capsys):
        # every forced lane holds 8 entries (a zero fourth column), so its
        # stage sums do not depend on its place in the batch
        rows = [run(capsys, "forced", "--seed", "3", "--samples", n)[1].splitlines()[2] for n in ("1", "2", "5")]
        assert rows[0].startswith("0,") and rows[0] == rows[1] == rows[2]


class TestPerturb:
    def test_rows_and_positivity(self, capsys):
        doc = run_json(capsys, "perturb", "--n-max", "3")
        assert column(doc, "n") == [0, 1, 2, 3]
        assert all(s >= 0.0 for s in column(doc, "energy_shift"))
        p_down = column(doc, "p_down")
        assert p_down[0] == 0.0 and p_down[1] == 0.0  # below the N = 2 ladder

    @pytest.mark.parametrize("power", [1, 2, 3, 4])
    def test_output_matches_golden_bytes(self, tmp_path, power):
        # frozen bytes: powers 1 and 2 from a truncated-basis matrix power,
        # which the ladder walk reproduces; 3 and 4 from the walk
        path = tmp_path / "p.csv"
        argv = ["perturb", "--power", str(power), "--epsilon", "0.0007", "--drive-freq", "1.9"]
        assert main(argv + ["--output", str(path)]) == 0
        golden = Path(__file__).resolve().parent / "golden" / f"perturb_power{power}.csv"
        assert path.read_bytes() == golden.read_bytes()

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

    def test_mode_cutoff_is_no_option(self, tmp_path, capsys):
        # the slowest mode alone bounds adiabaticity, so there is no cutoff
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--n-modes", "100"])
        assert exc.value.code == 2
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n-modes": 100}))
        assert run(capsys, "spectrum", "--config", str(cfg))[0] == 2


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


    def test_inverse_linear_legs_are_evaluated_in_batches(self, capsys, monkeypatch):
        # every build_cycles and closed legs call evaluates all of its
        # inverse-linear legs with one call of the array formula, and no
        # leg is evaluated on its own
        sizes, batches = [], []
        formula = cyclosc.closed_form._inverse_linear_entries

        def counted(omega0, v, lam, ln_lam):
            sizes.append(lam.size)
            return formula(omega0, v, lam, ln_lam)

        def spy(name):
            real = getattr(cli, name)

            def wrapper(*args):
                if name == "build_cycles" or args[1] == "closed":
                    batches.append(name)
                return real(*args)
            return wrapper

        for module in (cyclosc.closed_form, cyclosc.cycles):
            monkeypatch.setattr(module, "_inverse_linear_entries", counted)
        for name in ("build_cycles", "legs"):
            monkeypatch.setattr(cli, name, spy(name))
        assert run(capsys, "verify", "--seed", "0")[0] == 0
        assert batches == ["build_cycles", "legs"]
        assert len(sizes) == len(batches) and min(sizes) > 1


class TestSameBytesOnEveryCpu:
    """numpy picks its transcendental kernels by the host's instruction set;
    these commands write the same stdout with AVX-512 kernels and without
    (NPY_DISABLE_CPU_FEATURES=X86_V4).  A host without AVX-512 runs the same
    kernels twice.  forced and spectrum, and scans over log axes, still
    differ (see README, "Numerical guarantees").

    OpenBLAS picks its kernels at run time too; the closed-form Bessel runs
    and perturb also write the same stdout with its Nehalem kernels
    (OPENBLAS_CORETYPE=Nehalem), which have no FMA.  An OpenBLAS built
    without DYNAMIC_ARCH ignores the variable and runs the same kernels
    twice.  The routes through the ODE still differ between OpenBLAS
    kernels."""

    RUNS = {
        "scan": ["scan", "--family", "inverse-linear", "--v-grid", "0.03:50:80",
                 "--lambda-grid", "0.1:10:50", "--cycles", "2"],
        **{
            f"propagate-ode-{family}": ["propagate", "--method", "ode", "--family", family, *extra,
                                        "--v-grid", "0.1:3:7", "--lambda", "0.4"]
            for family, extra in (("inverse-linear", []), ("power", ["--k", "-3"]), ("exponential", []))
        },
        "verify-seed-7": ["verify", "--seed", "7"],
    }
    # linear axes: log axes still go through np.geomspace
    BESSEL_RUNS = {
        "cycle-power-law": ["cycle", "--family", "power-law", "--k", "-3", "--v", "2", "--lambda", "0.5",
                            "--cycles", "4"],
        "cycle-exponential": ["cycle", "--family", "exponential", "--v", "2", "--lambda", "3", "--cycles", "3"],
        "scan-exponential": ["scan", "--family", "exponential", "--v-grid", "0.3:30:40",
                             "--lambda-grid", "0.2:5:10", "--cycles", "3"],
        "propagate-power": ["propagate", "--family", "power", "--k", "-3", "--v-grid", "0.1:30:40",
                            "--lambda", "0.1"],
        "propagate-exponential": ["propagate", "--family", "exponential", "--v-grid", "0.3:30:40",
                                  "--lambda", "3"],
    }
    PERTURB_RUNS = {f"perturb-power-{n}": ["perturb", "--power", str(n)] for n in (1, 2, 3, 4)}
    NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4"}
    EVERY_KERNEL = ({}, NO_AVX512, {"OPENBLAS_CORETYPE": "Nehalem"})

    @staticmethod
    def _stdouts(argv, settings):
        """stdout of `cyclosc argv` under each extra environment in settings, run side by side."""
        src = str(Path(cyclosc.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items()
               if k not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
        env["PYTHONPATH"] = src
        procs = [
            subprocess.Popen([sys.executable, "-m", "cyclosc.cli", *argv], env=dict(env, **extra),
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            for extra in settings
        ]
        outs = [proc.communicate(timeout=120)[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0] * len(procs)
        return outs

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_stdout_is_the_same_without_avx512(self, name):
        native, baseline = self._stdouts(self.RUNS[name], ({}, self.NO_AVX512))
        assert native.count("\n") > 5 and native == baseline

    @pytest.mark.parametrize("name", sorted(BESSEL_RUNS))
    def test_bessel_stdout_is_the_same_with_every_kernel(self, name):
        native, *others = self._stdouts(self.BESSEL_RUNS[name], self.EVERY_KERNEL)
        assert native.count("\n") >= 3 and others == [native, native]  # header, columns, rows

    @pytest.mark.parametrize("name", sorted(PERTURB_RUNS))
    def test_perturb_stdout_is_the_same_with_every_kernel(self, name):
        # x^N's elements are a ladder walk in Python floats, not a BLAS product
        native, *others = self._stdouts(self.PERTURB_RUNS[name], self.EVERY_KERNEL)
        assert native.count("\n") > 5 and others == [native, native]


class TestIntegratedGoldens:
    """Full stdout of the routes that run the ODE integrator, frozen bytes."""

    GOLDEN = Path(__file__).resolve().parent / "golden"
    RUNS = {
        "verify_seed7.csv": ["verify", "--seed", "7"],
        **{
            f"propagate_ode_{family}.csv": [
                "propagate", "--method", "ode", "--family", family, *extra,
                "--v-grid", "0.1:3:7", "--lambda", "0.4",
            ]
            for family, extra in (("inverse-linear", []), ("power", ["--k", "-3"]), ("exponential", []))
        },
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_output_matches_golden_bytes(self, capsys, name):
        golden = (self.GOLDEN / name).read_text(encoding="utf-8")
        assert run(capsys, *self.RUNS[name]) == (0, golden, "")


class TestErrorPromise:
    """README: exit 2 or 3 with one JSON line on stderr; clean runs are silent."""

    # a non-finite number flag or grid endpoint is a config error; a spectrum
    # whose samples leave the normal float range is a numeric one
    BAD_INPUTS = [
        (("propagate", "--lambda", "inf"), 2),
        (("propagate", "--v", "inf"), 2),
        (("scan", "--lambda-grid", "inf:inf:1"), 2),
        (("scan", "--v-grid", "1:inf:2", "--lambda", "2"), 2),
        (("scan", "--v-grid=-1:1:1:log", "--lambda", "2"), 2),
        (("perturb", "--duration", "inf"), 2),
        (("perturb", "--epsilon", "inf"), 2),
        (("perturb", "--epsilon", "nan"), 2),
        (("spectrum", "--rate", "nan"), 2),
        (("spectrum", "--lambda", "1e-300"), 3),
        (("spectrum", "--lambda", "1e-89"), 3),
        (("spectrum", "--lambda", "1e100"), 3),
        (("spectrum", "--lambda", "1e200"), 3),
        (("spectrum", "--temperature", "1e300"), 3),
        (("spectrum", "--temperature", "1e-310"), 3),
        # a power-law turning scale or Bessel argument beyond the float range
        (("cycle", "--family", "power", "--k", "1.9", "--lambda", "1e300"), 3),
        (("propagate", "--family", "power", "--k", "1.9", "--lambda", "1e300"), 3),
        (("propagate", "--family", "power", "--k", "1.9", "--lambda", "1e300", "--method", "ode"), 3),
        (("cycle", "--family", "power", "--k", "-0.1", "--v", "5e-324", "--lambda", "2"), 3),
        (("propagate", "--family", "power", "--k", "-0.1", "--v", "5e-324", "--lambda", "2"), 3),
        # Bessel frames that overflow
        (("propagate", "--family", "power", "--k", "-1", "--v", "1e160", "--lambda", "2"), 3),
        (("propagate", "--family", "exponential", "--v", "1.7e308", "--lambda", "0.5"), 3),
        # Bessel frames whose Wronskian drifts: det_error 1.68, and 0.99999999 at gain 4.99e291
        (("propagate", "--family", "power", "--k", "-4", "--v", "1.0854980928510594e-06",
          "--lambda", "1.2878e-18"), 3),
        (("cycle", "--family", "power", "--k", "-3", "--v", "1e150", "--lambda", "1e-10"), 3),
    ]

    @pytest.mark.parametrize(
        "argv,code", BAD_INPUTS, ids=[" ".join(argv) for argv, _ in BAD_INPUTS]
    )
    def test_bad_input_leaves_one_json_line(self, capsys, argv, code):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, *argv)
        assert (rc, out) == (code, "")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert json.loads(err)["error"] == ("config" if code == 2 else "numeric")

    @pytest.mark.parametrize("subcommand", sorted(cli._COMMANDS))
    def test_defaults_run_clean(self, capsys, subcommand):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, subcommand)
        assert (rc, err) == (0, "")
        assert out.startswith(f"#cyclosc {__version__} {subcommand}")


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


def test_readme_library_quickstart_runs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md:quickstart", "exec"), {})
