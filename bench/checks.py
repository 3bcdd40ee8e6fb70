"""Output checks, run outside the timed region.

Each check returns a list of problems (empty when the output is right);
any problem fails the benchmark run.  The ODE oracles integrate at a tight
tolerance along routes the checked code does not take, so they stay
independent when the cycle hot path changes.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

import cyclosc.cycles
from cyclosc.cycles import CycleSpec
from cyclosc.ode import IntegratorConfig, propagate_ode
from cyclosc.profiles import Exponential, InverseLinear, Piecewise, PowerLaw, TimeReversed

TIGHT = IntegratorConfig(rtol=1e-12, atol=1e-14)
GAIN_FLOOR = 1.0 - 1e-9      # R >= 1, up to roundoff
DET_TOL = 1e-6               # det S = 1 to this absolute deviation
ODE_AGREEMENT = 1e-6         # README's closed-form vs ODE bound
# Cycles whose return leg is integrated hold R >= 1 only to the ODE's
# accuracy: slow adiabatic power-law cycles (k = 3, lambda near 0.1) reach
# R - 1 = -1.4e-8 at the default rtol of 1e-10.
CYCLE_GAIN_FLOOR = 1.0 - ODE_AGREEMENT
SCAN_COLUMNS = ["omega0", "lambda", "v", "gain", "det_error", "note"]
VERIFY_COLUMNS = ["suite", "passed", "total", "worst_deviation", "status"]
PERTURB_COLUMNS = ["n", "energy_shift", "p_up", "p_down"]


def _table(text: str, columns: List[str], tag: str) -> Tuple[List[List[str]], List[str]]:
    """Rows of a cyclosc CSV artifact after its comment and header lines."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith(f"#cyclosc ") or f" {tag}" not in lines[0]:
        return [], [f"{tag}: missing '#cyclosc ... {tag}' comment line"]
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if not rows or rows[0] != columns:
        return [], [f"{tag}: header {rows[:1]} != {[columns]}"]
    return rows[1:], []


# --- scan-closed -------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    omega0: float
    lam: float
    v: float
    gain: float
    det_error: float
    note: str


@dataclass
class ScanReport:
    rows: List[ScanRow] = field(default_factory=list)
    nan_rows: int = 0
    problems: List[str] = field(default_factory=list)


def _log_axis(spec: str) -> np.ndarray:
    lo, hi, count, _ = spec.split(":")
    return np.geomspace(float(lo), float(hi), int(count))


def check_scan(text: str, v_grid: str, lam_grid: str) -> ScanReport:
    """Row count and order match the grid (v fastest), R >= 1, det S = 1.

    NaN rows are failed operations: they are counted, and must carry a note.
    """
    report = ScanReport()
    body, report.problems = _table(text, SCAN_COLUMNS, "scan")
    if report.problems:
        return report
    expected = [(lam, v) for lam in _log_axis(lam_grid) for v in _log_axis(v_grid)]
    if len(body) != len(expected):
        report.problems.append(f"scan: {len(body)} rows, grid has {len(expected)}")
    misplaced = bad_gain = bad_det = 0
    for j, cells in enumerate(body):
        omega0, lam, v, gain, det, note = (*map(float, cells[:5]), cells[5])
        row = ScanRow(omega0, lam, v, gain, det, note)
        report.rows.append(row)
        if j >= len(expected) or omega0 != 1.0 or (lam, v) != expected[j]:
            misplaced += 1
        if math.isnan(gain):
            report.nan_rows += 1
            if not note:
                report.problems.append(f"scan row {j}: NaN gain without a note")
            continue
        if not gain >= GAIN_FLOOR:
            bad_gain += 1
        if not det <= DET_TOL:
            bad_det += 1
    for count, what in ((misplaced, "out of grid order"), (bad_gain, f"gain < {GAIN_FLOOR}"),
                        (bad_det, f"det_error > {DET_TOL}")):
        if count:
            report.problems.append(f"scan: {count} rows {what}")
    return report


def check_scan_point_ode(row: ScanRow) -> List[str]:
    """Re-integrate both inverse-linear legs of one grid point at TIGHT.

    The ODE matrix must match the closed-form cycle entrywise, and the gain
    in the artifact must match the ODE gain.
    """
    if math.isnan(row.gain):
        return []
    spec = CycleSpec("inverse-linear", v=row.v, lam=row.lam, omega0=row.omega0)
    u = row.v / row.omega0
    u_out = u if row.lam > 1.0 else -u
    out = InverseLinear(1.0, u_out)
    back = InverseLinear(1.0 / row.lam, -u_out)
    s_ode = (propagate_ode(back, back.t_for_scale(1.0 / row.lam), TIGHT).as_array()
             @ propagate_ode(out, out.t_for_scale(row.lam), TIGHT).as_array())
    s_closed = cyclosc.cycles.build_cycle(spec).as_array()
    problems = []
    entry_dev = float(np.max(np.abs(s_ode - s_closed)))
    if not entry_dev <= ODE_AGREEMENT:
        problems.append(f"scan point v={row.v!r} lambda={row.lam!r}: closed form and ODE "
                        f"differ by {entry_dev:.3g} entrywise")
    gain_ode = 0.5 * float(np.sum(s_ode**2))
    if not abs(row.gain - gain_ode) <= ODE_AGREEMENT * gain_ode:
        problems.append(f"scan point v={row.v!r} lambda={row.lam!r}: gain {row.gain!r} "
                        f"vs ODE {gain_ode!r}")
    return problems


# --- cycle-bessel ------------------------------------------------------------


@dataclass(frozen=True)
class CycleRecord:
    spec: CycleSpec
    matrix: Tuple[float, float, float, float]
    gain: float
    det_error: float


def check_cycle(rec: CycleRecord) -> List[str]:
    if not (math.isfinite(rec.gain) and rec.gain >= CYCLE_GAIN_FLOOR):
        return [f"cycle {rec.spec}: gain {rec.gain!r} < {CYCLE_GAIN_FLOOR}"]
    if not rec.det_error <= DET_TOL:
        return [f"cycle {rec.spec}: det_error {rec.det_error!r} > {DET_TOL}"]
    return []


def outbound_leg(spec: CycleSpec) -> Tuple[object, float]:
    """Outbound profile of a power-law or exponential cycle, normalized to omega0 = 1."""
    u = spec.v / spec.omega0
    if spec.family == "power-law":
        z_t = spec.lam ** (-2.0 / (spec.k - 2.0))
        prof = PowerLaw(spec.k, u if z_t > 1.0 else -u)
    else:
        z_t = 1.0 / spec.lam
        prof = Exponential(u if z_t > 1.0 else -u)
    return prof, prof.t_for_z(z_t)


def check_cycle_ode(rec: CycleRecord) -> List[str]:
    """Recompute one cycle as a Piecewise of the outbound profile and its mirror.

    One integration at TIGHT, raised to n_cycles with numpy; the gains must
    agree to ODE_AGREEMENT relative.
    """
    prof, t_out = outbound_leg(rec.spec)
    loop = Piecewise(((prof, t_out), (TimeReversed(prof, t_out), t_out)))
    once = propagate_ode(loop, 2.0 * t_out, TIGHT).as_array()
    total = np.linalg.matrix_power(once, rec.spec.n_cycles)
    gain = 0.5 * float(np.sum(total**2))
    if not abs(rec.gain - gain) <= ODE_AGREEMENT * gain:
        return [f"cycle {rec.spec}: gain {rec.gain!r} vs Piecewise ODE {gain!r}"]
    return []


# --- selfcheck ---------------------------------------------------------------


@dataclass
class VerifyReport:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def check_verify(rc: int, text: str) -> VerifyReport:
    """verify exits 0 and every suite row says ok; each suite is one operation."""
    report = VerifyReport()
    body, report.problems = _table(text, VERIFY_COLUMNS, "verify")
    if not body and not report.problems:
        report.problems.append("verify: no suite rows")
    for cells in body:
        report.attempted += 1
        if cells[4] != "ok":
            report.failed += 1
            report.problems.append(f"verify: suite {cells[0]} is {cells[4]}")
    if rc != 0:
        report.problems.append(f"verify exited {rc}")
    return report


def check_perturb(rc: int, text: str) -> List[str]:
    """perturb exits 0, every energy shift >= 0 and p_up >= p_down."""
    body, problems = _table(text, PERTURB_COLUMNS, "perturb")
    if rc != 0:
        problems.append(f"perturb exited {rc}")
    if not body and not problems:
        problems.append("perturb: no rows")
    for cells in body:
        n, shift, p_up, p_down = cells[0], *map(float, cells[1:])
        if not shift >= 0.0:
            problems.append(f"perturb n={n}: energy_shift {shift!r} < 0")
        if not p_up >= p_down:
            problems.append(f"perturb n={n}: p_up {p_up!r} < p_down {p_down!r}")
    return problems
