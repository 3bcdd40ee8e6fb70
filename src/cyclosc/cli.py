"""Command-line front end emitting deterministic CSV/JSON artifacts.

Subcommands: propagate, cycle, scan, forced, perturb, spectrum, verify.
Every option can also come from a JSON config file (--config), keyed by
its flag name, with explicit flags taking precedence.  Outputs are
byte-identical across repeat runs of the same configuration: the only
entropy sources are explicit seeds.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numeric or domain failure.  Errors print one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .cavity import (
    CavitySpec,
    multimode_from_hamiltonian_batch,
    planck_density,
    random_coupling,
    shift_planck_spectrum,
)
from .core import (
    Covariance,
    StationaryState,
    final_energy,
    gain_factor,
    random_symplectic,
    symplectic_error,
    to_bogoliubov,
)
from .cycles import (
    CycleSpec,
    GridAxis,
    _check_leg_args,
    build_cycle,
    build_cycles,
    legs,
    random_cycle_spec,
    random_fourier_profile,
    scan_gain,
)
from .errors import DomainError, IntegrationError, QuadratureError, SymplecticError
from .ode import ForcedResult, forced_final_energy, propagate_forced_batch
from .perturbation import (
    Drive,
    WindowedCarrier,
    check_inequality,
    first_order_energy_shift,
    transition_probability,
)
from .profiles import FrequencyProfile, SineSeries

# Not called here, but bench/tracing.py wraps these names in this module.
from .cavity import multimode_from_hamiltonian  # noqa: F401
from .closed_form import propagate_exponential, propagate_inverse_linear, propagate_power_law  # noqa: F401
from .cycles import random_cycle_gain  # noqa: F401
from .ode import propagate_forced, propagate_ode  # noqa: F401

__all__ = ["main"]


class ConfigError(ValueError):
    """Bad flag/config-file input; distinct from numeric failures."""


_NUMERIC_ERRORS = (DomainError, SymplecticError, IntegrationError, QuadratureError)

# A converter turns a flag, config or default value into the handler's typed
# value, naming the flag in any ConfigError it raises.
Convert = Callable[[object, str], object]

_FAMILY_ALIASES = {
    "inverse-linear": "inverse-linear",
    "power": "power-law",
    "power-law": "power-law",
    "exponential": "exponential",
}


# A config value converts exactly as its flag text would: JSON true is not
# the number 1, and 2.7 or 3.0 is no integer, as "--cycles 3.0" is not.
# A number flag takes finite values only: nan and inf are config errors.
def _float(value: object, name: str) -> float:
    try:
        if isinstance(value, bool):
            raise TypeError
        out = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{name}: expected a finite number, got {value!r}")
    return out


def _int(minimum: int) -> Convert:
    def convert(value: object, name: str) -> int:
        try:
            if isinstance(value, (bool, float)):
                raise TypeError
            out = int(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ConfigError(f"{name}: expected an integer, got {value!r}") from None
        if out < minimum:
            raise ConfigError(f"{name}: must be >= {minimum}, got {out}")
        return out

    return convert


def _grid(value: object, name: str) -> GridAxis:
    """start:stop:count[:lin|log] -> GridAxis."""
    text = str(value)
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"{name}: expected start:stop:count[:lin|log], got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    spacing = parts[3] if len(parts) == 4 else "linear"
    spacing = {"lin": "linear", "linear": "linear", "log": "log"}.get(spacing)
    if spacing is None:
        raise ConfigError(f"{name}: spacing must be lin or log, got {parts[3]!r}")
    try:
        axis = GridAxis(start, stop, count, spacing)
        axis.values()
    except DomainError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    return axis


def _family(value: object, name: str) -> str:
    fam = _FAMILY_ALIASES.get(str(value))
    if fam is None:
        raise ConfigError(
            f"unknown family {value!r}; expected one of {sorted(_FAMILY_ALIASES)}"
        )
    return fam


def _choice(*allowed: str) -> Convert:
    def convert(value: object, name: str) -> str:
        if value not in allowed:
            raise ConfigError(f"{name} must be {' or '.join(allowed)}, got {value!r}")
        return str(value)

    return convert


def _text(value: object, name: str) -> str:
    return str(value)


def _py(value: object) -> object:
    """Collapse numpy scalars to plain Python for stable CSV/JSON encoding."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.str_):
        return str(value)
    return value


def _fmt(value: object) -> str:
    if isinstance(value, str):
        return value
    value = _py(value)
    if isinstance(value, float):
        return _float_text(value)
    return str(value)


_float_text = "{:.17g}".format


def _float_texts(values: List[float]) -> List[str]:
    """_float_text of each float, from one %-format of the whole list."""
    return ("%.17g\n" * len(values) % tuple(values)).split("\n")[:-1]


def _float_cells(column: np.ndarray) -> List[str]:
    """Cells of a float64 column, each distinct bit pattern formatted once.

    Keyed on the int64 view, so -0.0 and 0.0 stay apart ("-0" and "0").
    """
    _, first, inverse = np.unique(column.view(np.int64), return_index=True, return_inverse=True)
    if first.size == column.size:  # every value distinct, as in a gain column
        return _float_texts(column.tolist())
    text = np.array(_float_texts(column[first].tolist()), dtype=object)
    return text[inverse].tolist()


class _CsvQuoted(dict):
    """Each distinct text cell as csv.writer writes it in a row of `width` cells.

    Only str keys: as dict keys 0.0 == -0.0 and 1 == 1.0 == True collide.
    """

    def __init__(self, width: int) -> None:
        super().__init__()
        self._buf = io.StringIO()
        self._writer = csv.writer(self._buf, lineterminator="\n")
        # a neighbour cell, as in the table, for csv.writer's lone-empty-cell rule
        self._pad = [""] if width > 1 else []

    def __missing__(self, cell: str) -> str:
        self._writer.writerow([cell, *self._pad])
        quoted = self._buf.getvalue()[: -1 - len(self._pad)]
        self._buf.seek(0)
        self._buf.truncate()
        self[cell] = quoted
        return quoted


def _csv_cells(column: Sequence[object], quoted: _CsvQuoted) -> List[str]:
    """A column's CSV cells: formatted floats need no quoting, other cells
    are quoted as csv.writer would."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return _float_cells(column)
    if set(map(type, column)) == {str}:  # text cells need no formatting
        return list(map(quoted.__getitem__, column))
    return [quoted[_fmt(x)] for x in column]


def _json_cells(column: Sequence[object]) -> List[object]:
    if isinstance(column, np.ndarray):
        return column.tolist()
    return [_py(x) for x in column]


def _emit(
    subcommand: str,
    names: Sequence[str],
    columns: Sequence[Sequence[object]],
    meta: Dict[str, object],
    fmt: str,
    output: str,
) -> None:
    """Write the artifact; its table comes as columns, float arrays formatted
    once per distinct value.

    The CSV table has the bytes csv.writer writes with newline line ends,
    joined here row by row.
    """
    if fmt == "csv":
        pairs = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(meta.items()))
        quoted = _CsvQuoted(len(names))
        lines = [
            f"#cyclosc {__version__} {subcommand} {pairs}".rstrip(),
            ",".join(quoted[name] for name in names),
        ]
        lines += map(",".join, zip(*(_csv_cells(col, quoted) for col in columns)))
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "tool": "cyclosc",
            "version": __version__,
            "subcommand": subcommand,
            "meta": {k: _py(v) for k, v in meta.items()},
            "columns": list(names),
            "rows": list(zip(*map(_json_cells, columns))),
        }
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _random_drive(rng: np.random.Generator) -> Tuple[FrequencyProfile, SineSeries]:
    """Random closed profile and a 3-term sine force that vanishes at its ends."""
    profile = random_fourier_profile(rng)
    return profile, SineSeries(rng.normal(0.0, 0.5, size=3), profile.duration)


def _random_forced(rng: np.random.Generator, count: int) -> List[Tuple[float, ForcedResult]]:
    """count random drives, integrated together; (duration, result) of each."""
    profiles, kappas = zip(*(_random_drive(rng) for _ in range(count)))
    durations = [p.duration for p in profiles]
    return list(zip(durations, propagate_forced_batch(profiles, kappas, durations)))


# --- subcommand handlers -------------------------------------------------
#
# Each handler gets the typed values of its option table and returns the
# artifact as (column names, columns, meta); verify adds its pass/fail flag.

Artifact = Tuple[Sequence[str], Sequence[Sequence[object]], Dict[str, object]]


def _cmd_propagate(ns: argparse.Namespace) -> Artifact:
    lam = ns.lam
    if not lam > 0.0 or lam == 1.0:
        raise ConfigError(f"lambda must be positive and != 1, got {lam!r}")
    state = StationaryState(ns.state_n)
    omega_f = 1.0 / lam
    vs = [ns.v] if ns.v_grid is None else ns.v_grid.values().tolist()
    try:
        for v in vs:
            _check_leg_args(ns.family, v, ns.k, ns.method)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    runs = [(ns.family, v, lam, ns.k) for v in vs]
    rows = [
        [v, lam, omega_f, s.a, s.b, s.c, s.d, s.det_error(), final_energy(s, state, omega_f)]
        for v, s in zip(vs, legs(runs, ns.method))
    ]
    meta = {"family": ns.family, "method": ns.method, "state_n": state.n}
    if ns.family == "power-law":
        meta["k"] = ns.k
    names = ["v", "lambda", "omega_final", "a", "b", "c", "d", "det_error", "final_energy"]
    return names, list(zip(*rows)), meta


def _cmd_cycle(ns: argparse.Namespace) -> Artifact:
    try:
        spec = CycleSpec(
            ns.family, v=ns.v, lam=ns.lam, omega0=ns.omega0, n_cycles=ns.cycles, k=ns.k
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    s = build_cycle(spec)
    meta = {"family": spec.family, "k": spec.k, "cycles": spec.n_cycles}
    row = [spec.v, spec.lam, spec.omega0, s.a, s.b, s.c, s.d, s.det_error(), gain_factor(s)]
    return (
        ["v", "lambda", "omega0", "a", "b", "c", "d", "det_error", "gain"],
        [[x] for x in row],
        meta,
    )


def _cmd_scan(ns: argparse.Namespace) -> Artifact:
    lam_axis = ns.lambda_grid if ns.lambda_grid is not None else GridAxis(ns.lam, ns.lam, 1)
    result = scan_gain(
        ns.family, ns.v_grid, lam_axis, ns.omega0_grid, n_cycles=ns.cycles, k=ns.k
    )
    columns = [result.omega0, result.lam, result.v, result.gain, result.det_err, result.error]
    meta = {"family": ns.family, "k": result.k, "cycles": ns.cycles}
    return ["omega0", "lambda", "v", "gain", "det_error", "note"], columns, meta


def _cmd_forced(ns: argparse.Namespace) -> Artifact:
    rng = np.random.default_rng(ns.seed)
    state = StationaryState(ns.state_n)
    rows: List[Sequence[object]] = []
    for i, (t0, res) in enumerate(_random_forced(rng, ns.samples)):
        e_free = final_energy(res.matrix, state, 1.0)
        e_shift = 0.5 * (res.qc_dot**2 + res.qc**2)
        e_total = forced_final_energy(res, state, 1.0)
        rows.append(
            [i, t0, state.energy, e_free, e_shift, e_total, e_total / state.energy]
        )
    meta = {"seed": ns.seed, "samples": ns.samples, "state_n": state.n}
    names = ["sample", "duration", "e_initial", "e_free", "e_drive", "e_final", "gain"]
    return names, list(zip(*rows)), meta


def _cmd_perturb(ns: argparse.Namespace) -> Artifact:
    power, eps, t_end, w_drive = ns.power, ns.epsilon, ns.duration, ns.drive_freq
    if not t_end > 0.0:
        raise ConfigError(f"duration must be positive, got {t_end!r}")

    drive = Drive.from_callable(WindowedCarrier(eps, t_end, w_drive), t_end)
    rows: List[Sequence[object]] = []
    for n in range(ns.n_max + 1):
        shift = first_order_energy_shift(drive, n, power)
        p_up = transition_probability(drive, n, n + power, power)
        p_down = transition_probability(drive, n, n - power, power) if n >= power else 0.0
        rows.append([n, shift, p_up, p_down])
    meta = {
        "power": power, "epsilon": eps, "duration": t_end, "drive_freq": w_drive,
    }
    return ["n", "energy_shift", "p_up", "p_down"], list(zip(*rows)), meta


def _cmd_spectrum(ns: argparse.Namespace) -> Artifact:
    try:
        spec = CavitySpec(L0=ns.size, T=ns.temperature, lam=ns.lam, v=ns.rate)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    shift = shift_planck_spectrum(spec, ns.points)
    columns = [
        ["before"] * shift.nu_before.size + ["after"] * shift.nu_after.size,
        np.concatenate((shift.nu_before, shift.nu_after)),
        np.concatenate((shift.u_before, shift.u_after)),
    ]
    meta = {
        "L0": spec.L0,
        "T": spec.T,
        "lambda": spec.lam,
        "fitted_temperature": shift.fitted_temperature,
    }
    return ["stage", "nu", "u"], columns, meta


# --- verify suites --------------------------------------------------------


def _suite_cycle_theorem(rng: np.random.Generator) -> Tuple[int, int, float]:
    passed = 0
    worst = math.inf
    total = 200
    specs = [random_cycle_spec(rng) for _ in range(total)]
    for s in build_cycles(specs):
        gain = gain_factor(s)
        worst = min(worst, gain - 1.0)
        if gain >= 1.0 - 1e-9:
            passed += 1
    return passed, total, worst


def _suite_closed_vs_ode(rng: np.random.Generator) -> Tuple[int, int, float]:
    cases: List[Tuple[str, float, float, float]] = []  # (family, v, lambda, k)
    for _ in range(4):
        v = 10.0 ** rng.uniform(-1.0, 1.0)
        lam = 10.0 ** rng.uniform(-1.0, 1.0)
        cases.append(("inverse-linear", v, lam, -2.0))
    for _ in range(4):
        k = float(rng.choice([-4.0, -3.0, -1.0, 1.0, 3.0]))
        z = 10.0 ** rng.uniform(-0.5, 0.5)
        v = 10.0 ** rng.uniform(-0.5, 0.5)
        cases.append(("power-law", v, z ** (1.0 - 0.5 * k), k))  # lambda that turns at z
    for _ in range(4):
        z = 10.0 ** rng.uniform(-0.5, 0.5)
        v = 10.0 ** rng.uniform(-0.5, 0.5)
        cases.append(("exponential", v, 1.0 / z, -2.0))
    passed = 0
    worst = 0.0
    for s_closed, s_ode in zip(legs(cases, "closed"), legs(cases, "ode")):
        diff = float(np.max(np.abs(s_closed.as_array() - s_ode.as_array())))
        worst = max(worst, diff)
        if diff <= 1e-6:
            passed += 1
    return passed, len(cases), worst


def _suite_bogoliubov(rng: np.random.Generator) -> Tuple[int, int, float]:
    passed = 0
    worst = 0.0
    total = 200
    for _ in range(total):
        s = random_symplectic(rng)
        pair = to_bogoliubov(s)
        r_direct = gain_factor(s)
        r_beta = 1.0 + 2.0 * abs(pair.beta) ** 2
        dev = max(abs(r_direct - r_beta), pair.unitarity_error())
        worst = max(worst, dev)
        if abs(r_direct - r_beta) <= 1e-12 * max(1.0, r_direct) and pair.unitarity_error() <= 1e-9:
            passed += 1
    return passed, total, worst


def _suite_multimode(rng: np.random.Generator) -> Tuple[int, int, float]:
    passed = 0
    worst = 0.0
    total = 5
    draws = []  # (t_end, coupling, occupations), in the rng order of one draw after another
    for _ in range(total):
        n = int(rng.integers(2, 5))
        t_end = float(rng.uniform(1.0, 3.0))
        draws.append((t_end, random_coupling(rng, n, t_end), rng.uniform(0.0, 2.0, size=n)))
    t_ends, couplings, occupations = zip(*draws)
    for s, coupling, occ in zip(multimode_from_hamiltonian_batch(couplings, t_ends), couplings, occupations):
        err = symplectic_error(s)
        final = Covariance.thermal(np.sqrt(coupling.d0), occ).evolved(s).occupations(np.sqrt(coupling.d1))
        worst = max(worst, err)
        if err <= 1e-8 and final.sum() - occ.sum() >= -1e-12:  # the phonon number never falls
            passed += 1
    return passed, total, worst


def _suite_forced(rng: np.random.Generator) -> Tuple[int, int, float]:
    passed = 0
    worst = 0.0
    total = 10
    state = StationaryState(0)
    for _, res in _random_forced(rng, total):
        e_total = forced_final_energy(res, state, 1.0)
        deficit = state.energy - e_total
        worst = max(worst, deficit)
        if e_total >= state.energy - 1e-9 and res.matrix.det_error() <= 1e-8:
            passed += 1
    return passed, total, worst


def _suite_perturbation(rng: np.random.Generator) -> Tuple[int, int, float]:
    del rng  # exhaustive, nothing random
    passed = 0
    worst = 0.0
    reports = [check_inequality(power, 12) for power in range(1, 5)]
    for rep in reports:
        worst = max(worst, float(len(rep.violations)))
        if rep.ok:
            passed += 1
    return passed, len(reports), worst


def _suite_planck(rng: np.random.Generator) -> Tuple[int, int, float]:
    del rng
    spec = CavitySpec(L0=7e-3, T=300.0, lam=1e-4, v=1.0)
    shift = shift_planck_spectrum(spec)
    t_target = spec.T / spec.lam
    exact = planck_density(shift.nu_after, t_target)
    worst = float(np.max(np.abs(shift.u_after - exact) / exact))
    fit_err = abs(shift.fitted_temperature - t_target) / t_target
    # total energy carries the lambda^3 volume factor on the after side
    energy_after = np.trapezoid(shift.u_after, shift.nu_after)
    ratio = spec.lam**3 * energy_after / np.trapezoid(shift.u_before, shift.nu_before)
    ratio_err = abs(ratio * spec.lam - 1.0)
    worst = max(worst, fit_err, ratio_err)
    checks = [worst <= 1e-3, fit_err <= 1e-3, ratio_err <= 1e-3]
    return sum(checks), len(checks), worst


_SUITES: Tuple[Tuple[str, Callable[[np.random.Generator], Tuple[int, int, float]]], ...] = (
    ("cycle-gain-theorem", _suite_cycle_theorem),
    ("closed-vs-ode", _suite_closed_vs_ode),
    ("bogoliubov-gain", _suite_bogoliubov),
    ("multimode-relations", _suite_multimode),
    ("forced-decomposition", _suite_forced),
    ("perturbation-inequality", _suite_perturbation),
    ("planck-shift", _suite_planck),
)


def _cmd_verify(
    ns: argparse.Namespace,
) -> Tuple[Sequence[str], Sequence[Sequence[object]], Dict[str, object], bool]:
    rows: List[Sequence[object]] = []
    all_ok = True
    for index, (name, suite) in enumerate(_SUITES):
        rng = np.random.default_rng([ns.seed, index])
        passed, total, worst = suite(rng)
        ok = passed == total
        all_ok = all_ok and ok
        rows.append([name, passed, total, worst, "ok" if ok else "FAIL"])
    names = ["suite", "passed", "total", "worst_deviation", "status"]
    return names, list(zip(*rows)), {"seed": ns.seed}, all_ok


# --- options ----------------------------------------------------------------
#
# Each option is declared once, as (flag, default, converter, help).  The
# flag gives the namespace attribute and the config-file key (- or _, and
# --lambda is ns.lam, keyed "lambda" or "lam"); the converter types the
# resolved value and names the flag in its errors.

Option = Tuple[str, object, Convert, str]

_FAMILY_HELP = "inverse-linear | power | exponential"
_COMMON: Tuple[Option, ...] = (
    ("output", "-", _text, "output path, - for stdout (default)"),
    ("format", "csv", _choice("csv", "json"), "artifact format: csv (default) or json"),
)

_COMMANDS: Dict[str, Tuple[Callable[[argparse.Namespace], tuple], str, Tuple[Option, ...]]] = {
    "propagate": (_cmd_propagate, "one closed-form leg: matrix and final energy", (
        ("family", "inverse-linear", _family, _FAMILY_HELP),
        ("k", -2.0, _float, "power-law exponent (power family only)"),
        ("v", 1.0, _float, "rate magnitude"),
        ("lambda", 2.0, _float, "frequency scale omega0/omega_final"),
        ("v-grid", None, _grid, "start:stop:count[:lin|log] to sweep v"),
        ("state-n", 0, _int(0), "initial stationary-state index (default 0)"),
        ("method", "closed", _choice("closed", "ode"), "evaluation route: closed or ode"),
    )),
    "cycle": (_cmd_cycle, "closed cycle: matrix and gain factor", (
        ("family", "inverse-linear", _family, _FAMILY_HELP),
        ("k", -2.0, _float, "power-law exponent"),
        ("v", 1.0, _float, "rate magnitude"),
        ("lambda", 2.0, _float, "cycle scale"),
        ("omega0", 1.0, _float, "initial frequency"),
        ("cycles", 1, _int(1), "number of repetitions"),
    )),
    "scan": (_cmd_scan, "gain over a (omega0, lambda, v) grid", (
        ("family", "inverse-linear", _family, _FAMILY_HELP),
        ("k", -2.0, _float, "power-law exponent"),
        ("v-grid", "0.01:10:100:log", _grid, "start:stop:count[:lin|log]"),
        ("lambda", 10.0, _float, "fixed lambda (ignored with --lambda-grid)"),
        ("lambda-grid", None, _grid, "start:stop:count[:lin|log]"),
        ("omega0-grid", "1:1:1", _grid, "start:stop:count[:lin|log] (default 1:1:1)"),
        ("cycles", 1, _int(1), "cycles per grid point"),
    )),
    "forced": (_cmd_forced, "random cyclic profiles with endpoint-vanishing drives", (
        ("seed", 0, _int(0), "RNG seed"),
        ("samples", 10, _int(1), "number of (profile, drive) pairs"),
        ("state-n", 0, _int(0), "initial stationary-state index"),
    )),
    "perturb": (_cmd_perturb, "x^N transition probabilities and energy shifts", (
        ("power", 2, _int(1), "operator power N"),
        ("epsilon", 1e-3, _float, "drive amplitude"),
        ("duration", 6.0, _float, "drive duration"),
        ("drive-freq", 2.0, _float, "drive carrier frequency"),
        ("n-max", 10, _int(0), "largest initial level to report"),
    )),
    "spectrum": (_cmd_spectrum, "Planck spectrum before/after adiabatic contraction", (
        ("size", 7e-3, _float, "cavity edge L0 in cm"),
        ("temperature", 300.0, _float, "wall temperature in K"),
        ("lambda", 1e-4, _float, "contraction scale"),
        ("rate", 1.0, _float, "fractional contraction rate 1/s"),
        ("points", 257, _int(16), "samples per stage"),
    )),
    "verify": (_cmd_verify, "run the seeded invariant suites", (
        ("seed", 42, _int(0), "RNG seed (default 42)"),
    )),
}


def _dest(key: str) -> str:
    """Namespace attribute of a flag or config key."""
    norm = key.replace("-", "_")
    return "lam" if norm == "lambda" else norm


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclosc",
        description="Oscillator frequency-cycle energetics: propagators, scans, spectra.",
    )
    parser.add_argument("--version", action="version", version=f"cyclosc {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, summary, options) in _COMMANDS.items():
        sub = subs.add_parser(name, help=summary)
        for flag, _, _, text in options + _COMMON:
            aliases = ["-o"] if flag == "output" else []
            sub.add_argument(f"--{flag}", *aliases, dest=_dest(flag), help=text)
        sub.add_argument("--config", help="JSON config file; flags override its values")
    return parser


# main's parser, built on its first call: parsing leaves no state in it
_parser = functools.lru_cache(maxsize=1)(build_parser)


def _load_config(path: str, allowed: Sequence[str]) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object")
    out: Dict[str, object] = {}
    for key, value in raw.items():
        norm = _dest(str(key))
        if norm not in allowed:
            raise ConfigError(f"config key {key!r} not valid for this subcommand")
        out[norm] = value
    return out


def _resolve(ns: argparse.Namespace) -> argparse.Namespace:
    """Flag > config file > default, then each value through its converter."""
    options = _COMMANDS[ns.subcommand][2] + _COMMON
    config: Dict[str, object] = {}
    if ns.config:
        config = _load_config(ns.config, [_dest(flag) for flag, *_ in options])
    for flag, default, convert, _ in options:
        dest = _dest(flag)
        value = getattr(ns, dest)
        if value is None:
            value = config.get(dest, default)
        # an option whose default is None stays absent unless given
        if value is not None or default is not None:
            value = convert(value, flag)
        setattr(ns, dest, value)
    return ns


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = _parser().parse_args(argv)
    try:
        names, columns, meta, *ok = _COMMANDS[ns.subcommand][0](_resolve(ns))
        _emit(ns.subcommand, names, columns, meta, ns.format, ns.output)
        return 0 if all(ok) else 1
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(json.dumps({"error": "numeric", "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
