"""Command-line front end emitting deterministic CSV/JSON artifacts.

Subcommands: propagate, cycle, scan, forced, perturb, spectrum, verify.
Every option can also come from a JSON config file (--config), with
explicit flags taking precedence.  Outputs are byte-identical across
repeat runs of the same configuration: the only entropy sources are
explicit seeds.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numeric or domain failure.  Errors print one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .cavity import (
    CavitySpec,
    multimode_from_hamiltonian,
    phonon_number_final,
    planck_density,
    random_coupling,
    shift_planck_spectrum,
)
from .core import (
    StationaryState,
    final_energy,
    gain_factor,
    random_symplectic,
    to_bogoliubov,
)
from .cycles import (
    CycleSpec,
    GridAxis,
    _check_leg_args,
    build_cycle,
    leg,
    random_cycle_gain,
    random_fourier_profile,
    scan_gain,
)
from .errors import DomainError, IntegrationError, QuadratureError, SymplecticError
from .ode import ForcedResult, forced_final_energy, propagate_forced
from .perturbation import Drive, check_inequality, first_order_energy_shift, transition_probability

# Not called here, but bench/tracing.py wraps these names in this module.
from .closed_form import propagate_exponential, propagate_inverse_linear, propagate_power_law  # noqa: F401
from .ode import propagate_ode  # noqa: F401

__all__ = ["main"]


class ConfigError(ValueError):
    """Bad flag/config-file input; distinct from numeric failures."""


_NUMERIC_ERRORS = (DomainError, SymplecticError, IntegrationError, QuadratureError)

# Hard defaults, applied after flags and config file.  None marks options
# with no default that stay optional.
_DEFAULTS: Dict[str, Dict[str, object]] = {
    "propagate": {
        "family": "inverse-linear", "k": -2.0, "v": 1.0, "lam": 2.0,
        "v_grid": None, "state_n": 0, "method": "closed",
    },
    "cycle": {
        "family": "inverse-linear", "k": -2.0, "v": 1.0, "lam": 2.0,
        "omega0": 1.0, "cycles": 1,
    },
    "scan": {
        "family": "inverse-linear", "k": -2.0, "v_grid": "0.01:10:100:log",
        "lam": 10.0, "lambda_grid": None, "omega0_grid": "1:1:1",
        "cycles": 1,
    },
    "forced": {"seed": 0, "samples": 10, "state_n": 0},
    "perturb": {
        "power": 2, "epsilon": 1e-3, "duration": 6.0, "drive_freq": 2.0,
        "n_max": 10,
    },
    "spectrum": {
        "size": 7e-3, "temperature": 300.0, "lam": 1e-4, "rate": 1.0,
        "n_modes": 100, "points": 257,
    },
    "verify": {"seed": 42},
}
_COMMON_DEFAULTS: Dict[str, object] = {"output": "-", "format": "csv"}

_FAMILY_ALIASES = {
    "inverse-linear": "inverse-linear",
    "power": "power-law",
    "power-law": "power-law",
    "exponential": "exponential",
}


def _to_float(value: object, name: str) -> float:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: expected a number, got {value!r}") from None


def _to_int(value: object, name: str, minimum: Optional[int] = None) -> int:
    try:
        out = int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: expected an integer, got {value!r}") from None
    if minimum is not None and out < minimum:
        raise ConfigError(f"{name}: must be >= {minimum}, got {out}")
    return out


def _parse_grid(text: str, name: str) -> GridAxis:
    """start:stop:count[:lin|log] -> GridAxis."""
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


def _family(name: object) -> str:
    fam = _FAMILY_ALIASES.get(str(name))
    if fam is None:
        raise ConfigError(
            f"unknown family {name!r}; expected one of {sorted(_FAMILY_ALIASES)}"
        )
    return fam


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
    value = _py(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(
    subcommand: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    meta: Dict[str, object],
    fmt: str,
    output: str,
) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        pairs = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(meta.items()))
        buf.write(f"#cyclosc {__version__} {subcommand} {pairs}".rstrip() + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
        text = buf.getvalue()
    elif fmt == "json":
        doc = {
            "tool": "cyclosc",
            "version": __version__,
            "subcommand": subcommand,
            "meta": {k: _py(v) for k, v in meta.items()},
            "columns": list(columns),
            "rows": [[_py(x) for x in row] for row in rows],
        }
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        raise ConfigError(f"unknown format {fmt!r}; expected csv or json")
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _random_forced(rng: np.random.Generator) -> Tuple[float, ForcedResult]:
    """Random closed profile driven by a 3-term sine force; returns (duration, result)."""
    profile = random_fourier_profile(rng)
    t0 = profile.duration
    coef = rng.normal(0.0, 0.5, size=3)

    def kappa(t: float) -> float:
        phase = math.pi * t / t0
        return sum(cj * math.sin((j + 1) * phase) for j, cj in enumerate(coef))

    return t0, propagate_forced(profile, kappa, t0)


# --- subcommand handlers -------------------------------------------------


def _cmd_propagate(ns: argparse.Namespace) -> int:
    family = _family(ns.family)
    lam = _to_float(ns.lam, "lambda")
    if not lam > 0.0 or lam == 1.0:
        raise ConfigError(f"lambda must be positive and != 1, got {lam!r}")
    state = StationaryState(_to_int(ns.state_n, "state-n", minimum=0))
    omega_f = 1.0 / lam
    k = _to_float(ns.k, "k")
    if ns.v_grid is not None:
        vs = [float(x) for x in _parse_grid(str(ns.v_grid), "v-grid").values()]
    else:
        vs = [_to_float(ns.v, "v")]
    try:
        for v in vs:
            _check_leg_args(family, v, k, ns.method)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    rows: List[Sequence[object]] = []
    for v in vs:
        s = leg(family, v, lam, k, ns.method)
        e_fin = final_energy(s, state, omega_f)
        rows.append(
            [v, lam, omega_f, s.a, s.b, s.c, s.d, s.det_error(), e_fin]
        )
    meta = {"family": family, "method": ns.method, "state_n": state.n}
    if family == "power-law":
        meta["k"] = k
    _emit(
        "propagate",
        ["v", "lambda", "omega_final", "a", "b", "c", "d", "det_error", "final_energy"],
        rows,
        meta,
        ns.format,
        ns.output,
    )
    return 0


def _cmd_cycle(ns: argparse.Namespace) -> int:
    family = _family(ns.family)
    try:
        spec = CycleSpec(
            family,
            v=_to_float(ns.v, "v"),
            lam=_to_float(ns.lam, "lambda"),
            omega0=_to_float(ns.omega0, "omega0"),
            n_cycles=_to_int(ns.cycles, "cycles", minimum=1),
            k=_to_float(ns.k, "k"),
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    s = build_cycle(spec)
    meta = {"family": family, "k": spec.k, "cycles": spec.n_cycles}
    _emit(
        "cycle",
        ["v", "lambda", "omega0", "a", "b", "c", "d", "det_error", "gain"],
        [[spec.v, spec.lam, spec.omega0, s.a, s.b, s.c, s.d, s.det_error(), gain_factor(s)]],
        meta,
        ns.format,
        ns.output,
    )
    return 0


def _cmd_scan(ns: argparse.Namespace) -> int:
    family = _family(ns.family)
    v_axis = _parse_grid(str(ns.v_grid), "v-grid")
    if ns.lambda_grid is not None:
        lam_axis = _parse_grid(str(ns.lambda_grid), "lambda-grid")
    else:
        lam = _to_float(ns.lam, "lambda")
        lam_axis = GridAxis(lam, lam, 1)
    omega0_axis = _parse_grid(str(ns.omega0_grid), "omega0-grid")
    result = scan_gain(
        family,
        v_axis,
        lam_axis,
        omega0_axis,
        n_cycles=_to_int(ns.cycles, "cycles", minimum=1),
        k=_to_float(ns.k, "k"),
    )
    rows = [
        [r.omega0, r.lam, r.v, r.gain, r.det_err, r.error] for r in result.rows
    ]
    meta = {"family": family, "k": result.k, "cycles": int(ns.cycles)}
    _emit(
        "scan",
        ["omega0", "lambda", "v", "gain", "det_error", "note"],
        rows,
        meta,
        ns.format,
        ns.output,
    )
    return 0


def _cmd_forced(ns: argparse.Namespace) -> int:
    seed = _to_int(ns.seed, "seed", minimum=0)
    samples = _to_int(ns.samples, "samples", minimum=1)
    rng = np.random.default_rng(seed)
    state = StationaryState(_to_int(ns.state_n, "state-n", minimum=0))
    rows: List[Sequence[object]] = []
    for i in range(samples):
        t0, res = _random_forced(rng)
        e_free = final_energy(res.matrix, state, 1.0)
        e_shift = 0.5 * (res.qc_dot**2 + res.qc**2)
        e_total = forced_final_energy(res, state, 1.0)
        rows.append(
            [i, t0, state.energy, e_free, e_shift, e_total, e_total / state.energy]
        )
    meta = {"seed": seed, "samples": samples, "state_n": state.n}
    _emit(
        "forced",
        ["sample", "duration", "e_initial", "e_free", "e_drive", "e_final", "gain"],
        rows,
        meta,
        ns.format,
        ns.output,
    )
    return 0


def _cmd_perturb(ns: argparse.Namespace) -> int:
    power = _to_int(ns.power, "power", minimum=1)
    n_max = _to_int(ns.n_max, "n-max", minimum=0)
    eps = _to_float(ns.epsilon, "epsilon")
    t_end = _to_float(ns.duration, "duration")
    w_drive = _to_float(ns.drive_freq, "drive-freq")
    if not t_end > 0.0:
        raise ConfigError(f"duration must be positive, got {t_end!r}")

    def g(t: float) -> float:
        return eps * math.sin(math.pi * t / t_end) ** 2 * math.cos(w_drive * t)

    drive = Drive.from_callable(g, t_end)
    rows: List[Sequence[object]] = []
    for n in range(n_max + 1):
        shift = first_order_energy_shift(drive, n, power)
        p_up = transition_probability(drive, n, n + power, power)
        p_down = transition_probability(drive, n, n - power, power) if n >= power else 0.0
        rows.append([n, shift, p_up, p_down])
    meta = {
        "power": power, "epsilon": eps, "duration": t_end, "drive_freq": w_drive,
    }
    _emit(
        "perturb",
        ["n", "energy_shift", "p_up", "p_down"],
        rows,
        meta,
        ns.format,
        ns.output,
    )
    return 0


def _cmd_spectrum(ns: argparse.Namespace) -> int:
    try:
        spec = CavitySpec(
            L0=_to_float(ns.size, "size"),
            T=_to_float(ns.temperature, "temperature"),
            lam=_to_float(ns.lam, "lambda"),
            v=_to_float(ns.rate, "rate"),
            n_max=_to_int(ns.n_modes, "n-modes", minimum=1),
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    shift = shift_planck_spectrum(spec, _to_int(ns.points, "points", minimum=16))
    rows: List[Sequence[object]] = []
    for samp in shift.before:
        rows.append(["before", samp.nu, samp.u])
    for samp in shift.after:
        rows.append(["after", samp.nu, samp.u])
    meta = {
        "L0": spec.L0,
        "T": spec.T,
        "lambda": spec.lam,
        "fitted_temperature": shift.fitted_temperature,
    }
    _emit(
        "spectrum",
        ["stage", "nu", "u"],
        rows,
        meta,
        ns.format,
        ns.output,
    )
    return 0


# --- verify suites --------------------------------------------------------


def _suite_cycle_theorem(rng: np.random.Generator) -> Tuple[int, int, float]:
    passed = 0
    worst = math.inf
    total = 200
    for _ in range(total):
        _, gain, _ = random_cycle_gain(rng)
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
    for family, v, lam, k in cases:
        s_closed = leg(family, v, lam, k)
        s_ode = leg(family, v, lam, k, "ode")
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
    for _ in range(total):
        n = int(rng.integers(2, 5))
        t_end = float(rng.uniform(1.0, 3.0))
        coup = random_coupling(rng, n, t_end)
        bg = multimode_from_hamiltonian(coup, t_end)
        occ = rng.uniform(0.0, 2.0, size=n)
        err = bg.unitarity_error()
        growth = phonon_number_final(bg, occ) - float(occ.sum())
        worst = max(worst, err)
        if err <= 1e-8 and growth >= -1e-12:
            passed += 1
    return passed, total, worst


def _suite_forced(rng: np.random.Generator) -> Tuple[int, int, float]:
    passed = 0
    worst = 0.0
    total = 10
    state = StationaryState(0)
    for _ in range(total):
        _, res = _random_forced(rng)
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
    spec = CavitySpec(L0=7e-3, T=300.0, lam=1e-4, v=1.0, n_max=100)
    shift = shift_planck_spectrum(spec)
    t_target = spec.T / spec.lam
    worst = 0.0
    for samp in shift.after:
        exact = planck_density(samp.nu, t_target)
        worst = max(worst, abs(samp.u - exact) / exact)
    fit_err = abs(shift.fitted_temperature - t_target) / t_target
    nus_b = np.array([s.nu for s in shift.before])
    us_b = np.array([s.u for s in shift.before])
    nus_a = np.array([s.nu for s in shift.after])
    us_a = np.array([s.u for s in shift.after])
    # total energy carries the lambda^3 volume factor on the after side
    ratio = spec.lam**3 * np.trapezoid(us_a, nus_a) / np.trapezoid(us_b, nus_b)
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


def _cmd_verify(ns: argparse.Namespace) -> int:
    seed = _to_int(ns.seed, "seed", minimum=0)
    rows: List[Sequence[object]] = []
    all_ok = True
    for index, (name, suite) in enumerate(_SUITES):
        rng = np.random.default_rng([seed, index])
        passed, total, worst = suite(rng)
        ok = passed == total
        all_ok = all_ok and ok
        rows.append([name, passed, total, worst, "ok" if ok else "FAIL"])
    meta = {"seed": seed}
    _emit(
        "verify",
        ["suite", "passed", "total", "worst_deviation", "status"],
        rows,
        meta,
        ns.format,
        ns.output,
    )
    return 0 if all_ok else 1


_HANDLERS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "propagate": _cmd_propagate,
    "cycle": _cmd_cycle,
    "scan": _cmd_scan,
    "forced": _cmd_forced,
    "perturb": _cmd_perturb,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
}


# --- argument plumbing ----------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--output", "-o", help="output path, - for stdout (default)")
    sub.add_argument("--format", choices=["csv", "json"], help="artifact format (default csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclosc",
        description="Oscillator frequency-cycle energetics: propagators, scans, spectra.",
    )
    parser.add_argument("--version", action="version", version=f"cyclosc {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("propagate", help="one closed-form leg: matrix and final energy")
    p.add_argument("--family", help="inverse-linear | power | exponential")
    p.add_argument("--k", help="power-law exponent (power family only)")
    p.add_argument("--v", help="rate magnitude")
    p.add_argument("--lambda", dest="lam", help="frequency scale omega0/omega_final")
    p.add_argument("--v-grid", help="start:stop:count[:lin|log] to sweep v")
    p.add_argument("--state-n", help="initial stationary-state index (default 0)")
    p.add_argument("--method", choices=["closed", "ode"], help="evaluation route")
    _add_common(p)

    p = subs.add_parser("cycle", help="closed cycle: matrix and gain factor")
    p.add_argument("--family", help="inverse-linear | power | exponential")
    p.add_argument("--k", help="power-law exponent")
    p.add_argument("--v", help="rate magnitude")
    p.add_argument("--lambda", dest="lam", help="cycle scale")
    p.add_argument("--omega0", help="initial frequency")
    p.add_argument("--cycles", help="number of repetitions")
    _add_common(p)

    p = subs.add_parser("scan", help="gain over a (omega0, lambda, v) grid")
    p.add_argument("--family", help="inverse-linear | power | exponential")
    p.add_argument("--k", help="power-law exponent")
    p.add_argument("--v-grid", help="start:stop:count[:lin|log]")
    p.add_argument("--lambda", dest="lam", help="fixed lambda (ignored with --lambda-grid)")
    p.add_argument("--lambda-grid", help="start:stop:count[:lin|log]")
    p.add_argument("--omega0-grid", help="start:stop:count[:lin|log] (default 1:1:1)")
    p.add_argument("--cycles", help="cycles per grid point")
    _add_common(p)

    p = subs.add_parser("forced", help="random cyclic profiles with endpoint-vanishing drives")
    p.add_argument("--seed", help="RNG seed")
    p.add_argument("--samples", help="number of (profile, drive) pairs")
    p.add_argument("--state-n", help="initial stationary-state index")
    _add_common(p)

    p = subs.add_parser("perturb", help="x^N transition probabilities and energy shifts")
    p.add_argument("--power", help="operator power N")
    p.add_argument("--epsilon", help="drive amplitude")
    p.add_argument("--duration", help="drive duration")
    p.add_argument("--drive-freq", help="drive carrier frequency")
    p.add_argument("--n-max", help="largest initial level to report")
    _add_common(p)

    p = subs.add_parser("spectrum", help="Planck spectrum before/after adiabatic contraction")
    p.add_argument("--size", help="cavity edge L0 in cm")
    p.add_argument("--temperature", help="wall temperature in K")
    p.add_argument("--lambda", dest="lam", help="contraction scale")
    p.add_argument("--rate", help="fractional contraction rate 1/s")
    p.add_argument("--n-modes", help="adiabaticity check cutoff")
    p.add_argument("--points", help="samples per stage")
    _add_common(p)

    p = subs.add_parser("verify", help="run the seeded invariant suites")
    p.add_argument("--seed", help="RNG seed (default 42)")
    _add_common(p)

    return parser


def _load_config(path: str, allowed: Dict[str, object]) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object")
    out: Dict[str, object] = {}
    for key, value in raw.items():
        norm = str(key).replace("-", "_")
        if norm == "lambda":
            norm = "lam"
        if norm not in allowed:
            raise ConfigError(f"config key {key!r} not valid for this subcommand")
        out[norm] = value
    return out


def _resolve(ns: argparse.Namespace) -> argparse.Namespace:
    defaults = dict(_DEFAULTS[ns.subcommand])
    defaults.update(_COMMON_DEFAULTS)
    config: Dict[str, object] = {}
    if getattr(ns, "config", None):
        config = _load_config(ns.config, defaults)
    for key, hard in defaults.items():
        if getattr(ns, key, None) is None:
            setattr(ns, key, config.get(key, hard))
    return ns


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        ns = _resolve(ns)
        return _HANDLERS[ns.subcommand](ns)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(json.dumps({"error": "numeric", "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
