"""Closed frequency cycles, gain-factor scans, and resonance bookkeeping.

A cycle takes omega from its initial value out to omega/lambda and back.
For the inverse-linear family both legs are closed-form:

    S_cyc = S(omega0/lambda, -v, 1/lambda) . S(omega0, v, lambda),

i.e. the return leg is the member of the same family that starts where the
outbound leg stopped and runs at rate -v until the scale is back to 1.  For
the power-law and exponential families the return leg runs the outbound
profile backwards in time, which needs no integration: with P = diag(1, -1)
the reversed leg is P S^-1 P = [[d, b], [c, a]] for an outbound S =
[[a, b], [c, d]], and the cycle gain is R = 1 + 2 (ac + bd)^2.

A custom cycle is integrated numerically unless its profile is a Piecewise
run over its whole duration whose segments are all family members
(InverseLinear, Exponential, PowerLaw with omega0 = 1 and |1/k| <=
MAX_BESSEL_ORDER, each at a rate of at least _SLOW_RATE times its starting
frequency) or full-length TimeReversed mirrors of them.  Such a cycle is
the product of the segments' closed forms, each mirror by the same P S^-1 P.

All gains are computed in cycle-normalized units omega(0) = 1: a physical
omega0 is absorbed by rescaling t -> omega0 t, v -> v/omega0, under which
the gain factor is invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .closed_form import (
    MAX_BESSEL_ORDER,
    propagate_exponential,
    propagate_inverse_linear,
    propagate_power_law,
)
from .core import EvolutionMatrix, compose, gain_factor
from .errors import DomainError, IntegrationError, SymplecticError
from .ode import DEFAULT_CONFIG, IntegratorConfig, propagate_ode
from .profiles import (
    Custom,
    Exponential,
    FrequencyProfile,
    InverseLinear,
    Piecewise,
    PowerLaw,
    TimeReversed,
)

__all__ = [
    "FAMILIES",
    "CycleSpec",
    "GridAxis",
    "ScanRow",
    "ScanResult",
    "leg",
    "build_cycle",
    "cycle_gain",
    "scan_gain",
    "find_unity_points",
    "random_fourier_profile",
    "random_piecewise_cycle",
    "random_cycle_gain",
]

FAMILIES = ("inverse-linear", "power-law", "exponential", "custom")

# A Piecewise segment slower than this fraction of its starting frequency
# is integrated: the closed forms lose about eps omega(0)/|v| of phase
# (~1e-10 here), and at v = 0 they would return the identity.
_SLOW_RATE = 1e-6


@dataclass(frozen=True)
class CycleSpec:
    """One closed cycle: out to scale lambda and back, repeated n_cycles times.

    v is the outbound rate magnitude; its sign is fixed by the geometry of
    the family (lambda > 1 expands an inverse-linear profile but contracts
    the exponential z, and so on).  k only matters for the power-law family.
    For family "custom", profile must itself close (omega(duration) =
    omega(0)); a Piecewise profile of family segments is composed from
    closed forms (see the module docstring), any other is integrated
    numerically as-is.
    """

    family: str
    v: float = 1.0
    lam: float = 2.0
    omega0: float = 1.0
    n_cycles: int = 1
    k: float = -2.0
    profile: Optional[FrequencyProfile] = None
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not self.lam > 0.0:
            raise DomainError(f"lambda must be positive, got {self.lam!r}")
        if not self.omega0 > 0.0:
            raise DomainError(f"omega0 must be positive, got {self.omega0!r}")
        if not isinstance(self.n_cycles, (int, np.integer)) or self.n_cycles < 1:
            raise DomainError(f"n_cycles must be an integer >= 1, got {self.n_cycles!r}")
        if self.family == "custom":
            if self.profile is None or self.duration is None:
                raise DomainError("custom cycles need a profile and a duration")
        else:
            _check_leg_args(self.family, self.v, self.k)


def _check_leg_args(family: str, v: float, k: float, method: str = "closed") -> None:
    if not v > 0.0:
        raise DomainError(f"v must be a positive rate magnitude, got {v!r}")
    if family == "power-law" and k in (0.0, 2.0):
        # k = 2 is constant frequency (no scale is reachable); k = 0 is a
        # different one-parameter family handled by "inverse-linear".
        raise DomainError(f"power-law needs k not in {{0, 2}}, got {k!r}")
    if method not in ("closed", "ode"):
        raise DomainError(f"method must be closed or ode, got {method!r}")


def leg(family: str, v: float, lam: float, k: float = -2.0, method: str = "closed") -> EvolutionMatrix:
    """Evolution matrix of one leg of a family from omega = 1 to omega = 1/lam.

    v is the rate magnitude; its sign is chosen so the family's running
    scale reaches its turning value: lam itself for inverse-linear,
    z = lam^(-2/(k-2)) for power-law and z = 1/lam for exponential.
    method "closed" evaluates the closed form, "ode" integrates the profile.
    """
    _check_leg_args(family, v, k, method)
    closed = method == "closed"
    if family == "inverse-linear":
        u = v if lam > 1.0 else -v
        if closed:
            return propagate_inverse_linear(1.0, u, lam)
        prof = InverseLinear(1.0, u)
        return propagate_ode(prof, prof.t_for_scale(lam))
    if family == "power-law":
        z_t = lam ** (-2.0 / (k - 2.0))
        u = v if z_t > 1.0 else -v
        if closed:
            return propagate_power_law(k, u, z_t)
        prof = PowerLaw(k, u)
        return propagate_ode(prof, prof.t_for_z(z_t))
    if family == "exponential":
        z_t = 1.0 / lam
        u = v if z_t > 1.0 else -v
        if closed:
            return propagate_exponential(u, z_t)
        prof = Exponential(u)
        return propagate_ode(prof, prof.t_for_z(z_t))
    raise DomainError(f"family {family!r} has no single-leg form")


def _reversed(s: EvolutionMatrix) -> EvolutionMatrix:
    """The leg of s run backwards in time: P S^-1 P with P = diag(1, -1)."""
    return EvolutionMatrix(s.d, s.b, s.c, s.a)


def _segment(prof: FrequencyProfile, dur: float) -> Optional[EvolutionMatrix]:
    """Closed-form matrix of prof over [0, dur], or None if it needs the ODE."""
    if isinstance(prof, TimeReversed):
        if dur != prof.duration:
            return None
        base = _segment(prof.base, dur)
        return None if base is None else _reversed(base)
    if not isinstance(prof, (InverseLinear, Exponential, PowerLaw)):
        return None
    if not abs(prof.v) >= _SLOW_RATE * prof.omega(0.0):
        return None
    if isinstance(prof, InverseLinear):
        return propagate_inverse_linear(prof.omega0, prof.v, 1.0 + prof.v * dur)
    if isinstance(prof, Exponential):
        return propagate_exponential(prof.v, math.exp(prof.v * dur))
    if prof.omega0 != 1.0 or abs(1.0 / prof.k) > MAX_BESSEL_ORDER:
        return None
    return propagate_power_law(prof.k, prof.v, 1.0 + prof.v * dur)


def _closed_piecewise(profile: FrequencyProfile, duration: float) -> Optional[EvolutionMatrix]:
    """Product of a whole Piecewise profile's segment matrices, or None if
    any segment, or a run shorter than the profile, needs the ODE."""
    if not isinstance(profile, Piecewise) or duration != profile.duration:
        return None
    total = EvolutionMatrix.identity()
    for prof, dur in profile.segments:
        s = _segment(prof, dur)
        if s is None:
            return None
        total = compose(s, total)
    return total


def _one_cycle(spec: CycleSpec, cfg: IntegratorConfig) -> EvolutionMatrix:
    lam = spec.lam
    if spec.family == "custom":
        closed = _closed_piecewise(spec.profile, spec.duration)
        return propagate_ode(spec.profile, spec.duration, cfg) if closed is None else closed
    u = spec.v / spec.omega0  # normalized rate; gain is invariant under this rescaling
    if lam == 1.0:
        return EvolutionMatrix.identity()
    if spec.family == "inverse-linear":
        u_out = u if lam > 1.0 else -u
        out = propagate_inverse_linear(1.0, u_out, lam)
        back = propagate_inverse_linear(1.0 / lam, -u_out, 1.0 / lam)
        return compose(back, out)
    # the return leg is the outbound profile run backwards
    out = leg(spec.family, u, lam, spec.k)
    return compose(_reversed(out), out)


def build_cycle(spec: CycleSpec, cfg: IntegratorConfig = DEFAULT_CONFIG) -> EvolutionMatrix:
    """Evolution matrix of the full (possibly repeated) cycle.

    cfg applies to the custom cycles that are integrated, not to those
    composed from closed forms.
    """
    once = _one_cycle(spec, cfg)
    total = once
    for _ in range(spec.n_cycles - 1):
        total = compose(once, total)
    return total


def cycle_gain(spec: CycleSpec, cfg: IntegratorConfig = DEFAULT_CONFIG) -> float:
    return gain_factor(build_cycle(spec, cfg))


@dataclass(frozen=True)
class GridAxis:
    """start/stop/count axis, linear or log spaced."""

    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def values(self) -> np.ndarray:
        if self.count < 1:
            raise DomainError(f"count must be >= 1, got {self.count!r}")
        if self.count == 1:
            return np.array([self.start])
        if self.spacing == "linear":
            return np.linspace(self.start, self.stop, self.count)
        if self.spacing == "log":
            if not (self.start > 0.0 and self.stop > 0.0):
                raise DomainError("log spacing needs positive endpoints")
            return np.geomspace(self.start, self.stop, self.count)
        raise DomainError(f"unknown spacing {self.spacing!r}")


@dataclass(frozen=True)
class ScanRow:
    index: int
    v: float
    lam: float
    omega0: float
    n_cycles: int
    gain: float
    det_err: float
    error: str = ""


@dataclass(frozen=True)
class ScanResult:
    family: str
    k: float
    rows: Tuple[ScanRow, ...] = field(default_factory=tuple)


def scan_gain(
    family: str,
    v_axis: GridAxis,
    lam_axis: GridAxis,
    omega0_axis: GridAxis = GridAxis(1.0, 1.0, 1),
    n_cycles: int = 1,
    k: float = -2.0,
) -> ScanResult:
    """Gain factor over the grid omega0 x lambda x v (v fastest).

    Rows are ordered by grid index.  A point whose cycle cannot be built
    stays in place as a NaN row carrying the reason in ``error``, so the
    grid stays rectangular.
    """
    rows = []
    for omega0 in omega0_axis.values().tolist():
        for lam in lam_axis.values().tolist():
            for v in v_axis.values().tolist():
                try:
                    spec = CycleSpec(family, v=v, lam=lam, omega0=omega0, n_cycles=n_cycles, k=k)
                    s = build_cycle(spec)
                    gain, det_err, note = gain_factor(s), s.det_error(), ""
                except (DomainError, IntegrationError, SymplecticError) as exc:
                    gain, det_err, note = math.nan, math.nan, str(exc)
                rows.append(ScanRow(len(rows), v, lam, omega0, n_cycles, gain, det_err, note))
    return ScanResult(family=family, k=k, rows=tuple(rows))


def _golden_min(f: Callable[[float], float], lo: float, hi: float, xtol: float) -> Tuple[float, float]:
    """Golden-section minimum of f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


def find_unity_points(
    result: ScanResult,
    tol: float = 1e-6,
    refine: bool = True,
    v_resolution: float = 1e-6,
) -> Tuple[Tuple[float, float, float], ...]:
    """(v, lambda, gain) triples where the gain dips back to 1 within tol.

    Local minima of the sampled R(v) at fixed (omega0, lambda) are located
    by sign changes of the discrete derivative and then sharpened by a
    golden-section search; a monotone sweep yields nothing.
    """
    found = []
    groups: dict = {}
    for row in result.rows:
        if row.error:
            continue
        groups.setdefault((row.omega0, row.lam, row.n_cycles), []).append(row)
    for (omega0, lam, n_cycles), rows in sorted(groups.items()):
        rows = sorted(rows, key=lambda r: r.v)
        def gain_at(v: float) -> float:
            return cycle_gain(
                CycleSpec(
                    family=result.family, v=v, lam=lam, omega0=omega0,
                    n_cycles=n_cycles, k=result.k,
                )
            )
        for i in range(1, len(rows) - 1):
            g_prev, g_here, g_next = rows[i - 1].gain, rows[i].gain, rows[i + 1].gain
            if not (g_here <= g_prev and g_here <= g_next):
                continue
            if g_here == g_prev and g_here == g_next:
                continue
            v_min, g_min = rows[i].v, g_here
            if refine:
                v_min, g_min = _golden_min(gain_at, rows[i - 1].v, rows[i + 1].v, v_resolution)
            if g_min - 1.0 < tol:
                found.append((v_min, lam, g_min))
    return tuple(found)


def random_fourier_profile(
    rng: np.random.Generator,
    n_harmonics: int = 4,
    amplitude: float = 0.4,
    duration_range: Tuple[float, float] = (2.0, 8.0),
) -> Custom:
    """Smooth random cycle profile omega(t) = exp(sum_j c_j sin(pi j t / T)).

    The sine basis pins omega(0) = omega(T) = 1 exactly and exponentiation
    keeps the frequency positive.
    """
    t0 = rng.uniform(*duration_range)
    # plain floats keep every omega_sq call out of numpy scalar arithmetic
    harmonics = np.arange(1, n_harmonics + 1)
    coef = (rng.normal(0.0, amplitude, size=n_harmonics) / harmonics).tolist()

    def omega_sq(t: float) -> float:
        phase = math.pi * t / t0
        s = 0.0
        for j, c in enumerate(coef, start=1):
            s += c * math.sin(j * phase)
        return math.exp(2.0 * s)

    return Custom(omega_sq, duration=t0)


def random_piecewise_cycle(rng: np.random.Generator, max_segments: int = 3) -> Piecewise:
    """Random palindromic piecewise profile; closes at omega = 1, may jump inside."""
    n = int(rng.integers(1, max_segments + 1))
    forward = []
    for _ in range(n):
        kind = rng.integers(0, 3)
        if kind == 0:
            v = rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0])
            dur = rng.uniform(0.2, 1.5)
            if 1.0 + v * dur <= 0.05:
                dur = 0.5 / abs(v)
            forward.append((InverseLinear(1.0, v), dur))
        elif kind == 1:
            v = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
            forward.append((Exponential(v), rng.uniform(0.2, 1.5)))
        else:
            k = rng.choice([-3.0, -2.0, 1.0, 3.0])
            v = rng.uniform(0.2, 1.0)
            forward.append((PowerLaw(k, v), rng.uniform(0.2, 1.5)))
    mirrored = [(TimeReversed(p, d), d) for p, d in reversed(forward)]
    return Piecewise(tuple(forward + mirrored))


def random_cycle_gain(
    rng: np.random.Generator, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> Tuple[CycleSpec, float, float]:
    """Draw a random closed cycle, mixing all families; return (spec, gain, det_err).

    Inverse-linear cycles use the full advertised parameter ranges.  The
    power-law and exponential ranges stay narrower: widening them waits on
    a map of where their Bessel closed forms lose accuracy.
    """
    kind = rng.integers(0, 4)
    if kind == 0:
        spec = CycleSpec(
            "inverse-linear",
            v=10.0 ** rng.uniform(-2.0, 2.0),
            lam=10.0 ** rng.uniform(-2.0, 2.0),
            omega0=10.0 ** rng.uniform(-1.0, 1.0),
        )
    elif kind == 1:
        spec = CycleSpec(
            "power-law",
            v=10.0 ** rng.uniform(-0.5, 2.0),
            lam=10.0 ** rng.uniform(-1.0, 1.0),
            omega0=10.0 ** rng.uniform(-0.5, 0.5),
            k=float(rng.choice([-4.0, -3.0, -2.0, -1.0, 1.0, 3.0])),
        )
    elif kind == 2:
        spec = CycleSpec(
            "exponential",
            v=10.0 ** rng.uniform(-0.5, 2.0),
            lam=10.0 ** rng.uniform(-1.0, 1.0),
            omega0=10.0 ** rng.uniform(-0.5, 0.5),
        )
    else:
        if rng.uniform() < 0.5:
            profile: FrequencyProfile = random_fourier_profile(rng)
            duration = profile.duration
        else:
            profile = random_piecewise_cycle(rng)
            duration = profile.duration
        spec = CycleSpec("custom", profile=profile, duration=duration)
    s = build_cycle(spec, cfg)
    return spec, gain_factor(s), s.det_error()
