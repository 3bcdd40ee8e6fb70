"""Time-dependent frequency profiles omega(t) for H = p^2/2 + omega(t)^2 q^2 / 2.

Natural units: every family is normalized so omega(0) equals its nominal
initial frequency (1 unless stated otherwise).  Profiles only describe the
frequency; durations are passed to the propagators separately, except for
the container types (Piecewise, Tabulated, Custom, Fourier, TimeReversed)
that carry an intrinsic domain.

A type whose values have a formula over arrays (Fourier, SineSeries, and
the coupling and carrier types of cavity and perturbation) writes it once,
as a class method stacked(items) returning evaluate(t, rows): the value of
items[rows] at the times t.  Its scalar call evaluates that formula at one
point (_at), and LaneMap uses it to evaluate many lanes of an integration
at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import DomainError

__all__ = [
    "FrequencyProfile",
    "InverseLinear",
    "PowerLaw",
    "Exponential",
    "Piecewise",
    "Tabulated",
    "Custom",
    "SineSeries",
    "Fourier",
    "TimeReversed",
]


def _at(item, t: float):
    """The value of item at the time t: its type's stacked formula at one point."""
    value = type(item).stacked([item])(np.array([[t]], dtype=float), np.zeros(1, dtype=int))[0, 0]
    return float(value) if value.ndim == 0 else value


class FrequencyProfile:
    """Base type: subclasses provide omega_sq(t) and a domain check."""

    def omega_sq(self, t: float) -> float:
        raise NotImplementedError

    def omega(self, t: float) -> float:
        return math.sqrt(self.omega_sq(t))

    def check_domain(self, t_final: float) -> None:
        """Raise DomainError if [0, t_final] leaves the validity domain.

        A profile with a ``duration`` is defined on [0, duration]; one
        without is defined for all t >= 0.
        """
        if not (t_final >= 0.0 and math.isfinite(t_final)):
            raise DomainError(f"t_final must be finite and >= 0, got {t_final!r}")
        duration = getattr(self, "duration", math.inf)
        if t_final > duration * (1.0 + 1e-12):
            raise DomainError(f"t_final = {t_final!r} beyond the domain [0, {duration!r}]")


class _RateFamily(FrequencyProfile):
    """A family profile of rate v whose running scale scale(t) starts at 1;
    _SCALE and _TARGET word its messages."""

    _SCALE, _TARGET = "z", "z_final = {!r}"

    def t_for_scale(self, s: float) -> float:
        """Time at which the running scale reaches s."""
        if not s > 0.0:
            raise DomainError(f"{self._SCALE}_final must be positive, got {s!r}")
        if self.v == 0.0:
            if s == 1.0:
                return 0.0
            raise DomainError(f"v = 0 profile never leaves {self._SCALE} = 1")
        t = self._elapsed(s) / self.v
        if t < 0.0:
            raise DomainError(f"{self._TARGET.format(s)} is not reachable with rate v = {self.v!r}")
        return t


class _LinearRate(_RateFamily):
    """A family whose running scale 1 + v t must stay positive."""

    _VANISHING = "z = 1 + v t"

    def scale(self, t: float) -> float:
        return 1.0 + self.v * t

    def _elapsed(self, s: float) -> float:  # v t at scale s
        return s - 1.0

    def check_domain(self, t_final: float) -> None:
        super().check_domain(t_final)
        if self.scale(t_final) <= 0.0:
            raise DomainError(f"{self._VANISHING} vanishes before t_final = {t_final!r} (v = {self.v!r})")


@dataclass(frozen=True)
class InverseLinear(_LinearRate):
    """omega(t) = omega0 / (1 + v t); the scale lambda(t) = 1 + v t."""

    omega0: float = 1.0
    v: float = 1.0

    _SCALE, _TARGET, _VANISHING = "lambda", "scale {!r}", "1 + v t"

    def __post_init__(self) -> None:
        if not self.omega0 > 0.0:
            raise DomainError(f"omega0 must be positive, got {self.omega0!r}")

    def omega(self, t: float) -> float:
        return self.omega0 / (1.0 + self.v * t)

    def omega_sq(self, t: float) -> float:
        return self.omega(t) ** 2


@dataclass(frozen=True)
class PowerLaw(_LinearRate):
    """omega(t)^2 = omega0^2 z^(k-2) with z = 1 + v t.

    k = 2 is a constant frequency; k = 0 would reproduce the inverse-linear
    family but is excluded here because the closed form uses Bessel order
    1/k (use InverseLinear instead).
    """

    k: float
    v: float
    omega0: float = 1.0

    def __post_init__(self) -> None:
        if self.k == 0.0:
            raise DomainError("k = 0 is the inverse-linear family; use InverseLinear")
        if not self.omega0 > 0.0:
            raise DomainError(f"omega0 must be positive, got {self.omega0!r}")

    def omega_sq(self, t: float) -> float:
        z = 1.0 + self.v * t
        return self.omega0**2 * z ** (self.k - 2.0)

    t_for_z = _RateFamily.t_for_scale


@dataclass(frozen=True)
class Exponential(_RateFamily):
    """omega(t) = exp(v t); z = exp(v t) plays the role of the running scale."""

    v: float

    def omega(self, t: float) -> float:
        return math.exp(self.v * t)

    def omega_sq(self, t: float) -> float:
        return math.exp(2.0 * self.v * t)

    scale = omega  # the running scale z = exp(v t)
    _elapsed = staticmethod(math.log)  # v t at scale z
    t_for_z = _RateFamily.t_for_scale


@dataclass(frozen=True)
class Piecewise(FrequencyProfile):
    """Segments (profile, duration) glued in time; each segment uses its own clock.

    omega may jump at breakpoints (a sudden frequency change); q and p stay
    continuous across the joint.
    """

    segments: Tuple[Tuple[FrequencyProfile, float], ...]

    def __post_init__(self) -> None:
        if len(self.segments) == 0:
            raise DomainError("Piecewise needs at least one segment")
        for prof, dur in self.segments:
            if not (dur > 0.0 and math.isfinite(dur)):
                raise DomainError(f"segment duration must be positive, got {dur!r}")
            prof.check_domain(dur)

    @property
    def duration(self) -> float:
        return float(sum(dur for _, dur in self.segments))

    def omega_sq(self, t: float) -> float:
        rem = t
        for prof, dur in self.segments[:-1]:
            if rem <= dur:
                return prof.omega_sq(rem)
            rem -= dur
        # the last segment takes every t that check_domain allows: subtracting
        # the durations one at a time can leave rem past it at t = duration
        if not t <= self.duration * (1.0 + 1e-12):
            raise DomainError(f"t = {t!r} beyond the piecewise domain [0, {self.duration!r}]")
        prof, dur = self.segments[-1]
        return prof.omega_sq(min(rem, dur))


@dataclass(frozen=True)
class Tabulated(FrequencyProfile):
    """Sampled omega(t_i) > 0 on an increasing grid, monotone-cubic interpolated.

    Only the numeric propagator understands this profile.
    """

    times: Tuple[float, ...]
    omegas: Tuple[float, ...]
    _interp: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Imported on first use, so importing the package (and every CLI
        # call) does not pay for scipy.interpolate.
        from scipy.interpolate import PchipInterpolator

        t = np.asarray(self.times, dtype=float)
        w = np.asarray(self.omegas, dtype=float)
        if t.ndim != 1 or t.shape != w.shape or t.size < 2:
            raise DomainError("need matching 1-d time and omega samples, at least 2")
        if t[0] != 0.0:
            raise DomainError(f"the sample grid must start at t = 0, got {t[0]!r}")
        if np.any(np.diff(t) <= 0.0):
            raise DomainError("sample times must be strictly increasing")
        if np.any(w <= 0.0):
            raise DomainError("omega samples must be positive")
        # PCHIP does not overshoot beyond neighboring samples, so positivity
        # of the samples keeps the interpolant positive.
        object.__setattr__(self, "_interp", PchipInterpolator(t, w, extrapolate=False))

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def omega(self, t: float) -> float:
        return float(self._interp(t))

    def omega_sq(self, t: float) -> float:
        return self.omega(t) ** 2


@dataclass(frozen=True)
class Custom(FrequencyProfile):
    """omega^2 given by an arbitrary callable; numeric propagator only."""

    omega_sq_fn: Callable[[float], float]
    duration: float = math.inf

    def omega_sq(self, t: float) -> float:
        return float(self.omega_sq_fn(t))


@dataclass(frozen=True)
class SineSeries:
    """f(t) = sum_j c_j sin(j pi t / T), j = 1, 2, ...: zero at t = 0 and, to
    roundoff, at t = T."""

    coef: Tuple[float, ...]
    duration: float

    def __post_init__(self) -> None:
        # a tuple of floats, so that series compare and hash by value
        object.__setattr__(self, "coef", tuple(float(c) for c in self.coef))
        if not (self.duration > 0.0 and math.isfinite(self.duration)):
            raise DomainError(f"duration must be positive, got {self.duration!r}")

    def __call__(self, t: float) -> float:
        return _at(self, t)

    @classmethod
    def stacked(cls, series: Sequence["SineSeries"]) -> Callable:
        # a shorter series is padded with zero terms, and adding 0.0 changes no sum
        coef = np.zeros((len(series), max(len(f.coef) for f in series)))
        for row, f in zip(coef, series):
            row[: len(f.coef)] = f.coef
        duration = np.array([f.duration for f in series])
        harmonics = np.arange(1.0, coef.shape[1] + 1.0)

        def evaluate(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
            phase = math.pi * t / duration[rows]
            terms = coef[rows] * np.sin(phase[..., None] * harmonics)
            s = np.zeros(phase.shape)
            for j in range(harmonics.size):  # in harmonic order: np.sum would group the terms otherwise
                s += terms[..., j]
            return s

        return evaluate


@dataclass(frozen=True)
class Fourier(FrequencyProfile):
    """omega(t)^2 = exp(2 f(t)) for a sine series f on [0, f.duration].

    f vanishes at both ends, so omega(0) = 1 and omega(T) = 1 to roundoff,
    and the exponential keeps the frequency positive.
    """

    series: SineSeries

    @property
    def duration(self) -> float:
        return self.series.duration

    def omega_sq(self, t: float) -> float:
        return _at(self, t)

    @classmethod
    def stacked(cls, profiles: Sequence["Fourier"]) -> Callable:
        f = SineSeries.stacked([p.series for p in profiles])

        def evaluate(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
            return np.exp(2.0 * f(t, rows))

        return evaluate


@dataclass(frozen=True)
class TimeReversed(FrequencyProfile):
    """The profile run backwards: omega_sq(t) = base.omega_sq(duration - t)."""

    base: FrequencyProfile
    duration: float

    def __post_init__(self) -> None:
        if not (self.duration > 0.0 and math.isfinite(self.duration)):
            raise DomainError(f"duration must be positive, got {self.duration!r}")
        self.base.check_domain(self.duration)

    def omega_sq(self, t: float) -> float:
        # Clamp to kill roundoff excursions just outside [0, duration].
        s = min(max(self.duration - t, 0.0), self.duration)
        return self.base.omega_sq(s)


class LaneMap:
    """The values fn_i(t) of many lanes i, each with its own function.

    items are grouped by type.  A type that defines its stacked(items)
    formula itself is evaluated by one array call per group; any other item
    (a Custom, Tabulated or family profile, a Piecewise segment, a plain
    function, a subclass that may have changed the scalar call) is called
    once per lane and time, through scalar(item).
    """

    def __init__(self, items: Sequence[object], scalar: Callable = lambda item: item) -> None:
        formulas: dict = {}
        for i, item in enumerate(items):
            kind = type(item)
            formulas.setdefault(kind.stacked if "stacked" in vars(kind) else None, []).append(i)
        self._groups = []
        for stacked, members in formulas.items():
            group = np.zeros(len(items), dtype=bool)
            group[members] = True
            rows = np.cumsum(group) - 1  # an item's index within its group
            chosen = [items[i] for i in members]
            evaluate = self._each([scalar(x) for x in chosen]) if stacked is None else stacked(chosen)
            self._groups.append((evaluate, group, rows))

    @staticmethod
    def _each(fns: List[Callable]) -> Callable:
        def evaluate(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
            values = [list(map(fns[i], ts)) for i, ts in zip(rows.tolist(), t.T.tolist())]
            return np.array(values, dtype=float).swapaxes(0, 1)

        return evaluate

    def __call__(self, t: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        """Values at the times t, shape (times, k), of the k lanes `lanes`,
        shaped t.shape + the shape of one value."""
        if len(self._groups) == 1:  # every lane in one group: its rows are the lanes
            return self._groups[0][0](t, lanes)
        out = None
        for evaluate, group, rows in self._groups:
            cols = np.flatnonzero(group[lanes])
            if cols.size:
                part = evaluate(t[:, cols], rows[lanes[cols]])
                if out is None:
                    out = np.empty(t.shape + part.shape[2:])
                out[:, cols] = part
        return out
