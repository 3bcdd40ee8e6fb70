"""First-order transitions driven by a weak x^N perturbation.

The oscillator basis is omega0 = 1, so E_n = n + 1/2 and the position
operator is the ladder x|k> = sqrt(k/2)|k-1> + sqrt((k+1)/2)|k+1>.  The
perturbation is

    Delta V(t) = (delta(t) / 2) x^N,

with delta(t) the (squared-frequency, for N = 2) drive, vanishing at both
endpoints.  First order in delta gives

    P(n -> f) = | integral dt (delta(t)/2) e^(i (f-n) t) |^2 |(x^N)_fn|^2.

Column n of x^N is that ladder applied N times to |n> in Python floats, in a
fixed order (_ladder_column): exact elements at any n, with no basis cutoff,
no BLAS and no cost that grows with n.  Each element is a sum over the
N-step ladder paths from n to f of positive products, so the nonzero ones
are exactly those of the selection rule: |f - n| <= N with the parity of N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .core import _state_index, _whole_count
from .errors import DomainError, QuadratureError
from .profiles import LaneMap, _at

__all__ = [
    "Drive",
    "WindowedCarrier",
    "x_power_matrix",
    "transition_probability",
    "check_inequality",
    "InequalityReport",
    "first_order_energy_shift",
]


def _ladder_column(power: int, n: int) -> Dict[int, float]:
    """Column n of x^power as {f: (x^power)_fn}, in ascending f, holding
    every nonzero element and no other."""
    if not _whole_count(power):
        raise DomainError(f"power must be an integer >= 1, got {power!r}")
    column = {_state_index(n): 1.0}
    for _ in range(power):
        step: Dict[int, float] = {}
        # keys ascend two apart, so k - 1 may already hold k - 2's up step
        # and k + 1 is always new
        for k, c in column.items():
            if k > 0:
                step[k - 1] = step.get(k - 1, 0.0) + math.sqrt(k / 2.0) * c
            step[k + 1] = math.sqrt((k + 1) / 2.0) * c
        column = step
    return column


def x_power_matrix(power: int, cutoff: int) -> np.ndarray:
    """Exact matrix of x^power on the states |0> .. |cutoff-1>, one ladder
    walk per column."""
    if not _whole_count(cutoff):
        raise DomainError(f"cutoff must be an integer >= 1, got {cutoff!r}")
    matrix = np.zeros((cutoff, cutoff))
    for n in range(cutoff):
        for f, element in _ladder_column(power, n).items():
            if f < cutoff:
                matrix[f, n] = element
    return matrix


@dataclass(frozen=True)
class WindowedCarrier:
    """delta(t) = epsilon sin^2(pi t / T) cos(frequency t): a carrier under a
    window that vanishes at t = 0 and t = T = duration."""

    epsilon: float
    duration: float
    frequency: float

    def __call__(self, t: float) -> float:
        return _at(self, t)

    @classmethod
    def stacked(cls, carriers: Sequence["WindowedCarrier"]) -> Callable:
        eps, duration, frequency = (
            np.array([getattr(g, name) for g in carriers]) for name in ("epsilon", "duration", "frequency")
        )

        def evaluate(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
            window = np.sin(math.pi * t / duration[rows]) ** 2
            return eps[rows] * window * np.cos(frequency[rows] * t)

        return evaluate


@dataclass(frozen=True, eq=False)
class Drive:
    """Uniformly sampled drive delta(t) on [0, T] with delta(0) = delta(T) = 0.

    The sample count is 4m + 1 so composite Simpson can be compared against
    its half-resolution restriction (Richardson check).  Any sequences are
    accepted; they are stored as read-only float64 arrays.  The samples
    never change, so each frequency's time integral is computed once and
    kept in _amplitudes.
    """

    times: np.ndarray
    values: np.ndarray
    _amplitudes: Dict[float, complex] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        t = np.array(self.times, dtype=float)
        w = np.array(self.values, dtype=float)
        t.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", w)
        if t.ndim != 1 or t.shape != w.shape:
            raise DomainError("times and values must be matching 1-d sequences")
        if t.size < 5 or (t.size - 1) % 4 != 0:
            raise DomainError(
                f"need 4m + 1 uniform samples with m >= 1, got {t.size}"
            )
        if t[0] != 0.0:
            raise DomainError(f"drive must start at t = 0, got {t[0]!r}")
        steps = np.diff(t)
        if np.any(steps <= 0.0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise DomainError("drive samples must be uniform and increasing")
        scale = float(np.max(np.abs(w)))
        if scale > 0.0 and (abs(w[0]) > 1e-12 * scale or abs(w[-1]) > 1e-12 * scale):
            raise DomainError(
                f"drive must vanish at the endpoints, got {w[0]!r} and {w[-1]!r}"
            )

    @classmethod
    def from_callable(
        cls, fn: Callable[[float], float], t_final: float, n_samples: int = 4097
    ) -> "Drive":
        """Sample fn on n_samples uniform times of [0, t_final]: in one array
        call where fn's type has a stacked formula (see profiles.LaneMap)."""
        if not t_final > 0.0:
            raise DomainError(f"t_final must be positive, got {t_final!r}")
        if not _whole_count(n_samples):
            raise DomainError(f"n_samples must be an integer >= 1, got {n_samples!r}")
        t = np.linspace(0.0, t_final, n_samples)
        sample = LaneMap([fn])
        lane = np.zeros(1, dtype=int)
        w = sample(t[:, None], lane)[:, 0]
        # Off-grid probes catch carriers the grid aliases onto a smooth
        # curve, which no check on the samples alone can ever see.
        scale = float(np.max(np.abs(w)))
        if scale > 0.0:
            golden = 0.6180339887498949
            probes = t_final * ((np.arange(1, 17) * golden) % 1.0)
            dev = float(
                np.max(np.abs(sample(probes[:, None], lane)[:, 0] - np.interp(probes, t, w)))
            )
            if dev > 1e-2 * scale:
                raise QuadratureError(
                    f"drive deviates from its sampled interpolant by {dev!r} "
                    f"(scale {scale!r}); raise n_samples to resolve the carrier"
                )
        return cls(t, w)

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def scale(self) -> float:
        return float(np.max(np.abs(self.values)))


def _simpson(values: np.ndarray, h: float) -> complex:
    return (
        h / 3.0 * (values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum())
    )


def _oscillatory_integral(drive: Drive, omega_fi: float) -> complex:
    """integral dt (delta(t)/2) exp(i omega_fi t), Simpson with a half-grid check."""
    t, w = drive.times, drive.values
    scale = drive.scale()
    # Sample-to-sample swings of order the drive scale mean the carrier is
    # not resolved; grid halving alone cannot see this when the alias lands
    # on a smooth curve, so it is checked directly.
    jump = float(np.max(np.abs(np.diff(w)), initial=0.0))
    if jump > 0.5 * scale:
        raise QuadratureError(
            f"drive swings by {jump!r} between adjacent samples (scale "
            f"{scale!r}); sample the drive more densely"
        )
    f = 0.5 * w * np.exp(1j * omega_fi * t)
    h = t[1] - t[0]
    full = _simpson(f, h)
    half = _simpson(f[::2], 2.0 * h)
    err = abs(full - half) / 15.0
    # compare against the a priori magnitude scale, not |full|: the integral
    # may legitimately cancel to zero at a frequency the drive barely excites
    floor = 0.5 * scale * drive.t_final
    if err > 1e-10 * max(abs(full), floor):
        raise QuadratureError(
            f"Simpson error estimate {err!r} exceeds the 1e-10 relative target; "
            "sample the drive more densely"
        )
    return full


def _amplitude(drive: Drive, omega_fi: float) -> complex:
    """_oscillatory_integral(drive, omega_fi), computed once per drive and frequency."""
    amp = drive._amplitudes.get(omega_fi)
    if amp is None:
        amp = drive._amplitudes[omega_fi] = _oscillatory_integral(drive, omega_fi)
    return amp


def _weighted_probability(drive: Drive, n_from: int, n_to: int, element: float, weight: int) -> float:
    """weight * P(n_from -> n_to) for the element (x^N)_{n_to, n_from}."""
    amp = _amplitude(drive, float(n_to - n_from))
    return float(weight * abs(amp) ** 2 * element**2)


def transition_probability(drive: Drive, n_from: int, n_to: int, power: int) -> float:
    """First-order probability of |n_from> -> |n_to> under (delta/2) x^power.

    Zero exactly when the selection rule |n_to - n_from| <= power with
    matching parity fails.
    """
    element = _ladder_column(power, n_from).get(_state_index(n_to))
    if element is None:
        return 0.0
    return _weighted_probability(drive, n_from, n_to, element, 1)


@dataclass(frozen=True)
class InequalityReport:
    power: int
    n_max: int
    checked: int
    violations: Tuple[Tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def check_inequality(power: int, n_max: int) -> InequalityReport:
    """Exhaustively verify |(x^N)_{n+m,n}| >= |(x^N)_{n-m,n}| for n <= n_max.

    Upward matrix elements dominate their downward mirrors; this is the
    mechanism that makes the first-order energy shift nonnegative.
    """
    checked = 0
    violations = []
    for n in range(_state_index(n_max) + 1):
        column = _ladder_column(power, n)
        for m in range(1, min(n, power) + 1):
            if n - m in column:
                checked += 1
                if column[n + m] < column[n - m] * (1.0 - 1e-12):
                    violations.append((n, m))
    return InequalityReport(power, n_max, checked, tuple(violations))


def first_order_energy_shift(drive: Drive, n: int, power: int) -> float:
    """sum_f (E_f - E_n) P(n -> f) at first order.

    Nonnegative for any real drive: the +m and -m time integrals have equal
    modulus, so each pair contributes m (P_up - P_down) >= 0 by the matrix
    element inequality.
    """
    shift = 0.0
    for f, element in _ladder_column(power, n).items():
        if f != n:
            shift += _weighted_probability(drive, n, f, element, f - n)
    return shift
