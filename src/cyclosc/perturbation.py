"""First-order transitions driven by a weak x^N perturbation.

The oscillator basis is omega0 = 1, so E_n = n + 1/2 and the position
matrix is tridiagonal with <n+1|x|n> = sqrt((n+1)/2).  The perturbation is

    Delta V(t) = (delta(t) / 2) x^N,

with delta(t) the (squared-frequency, for N = 2) drive, vanishing at both
endpoints.  First order in delta gives

    P(n -> f) = | integral dt (delta(t)/2) e^(i (f-n) t) |^2 |(x^N)_fn|^2.

Powers of x are computed on a truncated basis whose last N rows are polluted
by the edge and never reported.  An N-step ladder walk from |n> never rises
above |n + N>, so a basis reaching N rows past the highest state involved
already gives exact elements; every routine builds exactly that one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = [
    "OperatorMatrix",
    "Drive",
    "x_power_matrix",
    "transition_probability",
    "check_inequality",
    "InequalityReport",
    "first_order_energy_shift",
]


@dataclass(frozen=True)
class OperatorMatrix:
    """x^N on a truncated number basis; rows >= usable_dim are edge-polluted."""

    matrix: np.ndarray
    power: int
    usable_dim: int

    def element(self, m: int, n: int) -> float:
        if min(m, n) < 0:
            raise DomainError(f"negative state index in ({m}, {n})")
        if max(m, n) >= self.usable_dim:
            raise DomainError(
                f"element ({m}, {n}) is within {self.power} rows of the cutoff "
                f"{self.matrix.shape[0]}; raise the cutoff"
            )
        return float(self.matrix[m, n])


def x_power_matrix(power: int, cutoff: int) -> OperatorMatrix:
    """Matrix of x^power on the states |0> .. |cutoff-1>.

    Selection rules of the result: (x^N)_mn = 0 unless |m - n| <= N and
    m - n has the parity of N.
    """
    if power < 1:
        raise DomainError(f"power must be >= 1, got {power!r}")
    if cutoff <= power:
        raise DomainError(f"cutoff {cutoff!r} leaves no usable rows for power {power!r}")
    n = np.arange(1, cutoff)
    x = np.zeros((cutoff, cutoff))
    off = np.sqrt(n / 2.0)
    x[n, n - 1] = off
    x[n - 1, n] = off
    return OperatorMatrix(np.linalg.matrix_power(x, power), power, cutoff - power)


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
        if not t_final > 0.0:
            raise DomainError(f"t_final must be positive, got {t_final!r}")
        t = np.linspace(0.0, t_final, n_samples)
        w = np.array([float(fn(x)) for x in t])
        # Off-grid probes catch carriers the grid aliases onto a smooth
        # curve, which no check on the samples alone can ever see.
        scale = float(np.max(np.abs(w)))
        if scale > 0.0:
            golden = 0.6180339887498949
            probes = t_final * ((np.arange(1, 17) * golden) % 1.0)
            dev = float(
                np.max(np.abs([fn(x) for x in probes] - np.interp(probes, t, w)))
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


def _allowed(dm: int, power: int) -> bool:
    """Selection rule: (x^N)_{n+dm, n} != 0 iff |dm| <= N with the parity of N."""
    return abs(dm) <= power and (power - dm) % 2 == 0


def _exact_operator(power: int, n_top: int) -> OperatorMatrix:
    """x^power with exact elements between every pair of states <= n_top."""
    return x_power_matrix(power, n_top + power + 1)


def _weighted_probability(
    drive: Drive, op: OperatorMatrix, n_from: int, n_to: int, weight: int
) -> float:
    """weight * P(n_from -> n_to) for a channel that passes the selection rule."""
    element = op.element(n_to, n_from)
    amp = _amplitude(drive, float(n_to - n_from))
    return float(weight * abs(amp) ** 2 * element**2)


def transition_probability(drive: Drive, n_from: int, n_to: int, power: int) -> float:
    """First-order probability of |n_from> -> |n_to> under (delta/2) x^power.

    Zero exactly when the selection rule |n_to - n_from| <= power with
    matching parity fails.
    """
    if min(n_from, n_to) < 0:
        raise DomainError("state indices must be nonnegative")
    if not _allowed(n_to - n_from, power):
        return 0.0
    op = _exact_operator(power, max(n_from, n_to))
    return _weighted_probability(drive, op, n_from, n_to, 1)


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
    op = _exact_operator(power, n_max + power)
    checked = 0
    violations = []
    for n in range(n_max + 1):
        for m in range(1, min(n, power) + 1):
            if not _allowed(m, power):
                continue
            up = abs(op.element(n + m, n))
            down = abs(op.element(n - m, n))
            checked += 1
            if up < down * (1.0 - 1e-12):
                violations.append((n, m))
    return InequalityReport(power, n_max, checked, tuple(violations))


def first_order_energy_shift(drive: Drive, n: int, power: int) -> float:
    """sum_f (E_f - E_n) P(n -> f) at first order.

    Nonnegative for any real drive: the +m and -m time integrals have equal
    modulus, so each pair contributes m (P_up - P_down) >= 0 by the matrix
    element inequality.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    op = _exact_operator(power, n + power)
    shift = 0.0
    for m in range(-min(n, power), power + 1):
        if m != 0 and _allowed(m, power):
            shift += _weighted_probability(drive, op, n, n + m, m)
    return shift
