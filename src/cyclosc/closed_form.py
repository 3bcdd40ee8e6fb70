"""Closed-form Heisenberg propagators for three solvable frequency families.

Inverse-linear, omega(t) = omega0 / (1 + v t):
    with lam = 1 + v t, Omega = omega0 / v, the coordinate solutions are
    powers lam^beta with exponents beta_{1,2} = 1/2 +- delta and
    delta = sqrt(1/4 - Omega^2).  The regime Omega > 1/2 (delta imaginary)
    oscillates, Omega < 1/2 grows/decays, and Omega = 1/2 is the confluent
    pair {sqrt(lam), sqrt(lam) ln lam}.  All three are evaluated here in a
    single real-arithmetic form built from cosh/cos-type helpers that are
    analytic across the boundary.

Power-law, omega(t)^2 = z^(k-2) with z = 1 + v t:
    coordinate solutions sqrt(z) J_{1/k}(w) and sqrt(z) Y_{1/k}(w) with
    w = (2 / |k v|) z^(k/2).  Only w^2 enters the equation of motion, so the
    positive argument branch is used for either sign of k v.

Exponential, omega(t) = exp(v t) and z = exp(v t):
    coordinate solutions J_0(z / |v|) and Y_0(z / |v|), the order-0 case of
    the power-law frame: both Bessel families share one frame formula and
    one assembly through the Wronskian, constant along a frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Tuple, Union

import numpy as np

from .core import _SQUARE_MAX, _SQUARE_MIN, EvolutionMatrix, _libm_each
from .errors import DomainError

__all__ = [
    "ExponentPair",
    "exponent_pair",
    "propagate_inverse_linear",
    "energy_inverse_linear",
    "propagate_power_law",
    "propagate_exponential",
    "asymptotic_energy",
]

# Bessel order |1/k| beyond this is outside the accuracy contract.
MAX_BESSEL_ORDER = 10.0

# A Bessel frame's Wronskian is constant along a leg: a leg whose end and
# start Wronskians differ by this relative amount is refused.
WRONSKIAN_DRIFT_MAX = 1e-6

# Below this, cosh(sqrt(s2) x) etc. switch to their Taylor series in
# u = s2 x^2; at u = 1e-6 the first dropped term is ~1e-26.
_SERIES_CUT = 1e-6


@dataclass(frozen=True)
class ExponentPair:
    """Characteristic exponents beta_{1,2} = 1/2 +- delta with delta^2 = 1/4 - Omega^2.

    delta2 is real for either regime; delta itself is sqrt(delta2) when
    delta2 >= 0 and i sqrt(-delta2) otherwise.
    """

    delta2: float

    @property
    def oscillatory(self) -> bool:
        return self.delta2 < 0.0

    @property
    def degenerate(self) -> bool:
        return self.delta2 == 0.0


def exponent_pair(omega0: float, v: float) -> ExponentPair:
    if v == 0.0 or not abs(omega0 / v) <= _SQUARE_MAX:
        raise DomainError(f"omega0 = {omega0!r} with rate v = {v!r} has no exponent pair")
    return ExponentPair(0.25 - (omega0 / v) ** 2)


def _cosh_sinch(s2: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(cosh(sqrt(s2) x), sinh(sqrt(s2) x)/sqrt(s2)) elementwise, read as
    (cos(sqrt(-s2) x), sin(sqrt(-s2) x)/sqrt(-s2)) for s2 < 0.

    Both are entire in u = s2 x^2, the second tending to x as s2 -> 0; their
    Taylor series in u take over below |u| = _SERIES_CUT.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # u and y past the float range
        u = s2 * x * x
        r = np.sqrt(np.abs(s2))
        y = r * x
    ch, sh = np.empty_like(u), np.empty_like(u)
    near = np.abs(u) < _SERIES_CUT
    far, grows = ~near, s2 > 0.0
    for branch, cosine, sine in ((far & grows, math.cosh, math.sinh), (far & ~grows, math.cos, math.sin)):
        if branch.any():
            yb = y[branch]
            ch[branch] = _libm_each(cosine, yb)
            sh[branch] = _libm_each(sine, yb) / r[branch]
    if near.any():
        u, x = u[near], x[near]
        ch[near] = 1.0 + u / 2.0 * (1.0 + u / 12.0 * (1.0 + u / 30.0))
        sh[near] = x * (1.0 + u / 6.0 * (1.0 + u / 20.0 * (1.0 + u / 42.0)))
    return ch, sh


def _inverse_linear_domain(
    omega0: np.ndarray, v: np.ndarray, lam: np.ndarray
) -> Tuple[Tuple[np.ndarray, Callable[[float, float, float], str]], ...]:
    """The inverse-linear leg's domain, elementwise over float arrays: its
    conditions in the order they are checked, each as (holds, message), with
    message naming a leg (omega0, v, lam) of Python floats that fails it.
    Every condition after the third binds only where lam != 1."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        still = lam == 1.0
        return (
            (omega0 > 0.0, lambda w, v, lam: f"omega0 must be positive, got {w!r}"),
            (lam > 0.0, lambda w, v, lam: f"lambda must be positive, got {lam!r}"),
            (lam != math.inf, lambda w, v, lam: "lambda must be finite, got inf"),
            (still | (v != 0.0), lambda w, v, lam: "v = 0 cannot reach lambda != 1"),
            (still | ~((lam - 1.0) / v < 0.0), lambda w, v, lam: (
                f"lambda = {lam!r} is not reachable with rate v = {v!r} "
                "(the sign of v must match lambda - 1)")),
            (still | ((omega0 <= _SQUARE_MAX) & (np.abs(omega0 / v) <= _SQUARE_MAX)), lambda w, v, lam: (
                f"omega0 = {w!r} with rate v = {v!r} is out of range: "
                "(omega0/v)**2 or omega0**2 overflows")),
        )


def _inverse_linear_args_ok(omega0: np.ndarray, v: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Elementwise: True where a leg is inside its domain."""
    return reduce(np.logical_and, (holds for holds, _ in _inverse_linear_domain(omega0, v, lam)))


def _check_inverse_linear_args(omega0: np.ndarray, v: np.ndarray, lam: np.ndarray) -> None:
    """Raise the DomainError of the first leg outside the domain, for the
    first condition it fails; omega0, v and lam are broadcast float arrays."""
    failing = np.flatnonzero(~_inverse_linear_args_ok(omega0, v, lam))
    if failing.size:
        leg = [x[failing[0], None] for x in (omega0, v, lam)]
        message = next(message for holds, message in _inverse_linear_domain(*leg) if not holds[0])
        raise DomainError(message(*(x.item() for x in leg)))


def _inverse_linear_entries(
    omega0: np.ndarray, v: np.ndarray, lam: np.ndarray, ln_lam: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Entries (a, b, c, d) of propagate_inverse_linear(omega0, v, lam),
    elementwise over 1-D arrays that pass its checks, with lam != 1 and
    ln_lam libm's log of lam.  Entries past the float range read inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = omega0 / v
        ch, sh = _cosh_sinch(0.25 - w * w, ln_lam)
        rt = np.sqrt(lam)
        return (
            rt * (ch - 0.5 * sh),
            rt * sh / v,
            -(omega0 * omega0 / v) * sh / rt,
            (ch + 0.5 * sh) / rt,
        )


def propagate_inverse_linear(
    omega0: Union[float, np.ndarray], v: Union[float, np.ndarray], lam: Union[float, np.ndarray]
) -> EvolutionMatrix:
    """Evolution matrix for omega(t) = omega0/(1 + v t), run until 1 + v t = lam.

    Valid in all three exponent regimes, including the confluent point
    Omega = omega0/|v| = 1/2 and a neighborhood around it (series evaluation
    keeps the entries smooth through the boundary).

    The arguments may also be 1-D arrays, broadcast together, one leg per
    element: the entries are then arrays, and the first leg that fails a
    check raises that leg's error.
    """
    scalar = np.ndim(omega0) == np.ndim(v) == np.ndim(lam) == 0
    omega0, v, lam = np.broadcast_arrays(*(np.array(x, dtype=float, ndmin=1) for x in (omega0, v, lam)))
    _check_inverse_linear_args(omega0, v, lam)
    moved = lam != 1.0
    if moved.all():
        entries = _inverse_linear_entries(omega0, v, lam, _libm_each(math.log, lam))
    else:  # the identity where lam = 1
        entries = [np.full(lam.shape, x) for x in (1.0, 0.0, 0.0, 1.0)]
        legs = omega0[moved], v[moved], lam[moved]
        for entry, x in zip(entries, _inverse_linear_entries(*legs, _libm_each(math.log, legs[2]))):
            entry[moved] = x
    if scalar:
        return EvolutionMatrix(*(x.item() for x in entries))
    return EvolutionMatrix(*entries)


def energy_inverse_linear(omega0: float, v: float, lam: float, e_initial: float) -> float:
    """Mean energy after the inverse-linear sweep, for an initial stationary
    state of mean energy e_initial (read off at the final frequency omega0/lam).

    Closed form: E = E0 [lam^(2 delta) + lam^(-2 delta) + 2 (4 delta^2 - 1)]
    / (8 lam delta^2), evaluated in real arithmetic for every regime.  The
    formula is invariant under time rescaling, so only Omega = omega0/v and
    lam enter.
    """
    _check_inverse_linear_args(*(np.array(x, dtype=float, ndmin=1) for x in (omega0, v, lam)))
    if not e_initial > 0.0:
        raise DomainError(f"e_initial must be positive, got {e_initial!r}")
    if lam == 1.0:
        return e_initial
    s2 = 0.25 - (omega0 / v) ** 2
    _, sh = _cosh_sinch(np.array([s2]), np.array([math.log(lam)]))
    # numerator/(8 lam s2) is ((cosh(2 delta ln lam) - 1)/delta^2 + 4)/(4 lam),
    # and (cosh(2 y) - 1)/delta^2 = 2 (sinh(y)/delta)^2 with y = delta ln lam:
    # no cancellation, and finite at the confluent point s2 = 0.
    sh = sh.item()
    energy = e_initial * (sh**2 + 2.0) / (2.0 * lam) if abs(sh) <= _SQUARE_MAX else math.inf
    if energy == math.inf:
        raise DomainError(f"the energy at omega0 = {omega0!r}, v = {v!r}, lambda = {lam!r} leaves the float range")
    return energy


def _bessel_order_ok(nu: float) -> bool:
    """False where |nu| exceeds MAX_BESSEL_ORDER; a nan order passes."""
    return not abs(nu) > MAX_BESSEL_ORDER


def _bessel_frame(nu: float, w: float, g: float, g_x: float, w_x: float, x_dot: float, jv, yv) -> EvolutionMatrix:
    """Fundamental-solution frame [[q1, q2], [p1, p2]] of both Bessel families:
    q_i = g Z_nu(w) for Z = J, Y, with g and w functions of a variable x, and
    p_i = dq_i/dt = x_dot (g_x Z + (g Z'(w)) w_x), Z' = Z_(nu-1) - (nu/w) Z_nu."""
    orders = [nu, nu - 1.0]
    (jw, jm), (yw, ym) = jv(orders, w).tolist(), yv(orders, w).tolist()
    nu_w = nu / w if nu else 0.0  # order 0 takes w = 0 too
    jp = jm - nu_w * jw
    yp = ym - nu_w * yw
    return EvolutionMatrix(g * jw, g * yw, x_dot * (g_x * jw + g * jp * w_x), x_dot * (g_x * yw + g * yp * w_x))


def _power_law_frame(z: float, v: float, jv, yv, k: float) -> EvolutionMatrix:
    """The power-law frame at scale z: x = z, nu = 1/k, g = sqrt(z),
    w = (2/|k v|) z^(k/2) and x_dot = v."""
    try:
        w = 2.0 / abs(k * v) * z ** (0.5 * k)
    except (OverflowError, ZeroDivisionError):  # k v or z^(k/2) left the float range
        w = math.nan
    if not 0.0 < w < math.inf:
        raise DomainError(f"w = (2/|k v|) z^(k/2) is not a positive float at z = {z!r}, k = {k!r}, v = {v!r}")
    rt = math.sqrt(z)
    return _bessel_frame(1.0 / k, w, rt, 0.5 / rt, 0.5 * k * w / z, v, jv, yv)


def _exponential_frame(z: float, v: float, jv, yv) -> EvolutionMatrix:
    """The exponential frame at scale z, of order 0: x = w = z/|v|, g = 1 and
    x_dot = dw/dt = v w; g_x = -0.0 adds exactly, so a p whose J_1 underflows keeps its sign."""
    w = z / abs(v)
    return _bessel_frame(0.0, w, 1.0, -0.0, 1.0, v * w, jv, yv)


def _bessel_leg(frame: Callable[..., EvolutionMatrix], v: float, z_final: float, *args: float) -> EvolutionMatrix:
    """Evolution matrix Phi(z_final) Phi(1)^-1 of a Bessel family's frame.

    Phi(1) is inverted through its Wronskian, constant along the frame.  A
    frame entry that left the floats (inf or nan), an end Wronskian that
    drifts from the start's and a map past the float range are refused."""
    if not z_final > 0.0:
        raise DomainError(f"z_final must be positive, got {z_final!r}")
    if z_final == 1.0:
        return EvolutionMatrix.identity()
    if v == 0.0 or (z_final - 1.0) / v < 0.0:
        raise DomainError(f"z_final = {z_final!r} is not reachable with rate v = {v!r}")
    from scipy.special import jv, yv  # on the first Bessel leg: `import cyclosc` loads no scipy
    start, end = frame(1.0, v, jv, yv, *args), frame(z_final, v, jv, yv, *args)
    w = start.det()  # not finite where any entry of start is not
    if not math.isfinite(w):
        raise DomainError(f"the Bessel frame is not finite: its Wronskian evaluates to {w!r}")
    if not all(map(math.isfinite, (end.a, end.b, end.c, end.d))):
        raise DomainError(f"the Bessel frame at z = {z_final!r} is not finite")
    if w == 0.0:
        raise DomainError("the Bessel frame is degenerate: its Wronskian evaluates to 0")
    drift = abs(end.det() / w - 1.0)
    if not drift < WRONSKIAN_DRIFT_MAX:
        raise DomainError(f"the Bessel frame at z = {z_final!r} is inaccurate: its Wronskian drifts by "
                          f"{drift!r} (tolerance {WRONSKIAN_DRIFT_MAX!r})")
    s = end @ EvolutionMatrix(start.d / w, -start.b / w, -start.c / w, start.a / w)
    if not all(map(math.isfinite, (s.a, s.b, s.c, s.d))):
        raise DomainError(f"the Bessel map leaves the float range: {s!r}")
    return s


def propagate_power_law(k: float, v: float, z_final: float) -> EvolutionMatrix:
    """Evolution matrix for omega(t)^2 = z^(k-2), z = 1 + v t, up to z_final.

    Assembled as Phi(z_final) Phi(1)^-1 from the Bessel fundamental frame;
    the z-Wronskian of the frame is the constant k/pi, so the determinant
    is exact up to roundoff.  The initial frequency is 1 (natural units);
    carry a physical omega0 by rescaling t -> omega0 t, v -> v/omega0.
    """
    if k == 0.0:
        raise DomainError("k = 0 is the inverse-linear family; use propagate_inverse_linear")
    if not _bessel_order_ok(1.0 / k):
        raise DomainError(f"Bessel order 1/k = {1.0 / k!r} outside the supported range |1/k| <= {MAX_BESSEL_ORDER}")
    return _bessel_leg(_power_law_frame, v, z_final, k)


def propagate_exponential(v: float, z_final: float) -> EvolutionMatrix:
    """Evolution matrix for omega(t) = exp(v t) up to z = exp(v t) = z_final.

    The power-law assembly with the order-0 frame; the t-Wronskian of the
    frame is the constant 2 v / pi.
    """
    return _bessel_leg(_exponential_frame, v, z_final)


def asymptotic_energy(lam: float, omega: float = 1.0) -> float:
    """Sudden-limit ground-state energy (omega/4)(1 + 1/lam^2).

    lam is the overall frequency scale (final frequency omega/lam); in the
    sudden limit the state has no time to adjust, so the energy is the old
    ground state read off against the new frequency, independent of the
    profile family.
    """
    if not _SQUARE_MIN <= lam <= _SQUARE_MAX:
        raise DomainError(f"lambda must be positive, lambda**2 normal and finite, got {lam!r}")
    if not omega > 0.0:
        raise DomainError(f"omega must be positive, got {omega!r}")
    return 0.25 * omega * (1.0 + 1.0 / lam**2)
