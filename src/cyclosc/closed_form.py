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
    coordinate solutions J_0(z / |v|) and Y_0(z / |v|).

Each propagator assembles the evolution matrix from the two fundamental
solutions via the Wronskian, which keeps det S = 1 to machine accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv, yv

from .core import EvolutionMatrix
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
    if v == 0.0:
        raise DomainError("v = 0 has no exponent pair (frequency is constant)")
    return ExponentPair(0.25 - (omega0 / v) ** 2)


def _coshlike(s2: float, x: float) -> float:
    """cosh(sqrt(s2) x) for s2 >= 0, cos(sqrt(-s2) x) for s2 < 0; entire in s2 x^2."""
    u = s2 * x * x
    if abs(u) < _SERIES_CUT:
        return 1.0 + u / 2.0 * (1.0 + u / 12.0 * (1.0 + u / 30.0))
    if s2 > 0.0:
        return math.cosh(math.sqrt(s2) * x)
    return math.cos(math.sqrt(-s2) * x)


def _sinchlike(s2: float, x: float) -> float:
    """sinh(sqrt(s2) x)/sqrt(s2) (resp. sin/sqrt(-s2)); tends to x as s2 -> 0."""
    u = s2 * x * x
    if abs(u) < _SERIES_CUT:
        return x * (1.0 + u / 6.0 * (1.0 + u / 20.0 * (1.0 + u / 42.0)))
    if s2 > 0.0:
        r = math.sqrt(s2)
        return math.sinh(r * x) / r
    r = math.sqrt(-s2)
    return math.sin(r * x) / r


def _coshm1_over(s2: float, x: float) -> float:
    """(cosh(sqrt(s2) x) - 1)/s2, the entire function x^2/2 + s2 x^4/24 + ..."""
    u = s2 * x * x
    if abs(u) < _SERIES_CUT:
        return x * x / 2.0 * (1.0 + u / 12.0 * (1.0 + u / 30.0 * (1.0 + u / 56.0)))
    return (_coshlike(s2, x) - 1.0) / s2


def _check_inverse_linear_args(omega0: float, v: float, lam: float) -> None:
    if not omega0 > 0.0:
        raise DomainError(f"omega0 must be positive, got {omega0!r}")
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam!r}")
    if lam != 1.0:
        if v == 0.0:
            raise DomainError("v = 0 cannot reach lambda != 1")
        if (lam - 1.0) / v < 0.0:
            raise DomainError(
                f"lambda = {lam!r} is not reachable with rate v = {v!r} "
                "(the sign of v must match lambda - 1)"
            )


def propagate_inverse_linear(omega0: float, v: float, lam: float) -> EvolutionMatrix:
    """Evolution matrix for omega(t) = omega0/(1 + v t), run until 1 + v t = lam.

    Valid in all three exponent regimes, including the confluent point
    Omega = omega0/|v| = 1/2 and a neighborhood around it (series evaluation
    keeps the entries smooth through the boundary).
    """
    _check_inverse_linear_args(omega0, v, lam)
    if lam == 1.0:
        return EvolutionMatrix.identity()
    s2 = 0.25 - (omega0 / v) ** 2
    ln = math.log(lam)
    rt = math.sqrt(lam)
    ch = _coshlike(s2, ln)
    sh = _sinchlike(s2, ln)
    return EvolutionMatrix(
        rt * (ch - 0.5 * sh),
        rt * sh / v,
        -(omega0**2 / v) * sh / rt,
        (ch + 0.5 * sh) / rt,
    )


def energy_inverse_linear(omega0: float, v: float, lam: float, e_initial: float) -> float:
    """Mean energy after the inverse-linear sweep, for an initial stationary
    state of mean energy e_initial (read off at the final frequency omega0/lam).

    Closed form: E = E0 [lam^(2 delta) + lam^(-2 delta) + 2 (4 delta^2 - 1)]
    / (4 lam delta^2), evaluated in real arithmetic for every regime.  The
    formula is invariant under time rescaling, so only Omega = omega0/v and
    lam enter.
    """
    _check_inverse_linear_args(omega0, v, lam)
    if not e_initial > 0.0:
        raise DomainError(f"e_initial must be positive, got {e_initial!r}")
    if lam == 1.0:
        return e_initial
    s2 = 0.25 - (omega0 / v) ** 2
    ln = math.log(lam)
    # numerator/(4 lam s2) rewritten via (cosh(2 delta ln lam) - 1)/delta^2,
    # which stays finite at the confluent point s2 = 0.
    return e_initial * (_coshm1_over(s2, 2.0 * ln) + 4.0) / (4.0 * lam)


def _bessel_order_check(nu: float) -> None:
    if abs(nu) > MAX_BESSEL_ORDER:
        raise DomainError(
            f"Bessel order 1/k = {nu!r} outside the supported range |1/k| <= {MAX_BESSEL_ORDER}"
        )


def _wronskian_map(start: np.ndarray, end: np.ndarray) -> EvolutionMatrix:
    """Evolution matrix end @ start^-1 between two fundamental frames.

    start is inverted through its adjugate over its determinant, the
    Wronskian, which is constant along the frame.
    """
    det = start[0, 0] * start[1, 1] - start[0, 1] * start[1, 0]
    inv = np.array([[start[1, 1], -start[0, 1]], [-start[1, 0], start[0, 0]]]) / det
    return EvolutionMatrix.from_array(end @ inv)


def _power_law_frame(z: float, k: float, v: float) -> np.ndarray:
    """Fundamental-solution frame [[q1, q2], [p1, p2]] at scale z.

    q_i are sqrt(z) J_nu(w) and sqrt(z) Y_nu(w) with nu = 1/k and
    w = (2/|k v|) z^(k/2); p_i = v dq_i/dz.
    """
    nu = 1.0 / k
    w = 2.0 / abs(k * v) * z ** (0.5 * k)
    rt = math.sqrt(z)
    jw, yw = jv(nu, w), yv(nu, w)
    # Z_nu'(w) = Z_(nu-1)(w) - (nu/w) Z_nu(w); dw/dz = (k/2) w / z.
    dwdz = 0.5 * k * w / z
    jp = jv(nu - 1.0, w) - (nu / w) * jw
    yp = yv(nu - 1.0, w) - (nu / w) * yw
    dq1 = 0.5 / rt * jw + rt * jp * dwdz
    dq2 = 0.5 / rt * yw + rt * yp * dwdz
    return np.array([[rt * jw, rt * yw], [v * dq1, v * dq2]])


def propagate_power_law(k: float, v: float, z_final: float) -> EvolutionMatrix:
    """Evolution matrix for omega(t)^2 = z^(k-2), z = 1 + v t, up to z_final.

    Assembled as Phi(z_final) Phi(1)^-1 from the Bessel fundamental frame;
    the z-Wronskian of the frame is the constant k/pi, so the determinant
    is exact up to roundoff.  The initial frequency is 1 (natural units);
    carry a physical omega0 by rescaling t -> omega0 t, v -> v/omega0.
    """
    if k == 0.0:
        raise DomainError("k = 0 is the inverse-linear family; use propagate_inverse_linear")
    _bessel_order_check(1.0 / k)
    if not z_final > 0.0:
        raise DomainError(f"z_final must be positive, got {z_final!r}")
    if z_final == 1.0:
        return EvolutionMatrix.identity()
    if v == 0.0 or (z_final - 1.0) / v < 0.0:
        raise DomainError(
            f"z_final = {z_final!r} is not reachable with rate v = {v!r}"
        )
    return _wronskian_map(_power_law_frame(1.0, k, v), _power_law_frame(z_final, k, v))


def _exponential_frame(z: float, v: float) -> np.ndarray:
    """Fundamental frame for omega = exp(v t): q_i = {J0, Y0}(z/|v|), p_i = dq_i/dt."""
    w = z / abs(v)
    # d/dt Z0(w(t)) = -Z1(w) * dw/dt with dw/dt = v w.
    return np.array(
        [
            [jv(0.0, w), yv(0.0, w)],
            [-v * w * jv(1.0, w), -v * w * yv(1.0, w)],
        ]
    )


def propagate_exponential(v: float, z_final: float) -> EvolutionMatrix:
    """Evolution matrix for omega(t) = exp(v t) up to z = exp(v t) = z_final.

    Same Wronskian assembly as the power-law case; the t-Wronskian of the
    frame is the constant 2 v / pi.
    """
    if not z_final > 0.0:
        raise DomainError(f"z_final must be positive, got {z_final!r}")
    if z_final == 1.0:
        return EvolutionMatrix.identity()
    if v == 0.0 or math.log(z_final) / v < 0.0:
        raise DomainError(
            f"z_final = {z_final!r} is not reachable with rate v = {v!r}"
        )
    return _wronskian_map(_exponential_frame(1.0, v), _exponential_frame(z_final, v))


def asymptotic_energy(lam: float, omega: float = 1.0) -> float:
    """Sudden-limit ground-state energy (omega/4)(1 + 1/lam^2).

    lam is the overall frequency scale (final frequency omega/lam); in the
    sudden limit the state has no time to adjust, so the energy is the old
    ground state read off against the new frequency, independent of the
    profile family.
    """
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam!r}")
    if not omega > 0.0:
        raise DomainError(f"omega must be positive, got {omega!r}")
    return 0.25 * omega * (1.0 + 1.0 / lam**2)
