"""Adaptive Runge-Kutta propagation of the fundamental-solution system.

This is the route that does not know about Bessel functions or power
exponents: it integrates

    dq/dt = p,    dp/dt = -omega(t)^2 q (+ kappa(t) for the forced case)

for the two fundamental initial conditions (1, 0) and (0, 1) at once and
reads the evolution matrix off the final values.  Used both as a
general-purpose propagator (piecewise/tabulated profiles) and as the
independent oracle the closed forms are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import EvolutionMatrix, StationaryState, compose, final_energy
from .errors import DomainError, IntegrationError
from .profiles import FrequencyProfile, Piecewise

__all__ = [
    "IntegratorConfig",
    "DEFAULT_CONFIG",
    "ForcedResult",
    "propagate_ode",
    "propagate_forced",
    "forced_final_energy",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and budget for the embedded Runge-Kutta integrator."""

    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 10_000_000

    def __post_init__(self) -> None:
        if not (0.0 < self.rtol < 1.0 and 0.0 < self.atol < 1.0):
            raise ValueError("tolerances must lie in (0, 1)")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


DEFAULT_CONFIG = IntegratorConfig()

# RHS evaluations per accepted-or-rejected step, with headroom (DOP853 uses
# 12 stages plus error control).
_EVALS_PER_STEP = 16


@dataclass(frozen=True)
class ForcedResult:
    """Homogeneous matrix plus the classical driven trajectory (Q_c, dQ_c/dt)."""

    matrix: EvolutionMatrix
    qc: float
    qc_dot: float


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call.

    scipy.integrate (with the scipy.optimize it loads) is most of the
    package's import time and memory, and closed-form runs never need it.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _integrate(
    rhs: Callable,
    y0: np.ndarray,
    t_start: float,
    t_final: float,
    omega_start: float,
    cfg: IntegratorConfig,
) -> np.ndarray:
    """Final state of dy/dt = rhs(t, y), held to cfg's tolerances and step budget.

    The first step is 0.1 / max(omega_start, 1), capped at the span.
    """
    span = t_final - t_start
    if span == 0.0:
        return y0.copy()
    budget = cfg.max_steps * _EVALS_PER_STEP + 100
    count = [0]

    def counted(t, y):
        count[0] += 1
        if count[0] > budget:
            raise IntegrationError(
                f"integrator exceeded the step budget ({cfg.max_steps} steps)"
            )
        return rhs(t, y)

    sol = solve_ivp(
        counted,
        (t_start, t_final),
        y0,
        method="DOP853",
        rtol=cfg.rtol,
        atol=cfg.atol,
        first_step=min(0.1 / max(omega_start, 1.0), span),
        dense_output=False,
    )
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")
    return sol.y[:, -1]


def propagate_ode(
    profile: FrequencyProfile,
    t_final: float,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    *,
    t_start: float = 0.0,
) -> EvolutionMatrix:
    """Numerically integrated evolution matrix over [t_start, t_final].

    Piecewise profiles are integrated segment by segment with exact state
    handoff at the breakpoints (the smooth RK error model does not apply
    across an omega jump).
    """
    if t_final < t_start:
        raise DomainError(f"t_final = {t_final!r} precedes t_start = {t_start!r}")
    profile.check_domain(t_final)
    if isinstance(profile, Piecewise):
        return _propagate_piecewise(profile, t_final, cfg, t_start)

    def rhs(t, y):
        w2 = profile.omega_sq(t)
        return np.array([y[1], -w2 * y[0], y[3], -w2 * y[2]])

    w0 = math.sqrt(max(profile.omega_sq(t_start), 0.0))
    y = _integrate(rhs, np.array([1.0, 0.0, 0.0, 1.0]), t_start, t_final, w0, cfg).tolist()
    return EvolutionMatrix(y[0], y[2], y[1], y[3])


def _propagate_piecewise(
    profile: Piecewise, t_final: float, cfg: IntegratorConfig, t_start: float
) -> EvolutionMatrix:
    total = EvolutionMatrix.identity()
    edge = 0.0
    for prof, dur in profile.segments:
        seg_lo = max(t_start - edge, 0.0)
        seg_hi = min(t_final - edge, dur)
        if seg_hi > seg_lo:
            total = compose(propagate_ode(prof, seg_hi, cfg, t_start=seg_lo), total)
        edge += dur
        if edge >= t_final:
            break
    return total


def propagate_forced(
    profile: FrequencyProfile,
    kappa: Callable[[float], float],
    t_final: float,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> ForcedResult:
    """Forced oscillator H = (p^2 + omega(t)^2 q^2)/2 - kappa(t) q.

    Integrates the two homogeneous fundamental solutions together with the
    classical particular solution Q_c (initial conditions Q_c = dQ_c = 0),
    so the mean motion and the matrix share every accepted step.  The drive
    must vanish at both endpoints.
    """
    if t_final < 0.0:
        raise DomainError(f"t_final must be >= 0, got {t_final!r}")
    profile.check_domain(t_final)
    k0, k1 = float(kappa(0.0)), float(kappa(t_final))
    if abs(k0) > 1e-9 or abs(k1) > 1e-9:
        raise DomainError(
            f"kappa must vanish at both endpoints, got kappa(0) = {k0!r}, "
            f"kappa(T) = {k1!r}"
        )

    def rhs(t, y):
        w2 = profile.omega_sq(t)
        kt = kappa(t)
        return np.array(
            [y[1], -w2 * y[0], y[3], -w2 * y[2], y[5], -w2 * y[4] + kt]
        )

    w0 = math.sqrt(max(profile.omega_sq(0.0), 0.0))
    y = _integrate(rhs, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), 0.0, t_final, w0, cfg).tolist()
    return ForcedResult(EvolutionMatrix(y[0], y[2], y[1], y[3]), y[4], y[5])


def forced_final_energy(
    result: ForcedResult, state: StationaryState, omega_final: float = 1.0
) -> float:
    """E_f = E_f(kappa = 0) + (dQ_c^2 + omega_final^2 Q_c^2)/2.

    The cross terms vanish because a stationary state has <q> = <p> = 0, so
    the drive contributes exactly the energy of the classical displaced
    trajectory.
    """
    homogeneous = final_energy(result.matrix, state, omega_final)
    return homogeneous + 0.5 * (result.qc_dot**2 + omega_final**2 * result.qc**2)
