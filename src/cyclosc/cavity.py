"""Multimode evolution maps and the contracting-cavity Planck spectrum.

The multimode half integrates a quadratic Hamiltonian

    H = 1/2 sum_i p_i^2 + 1/2 sum_ij W_ij(t) q_i q_j,

whose endpoints must be diagonal in the mode basis, into the real 2N x 2N
map x -> S x of x = (q_1..q_N, p_1..p_N).  core.Covariance carries a state's
second moments V to S V S^T and reads mode occupations and energy off them.

The cavity half works in CGS units.  An adiabatic contraction of a cavity
by lambda maps each mode nu -> nu/lambda and each mode energy E -> E/lambda,
which carries a Planck spectrum at T exactly onto the Planck spectrum at
T/lambda.  The sonoluminescence numbers are order-of-magnitude estimates of
that mechanism at bubble scale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .core import _whole_count
from .errors import DomainError
from .ode import DEFAULT_CONFIG, IntegratorConfig, _run_lanes
from .profiles import LaneMap, _at

# Not called here, but bench/tracing.py wraps this name in this module.
from .ode import solve_ivp  # noqa: F401

__all__ = [
    "PLANCK_H",
    "BOLTZMANN_K",
    "LIGHT_C",
    "STEFAN_SIGMA",
    "WIEN_X",
    "multimode_from_hamiltonian",
    "multimode_from_hamiltonian_batch",
    "thermal_occupation",
    "CavitySpec",
    "PlanckShift",
    "planck_density",
    "shift_planck_spectrum",
    "SonoEstimate",
    "sonoluminescence_estimate",
    "random_coupling",
    "WindowedCoupling",
]

# CGS values as used in the source estimates.
PLANCK_H = 6.626e-27      # erg s
BOLTZMANN_K = 1.381e-16   # erg / K
LIGHT_C = 2.998e10        # cm / s
# Radiation density constant, erg cm^-3 K^-4.  The value implied by the
# constants above is 7.566e-15; the rounded 7.64e-15 is kept because every
# downstream number is an order-of-magnitude estimate.
STEFAN_SIGMA = 7.64e-15
# Root of 3 (1 - e^-x) = x: peak of the Planck density at h nu = WIEN_X k T.
WIEN_X = 2.8214393721220787

# Visible-light effective temperatures: a single visible photon carries
# h nu ~ k T with T in this band (~1e-12 erg at the low end).
_T_VISIBLE_LOW = 1.0e4   # K
_T_VISIBLE_HIGH = 1.0e5  # K


def _mode_count(coupling: Callable[[float], np.ndarray], t_final: float) -> int:
    """N of the N x N coupling, checked at both ends: diagonal, positive squared frequencies."""
    if not 0.0 < t_final < math.inf:  # an infinite span would run the whole step budget
        raise DomainError(f"t_final must be positive and finite, got {t_final!r}")
    w_start = np.asarray(coupling(0.0), dtype=float)
    w_end = np.asarray(coupling(t_final), dtype=float)
    n = w_start.shape[0]
    if w_start.shape != (n, n) or w_end.shape != (n, n):
        raise DomainError("coupling must return a square matrix of fixed size")
    for tag, w in (("initial", w_start), ("final", w_end)):
        if not np.isfinite(w).all():
            raise DomainError(f"{tag} coupling matrix has non-finite entries {w[~np.isfinite(w)].tolist()}")
    if np.max(np.abs(w_start - w_start.T)) > 1e-9 * max(1.0, np.max(np.abs(w_start))):
        raise DomainError("coupling matrix must be symmetric")
    for tag, w in (("initial", w_start), ("final", w_end)):
        off = w - np.diag(np.diag(w))
        if np.max(np.abs(off)) > 1e-9 * max(1.0, np.max(np.abs(np.diag(w)))):
            raise DomainError(f"{tag} coupling matrix must be diagonal in the mode basis")
        if np.any(np.diag(w) <= 0.0):
            raise DomainError(f"{tag} squared frequencies must be positive")
    return n


def multimode_from_hamiltonian_batch(
    couplings: Sequence[Callable[[float], np.ndarray]],
    t_finals: Sequence[float],
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> List[np.ndarray]:
    """The 2N x 2N map S of x = (q_1..q_N, p_1..p_N) over [0, t_final] of the
    quadratic Hamiltonian of each frequency matrix coupling(t).

    Each coupling must return a symmetric N x N array of squared
    frequencies, diagonal (with positive diagonal) at t = 0 and t = t_final
    so the mode operators are defined at both ends; every coupling is
    checked before any is integrated.  The couplings of each mode count N
    are integrated together, one lane each.
    """
    if len(couplings) != len(t_finals):
        raise DomainError("need one t_final per coupling")
    sizes = [_mode_count(coupling, t_final) for coupling, t_final in zip(couplings, t_finals)]
    out: List[np.ndarray] = [None] * len(couplings)  # type: ignore[list-item]
    for n in dict.fromkeys(sizes):
        lanes = [i for i, size in enumerate(sizes) if size == n]
        y = _run_lanes(LaneMap([couplings[i] for i in lanes]), n, [t_finals[i] for i in lanes], cfg)
        for i, s in zip(lanes, y):
            out[i] = s
    return out


def multimode_from_hamiltonian(
    coupling: Callable[[float], np.ndarray],
    t_final: float,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """One coupling: a batch of one (see multimode_from_hamiltonian_batch)."""
    return multimode_from_hamiltonian_batch([coupling], [t_final], cfg)[0]


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein mean occupation at natural-unit temperature (k_B = 1)."""
    if not (0.0 < omega < math.inf and 0.0 < temperature < math.inf):
        raise DomainError(f"need finite positive omega and temperature, got {omega!r}, {temperature!r}")
    # 1/expm1(x) is exp(-x) to roundoff past x = 709, and overflows below x ~ 5.6e-309
    x = omega / temperature
    n = math.exp(-x) if x >= 709.0 else 1.0 / math.expm1(x) if x > 0.0 else math.inf
    if n == math.inf:
        raise DomainError(f"the occupation at omega/temperature = {x!r} leaves the float range")
    return n


@dataclass(frozen=True)
class CavitySpec:
    """Contracting cavity: edge L0 (cm), wall temperature T (K), scale lambda,
    and fractional contraction rate v (1/s).

    The wall speed bound |V|/c < 1e-3 is the one adiabaticity condition:
    it gives the slowest mode Omega_1 = pi c/|V| > 1000 pi, and
    Omega_n = n Omega_1 only grows with n.
    """

    L0: float
    T: float
    lam: float
    v: float

    def __post_init__(self) -> None:
        if not (self.L0 > 0.0 and self.T > 0.0 and self.lam > 0.0):
            raise DomainError("L0, T, lambda must be positive")
        if not abs(self.wall_speed) / LIGHT_C < 1e-3:
            raise DomainError(
                f"wall speed |V| = {abs(self.wall_speed)!r} cm/s is not small "
                "compared to c (needs |V|/c < 1e-3)"
            )

    @property
    def wall_speed(self) -> float:
        return self.L0 * self.v

    def mode_adiabaticity(self) -> float:
        """Omega_1 = pi c / |V| of the slowest mode; mode n has n Omega_1."""
        if self.v == 0.0:
            return math.inf
        return math.pi * LIGHT_C / abs(self.wall_speed)


@dataclass(frozen=True, eq=False)
class PlanckShift:
    """Sampled spectra as float64 arrays: frequency nu (Hz) and density u,
    before and after the rescaling, and the temperature fitted to after."""

    nu_before: np.ndarray
    u_before: np.ndarray
    nu_after: np.ndarray
    u_after: np.ndarray
    fitted_temperature: float


def planck_density(nu, temperature: float):
    """Spectral energy density u(nu) = (8 pi h / c^3) nu^3 / (e^(h nu / k T) - 1)."""
    nu = np.asarray(nu, dtype=float)
    x = PLANCK_H * nu / (BOLTZMANN_K * temperature)
    return 8.0 * math.pi * PLANCK_H / LIGHT_C**3 * nu**3 / np.expm1(x)


def minimize_scalar(*args, **kwargs):
    """scipy.optimize.minimize_scalar, imported on the first call.

    scipy.optimize is a large import that only the Planck fit needs.
    """
    from scipy.optimize import minimize_scalar as scipy_minimize_scalar

    return scipy_minimize_scalar(*args, **kwargs)


def _fit_planck_temperature(nus: np.ndarray, us: np.ndarray) -> float:
    """Wien-peak seed plus least squares on log u."""
    seed = PLANCK_H * nus[np.argmax(us)] / (BOLTZMANN_K * WIEN_X)
    logu = np.log(us)

    def cost(t: float) -> float:
        return float(np.sum((np.log(planck_density(nus, t)) - logu) ** 2))

    res = minimize_scalar(cost, bounds=(0.5 * seed, 2.0 * seed), method="bounded",
                          options={"xatol": seed * 1e-12})
    return float(res.x)


def shift_planck_spectrum(spec: CavitySpec, n_points: int = 257) -> PlanckShift:
    """Planck spectrum before and after the adiabatic rescaling nu -> nu/lambda.

    Every mode is adiabatic, as CavitySpec's wall-speed bound guarantees.
    Mode energies scale by 1/lambda while occupation numbers freeze, which
    is exactly a Planck spectrum at T/lambda (the fitted temperature
    returned alongside the samples).
    """
    if not _whole_count(n_points, 16):
        raise DomainError(f"n_points must be an integer >= 16 to resolve the spectrum, got {n_points!r}")
    scale = BOLTZMANN_K * spec.T / PLANCK_H
    if not 0.0 < scale < math.inf:
        raise DomainError(f"k T / h at T = {spec.T!r} K leaves the float range")
    lam = np.float64(spec.lam)  # lam**3 past the float range is inf, not OverflowError
    # samples past the float range come out inf, NaN, 0 or subnormal: refused below
    with np.errstate(all="ignore"):
        nus = np.geomspace(0.01 * scale, 20.0 * scale, n_points)
        us = planck_density(nus, spec.T)
        # Mode-by-mode: nu -> nu/lambda, energy -> energy/lambda, volume -> lambda^3 V,
        # so the spectral density transforms as u'(nu/lambda) = u(nu) / lambda^3.
        nus_after = nus / lam
        us_after = us / lam**3
        # the fit cubes nu and takes log u: both must be normal floats
        samples = np.concatenate((us, nus_after**3, us_after))
    if not (np.isfinite(samples).all() and samples.min() >= sys.float_info.min):
        raise DomainError(
            f"the spectrum at T = {spec.T!r} K scaled by lambda = {spec.lam!r} "
            "leaves the float range"
        )
    fitted = _fit_planck_temperature(nus_after, us_after)
    return PlanckShift(nus, us, nus_after, us_after, fitted)


@dataclass(frozen=True)
class SonoEstimate:
    excess_energy: float            # erg
    photon_count_range: Tuple[float, float]
    effective_temperature: float    # K


def sonoluminescence_estimate(
    lam: float, temperature: float = 300.0, size: float = 7.0e-3
) -> SonoEstimate:
    """Order-of-magnitude photon yield of a cavity contraction by lam < 1.

    The stored thermal energy sigma T^4 size^3 is multiplied by 1/lam, and
    the excess is assumed radiated as visible photons (h nu ~ k T with T in
    the 1e4..1e5 K band, i.e. ~1e-12 erg each).  The effective temperature
    of the compressed spectrum is T / lam.  Defaults are bubble scale:
    70 um at room temperature.
    """
    if not 0.0 < lam < 1.0:
        raise DomainError(f"the estimate describes a contraction; need 0 < lam < 1, got {lam!r}")
    if not (temperature > 0.0 and size > 0.0):
        raise DomainError("temperature and size must be positive")
    stored = STEFAN_SIGMA * temperature**4 * size**3
    excess = stored * (1.0 / lam - 1.0)
    count_low = excess / (BOLTZMANN_K * _T_VISIBLE_HIGH)
    count_high = excess / (BOLTZMANN_K * _T_VISIBLE_LOW)
    return SonoEstimate(excess, (count_low, count_high), temperature / lam)


@dataclass(frozen=True, eq=False)
class WindowedCoupling:
    """Endpoint-diagonal frequency matrix on [0, t_final]:

        W(t) = diag(d0 + (d1 - d0) sin^2(pi x / 2)) + sin^2(pi x) c,

    x = t / t_final clamped to [0, 1], with c symmetric and zero on its
    diagonal: the squared frequencies drift from d0 to d1 while the window
    mixes the modes in between and lets go of them at both ends.
    """

    d0: np.ndarray
    d1: np.ndarray
    c: np.ndarray
    t_final: float

    def __post_init__(self) -> None:
        for name in ("d0", "d1", "c"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.d0.size
        if not (self.d0.shape == self.d1.shape == (n,) and self.c.shape == (n, n)):
            raise DomainError("need d0 and d1 of N entries and an N x N c")
        if not self.t_final > 0.0:
            raise DomainError(f"t_final must be positive, got {self.t_final!r}")

    def __call__(self, t: float) -> np.ndarray:
        return _at(self, t)

    @classmethod
    def stacked(cls, couplings: Sequence["WindowedCoupling"]) -> Callable:
        # one mode count per stack, as a multimode batch groups its lanes
        d0, d1, c = (np.stack([getattr(w, name) for w in couplings]) for name in ("d0", "d1", "c"))
        drift = d1 - d0
        t_final = np.array([w.t_final for w in couplings])
        diagonal = (Ellipsis, *np.diag_indices(d0.shape[1]))

        def evaluate(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
            x = np.minimum(np.maximum(t / t_final[rows], 0.0), 1.0)
            s = np.sin(0.5 * math.pi * x) ** 2
            window = np.sin(math.pi * x) ** 2
            w = window[..., None, None] * c[rows]  # c has a zero diagonal
            w[diagonal] = d0[rows] + drift[rows] * s[..., None]
            return w

        return evaluate


def random_coupling(rng: np.random.Generator, n_modes: int, t_final: float) -> WindowedCoupling:
    """Random endpoint-diagonal coupling: smooth diagonal drift plus a
    sin^2-windowed symmetric off-diagonal mixing, kept diagonally dominant."""
    if not _whole_count(n_modes):
        raise DomainError(f"n_modes must be an integer >= 1, got {n_modes!r}")
    d0 = rng.uniform(0.5, 2.0, size=n_modes) ** 2
    d1 = rng.uniform(0.5, 2.0, size=n_modes) ** 2
    c = rng.normal(0.0, 1.0, size=(n_modes, n_modes))
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 0.0)
    strength = 0.3 * min(d0.min(), d1.min()) / max(n_modes - 1, 1)
    if np.max(np.abs(c)) > 0.0:
        c *= strength / np.max(np.abs(c))
    return WindowedCoupling(d0, d1, c, t_final)
