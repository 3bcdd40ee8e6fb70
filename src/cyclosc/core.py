"""Symplectic 2x2 evolution matrices and the mean-energy gain algebra.

Everything here works in natural units hbar = m = 1 with the frequency at
the start of the evolution normalized to omega(0) = 1.  A linear evolution
of the oscillator is described in the Heisenberg picture by

    q_H = a q + b p,    p_H = c q + d p,

collected into the matrix S = [[a, b], [c, d]] with det S = ad - bc = 1.
For an initial stationary state of mean energy E_in, the mean energy after
the evolution, read off at final frequency omega_f, is

    E_fin = (E_in / 2) * [omega_f**2 (a**2 + b**2) + c**2 + d**2],

and for a cycle (omega_f = 1) the ratio E_fin / E_in is the gain factor

    R = Tr[S S^T] / 2 >= 1,

with equality exactly when S is orthogonal (a pure rotation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SymplecticError

__all__ = [
    "DET_TOL_INPUT",
    "DET_TOL_PROPAGATOR",
    "EvolutionMatrix",
    "StationaryState",
    "MomentTriple",
    "BogoliubovPair",
    "compose",
    "gain_factor",
    "final_energy",
    "final_energy_general",
    "transport_moments",
    "to_bogoliubov",
    "bogoliubov_energy",
    "random_symplectic",
]

# Composed products may accumulate roundoff; single propagator outputs are
# held to the tighter bound.
DET_TOL_INPUT = 1e-6
DET_TOL_PROPAGATOR = 1e-9


@dataclass(frozen=True)
class EvolutionMatrix:
    """Heisenberg-picture map (q, p) -> (a q + b p, c q + d p)."""

    a: float
    b: float
    c: float
    d: float

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def det_error(self) -> float:
        return abs(self.det() - 1.0)

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=float)

    @classmethod
    def from_array(cls, arr) -> "EvolutionMatrix":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (2, 2):
            raise ValueError(f"expected a 2x2 array, got shape {arr.shape}")
        return cls(float(arr[0, 0]), float(arr[0, 1]), float(arr[1, 0]), float(arr[1, 1]))

    @classmethod
    def identity(cls) -> "EvolutionMatrix":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def rotation(cls, theta: float) -> "EvolutionMatrix":
        """Free evolution of a unit oscillator for time theta."""
        ct, st = math.cos(theta), math.sin(theta)
        return cls(ct, st, -st, ct)

    @classmethod
    def squeeze(cls, s: float) -> "EvolutionMatrix":
        """diag(s, 1/s); scales q by s and p by 1/s."""
        if s == 0.0:
            raise ValueError("squeeze factor must be nonzero")
        return cls(s, 0.0, 0.0, 1.0 / s)

    def inverse(self) -> "EvolutionMatrix":
        _require_symplectic(self, "inverse")
        return EvolutionMatrix(self.d, -self.b, -self.c, self.a)

    def is_orthogonal(self, tol: float = 1e-9) -> bool:
        g = self.as_array()
        return bool(np.max(np.abs(g @ g.T - np.eye(2))) < tol)


def _require_symplectic(s: EvolutionMatrix, op: str, tol: float = DET_TOL_INPUT) -> None:
    err = s.det_error()
    if not err < tol:  # also catches NaN
        raise SymplecticError(
            f"{op}: det = {s.det()!r} deviates from 1 by {err!r} (tolerance {tol})"
        )


@dataclass(frozen=True)
class StationaryState:
    """Oscillator eigenstate |n> at frequency omega0; E = (n + 1/2) omega0."""

    n: int
    omega0: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValueError(f"quantum number must be a nonnegative integer, got {self.n!r}")
        if not self.omega0 > 0.0:
            raise ValueError(f"omega0 must be positive, got {self.omega0!r}")

    @property
    def energy(self) -> float:
        return (self.n + 0.5) * self.omega0

    def virial_moments(self) -> "MomentTriple":
        """Second moments <q^2> = E/omega0^2, <p^2> = E, <D> = 0."""
        e = self.energy
        return MomentTriple(e / self.omega0**2, e, 0.0)


@dataclass(frozen=True)
class MomentTriple:
    """Symmetric second moments (<q^2>, <p^2>, <(qp+pq)/2>) of a centered state."""

    qq: float
    pp: float
    d: float = 0.0

    def __post_init__(self) -> None:
        if not (self.qq > 0.0 and self.pp > 0.0):
            raise ValueError("qq and pp must be positive")
        # Robertson-Schrodinger bound, with slack for roundoff.
        if self.qq * self.pp - self.d**2 < 0.25 - 1e-9:
            raise ValueError(
                f"moments violate the uncertainty bound: qq*pp - d^2 = "
                f"{self.qq * self.pp - self.d ** 2!r} < 1/4"
            )


@dataclass(frozen=True)
class BogoliubovPair:
    """Single-mode map a -> alpha a + beta a^dagger with |alpha|^2 - |beta|^2 = 1."""

    alpha: complex
    beta: complex

    def unitarity_error(self) -> float:
        return abs(abs(self.alpha) ** 2 - abs(self.beta) ** 2 - 1.0)


def compose(s2: EvolutionMatrix, s1: EvolutionMatrix) -> EvolutionMatrix:
    """Matrix product s2 @ s1: apply s1 first, then s2."""
    _require_symplectic(s1, "compose")
    _require_symplectic(s2, "compose")
    return EvolutionMatrix(
        s2.a * s1.a + s2.b * s1.c,
        s2.a * s1.b + s2.b * s1.d,
        s2.c * s1.a + s2.d * s1.c,
        s2.c * s1.b + s2.d * s1.d,
    )


def _energy_form(s: EvolutionMatrix, omega_final: float) -> float:
    return 0.5 * (omega_final**2 * (s.a**2 + s.b**2) + s.c**2 + s.d**2)


def gain_factor(s: EvolutionMatrix) -> float:
    """Energy ratio R = Tr[S S^T]/2 for a cycle that closes at omega = 1.

    R >= 1 for every symplectic S, with R = 1 exactly on rotations.
    """
    _require_symplectic(s, "gain_factor")
    return 0.5 * (s.a**2 + s.b**2 + s.c**2 + s.d**2)


def final_energy(s: EvolutionMatrix, state: StationaryState, omega_final: float) -> float:
    """Mean energy of the evolved state, read off at frequency omega_final.

    The state must be normalized to omega0 = 1 (rescale the profile first);
    then <q^2> = <p^2> = E_in and the energy is E_in times a quadratic form
    in the matrix entries, so E_fin / E_in does not depend on n.
    """
    _require_symplectic(s, "final_energy")
    if state.omega0 != 1.0:
        raise ValueError(
            f"final_energy requires a state with omega0 = 1, got {state.omega0!r}; "
            "normalize the profile or use final_energy_general"
        )
    if not omega_final > 0.0:
        raise ValueError(f"omega_final must be positive, got {omega_final!r}")
    return state.energy * _energy_form(s, omega_final)


def final_energy_general(
    s: EvolutionMatrix, m: MomentTriple, omega_final: float
) -> float:
    """Mean energy 1/2 <p_H^2 + omega_final^2 q_H^2> for arbitrary input moments."""
    _require_symplectic(s, "final_energy_general")
    if not omega_final > 0.0:
        raise ValueError(f"omega_final must be positive, got {omega_final!r}")
    qq = s.a**2 * m.qq + s.b**2 * m.pp + 2.0 * s.a * s.b * m.d
    pp = s.c**2 * m.qq + s.d**2 * m.pp + 2.0 * s.c * s.d * m.d
    return 0.5 * (omega_final**2 * qq + pp)


def transport_moments(s: EvolutionMatrix, m: MomentTriple) -> MomentTriple:
    """Second moments after the evolution; preserves qq*pp - d^2 since det S = 1."""
    _require_symplectic(s, "transport_moments")
    return MomentTriple(
        s.a**2 * m.qq + s.b**2 * m.pp + 2.0 * s.a * s.b * m.d,
        s.c**2 * m.qq + s.d**2 * m.pp + 2.0 * s.c * s.d * m.d,
        s.a * s.c * m.qq + s.b * s.d * m.pp + (s.a * s.d + s.b * s.c) * m.d,
    )


def to_bogoliubov(s: EvolutionMatrix) -> BogoliubovPair:
    """Bogoliubov coefficients of the mode map a -> alpha a + beta a^dagger.

    Both endpoint frequencies are taken as 1, i.e. a = (q + i p)/sqrt(2) on
    both sides.  det S = 1 translates into |alpha|^2 - |beta|^2 = 1.
    """
    _require_symplectic(s, "to_bogoliubov")
    alpha = complex(0.5 * (s.a + s.d), 0.5 * (s.c - s.b))
    beta = complex(0.5 * (s.a - s.d), 0.5 * (s.c + s.b))
    return BogoliubovPair(alpha, beta)


def bogoliubov_energy(bp: BogoliubovPair, state: StationaryState) -> float:
    """E_fin = omega0 [1/2 + |alpha|^2 n + |beta|^2 (n + 1)].

    The |beta|^2 (n + 1) term carries the vacuum contribution: for n = 0 the
    energy is omega0 (1/2 + |beta|^2) > omega0/2 whenever beta != 0, which is
    what the cycle theorem requires.  Equivalent to E_in * R with
    R = 1 + 2 |beta|^2.
    """
    if bp.unitarity_error() > DET_TOL_INPUT:
        raise SymplecticError(
            f"bogoliubov_energy: |alpha|^2 - |beta|^2 - 1 = "
            f"{abs(bp.alpha) ** 2 - abs(bp.beta) ** 2 - 1.0!r}"
        )
    a2 = abs(bp.alpha) ** 2
    b2 = abs(bp.beta) ** 2
    return state.omega0 * (0.5 + a2 * state.n + b2 * (state.n + 1))


def random_symplectic(rng: np.random.Generator, max_squeeze: float = 2.0) -> EvolutionMatrix:
    """Random element of Sp(2) from the rotation-squeeze-rotation decomposition."""
    t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    r = rng.uniform(-max_squeeze, max_squeeze)
    return compose(
        EvolutionMatrix.rotation(t1),
        compose(EvolutionMatrix.squeeze(math.exp(r)), EvolutionMatrix.rotation(t2)),
    )
