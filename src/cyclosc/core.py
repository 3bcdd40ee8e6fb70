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

For N modes a linear evolution x -> S x of x = (q_1..q_N, p_1..p_N) has
S J S^T = J and carries second moments V to S V S^T (Covariance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np

from .errors import DomainError, SymplecticError

__all__ = [
    "DET_TOL_INPUT",
    "EvolutionMatrix",
    "StationaryState",
    "BogoliubovPair",
    "Covariance",
    "compose",
    "gain_factor",
    "final_energy",
    "to_bogoliubov",
    "symplectic_error",
    "random_symplectic",
]

# Largest |det S - 1| (max|S J S^T - J| for N modes) accepted from a matrix passed to
# this module's functions, per unit of Tr[S S^T]/(2N); see EvolutionMatrix.is_symplectic.
DET_TOL_INPUT = 1e-6

# x**2 is a finite normal float for _SQUARE_MIN <= |x| <= _SQUARE_MAX (**
# raises OverflowError above); below, the square is 0 or subnormal.
_SQUARE_MIN, _SQUARE_MAX = 1.4916681462400413e-154, 1.3407807929942596e154


def _libm_each(fn: Callable[..., float], x: np.ndarray, *args: float) -> np.ndarray:
    """fn(xi, *args) of each element xi of the 1-D array x, as an array.

    numpy runs its exp, log, cosh, sinh, sin, cos and power through kernels
    picked by the host's instruction set, and the AVX-512 ones differ from
    libm in the last bit on part of their inputs.  fn is a libm function
    (math.cosh, pow, ...), so these values, and every byte written from
    them, are the same on every CPU.
    """
    return np.fromiter(map(fn, x.tolist(), *(repeat(a, x.size) for a in args)), float, count=x.size)


def _whole_count(n: object, least: int = 1) -> bool:
    """True for a Python or numpy integer >= least that is not a bool: a
    count of cycles, grid points, samples, steps, modes or ladder steps."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= least


def _state_index(n: object) -> int:
    """n as an int, for an integer >= 0 that is not a bool: the state |n>."""
    if not _whole_count(n, 0):
        raise DomainError(f"state index must be an integer >= 0, got {n!r}")
    return int(n)


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
            raise DomainError(f"expected a 2x2 array, got shape {arr.shape}")
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
            raise DomainError("squeeze factor must be nonzero")
        return cls(s, 0.0, 0.0, 1.0 / s)

    def inverse(self) -> "EvolutionMatrix":
        _require_symplectic(self, "inverse")
        return EvolutionMatrix(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "EvolutionMatrix") -> "EvolutionMatrix":
        """Matrix product without compose's symplectic checks; entries may be arrays."""
        return EvolutionMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def _energy_ratio(self, omega_final: float = 1.0) -> float:
        """E_fin/E_in = (omega_f^2 (a^2 + b^2) + c^2 + d^2)/2 from products x * x; R at omega_f = 1."""
        w2 = omega_final * omega_final
        return 0.5 * (w2 * (self.a * self.a + self.b * self.b) + self.c * self.c + self.d * self.d)

    def is_symplectic(self) -> bool:
        """|det S - 1| < DET_TOL_INPUT * R, R = Tr[S S^T]/2 finite, elementwise. det = ad - bc
        subtracts products of size ~R; with R = inf any finite det would pass."""
        r = self._energy_ratio()
        return (abs(self.det() - 1.0) < DET_TOL_INPUT * r) & (r < math.inf)

    def is_orthogonal(self, tol: float = 1e-9) -> bool:
        """Every entry of S S^T - 1 within tol."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return all(abs(x) < tol for x in (a * a + b * b - 1.0, a * c + b * d, c * c + d * d - 1.0))


def _require_symplectic(s: EvolutionMatrix, op: str) -> None:
    if s.is_symplectic():
        return
    r = s._energy_ratio()
    if not r < math.inf:
        raise SymplecticError(f"{op}: Tr[S S^T]/2 overflows to {r!r}")
    raise SymplecticError(
        f"{op}: det = {s.det()!r} deviates from 1 by {s.det_error()!r} "
        f"(tolerance {DET_TOL_INPUT * r!r})"
    )


@dataclass(frozen=True)
class StationaryState:
    """Oscillator eigenstate |n> at frequency omega0; E = (n + 1/2) omega0."""

    n: int
    omega0: float = 1.0

    def __post_init__(self) -> None:
        _state_index(self.n)
        if not self.omega0 > 0.0:
            raise DomainError(f"omega0 must be positive, got {self.omega0!r}")

    @property
    def energy(self) -> float:
        return (self.n + 0.5) * self.omega0


def _as_matrix(s, shape=None) -> np.ndarray:
    """S as a float 2N x 2N array, N >= 1, of the given shape if any; an EvolutionMatrix is N = 1."""
    s = s.as_array() if isinstance(s, EvolutionMatrix) else np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 or not s.size or shape not in (None, s.shape):
        raise DomainError(f"need a {shape or '2N x 2N'} matrix, got shape {s.shape}")
    return s


def _frequencies(omegas, n: int, top: float = math.inf) -> np.ndarray:
    w = np.asarray(omegas, dtype=float)
    if w.shape != (n,) or not ((w > 0.0) & (w < top)).all():
        raise DomainError(f"need {n} frequencies in (0, {top!r}), got {w.tolist()}")
    return w


def symplectic_error(s) -> float:
    """max|S J S^T - J| of a 2N x 2N S, J = [[0, 1], [-1, 0]] in N x N blocks;
    |det S - 1| for N = 1.  S J is S's column blocks swapped, one negated."""
    s = _as_matrix(s)
    n = len(s) // 2
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan for entries past the float range
        m = np.hstack((-s[:, n:], s[:, :n])) @ s.T
        m[:n, n:] -= np.eye(n)
        m[n:, :n] += np.eye(n)
    return float(np.abs(m).max())


@dataclass(frozen=True, eq=False)
class Covariance:
    """Second moments V_ij = <x_i x_j + x_j x_i>/2 of a centered state of N modes, x =
    (q_1..q_N, p_1..p_N): real symmetric 2N x 2N with V + iJ/2 >= 0 (det V >= 1/4 for N = 1)
    to within 1e-9 of the largest eigenvalue or of 1.  thermal and evolved skip the check."""

    v: np.ndarray

    def __post_init__(self) -> None:
        v = _as_matrix(self.v).copy()
        if not (np.isfinite(v).all() and np.array_equal(v, v.T)):
            raise DomainError(f"covariance must be finite and symmetric, got {v.tolist()}")
        eig = np.linalg.eigvalsh(v + 0.5j * np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(len(v) // 2)))
        if not eig[0] >= -1e-9 * max(1.0, eig[-1]):
            raise DomainError(f"moments violate the uncertainty bound: V + iJ/2 has eigenvalue {eig[0]!r}")
        object.__setattr__(self, "v", v)

    @classmethod
    def _of(cls, v: np.ndarray) -> "Covariance":
        out = object.__new__(cls)
        object.__setattr__(out, "v", v)
        return out

    @classmethod
    def thermal(cls, omegas, occupations) -> "Covariance":
        """diag((n + 1/2)/omega, (n + 1/2) omega) of modes at frequencies omega
        with mean occupations n: a thermal state, and also the moments of |n>."""
        n = np.asarray(occupations, dtype=float)
        w = _frequencies(omegas, n.size)
        if n.shape != w.shape or not n.size or not ((n >= 0.0) & (n < math.inf)).all():
            raise DomainError(f"need nonnegative finite occupations, one per frequency, got {n.tolist()}")
        with np.errstate(over="ignore"):
            v = np.diag(np.concatenate(((n + 0.5) / w, (n + 0.5) * w)))
        if not np.isfinite(v).all():
            raise DomainError(f"the moments of {n.tolist()} at {w.tolist()} leave the float range")
        return cls._of(v)

    def evolved(self, s) -> "Covariance":
        """S V S^T after x -> S x (an EvolutionMatrix for one mode), S held to max|S J S^T - J|
        < DET_TOL_INPUT * Tr[S S^T]/(2N), finite: EvolutionMatrix.is_symplectic for N = 1."""
        s = _as_matrix(s, self.v.shape)
        err, r = symplectic_error(s), float(np.vdot(s, s)) / len(s)
        if not err < DET_TOL_INPUT * r < math.inf:
            raise SymplecticError(f"evolved: max|S J S^T - J| = {err!r} (tolerance {DET_TOL_INPUT * r!r}; "
                                  "Tr[S S^T] must be finite)")
        w = s @ self.v @ s.T
        return Covariance._of(0.5 * (w + w.T))

    def energy(self, omegas) -> float:
        """Mean energy 1/2 sum_i (omega_i^2 <q_i^2> + <p_i^2>) at frequencies omegas."""
        n = len(self.v) // 2
        w, d = _frequencies(omegas, n, _SQUARE_MAX), self.v.diagonal()  # squares finite
        return float(0.5 * np.sum(w * w * d[:n] + d[n:]))

    def occupations(self, omegas) -> np.ndarray:
        """Mean occupation (omega <q^2> + <p^2>/omega)/2 - 1/2 of each mode at its frequency."""
        n = len(self.v) // 2
        w, d = _frequencies(omegas, n), self.v.diagonal()
        return 0.5 * (w * d[:n] + d[n:] / w) - 0.5


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
    return s2 @ s1


def gain_factor(s: EvolutionMatrix) -> float:
    """Energy ratio R = Tr[S S^T]/2 for a cycle that closes at omega = 1.

    R >= 1 for every symplectic S, with R = 1 exactly on rotations.
    """
    _require_symplectic(s, "gain_factor")
    return s._energy_ratio()


def final_energy(s: EvolutionMatrix, state: StationaryState, omega_final: float) -> float:
    """Mean energy of the evolved state, read off at frequency omega_final.

    The state must be normalized to omega0 = 1 (rescale the profile first);
    then <q^2> = <p^2> = E_in and the energy is E_in times a quadratic form
    in the matrix entries, so E_fin / E_in does not depend on n.
    """
    _require_symplectic(s, "final_energy")
    if state.omega0 != 1.0:
        raise DomainError(
            f"final_energy requires a state with omega0 = 1, got {state.omega0!r}; "
            "normalize the profile or use Covariance"
        )
    if not 0.0 < omega_final <= _SQUARE_MAX:
        raise DomainError(f"omega_final must be positive, its square finite, got {omega_final!r}")
    return state.energy * s._energy_ratio(omega_final)


def to_bogoliubov(s: EvolutionMatrix) -> BogoliubovPair:
    """Bogoliubov coefficients of the mode map a -> alpha a + beta a^dagger.

    Both endpoint frequencies are taken as 1, i.e. a = (q + i p)/sqrt(2) on
    both sides.  det S = 1 translates into |alpha|^2 - |beta|^2 = 1.
    """
    _require_symplectic(s, "to_bogoliubov")
    alpha = complex(0.5 * (s.a + s.d), 0.5 * (s.c - s.b))
    beta = complex(0.5 * (s.a - s.d), 0.5 * (s.c + s.b))
    return BogoliubovPair(alpha, beta)


def random_symplectic(rng: np.random.Generator) -> EvolutionMatrix:
    """Random element of Sp(2): a rotation, a squeeze e^r with |r| < 2, a rotation."""
    t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    r = rng.uniform(-2.0, 2.0)
    return compose(
        EvolutionMatrix.rotation(t1),
        compose(EvolutionMatrix.squeeze(math.exp(r)), EvolutionMatrix.rotation(t2)),
    )
