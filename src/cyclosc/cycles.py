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
(InverseLinear, Exponential, PowerLaw with omega0 = 1 and an order 1/k
closed_form admits, each at a rate of at least _SLOW_RATE times its starting
frequency) or full-length TimeReversed mirrors of them.  Such a cycle is
the product of the segments' closed forms, each mirror by the same P S^-1 P.

All gains are computed in cycle-normalized units omega(0) = 1: a physical
omega0 is absorbed by rescaling t -> omega0 t, v -> v/omega0, under which
the gain factor is invariant.

One fold (_fold) forms every closed cycle with compose's and gain_factor's
checks: on floats in build_cycle(s), where a failed check raises, and on
arrays over a scan's grid, where it masks the point.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .closed_form import (
    _bessel_order_ok,
    _check_inverse_linear_args,
    _inverse_linear_args_ok,
    _inverse_linear_entries,
    propagate_exponential,
    propagate_power_law,
)
from .core import EvolutionMatrix, _libm_each, _whole_count, compose, gain_factor
from .errors import DomainError, IntegrationError, SymplecticError
from .ode import DEFAULT_CONFIG, IntegratorConfig, propagate_ode, propagate_ode_batch
from .profiles import (
    Exponential,
    Fourier,
    FrequencyProfile,
    InverseLinear,
    Piecewise,
    PowerLaw,
    SineSeries,
    TimeReversed,
)

# Not called here, but bench/tracing.py wraps this name in this module.
from .closed_form import propagate_inverse_linear  # noqa: F401

__all__ = [
    "FAMILIES",
    "CycleSpec",
    "GridAxis",
    "ScanResult",
    "leg",
    "legs",
    "build_cycle",
    "build_cycles",
    "cycle_gain",
    "scan_gain",
    "find_unity_points",
    "random_fourier_profile",
    "random_piecewise_cycle",
    "random_cycle_spec",
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
        if not (math.isfinite(self.lam) and math.isfinite(self.omega0)):
            raise DomainError(f"lambda and omega0 must be finite, got {self.lam!r} and {self.omega0!r}")
        if not _whole_count(self.n_cycles):
            raise DomainError(f"n_cycles must be an integer >= 1, got {self.n_cycles!r}")
        if self.family == "custom":
            if self.profile is None or self.duration is None:
                raise DomainError("custom cycles need a profile and a duration")
        else:
            _check_leg_args(self.family, self.v, self.k)


def _check_leg_args(family: str, v: float, k: float, method: str = "closed") -> None:
    if not v > 0.0:
        raise DomainError(f"v must be a positive rate magnitude, got {v!r}")
    if not math.isfinite(v):
        raise DomainError(f"v must be finite, got {v!r}")
    if family == "power-law" and k in (0.0, 2.0):
        # k = 2 is constant frequency (no scale is reachable); k = 0 is a
        # different one-parameter family handled by "inverse-linear".
        raise DomainError(f"power-law needs k not in {{0, 2}}, got {k!r}")
    if method not in ("closed", "ode"):
        raise DomainError(f"method must be closed or ode, got {method!r}")


def _leg_end(family: str, v: float, lam: float, k: float) -> Tuple[type, float, float]:
    """(profile type, rate, end) of a leg of a family from omega = 1 to 1/lam:
    end is the running scale at the turn (lam for inverse-linear, lam^(-2/(k-2))
    for power-law, 1/lam for exponential) and the rate is v, signed to reach it."""
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam!r}")
    if family == "inverse-linear":
        cls, end = InverseLinear, lam
    elif family == "power-law":
        try:
            cls, end = PowerLaw, lam ** (-2.0 / (k - 2.0))
        except OverflowError:
            raise DomainError(f"lambda^(-2/(k-2)) overflows at lambda = {lam!r}, k = {k!r}") from None
    elif family == "exponential":
        cls, end = Exponential, 1.0 / lam
    else:
        raise DomainError(f"family {family!r} has no single-leg form")
    return cls, (v if end > 1.0 else -v), end


# A closed-form leg (cls, rate, end, omega0, k): the family profile cls of
# this rate (omega0 and k if it has them), run from scale 1 to scale end;
# rate, end and omega0 are floats, or arrays over a scan's points (a column).
_Leg = Tuple[type, float, float, float, float]


def _closed_legs(legs: Sequence[_Leg]) -> Tuple[List[EvolutionMatrix], Optional[np.ndarray]]:
    """(mats, at): the closed form of each leg, the one place where a family
    picks it: the Bessel legs (floats) one by one, in order, then all the
    inverse-linear legs as arrays, with libm's log once per run of equal end
    and one _inverse_linear_entries call.  Float legs give floats, and the
    first failing leg raises its error; columns give arrays over the points
    at where every leg is inside its domain (at is None for floats)."""
    mats = [None if cls is InverseLinear else propagate_power_law(k, rate, end) if cls is PowerLaw
            else propagate_exponential(rate, end) for cls, rate, end, _, k in legs]
    il = [i for i, s in enumerate(mats) if s is None]  # the inverse-linear legs
    if not il:
        return mats, None
    columns = isinstance(legs[0][2], np.ndarray)  # else a float leg is a column of one point
    omega0, rate, end = ((np.concatenate if columns else np.array)([legs[i][j] for i in il]) for j in (3, 1, 2))
    ok = _inverse_linear_args_ok(omega0, rate, end)
    if not (columns or ok.all()):
        _check_inverse_linear_args(omega0, rate, end)
    n = end.size // len(il)
    at = np.flatnonzero(ok.reshape(len(il), n).all(axis=0)) if columns else None
    use = slice(None) if at is None or at.size == n else (at + n * np.arange(len(il))[:, None]).ravel()
    lam = end[use]
    bits = lam.view(np.int64)  # a run of equal lam starts where a leg's bits differ from the previous leg's
    edges = np.ones(lam.size + 1, bool)
    edges[1:-1] = bits[1:] != bits[:-1]
    edges = np.flatnonzero(edges)
    ln_lam = np.repeat(_libm_each(math.log, lam[edges[:-1]]), edges[1:] - edges[:-1])
    entries = _inverse_linear_entries(omega0[use], rate[use], lam, ln_lam)
    if not (lam != 1.0).all():  # a leg that ends at scale 1 is the identity
        entries = [np.where(lam != 1.0, x, one) for x, one in zip(entries, (1.0, 0.0, 0.0, 1.0))]
    for i, part in zip(il, zip(*(np.split(x, len(il)) if columns else x.tolist() for x in entries))):
        mats[i] = EvolutionMatrix(*part)
    return mats, at


def _in_order(batch: Callable[[Sequence], list], items: Sequence) -> list:
    """batch(items); where that raises, the error of the first item that fails
    on its own, as evaluating the items one by one would raise."""
    try:
        return batch(items)
    except (DomainError, SymplecticError):
        for item in items:
            batch([item])
        raise


def _leg_profile(family: str, v: float, lam: float, k: float) -> Tuple[FrequencyProfile, float]:
    """The profile that leg(family, v, lam, k, "ode") integrates, and its duration."""
    cls, rate, end = _leg_end(family, v, lam, k)
    prof = PowerLaw(k, rate) if cls is PowerLaw else cls(v=rate)
    return prof, prof.t_for_scale(end)


def legs(runs: Sequence[Tuple[str, float, float, float]], method: str = "closed") -> List[EvolutionMatrix]:
    """leg of each run (family, v, lam, k); with method "ode" the runs are
    integrated together, as one batch."""
    for family, v, _, k in runs:
        _check_leg_args(family, v, k, method)
    if method == "closed":
        return _in_order(lambda runs: _closed_legs([(*_leg_end(*run), 1.0, run[3]) for run in runs])[0], runs)
    profiles = [_leg_profile(*run) for run in runs]
    return propagate_ode_batch([p for p, _ in profiles], [t for _, t in profiles])


def leg(family: str, v: float, lam: float, k: float = -2.0, method: str = "closed") -> EvolutionMatrix:
    """One leg of a family from omega = 1 to omega = 1/lam (see _leg_end); method "ode" integrates it."""
    return legs([(family, v, lam, k)], method)[0]


def _reversed(s: EvolutionMatrix) -> EvolutionMatrix:
    """The leg of s run backwards in time: P S^-1 P with P = diag(1, -1)."""
    return EvolutionMatrix(s.d, s.b, s.c, s.a)


# One cycle from closed forms: its distinct legs, and its steps in time
# order as (index of the leg, mirrored); a mirrored step runs its leg backwards.
_Plan = Tuple[Tuple[_Leg, ...], Tuple[Tuple[int, bool], ...]]


def _segment_step(prof: FrequencyProfile, dur: float) -> Optional[Tuple[_Leg, bool]]:
    """(leg, mirrored) of prof over [0, dur], or None if it needs the ODE.
    Only the exact family and TimeReversed types qualify: a subclass may change omega."""
    if type(prof) is TimeReversed:
        if dur != prof.duration:
            return None
        base = _segment_step(prof.base, dur)
        return None if base is None else (base[0], not base[1])
    if type(prof) not in (InverseLinear, Exponential, PowerLaw):
        return None
    omega0 = prof.omega(0.0)
    if not abs(prof.v) >= _SLOW_RATE * omega0:
        return None
    if isinstance(prof, PowerLaw) and (prof.omega0 != 1.0 or not _bessel_order_ok(1.0 / prof.k)):
        return None
    return (type(prof), prof.v, prof.scale(dur), omega0, getattr(prof, "k", 0.0)), False


def _piecewise_plan(profile: FrequencyProfile, duration: float) -> Optional[_Plan]:
    """One step per segment of a whole Piecewise profile, or None if any
    segment, or a run shorter than the profile, needs the ODE."""
    if not isinstance(profile, Piecewise) or duration != profile.duration:
        return None
    steps = [_segment_step(prof, dur) for prof, dur in profile.segments]
    if None in steps:
        return None
    legs = list(dict.fromkeys(leg for leg, _ in steps))
    return tuple(legs), tuple((legs.index(leg), mirrored) for leg, mirrored in steps)


def _family_plan(out: _Leg, lam) -> _Plan:
    """A family cycle out to scale lam along the leg out, and back."""
    cls, rate, _, _, k = out
    if cls is not InverseLinear:  # the outbound leg run backwards
        return (out,), ((0, False), (0, True))
    inv = 1.0 / lam  # the return leg of the module docstring, from omega0 = 1/lam
    return (out, (cls, -rate, inv, inv, k)), ((0, False), (1, False))


def _cycle_plan(spec: CycleSpec) -> Optional[_Plan]:
    """One cycle's closed-form plan, or None for a custom cycle to integrate."""
    if spec.family == "custom":
        return _piecewise_plan(spec.profile, spec.duration)
    lam, u = spec.lam, spec.v / spec.omega0  # normalized rate; gain is invariant under this rescaling
    if lam == 1.0:
        return (), ()
    if not (0.0 < u < math.inf or u == math.inf and spec.family == "inverse-linear"):  # the sudden limit
        raise DomainError(f"v/omega0 = {u!r} leaves the float range at v = {spec.v!r}, omega0 = {spec.omega0!r}")
    return _family_plan((*_leg_end(spec.family, u, lam, spec.k), 1.0, spec.k), lam)


def _fold(mats: Sequence[EvolutionMatrix], order: Sequence[Tuple[int, bool]], n_cycles: int) -> tuple:
    """(S, R, ok): the product S of n_cycles repeats of a cycle whose steps
    (i, mirrored), in time order, run the leg of matrix mats[i], backwards if
    mirrored; with the checks of compose and gain_factor in their order: each
    step and the product so far before each compose, the one-cycle product
    before each repeat, and S before its gain R.  On floats a failed compose
    check raises, and R and ok are None (gain_factor makes the last check);
    on arrays ok masks the points that pass every check."""
    ok = True if mats and isinstance(mats[0].a, np.ndarray) else None

    def times(s2: EvolutionMatrix, s1: EvolutionMatrix) -> EvolutionMatrix:
        nonlocal ok
        if ok is None:
            return compose(s2, s1)
        ok = ok & s1.is_symplectic() & s2.is_symplectic()
        return s2 @ s1

    total = None
    for i, mirrored in order:
        s = _reversed(mats[i]) if mirrored else mats[i]
        total = s if total is None else times(s, total)
    total = once = EvolutionMatrix.identity() if total is None else total
    for _ in range(n_cycles - 1):
        total = times(once, total)
    return (total, None, None) if ok is None else (total, total._energy_ratio(), ok & total.is_symplectic())


def build_cycle(spec: CycleSpec, cfg: IntegratorConfig = DEFAULT_CONFIG) -> EvolutionMatrix:
    """Evolution matrix of the full (possibly repeated) cycle.

    cfg applies to the custom cycles that are integrated, not to those
    composed from closed forms.
    """
    plan = _cycle_plan(spec)
    if plan is None:
        return _fold([propagate_ode(spec.profile, spec.duration, cfg)], ((0, False),), spec.n_cycles)[0]
    return _fold(_closed_legs(plan[0])[0], plan[1], spec.n_cycles)[0]


def build_cycles(specs: Sequence[CycleSpec], cfg: IntegratorConfig = DEFAULT_CONFIG) -> List[EvolutionMatrix]:
    """build_cycle of each spec: the closed-form legs of all the specs are
    evaluated together (_closed_legs), the cycles that need the ODE are
    integrated as one batch, and the first spec failing on its own raises."""

    def closed(specs: Sequence[CycleSpec]) -> list:  # None for a cycle to integrate
        plans = [_cycle_plan(spec) for spec in specs]
        mats = iter(_closed_legs([leg for plan in plans if plan is not None for leg in plan[0]])[0])
        return [None if plan is None else _fold([next(mats) for _ in plan[0]], plan[1], spec.n_cycles)[0]
                for plan, spec in zip(plans, specs)]

    cycles = _in_order(closed, specs)
    todo = [i for i, s in enumerate(cycles) if s is None]
    integrated = propagate_ode_batch([specs[i].profile for i in todo], [specs[i].duration for i in todo], cfg)
    for i, s in zip(todo, integrated):
        cycles[i] = _fold([s], ((0, False),), specs[i].n_cycles)[0]
    return cycles


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
        if not _whole_count(self.count):
            raise DomainError(f"count must be an integer >= 1, got {self.count!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise DomainError(f"endpoints must be finite, got {self.start!r} and {self.stop!r}")
        if self.spacing not in ("linear", "log"):
            raise DomainError(f"unknown spacing {self.spacing!r}")
        if self.spacing == "log" and not (self.start > 0.0 and self.stop > 0.0):
            raise DomainError("log spacing needs positive endpoints")
        if self.count == 1:
            return np.array([self.start])
        return (np.linspace if self.spacing == "linear" else np.geomspace)(self.start, self.stop, self.count)


@dataclass(frozen=True, eq=False)
class ScanResult:
    """A scan as columns, one entry per grid point in grid order (v fastest).

    error holds each point's failure reason, "" where the cycle was built;
    gain and det_err are NaN where it was not.
    """

    family: str
    k: float
    n_cycles: int
    omega0: np.ndarray
    lam: np.ndarray
    v: np.ndarray
    gain: np.ndarray
    det_err: np.ndarray
    error: Tuple[str, ...]


def _scan_points(
    family: str, omega0: np.ndarray, lam: np.ndarray, v: np.ndarray, n_cycles: int, k: float
) -> Tuple[np.ndarray, np.ndarray]:
    """(gain, det_err): gain_factor and det_error of build_cycle's cycle at
    each point, from one _fold of arrays; NaN where build_cycle or gain_factor
    would raise, and at lambda = 1, for the per-point path.  Inverse-linear
    legs are columns over the points; each Bessel leg is evaluated on its own,
    its end scale from _leg_end (libm's pow), and the steps packed into arrays.
    """
    gain, det_err = np.full(v.shape, math.nan), np.full(v.shape, math.nan)
    if not _whole_count(n_cycles):
        return gain, det_err
    # overflows (growing cycles, 1/lam of a subnormal lam) fail a check or a leg's domain
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        at = np.flatnonzero((0.0 < v) & (v < math.inf) & (0.0 < omega0) & (omega0 < math.inf) & (lam != 1.0))
        u, lam = v[at] / omega0[at], lam[at]
        if family == "inverse-linear":
            legs, order = _family_plan((InverseLinear, np.where(lam > 1.0, u, -u), lam, np.ones(at.size), k), lam)
            mats, kept = _closed_legs(legs)
        else:
            rows = []  # each point, then the entries of its cycle's leg (order is the same at every point)
            for j, (uj, lam_j) in enumerate(zip(u.tolist(), lam.tolist())):
                with contextlib.suppress(DomainError):
                    _check_leg_args(family, uj, k)
                    legs, order = _family_plan((*_leg_end(family, uj, lam_j, k), 1.0, k), lam_j)
                    rows.append([j, *(x for s in _closed_legs(legs)[0] for x in (s.a, s.b, s.c, s.d))])
            if not rows:
                return gain, det_err
            kept, *entries = np.array(rows).T
            mats, kept = [EvolutionMatrix(*entries[i:i + 4]) for i in range(0, len(entries), 4)], kept.astype(int)
        total, r, ok = _fold(mats, order, n_cycles)
        at = at[kept][ok]
        gain[at], det_err[at] = r[ok], total.det_error()[ok]
    return gain, det_err


def scan_gain(
    family: str,
    v_axis: GridAxis,
    lam_axis: GridAxis,
    omega0_axis: GridAxis = GridAxis(1.0, 1.0, 1),
    n_cycles: int = 1,
    k: float = -2.0,
) -> ScanResult:
    """Gain factor over the grid omega0 x lambda x v (v fastest), as one _fold
    of arrays (_scan_points).  A point whose cycle cannot be built stays in
    place as a NaN row carrying the reason in ``error``; those points and the
    ones at lambda = 1 go through build_cycle one by one."""
    axes = np.meshgrid(omega0_axis.values(), lam_axis.values(), v_axis.values(), indexing="ij")
    omega0, lam, v = (axis.ravel() for axis in axes)
    gain, det_err = _scan_points(family, omega0, lam, v, n_cycles, k)
    error = [""] * v.size
    for i in np.flatnonzero(np.isnan(gain)).tolist():
        try:
            s = build_cycle(CycleSpec(family, v=v.item(i), lam=lam.item(i), omega0=omega0.item(i),
                                      n_cycles=n_cycles, k=k))
            gain[i], det_err[i] = gain_factor(s), s.det_error()
        except (DomainError, IntegrationError, SymplecticError) as exc:
            error[i] = str(exc)
    return ScanResult(family, k, n_cycles, omega0, lam, v, gain, det_err, tuple(error))


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
    result: ScanResult, tol: float = 1e-6, refine: bool = True
) -> Tuple[Tuple[float, float, float], ...]:
    """(v, lambda, gain) triples where the gain dips back to 1 within tol.

    Local minima of the sampled R(v) at fixed (omega0, lambda) are located
    by comparing each gain with its neighbours in the same sweep and then
    sharpened by a golden-section search; a monotone sweep yields nothing.
    Sweeps come in (omega0, lambda) order, each by v with ties in grid order.
    """
    keep = np.flatnonzero([not e for e in result.error])
    keep = keep[np.lexsort((result.v[keep], result.lam[keep], result.omega0[keep]))]
    omega0, lam, v, g = (x[keep] for x in (result.omega0, result.lam, result.v, result.gain))
    # same[j]: points j and j + 1 belong to one sweep
    same = (omega0[1:] == omega0[:-1]) & (lam[1:] == lam[:-1])
    here, prev, nxt = g[1:-1], g[:-2], g[2:]
    # a dip is no higher than either neighbour, and not inside a flat run
    dips = same[:-1] & same[1:] & (here <= prev) & (here <= nxt)
    dips &= ~((here == prev) & (here == nxt))
    found = []
    for i in (np.flatnonzero(dips) + 1).tolist():
        v_min, lam_i, g_min = v.item(i), lam.item(i), g.item(i)
        if refine:
            spec = CycleSpec(result.family, v=v_min, lam=lam_i, omega0=omega0.item(i),
                             n_cycles=result.n_cycles, k=result.k)
            v_min, g_min = _golden_min(
                lambda x: cycle_gain(replace(spec, v=x)), v.item(i - 1), v.item(i + 1), 1e-6
            )
        if g_min - 1.0 < tol:
            found.append((v_min, lam_i, g_min))
    return tuple(found)


def random_fourier_profile(rng: np.random.Generator) -> Fourier:
    """Smooth random cycle profile omega(t) = exp(sum_j c_j sin(pi j t / T)),
    4 harmonics with c_j ~ N(0, 0.4^2) / j over T in [2, 8].

    The sine basis pins omega(0) = omega(T) = 1 exactly and exponentiation
    keeps the frequency positive.
    """
    t0 = rng.uniform(2.0, 8.0)
    return Fourier(SineSeries(rng.normal(0.0, 0.4, size=4) / np.arange(1, 5), t0))


def random_piecewise_cycle(rng: np.random.Generator) -> Piecewise:
    """Random palindromic profile, 1 to 3 segments a side; closes at omega = 1, may jump inside."""
    n = int(rng.integers(1, 4))
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


def random_cycle_spec(rng: np.random.Generator) -> CycleSpec:
    """Draw a random closed cycle, mixing all families.

    Inverse-linear cycles use the full advertised parameter ranges.  The
    power-law and exponential ranges stay narrower: widening them waits on
    a map of where their Bessel closed forms lose accuracy.
    """
    kind = rng.integers(0, 4)
    if kind == 0:
        return CycleSpec(
            "inverse-linear",
            v=10.0 ** rng.uniform(-2.0, 2.0),
            lam=10.0 ** rng.uniform(-2.0, 2.0),
            omega0=10.0 ** rng.uniform(-1.0, 1.0),
        )
    if kind == 1:
        return CycleSpec(
            "power-law",
            v=10.0 ** rng.uniform(-0.5, 2.0),
            lam=10.0 ** rng.uniform(-1.0, 1.0),
            omega0=10.0 ** rng.uniform(-0.5, 0.5),
            k=float(rng.choice([-4.0, -3.0, -2.0, -1.0, 1.0, 3.0])),
        )
    if kind == 2:
        return CycleSpec(
            "exponential",
            v=10.0 ** rng.uniform(-0.5, 2.0),
            lam=10.0 ** rng.uniform(-1.0, 1.0),
            omega0=10.0 ** rng.uniform(-0.5, 0.5),
        )
    if rng.uniform() < 0.5:
        profile: FrequencyProfile = random_fourier_profile(rng)
    else:
        profile = random_piecewise_cycle(rng)
    return CycleSpec("custom", profile=profile, duration=profile.duration)


def random_cycle_gain(
    rng: np.random.Generator, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> Tuple[CycleSpec, float, float]:
    """Draw a random closed cycle (random_cycle_spec) and build it: (spec, gain, det_err)."""
    spec = random_cycle_spec(rng)
    s = build_cycle(spec, cfg)
    return spec, gain_factor(s), s.det_error()
