"""Adaptive Runge-Kutta propagation of the fundamental-solution system.

This is the route that does not know about Bessel functions or power
exponents: it integrates

    dq/dt = p,    dp/dt = -omega(t)^2 q (+ kappa(t) for the forced case)

for the two fundamental initial conditions (1, 0) and (0, 1) at once and
reads the evolution matrix off the final values.  Used both as a
general-purpose propagator (piecewise/tabulated profiles) and as the
independent oracle the closed forms are checked against.

The integrator is Dormand and Prince's DOP853 (Hairer, Norsett & Wanner,
*Solving Ordinary Differential Equations I*, Sec. II.10) with the step
control of scipy's solve_ivp, run over a batch of independent lanes.  A
lane is one initial value problem with its own start, end and step size,
and its own accept/reject decisions; each Runge-Kutta stage is one array
operation over the lanes still running, and a lane leaves the batch when
it reaches its end.  A batch of one is the plain integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Sequence

import numpy as np

from .core import EvolutionMatrix, StationaryState, compose, final_energy
from .errors import DomainError, IntegrationError
from .profiles import FrequencyProfile, LaneMap, Piecewise

__all__ = [
    "IntegratorConfig",
    "DEFAULT_CONFIG",
    "ForcedResult",
    "propagate_ode",
    "propagate_ode_batch",
    "propagate_forced",
    "propagate_forced_batch",
    "forced_final_energy",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and the per-lane budget of attempted steps."""

    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 10_000_000

    def __post_init__(self) -> None:
        if not (0.0 < self.rtol < 1.0 and 0.0 < self.atol < 1.0):
            raise ValueError("tolerances must lie in (0, 1)")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


DEFAULT_CONFIG = IntegratorConfig()


@dataclass(frozen=True)
class ForcedResult:
    """Homogeneous matrix plus the classical driven trajectory (Q_c, dQ_c/dt)."""

    matrix: EvolutionMatrix
    qc: float
    qc_dot: float


# --- DOP853 tableau ----------------------------------------------------------
#
# The 12 stages of DOP853 and its 5th- and 3rd-order error estimators, as in
# Hairer's Fortran code and scipy's dop853_coefficients.py (BSD licence).
# The dense-output stages are not needed.

_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])

_A = np.zeros((12, 12))
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
_A[4, [0, 2, 3]] = [
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1,
]
_A[5, [0, 3, 4]] = [
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1,
]
_A[6, [0, 3, 4, 5]] = [
    3.7109375e-2, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2,
]
_A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3,
]
_A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022,
]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1,
]

_B = np.zeros(12)
_B[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
]

# The error estimators weigh the 12 stages and the derivative at the new point.
_E3 = np.append(_B, 0.0)
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1

_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
]

# The stages act on the rows X = (y, h k_0, ..., h k_12) of a step: stage s
# starts from (1, A[s, :s]) @ X[:s + 1], the new point is (1, B) @ X[:13],
# and the two error estimates are (0, E5) @ X and (0, E3) @ X.
_C_STAGES = _C[1:, None]
_W_STAGES = tuple(np.append(1.0, _A[s, :s]) for s in range(1, 12))
_W_NEW = np.append(1.0, _B)
_W_ERR = np.stack((np.append(0.0, _E5), np.append(0.0, _E3)))

# scipy's step-size control: safety factor, bounds on one step's change, and
# the exponent -1/(q + 1) of the order-7 error estimate
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EXPONENT = -1.0 / 8.0
_TINY = 1e-200


def _stage_views(X: np.ndarray, rows: np.ndarray) -> list:
    """(weights, rows they combine, row written) of stages 1..11."""
    return [(w, X[: s + 1], rows[s + 1]) for s, w in enumerate(_W_STAGES, start=1)]


@dataclass(frozen=True)
class BatchSolution:
    """Final state of every lane, and what the integration cost.

    t holds the first lane's start, then the end of each accepted lane step
    in the order taken, so len(t) - 1 counts accepted steps; nfev counts
    right-hand-side evaluations, one per lane per stage.
    """

    y: np.ndarray
    t: np.ndarray
    nfev: int


class LinearSystem(Protocol):
    """dy/dt = L(t) y + g(t) for a batch of lanes, each y of shape (n,).

    terms(t, h, lanes) evaluates the time-dependent parts, times a step h
    per lane, at the times t, shape (stages, m), of the m running lanes,
    whose indices into the batch are the array `lanes`.  rhs(terms, s, y,
    out) writes h dy/dt of those lanes, y of shape (m, n), at the times of
    row s.  The terms of a step are evaluated together because they depend
    on t alone.
    """

    def terms(self, t: np.ndarray, h: np.ndarray, lanes: np.ndarray) -> object: ...

    def rhs(self, terms: object, s: int, y: np.ndarray, out: np.ndarray) -> None: ...


def solve_ivp(
    system: LinearSystem,
    t_start: np.ndarray,
    t_final: np.ndarray,
    y0: np.ndarray,
    first_step: np.ndarray,
    cfg: IntegratorConfig,
) -> BatchSolution:
    """Integrate each lane of y0, shape (L, n), from t_start to t_final.

    Each lane takes DOP853 steps under scipy's control: the error norm of
    the 5th-order estimator damped by the 3rd-order one, acceptance below
    1, the next step scaled by 0.9 err^(-1/8) within [0.2, 10] (at most 1
    right after a rejection), the last step cut to end exactly at t_final,
    and failure when a step falls below ten spacings of the floats at t.
    A lane with t_final == t_start keeps y0.  Raises IntegrationError when
    a step fails or a lane has not finished after cfg.max_steps attempts.
    """
    y_final = np.array(y0, dtype=float)
    lanes = np.flatnonzero(t_final != t_start)
    t, t_end, h_abs = t_start[lanes], t_final[lanes], first_step[lanes]
    m, n = lanes.size, y_final.shape[1]
    times = [t_start[:1] if t_start.size else np.zeros(1)]
    if m == 0:
        return BatchSolution(y_final, times[0], 0)
    rtol, atol = cfg.rtol, cfg.atol
    X = np.empty((14, m * n))
    rows = X.reshape(14, m, n)
    rows[0] = y_final[lanes]
    # row 1 carries dy/dt at t from step to step, rescaled to each step's h
    h_row = np.ones(m)
    system.rhs(system.terms(t[None], h_row, lanes), 0, rows[0], rows[1])
    nfev = m
    stages = _stage_views(X, rows)
    rejected = np.zeros(m, dtype=bool)
    rhs = system.rhs
    for _ in range(cfg.max_steps):
        min_step = 10.0 * np.abs(np.nextafter(t, math.inf) - t)
        # a retry may not go below the minimum; a new step starts at no less
        # (fmax: a NaN first step becomes the minimum, which a NaN system fails)
        if (rejected & (h_abs < min_step)).any():
            raise IntegrationError(
                "integration failed: required step size is less than spacing between numbers"
            )
        h_abs = np.fmax(h_abs, min_step)
        t_new = np.minimum(t + h_abs, t_end)
        h = t_new - t
        rows[1] *= (h / h_row)[:, None]
        h_row = h
        terms = system.terms(t + _C_STAGES * h, h, lanes)
        for s, (w, x, out) in enumerate(stages):
            rhs(terms, s, (w @ x).reshape(m, n), out)
        y_new = (_W_NEW @ X[:13]).reshape(m, n)
        rhs(terms, 10, y_new, rows[13])  # stage 11 runs at c = 1, the time t + h
        nfev += 12 * m

        scale = atol + np.maximum(np.abs(rows[0]), np.abs(y_new)) * rtol
        err = (_W_ERR @ X).reshape(2, m, n) / scale
        e5, e3 = (err * err).sum(axis=2)
        # the rows carry h, so this is scipy's |h| e5 / sqrt((e5 + e3 / 100) n);
        # _TINY only keeps 0 / 0 and 0^(-1/8) out, below where the factor caps at 10
        error_norm = e5 / np.sqrt((e5 + 0.01 * e3) * n + _TINY)
        factor = _SAFETY * np.maximum(error_norm, _TINY) ** _EXPONENT
        accepted = error_norm < 1.0
        # fmax first: a NaN error norm shrinks the step like a large one
        h_abs = h * np.fmin(
            np.fmax(factor, _MIN_FACTOR), np.where(rejected, 1.0, _MAX_FACTOR)
        )
        rejected = ~accepted

        if accepted.all():  # the common case, without masks
            t = t_new
            rows[0] = y_new
            rows[1] = rows[13]
            times.append(t_new)
        else:
            t = np.where(accepted, t_new, t)
            rows[0, accepted] = y_new[accepted]
            rows[1, accepted] = rows[13, accepted]
            times.append(t_new[accepted])
        done = t == t_end
        if done.any():
            y_final[lanes[done]] = rows[0, done]
            if done.all():
                return BatchSolution(y_final, np.concatenate(times), nfev)
            keep = ~done
            lanes, t, t_end, h_abs, h_row, rejected = (
                x[keep] for x in (lanes, t, t_end, h_abs, h_row, rejected)
            )
            m = lanes.size
            X = rows[:, keep].reshape(14, m * n)  # rows[:, keep] is not C-ordered
            rows = X.reshape(14, m, n)
            stages = _stage_views(X, rows)
    raise IntegrationError(f"integrator exceeded the step budget ({cfg.max_steps} steps)")


def _integrate(
    system: LinearSystem,
    y0: np.ndarray,
    t_start: np.ndarray,
    t_final: np.ndarray,
    omega_start: np.ndarray,
    cfg: IntegratorConfig,
) -> np.ndarray:
    """Final states, shape (lanes, n), held to cfg's tolerances and step budget.

    Each lane's first step is 0.1 / max(omega_start, 1), capped at its span.
    """
    first = np.minimum(0.1 / np.maximum(omega_start, 1.0), t_final - t_start)
    return solve_ivp(system, t_start, t_final, y0, first, cfg).y


class _Hill:
    """Lanes of k solutions of q'' = -omega(t)^2 q, the last one driven by
    kappa(t) when kappas are given.

    A lane holds q_1 .. q_k, then p_k .. p_1, so that the reversed lane sets
    each p against its q: dy/dt = reversed(y) * (1 .. 1, -w2 .. -w2), plus
    kappa in the slot of the driven solution's p.  omega^2 and kappa come
    from one LaneMap each.
    """

    def __init__(
        self,
        profiles: Sequence[FrequencyProfile],
        kappas: Optional[Sequence[Callable[[float], float]]],
    ) -> None:
        self.omega_sq = LaneMap(profiles, lambda profile: profile.omega_sq)
        self.kappa = None if kappas is None else LaneMap(kappas)
        self.k = 2 if kappas is None else 3

    def terms(self, t: np.ndarray, h: np.ndarray, lanes: np.ndarray) -> tuple:
        k = self.k
        coef = np.empty(t.shape + (2 * k,))
        coef[..., :k] = h[:, None]
        np.multiply(self.omega_sq(t, lanes)[..., None], -h[:, None], out=coef[..., k:])
        if self.kappa is None:
            return coef, None
        return coef, self.kappa(t, lanes) * h

    def rhs(self, terms: tuple, s: int, y: np.ndarray, out: np.ndarray) -> None:
        coef, drive = terms
        np.multiply(y[:, ::-1], coef[s], out=out)
        if drive is not None:
            out[:, self.k] += drive[s]


def _hill(
    runs: Sequence[tuple],
    kappas: Optional[Sequence[Callable[[float], float]]],
    cfg: IntegratorConfig,
) -> np.ndarray:
    """Final lanes of each (profile, t_start, t_final) run, laid out as in _Hill.

    The solutions start at (q, p) = (1, 0) and (0, 1), and the driven one at rest.
    """
    system = _Hill([profile for profile, _, _ in runs], kappas)
    t_start = np.array([t0 for _, t0, _ in runs], dtype=float)
    t_final = np.array([t1 for _, _, t1 in runs], dtype=float)
    w0 = np.array([
        math.sqrt(max(profile.omega_sq(t0), 0.0))
        for (profile, _, _), t0 in zip(runs, t_start.tolist())
    ])
    y0 = np.zeros((len(runs), 2 * system.k))
    y0[:, 0] = y0[:, -2] = 1.0
    return _integrate(system, y0, t_start, t_final, w0, cfg)


def _pieces(profile: FrequencyProfile, t_start: float, t_final: float):
    """(profile, t_start, t_final) of each smooth piece of a run.

    A Piecewise profile is split at its breakpoints, each segment on its own
    clock: the smooth RK error model does not apply across an omega jump.
    """
    if not isinstance(profile, Piecewise):
        yield profile, t_start, t_final
        return
    edge = 0.0
    for prof, dur in profile.segments:
        lo, hi = max(t_start - edge, 0.0), min(t_final - edge, dur)
        if hi > lo:
            prof.check_domain(hi)
            yield from _pieces(prof, lo, hi)
        edge += dur
        if edge >= t_final:
            break


def propagate_ode_batch(
    profiles: Sequence[FrequencyProfile],
    t_finals: Sequence[float],
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    *,
    t_starts: Optional[Sequence[float]] = None,
) -> List[EvolutionMatrix]:
    """Integrated evolution matrix of each profile over [t_start, t_final].

    All runs are integrated together, one lane each; a Piecewise profile
    takes one lane per segment and its matrix is their product, with exact
    state handoff at the breakpoints.  t_starts defaults to 0 everywhere.
    """
    if t_starts is None:
        t_starts = [0.0] * len(profiles)
    if not len(profiles) == len(t_finals) == len(t_starts):
        raise DomainError("need one t_final and one t_start per profile")
    runs, owner = [], []
    for i, (profile, t0, t1) in enumerate(zip(profiles, t_starts, t_finals)):
        if t1 < t0:
            raise DomainError(f"t_final = {t1!r} precedes t_start = {t0!r}")
        profile.check_domain(t1)
        for run in _pieces(profile, t0, t1):
            runs.append(run)
            owner.append(i)
    out: List[Optional[EvolutionMatrix]] = [
        EvolutionMatrix.identity() if isinstance(p, Piecewise) else None for p in profiles
    ]
    for i, (q1, q2, p2, p1) in zip(owner, _hill(runs, None, cfg).tolist()):
        s = EvolutionMatrix(q1, q2, p1, p2)
        out[i] = s if out[i] is None else compose(s, out[i])
    return out  # type: ignore[return-value]


def propagate_ode(
    profile: FrequencyProfile,
    t_final: float,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    *,
    t_start: float = 0.0,
) -> EvolutionMatrix:
    """Numerically integrated evolution matrix over [t_start, t_final]: a
    batch of one (see propagate_ode_batch)."""
    return propagate_ode_batch([profile], [t_final], cfg, t_starts=[t_start])[0]


def propagate_forced_batch(
    profiles: Sequence[FrequencyProfile],
    kappas: Sequence[Callable[[float], float]],
    t_finals: Sequence[float],
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> List[ForcedResult]:
    """Forced oscillators H = (p^2 + omega(t)^2 q^2)/2 - kappa(t) q, one lane each.

    Integrates the two homogeneous fundamental solutions together with the
    classical particular solution Q_c (initial conditions Q_c = dQ_c = 0),
    so the mean motion and the matrix share every accepted step.  Each drive
    must vanish at both endpoints of its run [0, t_final].
    """
    if not len(profiles) == len(kappas) == len(t_finals):
        raise DomainError("need one kappa and one t_final per profile")
    for profile, kappa, t_final in zip(profiles, kappas, t_finals):
        if t_final < 0.0:
            raise DomainError(f"t_final must be >= 0, got {t_final!r}")
        profile.check_domain(t_final)
        k0, k1 = float(kappa(0.0)), float(kappa(t_final))
        if abs(k0) > 1e-9 or abs(k1) > 1e-9:
            raise DomainError(
                f"kappa must vanish at both endpoints, got kappa(0) = {k0!r}, "
                f"kappa(T) = {k1!r}"
            )
    rows = _hill([(p, 0.0, t) for p, t in zip(profiles, t_finals)], kappas, cfg).tolist()
    return [
        ForcedResult(EvolutionMatrix(q1, q2, p1, p2), qc, pc)
        for q1, q2, qc, pc, p2, p1 in rows
    ]


def propagate_forced(
    profile: FrequencyProfile,
    kappa: Callable[[float], float],
    t_final: float,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> ForcedResult:
    """One forced oscillator: a batch of one (see propagate_forced_batch)."""
    return propagate_forced_batch([profile], [kappa], [t_final], cfg)[0]


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
