"""Adaptive Runge-Kutta propagation of linear oscillator systems.

This is the route that does not know about Bessel functions or power
exponents.  Every integration here is one system, q'' = -W(t) q, with W a
squared frequency omega(t)^2 for one oscillator or an N x N coupling matrix
for N of them.  A lane holds Y = [Q; P], the positions over the velocities
of a few solutions, and obeys dY/dt = G(t) Y with G = [[0, 1], [-W(t), 0]]:

- a Hill lane carries the fundamental solutions (1, 0) and (0, 1), and the
  evolution matrix is read off its final value;
- a forced lane adds the solution driven by kappa(t) from rest;
- a multimode lane (cyclosc.cavity) carries all 2N fundamental solutions.

Used both as a general-purpose propagator (piecewise/tabulated profiles)
and as the independent oracle the closed forms are checked against.

The integrator is Dormand and Prince's DOP853 (Hairer, Norsett & Wanner,
*Solving Ordinary Differential Equations I*, Sec. II.10) with the step
control of scipy's solve_ivp, run over a batch of independent lanes.  A
lane is one initial value problem from t = 0 with its own end and step
size, and its own accept/reject decisions; each Runge-Kutta stage is one
array operation over the lanes still running, and a lane leaves the batch
when it reaches its end.  A batch of one is the plain integrator.  A Hill
or forced run is cut into time pieces, each a lane of its own, and their
maps are multiplied back together (_propagate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .core import EvolutionMatrix, StationaryState, _libm_each, _whole_count, compose, final_energy
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
    """Tolerances and the per-lane budget of attempted steps; a lane is one
    time piece of a Hill or forced run (see _propagate)."""

    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 10_000_000

    def __post_init__(self) -> None:
        if not (0.0 < self.rtol < 1.0 and 0.0 < self.atol < 1.0):
            raise DomainError("tolerances must lie in (0, 1)")
        if not _whole_count(self.max_steps):
            raise DomainError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")


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

    t holds the lanes' common start 0, then the end of each accepted lane
    step in the order taken, so len(t) - 1 counts accepted steps; nfev
    counts right-hand-side evaluations, one per lane per stage.
    """

    y: np.ndarray
    t: np.ndarray
    nfev: int


class _Oscillators:
    """Lanes of q'' = -W(t) q for n coordinates q, each lane a matrix
    Y = [Q; P] of shape (2n, cols) with

        dY/dt = G(t) Y,    G = [[0, 1], [-W(t), 0]],

    plus kappa(t) in the velocity of column 2n when drives are given.  W
    comes from one LaneMap: a squared frequency per lane for n = 1, an n x n
    coupling matrix for n > 1.  cols counts the solutions a lane carries: the
    2n fundamental ones, then the driven one; a lane may hold zero columns
    after them (see _run_lanes), which stay zero.

    terms(t, h, lanes) evaluates h G and h kappa, with a step h per lane, at
    the times t, shape (stages, m), of the m running lanes, whose indices
    into the batch are the array `lanes`.  rhs(terms, s, y, out) writes
    h dY/dt of those lanes, y of shape (m, 2n, width), at the times of row s.
    For n = 1, h G Y = (h P, -h w Q) is Y with its rows swapped, times one
    factor per row: one elementwise multiply instead of a matmul.
    """

    def __init__(self, w: LaneMap, n: int, drive: Optional[Callable]) -> None:
        self.w, self.n, self.drive = w, n, drive
        self.cols = 2 * n + (drive is not None)

    def terms(self, t: np.ndarray, h: np.ndarray, lanes: np.ndarray) -> tuple:
        n, w = self.n, self.w(t, lanes)
        if n == 1:
            hg = np.empty(t.shape + (2, 1))
            hg[..., 0, 0] = h
            np.multiply(w.reshape(t.shape), -h, out=hg[..., 1, 0])
        else:
            hg = np.zeros(t.shape + (2 * n, 2 * n))
            hg[..., range(n), range(n, 2 * n)] = h[:, None]
            np.multiply(w, -h[:, None, None], out=hg[..., n:, :n])
        return hg, None if self.drive is None else self.drive(t, lanes) * h

    def rhs(self, terms: tuple, s: int, y: np.ndarray, out: np.ndarray) -> None:
        hg, drive = terms
        if self.n == 1:
            np.multiply(y[:, ::-1], hg[s], out=out)
        else:
            np.matmul(hg[s], y, out=out)
        if drive is not None:
            out[:, -1, self.cols - 1] += drive[s]


def solve_ivp(
    system: _Oscillators,
    t_final: np.ndarray,
    y0: np.ndarray,
    first_step: np.ndarray,
    cfg: IntegratorConfig,
) -> BatchSolution:
    """Integrate each lane of y0, shape (L, 2n, width), from 0 to t_final.

    Each lane takes DOP853 steps under scipy's control: the error norm of
    the 5th-order estimator damped by the 3rd-order one over the lane's
    first system.cols columns (the rest are zero padding), acceptance below
    1, the next step scaled by 0.9 err^(-1/8) within [0.2, 10] (at most 1
    right after a rejection), the last step cut to end exactly at t_final,
    and failure when a step falls below ten spacings of the floats at t.
    A lane with t_final == 0 keeps y0.  Raises IntegrationError when a step
    fails or a lane has not finished after cfg.max_steps attempts.
    """
    y_final = np.array(y0, dtype=float)
    lanes = np.flatnonzero(t_final != 0.0)
    t, t_end, h_abs = np.zeros(lanes.size), t_final[lanes], first_step[lanes]
    lane = y_final.shape[1:]
    m, n = lanes.size, math.prod(lane)
    cols = system.cols
    n_norm = lane[0] * cols  # the entries the error norm is taken over
    times = [np.zeros(1)]
    if m == 0:
        return BatchSolution(y_final, times[0], 0)
    rtol, atol = cfg.rtol, cfg.atol
    X = np.empty((14, m * n))
    rows = X.reshape(14, m, *lane)
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
        rows[1] *= (h / h_row)[:, None, None]
        h_row = h
        terms = system.terms(t + _C_STAGES * h, h, lanes)
        for s, (w, x, out) in enumerate(stages):
            rhs(terms, s, (w @ x).reshape(out.shape), out)
        y_new = (_W_NEW @ X[:13]).reshape(m, *lane)
        rhs(terms, 10, y_new, rows[13])  # stage 11 runs at c = 1, the time t + h
        nfev += 12 * m

        scale = atol + np.maximum(np.abs(rows[0]), np.abs(y_new)) * rtol
        err = (_W_ERR @ X).reshape(2, m, *lane)[..., :cols] / scale[..., :cols]
        e5, e3 = (err * err).reshape(2, m, n_norm).sum(axis=2)
        # the rows carry h, so this is scipy's |h| e5 / sqrt((e5 + e3 / 100) n);
        # _TINY only keeps 0 / 0 and 0^(-1/8) out, below where the factor caps at 10
        error_norm = e5 / np.sqrt((e5 + 0.01 * e3) * n_norm + _TINY)
        # libm's pow per lane, as scipy's scalar control takes it (numpy's power depends on the CPU)
        factor = _SAFETY * _libm_each(math.pow, np.maximum(error_norm, _TINY), _EXPONENT)
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
            rows = X.reshape(14, m, *lane)
            stages = _stage_views(X, rows)
    raise IntegrationError(f"integrator exceeded the step budget ({cfg.max_steps} steps)")


def _run_lanes(
    w: LaneMap,
    n: int,
    t_finals: Sequence[float],
    cfg: IntegratorConfig,
    drive: Optional[Callable] = None,
) -> np.ndarray:
    """Final Y, shape (lanes, 2n, width), of _Oscillators lanes run over
    [0, t_final], held to cfg's tolerances and step budget.

    Every lane starts from columns of I_2n: the fundamental solutions
    (q, p) = (1, 0) and (0, 1), then the driven one at rest; all of I_2n for
    n modes.  A driven lane gets a zero fourth column, so that every lane
    holds a multiple of 4 entries: a BLAS sum over the lanes then treats
    each lane's entries alike wherever the lane sits in the batch.  A
    lane's first step is 0.1 / max(omega, 1), capped at its span, where
    omega^2 is the largest entry of W at t = 0.
    """
    system = _Oscillators(w, n, drive)
    t_final = np.array(t_finals, dtype=float)
    size = t_final.size
    start = np.eye(2 * n, system.cols + system.cols % 2)
    y0 = np.broadcast_to(start, (size, *start.shape))
    if not size:
        return y0
    w0 = w(np.zeros((1, size)), np.arange(size)).reshape(size, -1).max(axis=1)
    first = np.minimum(0.1 / np.maximum(np.sqrt(np.maximum(w0, 0.0)), 1.0), t_final)
    return solve_ivp(system, t_final, y0, first, cfg).y


# Each smooth piece of a Hill or forced run is integrated as _SPLIT equal
# time pieces, each one lane from the identity: q'' = -omega^2(t) q is
# linear, so the piece's map is the product of theirs, and a batch runs as
# many steps as its longest lane.  Chosen by measurement: from 6 to 12 pieces
# verify's batches take about the same time, and 12 is the fewest at which
# every value of the propagate ODE goldens is at least as close to its closed
# form as with one piece.
_SPLIT = 12


def _split(t_final: float) -> list:
    """(start, end) of the _SPLIT equal time pieces of [0, t_final]; the
    whole span as one piece when it is too short for distinct float starts."""
    cuts = [t_final * j / _SPLIT for j in range(_SPLIT)] + [t_final]
    pieces = list(zip(cuts, cuts[1:]))
    return pieces if all(a < b for a, b in pieces) else [(0.0, t_final)]


def _pieces(profile: FrequencyProfile, t_final: float, edge: float = 0.0):
    """(profile, t_final, edge) of each smooth piece of a run, edge being its
    start on the run's clock: a Piecewise profile is split at its breakpoints,
    since the smooth RK error model does not apply across an omega jump."""
    profile.check_domain(t_final)
    if not isinstance(profile, Piecewise):
        yield profile, t_final, edge
        return
    start = 0.0
    for prof, dur in profile.segments:
        hi = min(t_final - start, dur)
        if hi > 0.0:
            yield from _pieces(prof, hi, edge + start)
        start += dur


def _propagate(
    profiles: Sequence[FrequencyProfile],
    t_finals: Sequence[float],
    cfg: IntegratorConfig,
    kappas: Optional[Sequence[Callable[[float], float]]] = None,
) -> List[ForcedResult]:
    """Matrix and driven trajectory (at rest without kappas) of each run.

    Every smooth piece of every run is cut into time pieces (_split), and
    each time piece is one lane of a single batch, which reads its profile
    at t + offset, offset being its start within the smooth piece, and its
    drive at t + edge + offset on the run's clock.  The split depends on the
    run alone, so a run gives the same bits alone or in any batch.  Each
    run folds its lanes in time order as affine maps, with exact handoff:
    (S, c) after (S0, c0) is (S S0, S c0 + c).
    """
    runs = [(i, prof, b - a, a, edge + a)
            for i, (profile, t_final) in enumerate(zip(profiles, t_finals))
            for prof, span, edge in _pieces(profile, t_final)
            for a, b in _split(span)]
    offsets = np.array([offset for *_, offset, _ in runs])
    shifts = np.array([shift for *_, shift in runs])
    omega_sq = LaneMap([prof for _, prof, *_ in runs], lambda profile: profile.omega_sq)
    w = lambda t, lanes: omega_sq(t + offsets[lanes], lanes)
    kappa = None if kappas is None else LaneMap([kappas[i] for i, *_ in runs])
    drive = None if kappa is None else lambda t, lanes: kappa(t + shifts[lanes], lanes)
    y = _run_lanes(w, 1, [span for _, _, span, *_ in runs], cfg, drive)
    folded: list = [None] * len(profiles)  # (S, qc, qc_dot) of each run so far
    for (i, *_), (q, p) in zip(runs, y.tolist()):
        s = EvolutionMatrix(q[0], q[1], p[0], p[1])
        qc, pc = (0.0, 0.0) if drive is None else (q[2], p[2])
        done = folded[i]
        folded[i] = (s, qc, pc) if done is None else (
            compose(s, done[0]),
            s.a * done[1] + s.b * done[2] + qc,
            s.c * done[1] + s.d * done[2] + pc,
        )
    start = ForcedResult(EvolutionMatrix.identity(), 0.0, 0.0)  # a run with no piece
    return [start if r is None else ForcedResult(*r) for r in folded]


def propagate_ode_batch(
    profiles: Sequence[FrequencyProfile],
    t_finals: Sequence[float],
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> List[EvolutionMatrix]:
    """Integrated evolution matrix of each profile over [0, t_final].

    All runs are integrated together; a Piecewise profile is split at its
    breakpoints, and its matrix is the product of its segments'.
    """
    if len(profiles) != len(t_finals):
        raise DomainError("need one t_final per profile")
    return [r.matrix for r in _propagate(profiles, t_finals, cfg)]


def propagate_ode(
    profile: FrequencyProfile,
    t_final: float,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> EvolutionMatrix:
    """Numerically integrated evolution matrix over [0, t_final]: a batch
    of one (see propagate_ode_batch)."""
    return propagate_ode_batch([profile], [t_final], cfg)[0]


def propagate_forced_batch(
    profiles: Sequence[FrequencyProfile],
    kappas: Sequence[Callable[[float], float]],
    t_finals: Sequence[float],
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> List[ForcedResult]:
    """Forced oscillators H = (p^2 + omega(t)^2 q^2)/2 - kappa(t) q.

    Integrates the two homogeneous fundamental solutions together with the
    classical particular solution Q_c (initial conditions Q_c = dQ_c = 0),
    so the mean motion and the matrix share every accepted step; a Piecewise
    run is split and handed over at its breakpoints as in propagate_ode_batch.
    Each drive must vanish at both endpoints of its run [0, t_final].
    """
    if not len(profiles) == len(kappas) == len(t_finals):
        raise DomainError("need one kappa and one t_final per profile")
    for profile, kappa, t_final in zip(profiles, kappas, t_finals):
        profile.check_domain(t_final)
        k0, k1 = float(kappa(0.0)), float(kappa(t_final))
        if abs(k0) > 1e-9 or abs(k1) > 1e-9:
            raise DomainError(
                f"kappa must vanish at both endpoints, got kappa(0) = {k0!r}, "
                f"kappa(T) = {k1!r}"
            )
    return _propagate(profiles, t_finals, cfg, kappas)


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
