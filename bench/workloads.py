"""The three benchmark workloads.

Each workload turns the workload seed into a fixed deck of distinct
requests, then serves one closed-loop caller: it issues a request, waits
for it, checks the result outside the timed region, and issues the next.
The loop runs the deck round after round.  A request is one `scan` call
(scan-closed), one cycle (cycle-bessel) or one `verify` or `perturb` call
(selfcheck).  The library is always reached through module attributes
(`cyclosc.cli.main`, `cyclosc.cycles.build_cycle`, ...) so that the
traced run's wrappers see every call.

A request's latency is the fastest of its timings over the rounds.  On a
shared 2-vCPU virtual machine (Xeon) the CPU speed changes by up to 1.6x
for seconds to minutes at a time; the best of several timings spread over
the run measures the request rather than the neighbours.  Every repeat is
checked to return exactly what the first call returned.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import cyclosc.cli
import cyclosc.core
import cyclosc.cycles
from cyclosc.cycles import CycleSpec
from cyclosc.errors import DomainError, IntegrationError, SymplecticError

import checks

# Typed errors a cycle may raise; each counts as one failed operation.
CYCLE_ERRORS = (DomainError, IntegrationError, SymplecticError)
# Every timed run makes at least this many rounds over its deck.
MIN_ROUNDS = 3


class Workload:
    """Shared bookkeeping; subclasses define request(), after() and finish().

    Requests are numbered 0 .. deck_size - 1 within a round.  `groups` lists
    the requests whose latencies add up to one reported latency (one
    selfcheck pass); by default each request stands alone.
    """

    unit = ""  # what one item of throughput is

    def __init__(self) -> None:
        self.deck_size = 0
        self.groups: Optional[List[Sequence[int]]] = None
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: List[str] = []
        self.artifact: List[bytes] = []
        self.first: Dict[int, bytes] = {}

    def request(self, key: int) -> object:
        raise NotImplementedError

    def after(self, key: int, result: object) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run, such as the oracle subsample."""

    def repeat(self, key: int, data: bytes) -> bool:
        """Record the first result of a request; flag a repeat that differs.

        Returns True for a repeat, whose checks the first call already made.
        """
        if key not in self.first:
            self.first[key] = data
            self.artifact.append(data)
            return False
        if data != self.first[key]:
            self.problems.append(f"request {key} returned a different result than its first call")
        return True

    def artifact_bytes(self) -> bytes:
        return b"".join(self.artifact)

    def best_latencies(self, timings: np.ndarray) -> Tuple[List[float], float]:
        """Reported latencies and the time of one round, from rounds x deck timings.

        Each request counts with its fastest timing; a reported latency sums
        the requests of its group.
        """
        best = timings.min(axis=0)
        groups = self.groups or [[key] for key in range(self.deck_size)]
        return [float(best[list(g)].sum()) for g in groups], float(best.sum())


def run_rounds(wl: Workload, seconds: float, min_rounds: int = MIN_ROUNDS) -> np.ndarray:
    """Closed loop over the deck, round after round; returns rounds x deck timings.

    Each request is timed alone and checked untimed.  The loop stops at the
    end of a round once `min_rounds` rounds ran and one more round of average
    length would take the timed total past `seconds`; with seconds = 0 it
    runs exactly `min_rounds` rounds.
    """
    timings: List[List[float]] = []
    busy = 0.0
    while True:
        row = []
        for key in range(wl.deck_size):
            t0 = time.perf_counter()
            result = wl.request(key)
            row.append(time.perf_counter() - t0)
            wl.after(key, result)
        timings.append(row)
        busy += sum(row)
        n = len(timings)
        if n >= min_rounds and busy * (n + 1) / n > seconds:
            return np.array(timings)


# --- scan-closed -------------------------------------------------------------

# (n_v, n_lambda) of the grids of one round.  A short round gives every
# grid many timings.
SCAN_SHAPES = ((25, 20), (40, 25), (50, 40), (64, 50), (80, 50))


class ScanClosed(Workload):
    """`cyclosc scan --family inverse-linear --cycles 1` over log v x lambda grids.

    The deck holds grids of 500 to 4,000 points.  The seed jitters each
    grid's endpoints; every scan of a grid must write the same bytes.
    """

    unit = "grid points"
    ORACLE_POINTS = 6

    def __init__(self, seed: int, workdir: Path, shapes=SCAN_SHAPES) -> None:
        super().__init__()
        rng = np.random.default_rng([seed, 1])
        self.grids: List[Tuple[str, str, int]] = []
        for n_v, n_lam in shapes:
            v_lo, v_hi = 10.0 ** rng.uniform(-1.6, -1.3), 10.0 ** rng.uniform(1.5, 1.8)
            l_lo, l_hi = 10.0 ** rng.uniform(-1.1, -0.9), 10.0 ** rng.uniform(0.9, 1.1)
            self.grids.append((f"{v_lo!r}:{v_hi!r}:{n_v}:log",
                               f"{l_lo!r}:{l_hi!r}:{n_lam}:log", n_v * n_lam))
        self.deck_size = len(self.grids)
        self.rng = rng
        self.out = workdir / "scan.csv"
        self.oracle_pool: List[checks.ScanRow] = []
        self.row_failures: Dict[int, int] = {}

    def request(self, key: int) -> int:
        v_grid, lam_grid, _ = self.grids[key]
        return cyclosc.cli.main([
            "scan", "--family", "inverse-linear", "--v-grid", v_grid,
            "--lambda-grid", lam_grid, "--cycles", "1", "--output", str(self.out),
        ])

    def after(self, key: int, rc: object) -> None:
        v_grid, lam_grid, points = self.grids[key]
        self.items += points
        self.attempted += points
        if rc != 0:
            self.problems.append(f"scan of grid {key} exited {rc}")
        if not self.repeat(key, self.out.read_bytes()):
            report = checks.check_scan(self.first[key].decode("utf-8"), v_grid, lam_grid)
            self.problems.extend(f"grid {key}: {p}" for p in report.problems)
            self.row_failures[key] = report.nan_rows
            self.oracle_pool.extend(report.rows)
        self.failed += self.row_failures[key]

    def finish(self) -> None:
        pool = self.oracle_pool
        picks = self.rng.choice(len(pool), size=min(self.ORACLE_POINTS, len(pool)), replace=False)
        for j in sorted(picks):
            self.problems.extend(checks.check_scan_point_ode(pool[j]))


# --- cycle-bessel ------------------------------------------------------------

# (family, k, lambda cells, u cells): the deck gives every power-law k an
# 8 x 10 grid and the exponential family an equal share of the cycles.
DECK_SLOTS = tuple(("power-law", k, 8, 10) for k in (-4.0, -3.0, -2.0, -1.0, 1.0, 3.0)) + (
    ("exponential", -2.0, 20, 24),
)


def log_rate(p: np.ndarray) -> np.ndarray:
    """Inverse CDF of log10(v / omega0) for log10 v ~ U(-0.5, 2), log10 omega0 ~ U(-0.5, 0.5)."""
    x = np.where(p <= 0.2, np.sqrt(5.0 * p),
                 np.where(p <= 0.8, 1.0 + 2.5 * (p - 0.2), 3.5 - np.sqrt(5.0 * (1.0 - p))))
    return x - 1.0


def cycle_deck(rng: np.random.Generator) -> List[CycleSpec]:
    """The 960 cycles of the deck, shuffled.

    v, lambda and omega0 follow the independent log-uniform laws of the
    ranges random_cycle_gain uses for these two families.  A cycle's cost
    spans four decades and is set by lambda and u = v/omega0 alone (the
    library works in units omega0 = 1), so each slot takes the centre of
    every cell of a grid over the quantiles of (log lambda, log u).  A
    point drawn inside the slowest cell, k = 3 near lambda = 0.1 and
    u = 0.1, costs 0.2 s to 1.8 s, so drawn points made throughput measure
    the draw.  The seed draws omega0 given u, the spread of n_cycles over
    1..4 and the order.
    """
    specs = []
    for family, k, n_lam, n_u in DECK_SLOTS:
        m = n_lam * n_u
        lam_p = (np.repeat(np.arange(n_lam), n_u) + 0.5) / n_lam
        log_u = log_rate((np.tile(np.arange(n_u), n_lam) + 0.5) / n_u)
        lo, hi = np.maximum(-0.5, -0.5 - log_u), np.minimum(0.5, 2.0 - log_u)
        log_w = lo + (hi - lo) * rng.uniform(size=m)
        n_cycles = rng.permutation(np.arange(m) % 4 + 1)
        for j in range(m):
            specs.append(CycleSpec(
                family,
                v=float(10.0 ** (log_u[j] + log_w[j])),
                lam=float(10.0 ** (-1.0 + 2.0 * lam_p[j])),
                omega0=float(10.0 ** log_w[j]),
                n_cycles=int(n_cycles[j]),
                k=k,
            ))
    return [specs[j] for j in rng.permutation(len(specs))]


class CycleBessel(Workload):
    """Library stream of build_cycle/gain_factor calls, one cycle per request."""

    unit = "cycles"
    ORACLE_CYCLES = 24

    def __init__(self, seed: int, limit: Optional[int] = None) -> None:
        super().__init__()
        self.specs = cycle_deck(np.random.default_rng([seed, 2]))[:limit]
        self.deck_size = len(self.specs)
        oracle_rng = np.random.default_rng([seed, 4])
        self.oracle_at = set(oracle_rng.choice(
            self.deck_size, size=min(self.ORACLE_CYCLES, self.deck_size), replace=False).tolist())
        self.oracle_records: List[checks.CycleRecord] = []
        self.lowest: Optional[checks.CycleRecord] = None

    def request(self, key: int) -> object:
        spec = self.specs[key]
        try:
            s = cyclosc.cycles.build_cycle(spec)
            return s, cyclosc.core.gain_factor(s)
        except CYCLE_ERRORS as exc:
            return exc

    def after(self, key: int, result: object) -> None:
        spec = self.specs[key]
        self.attempted += 1
        if isinstance(result, Exception):
            self.failed += 1
            self.repeat(key, f"{key} {type(result).__name__}\n".encode())
            return
        s, gain = result
        self.items += 1
        rec = checks.CycleRecord(spec, (float(s.a), float(s.b), float(s.c), float(s.d)),
                                 float(gain), float(s.det_error()))
        if self.repeat(key, f"{key} {rec.matrix!r} {gain!r}\n".encode()):
            return
        if key in self.oracle_at:
            self.oracle_records.append(rec)
        if self.lowest is None or rec.gain < self.lowest.gain:
            self.lowest = rec
        self.problems.extend(checks.check_cycle(rec))

    def finish(self) -> None:
        low = self.lowest
        if low is not None:
            self.notes.append(
                f"lowest gain R - 1 = {low.gain - 1.0:.3g} over {len(self.first)} cycles, at "
                f"{low.spec.family} k={low.spec.k:g} lambda={low.spec.lam:.4g} "
                f"v/omega0={low.spec.v / low.spec.omega0:.4g}")
        for rec in self.oracle_records:
            self.problems.extend(checks.check_cycle_ode(rec))


# --- selfcheck ---------------------------------------------------------------

PERTURB_POWERS = (1, 2, 3, 4)
# Pass j runs `verify --seed VERIFY_SEEDS[j]` in every run.  A verify call
# costs 0.4 s to 1.8 s depending on its seed, so seeds drawn per run would
# make the slowest pass, and with it the tail latency, measure which seeds
# were drawn rather than the code.  Seed 0 is one of the cheapest (0.4 s),
# which keeps a round short and gives the verify call many timings.
VERIFY_SEEDS = (0,)


class SelfCheck(Workload):
    """One pass: `verify --seed s`, then `perturb --power N` for N = 1..4.

    Each call is one request, so the deck holds 5 requests per verify seed,
    and a pass's latency is the sum of its 5.  The workload seed draws the
    perturb drive (amplitude and carrier frequency); the verify seeds are
    fixed, see VERIFY_SEEDS.
    """

    unit = "passes"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__()
        rng = np.random.default_rng([seed, 3])
        self.drive = ["--epsilon", repr(float(10.0 ** rng.uniform(-3.5, -2.5))),
                      "--drive-freq", repr(float(rng.uniform(1.5, 2.5)))]
        self.calls: List[Tuple[str, int]] = []
        self.groups = []
        for s in VERIFY_SEEDS:
            self.groups.append(range(len(self.calls), len(self.calls) + 1 + len(PERTURB_POWERS)))
            self.calls += [("verify", s)] + [("perturb", n) for n in PERTURB_POWERS]
        self.deck_size = len(self.calls)
        self.workdir = workdir

    def path(self, key: int) -> Path:
        return self.workdir / f"{self.calls[key][0]}.csv"

    def request(self, key: int) -> int:
        kind, arg = self.calls[key]
        if kind == "verify":
            args = ["verify", "--seed", str(arg)]
        else:
            args = ["perturb", "--power", str(arg), *self.drive]
        return cyclosc.cli.main([*args, "--output", str(self.path(key))])

    def after(self, key: int, rc: int) -> None:
        kind, arg = self.calls[key]
        text = self.path(key).read_text("utf-8")
        if kind == "verify":
            self.items += 1
            report = checks.check_verify(rc, text)
            self.attempted += report.attempted
            self.failed += report.failed
            problems = report.problems
        else:
            self.attempted += 1
            self.failed += rc != 0
            problems = checks.check_perturb(rc, text)
        if not self.repeat(key, text.encode("utf-8")):
            self.problems.extend(f"{kind} {arg}: {p}" for p in problems)


def make(name: str, seed: int, workdir: Path, small: bool = False) -> Workload:
    """The named workload; small=True shrinks its deck for smoke tests."""
    if name == "scan-closed":
        return ScanClosed(seed, workdir, *(((12, 5), (12, 5)),) if small else ())
    if name == "cycle-bessel":
        return CycleBessel(seed, 30 if small else None)
    if name == "selfcheck":
        return SelfCheck(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
