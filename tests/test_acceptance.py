"""The ten acceptance criteria, one test each, at their stated tolerances.

Every test registers a one-line verdict with conftest (printed under the
"acceptance criteria" separator after the run) and then asserts it, so a
red criterion is visible both in the summary block and as a test failure.
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import ACCEPTANCE_LINES
from oracles import moment_oracle

from cyclosc import (
    CavitySpec,
    Covariance,
    Custom,
    CycleSpec,
    Drive,
    EvolutionMatrix,
    GridAxis,
    IntegratorConfig,
    InverseLinear,
    PowerLaw,
    StationaryState,
    check_inequality,
    cycle_gain,
    final_energy,
    find_unity_points,
    first_order_energy_shift,
    forced_final_energy,
    gain_factor,
    multimode_from_hamiltonian,
    planck_density,
    propagate_exponential,
    propagate_forced,
    propagate_inverse_linear,
    propagate_ode,
    propagate_ode_batch,
    propagate_power_law,
    random_coupling,
    random_cycle_gain,
    random_fourier_profile,
    random_symplectic,
    scan_gain,
    shift_planck_spectrum,
    sonoluminescence_estimate,
    symplectic_error,
    to_bogoliubov,
)

GRID_CFG = IntegratorConfig(rtol=1e-11, atol=1e-13)
TIGHT = IntegratorConfig(rtol=1e-12, atol=1e-14)


def report(num: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append((num, ok, detail))
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_randomized_cycle_gains():
    # >= 1e3 random closed cycles across all families, R >= 1 - 1e-9
    rng = np.random.default_rng(20250818)
    t0 = time.perf_counter()
    worst = math.inf
    n_cycles = 1000
    for _ in range(n_cycles):
        _, gain, _ = random_cycle_gain(rng)
        worst = min(worst, gain - 1.0)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-9 and elapsed <= 120.0
    report(1, ok, f"{n_cycles} random cycles, min(R) - 1 = {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_fast_power_law_energy():
    # lambda = 1/10, v = 1e3: ground-state energy within 2% of 25.25 for
    # k in {-2, -3, -4}; the asymptote does not depend on k
    lam, v, target = 0.1, 1.0e3, 25.25
    worst_rel = 0.0
    for k in (-2.0, -3.0, -4.0):
        z_t = lam ** (-2.0 / (k - 2.0))
        u = v if z_t > 1.0 else -v
        s = propagate_power_law(k, u, z_t)
        energy = final_energy(s, StationaryState(0), 1.0 / lam)
        worst_rel = max(worst_rel, abs(energy - target) / target)
    ok = worst_rel < 0.02
    report(2, ok, f"k in {{-2,-3,-4}}: worst |E - 25.25| / 25.25 = {worst_rel:.2e}")


def test_criterion_03_exponential_asymptote():
    # z = 2: E matches 1/4 (1 + z^2) - (z^2 - 1)^2 / (16 v^2) within 1%,
    # and the deficit from the sudden value scales as 1/v^2
    z = 2.0
    sudden = 0.25 * (1.0 + z * z)
    worst_rel = 0.0
    scaled = []
    for v in (20.0, 50.0, 100.0):
        s = propagate_exponential(v, z)
        energy = final_energy(s, StationaryState(0), z)
        reference = sudden - (z * z - 1.0) ** 2 / (16.0 * v * v)
        worst_rel = max(worst_rel, abs(energy - reference) / reference)
        scaled.append((sudden - energy) * v * v)
    spread = (max(scaled) - min(scaled)) / (sum(scaled) / len(scaled))
    ok = worst_rel < 0.01 and spread < 0.05
    report(
        3,
        ok,
        f"worst rel err vs reference = {worst_rel:.2e}, "
        f"deficit * v^2 spread = {spread:.2e}",
    )


def test_criterion_04_closed_form_vs_ode_grids():
    # entrywise closed-form vs ODE agreement to 1e-6 over a 10x10x10 grid
    # per family; det within 1e-9 of 1 on both routes everywhere
    t0 = time.perf_counter()
    worst_entry = 0.0
    worst_det = 0.0

    def compare(closed, numeric):
        nonlocal worst_entry, worst_det
        worst_entry = max(
            worst_entry,
            float(np.max(np.abs(closed.as_array() - numeric.as_array()))),
        )
        worst_det = max(worst_det, closed.det_error(), numeric.det_error())

    # each family's grid is integrated as one batch
    def compare_grid(closed, runs):
        profiles, durations = zip(*runs)
        for c, numeric in zip(closed, propagate_ode_batch(profiles, durations, GRID_CFG)):
            compare(c, numeric)

    omega0s = np.geomspace(0.5, 2.0, 10)
    lams = np.geomspace(0.1, 10.0, 10)
    vs = np.geomspace(0.01, 100.0, 10)
    closed, runs = [], []
    for omega0 in omega0s:
        for lam in lams:
            for v in vs:
                u = v if lam > 1.0 else -v
                closed.append(propagate_inverse_linear(omega0, u, lam))
                prof = InverseLinear(omega0, u)
                runs.append((prof, prof.t_for_scale(lam)))
    compare_grid(closed, runs)

    ks = (-4.0, -3.5, -3.0, -2.5, -1.5, -1.0, -0.5, 0.5, 1.0, 3.0)
    zs = np.geomspace(10.0**-0.5, 10.0**0.5, 10)
    vs = np.geomspace(10.0**-0.5, 10.0**1.5, 10)
    closed, runs = [], []
    for k in ks:
        for z in zs:
            for v in vs:
                u = v if z > 1.0 else -v
                closed.append(propagate_power_law(k, u, z))
                prof = PowerLaw(k, u)
                runs.append((prof, prof.t_for_z(z)))
    compare_grid(closed, runs)

    closed, runs = [], []
    for omega0 in omega0s:
        for z in zs:
            for v in vs:
                u = v if z > 1.0 else -v
                norm = propagate_exponential(u / omega0, z)
                # omega0 enters by conjugation with diag(1, omega0)
                closed.append(EvolutionMatrix(norm.a, norm.b / omega0, norm.c * omega0, norm.d))
                prof = Custom(
                    lambda t, w=omega0, r=u: (w * math.exp(r * t)) ** 2,
                    duration=math.log(z) / u,
                )
                runs.append((prof, prof.duration))
    compare_grid(closed, runs)

    elapsed = time.perf_counter() - t0
    ok = worst_entry <= 1e-6 and worst_det <= 1e-9 and elapsed <= 300.0
    report(
        4,
        ok,
        f"3 x 1000 grid points: worst entry diff = {worst_entry:.2e}, "
        f"worst det err = {worst_det:.2e}, {elapsed:.0f}s",
    )


def test_criterion_05_adiabatic_and_sudden_limits():
    adiabatic = cycle_gain(CycleSpec("inverse-linear", v=1.0e-3, lam=2.0))
    sudden = cycle_gain(CycleSpec("inverse-linear", v=1.0e3, lam=2.0))
    dev_a = abs(adiabatic - 1.0)
    dev_s = abs(sudden - 1.0)
    ok = dev_a < 1e-2 and dev_s < 5e-2
    report(
        5,
        ok,
        f"adiabatic |R - 1| = {dev_a:.2e} (< 1e-2), "
        f"sudden |R - 1| = {dev_s:.2e} (< 5e-2)",
    )


def test_criterion_06_resonance_structure():
    # lambda = 10: the v-sweep maximum sits within a factor 3 of lambda, and
    # stacking cycles at the per-cycle-optimal v multiplies the maximum by a
    # factor in [lambda / 3, 3 lambda]; near-unity dips exist at small v
    lam = 10.0
    v_axis = GridAxis(0.01, 10.0, 200, "log")
    lam_axis = GridAxis(lam, lam, 1)
    maxima = []
    for n in (1, 2, 3):
        res = scan_gain("inverse-linear", v_axis, lam_axis, n_cycles=n)
        maxima.append(max(res.gain.tolist()))
    ratios = [maxima[1] / maxima[0], maxima[2] / maxima[1]]
    dips = find_unity_points(
        scan_gain("inverse-linear", GridAxis(0.02, 2.0, 400, "log"), lam_axis),
        tol=1e-3,
    )
    ok = (
        lam / 3.0 <= maxima[0] <= 3.0 * lam
        and all(lam / 3.0 <= r <= 3.0 * lam for r in ratios)
        and len(dips) >= 1
    )
    report(
        6,
        ok,
        f"R_max = {maxima[0]:.3f}, stack ratios = "
        f"{ratios[0]:.2f}, {ratios[1]:.2f}, near-unity dips = {len(dips)}",
    )


def test_criterion_07_bogoliubov_consistency():
    rng = np.random.default_rng(7)
    worst_gain = 0.0
    worst_unit = 0.0
    for _ in range(1000):
        s = random_symplectic(rng)
        pair = to_bogoliubov(s)
        r = gain_factor(s)
        worst_gain = max(
            worst_gain, abs(r - (1.0 + 2.0 * abs(pair.beta) ** 2)) / max(1.0, r)
        )
        worst_unit = max(worst_unit, pair.unitarity_error())
    worst_multi = 0.0
    monotone = True
    for _ in range(100):
        n = int(rng.integers(1, 5))
        t_end = float(rng.uniform(1.0, 3.0))
        coupling = random_coupling(rng, n, t_end)
        s = multimode_from_hamiltonian(coupling, t_end, GRID_CFG)
        worst_multi = max(worst_multi, symplectic_error(s))
        occ = rng.uniform(0.0, 2.0, size=n)
        final = Covariance.thermal(np.sqrt(coupling.d0), occ).evolved(s).occupations(np.sqrt(coupling.d1))
        monotone = monotone and final.sum() >= float(occ.sum()) - 1e-12
    ok = worst_gain <= 1e-12 and worst_unit <= 1e-9 and worst_multi <= 1e-8 and monotone
    report(
        7,
        ok,
        f"1e3 single-mode: worst R dev = {worst_gain:.1e}, unitarity = "
        f"{worst_unit:.1e}; 1e2 multimode: max|S J S^T - J| = {worst_multi:.1e}, "
        f"phonons monotone = {monotone}",
    )


def test_criterion_08_forced_oscillator_decomposition():
    # 1e2 random (profile, kappa) pairs with kappa(0) = kappa(T) = 0: the
    # matrix + trajectory decomposition matches the independent moment-ODE
    # oracle to 1e-8 and never drops below the initial energy
    rng = np.random.default_rng(88)
    worst = 0.0
    floor_ok = True
    for _ in range(100):
        profile = random_fourier_profile(rng)
        t_end = profile.duration
        coef = rng.normal(0.0, 0.5, size=3)

        def kappa(t: float, c=coef, t0=t_end) -> float:
            phase = math.pi * t / t0
            return sum(cj * math.sin((j + 1) * phase) for j, cj in enumerate(c))

        state = StationaryState(int(rng.integers(0, 4)))
        res = propagate_forced(profile, kappa, t_end, GRID_CFG)
        e_total = forced_final_energy(res, state, 1.0)
        oracle = moment_oracle(profile, kappa, t_end, state)
        worst = max(worst, abs(e_total - oracle))
        floor_ok = floor_ok and e_total >= state.energy - 1e-9
    ok = worst <= 1e-8 and floor_ok
    report(
        8,
        ok,
        f"100 (profile, kappa) pairs: worst |E - oracle| = {worst:.2e}, "
        f"E_f >= E_in everywhere = {floor_ok}",
    )


def test_criterion_09_perturbation_suite():
    # exhaustive ladder inequality for N <= 8, n <= 30, then the N = 2
    # first-order shift vs the exact evolution at eps = 1e-3: the gap is
    # O(eps^3) in size and scales cubically
    checked = 0
    all_ok = True
    for power in range(1, 9):
        rep = check_inequality(power, 30)
        checked += rep.checked
        all_ok = all_ok and rep.ok

    t_end = 6.0

    def gap(eps: float, n: int) -> float:
        def g(t: float) -> float:
            return eps * math.sin(math.pi * t / t_end) ** 2 * (1.0 + 0.6 * math.cos(2.1 * t))

        drive = Drive.from_callable(g, t_end)
        prof = Custom(lambda t: 1.0 + g(t), duration=t_end)
        s = propagate_ode(prof, t_end, TIGHT)
        exact = final_energy(s, StationaryState(n), 1.0) - (n + 0.5)
        return exact - first_order_energy_shift(drive, n, 2)

    eps = 1e-3
    size_ok = True
    for n in (0, 5):
        size_ok = size_ok and abs(gap(eps, n)) <= 30.0 * (n + 0.5) * eps**3
    ratio = abs(gap(2.0 * eps, 0) / gap(eps, 0))
    cubic_ok = 5.0 <= ratio <= 12.0
    ok = all_ok and size_ok and cubic_ok
    report(
        9,
        ok,
        f"{checked} ladder cases clean = {all_ok}; gap = O(eps^3): "
        f"size ok = {size_ok}, doubling ratio = {ratio:.2f}",
    )


def test_criterion_10_planck_shift():
    spec = CavitySpec(L0=7.0e-3, T=300.0, lam=1.0e-4, v=1.0e3)
    shift = shift_planck_spectrum(spec)
    t_target = spec.T / spec.lam
    exact = planck_density(shift.nu_after, t_target)
    pointwise = float(np.max(np.abs(shift.u_after / exact - 1.0)))
    fit_err = abs(shift.fitted_temperature - t_target) / t_target
    before = np.trapezoid(shift.u_before, shift.nu_before)
    after = np.trapezoid(shift.u_after, shift.nu_after)
    # total energy carries the lambda^3 volume factor
    ratio_err = abs(spec.lam**3 * after / before * spec.lam - 1.0)
    est = sonoluminescence_estimate(spec.lam)
    low, high = est.photon_count_range
    photons_ok = 1.0e4 <= low <= high <= 1.0e7
    ok = pointwise <= 1e-3 and fit_err <= 1e-3 and ratio_err <= 1e-3 and photons_ok
    report(
        10,
        ok,
        f"pointwise = {pointwise:.1e}, fitted T err = {fit_err:.1e}, "
        f"total-ratio err = {ratio_err:.1e}, photons in "
        f"[{low:.2e}, {high:.2e}]",
    )
