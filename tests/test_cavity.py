"""Multimode maps and their moments, thermal occupations, remark (vi)'s
energy theorem, and the shifted Planck spectrum."""

from __future__ import annotations

import math

import numpy as np
import pytest
from oracles import mode_map, phonon_numbers
from scipy.optimize import brentq

from cyclosc import (
    BOLTZMANN_K,
    LIGHT_C,
    PLANCK_H,
    STEFAN_SIGMA,
    WIEN_X,
    CavitySpec,
    Covariance,
    DomainError,
    EvolutionMatrix,
    IntegrationError,
    IntegratorConfig,
    WindowedCoupling,
    gain_factor,
    multimode_from_hamiltonian,
    multimode_from_hamiltonian_batch,
    planck_density,
    propagate_ode,
    random_coupling,
    random_fourier_profile,
    random_symplectic,
    shift_planck_spectrum,
    sonoluminescence_estimate,
    symplectic_error,
    thermal_occupation,
    to_bogoliubov,
)

TIGHT = IntegratorConfig(rtol=1e-12, atol=1e-14)


class TestMultimode:
    def test_constant_frequency_is_pure_phase(self):
        w, t = 1.7, 2.3
        s = multimode_from_hamiltonian(lambda _: np.array([[w * w]]), t, TIGHT)
        a_mat, b_mat = mode_map(s, [w * w], [w * w])
        assert abs(a_mat[0, 0] - np.exp(-1j * w * t)) < 1e-10
        assert abs(b_mat[0, 0]) < 1e-10
        assert symplectic_error(s) < 1e-10

    def test_single_mode_matches_scalar_route(self):
        # same profile through the 2x2 matrix machinery and the N = 1
        # Hamiltonian integrator; both endpoints sit at omega = 1
        rng = np.random.default_rng(11)
        prof = random_fourier_profile(rng)
        one = propagate_ode(prof, prof.duration, TIGHT)
        pair = to_bogoliubov(one)
        s = multimode_from_hamiltonian(
            lambda t: np.array([[prof.omega_sq(t)]]), prof.duration, TIGHT
        )
        a_mat, b_mat = mode_map(s, [1.0], [1.0])
        assert abs(a_mat[0, 0] - pair.alpha) < 1e-9
        assert abs(b_mat[0, 0] - pair.beta) < 1e-9
        assert np.max(np.abs(s - one.as_array())) < 1e-9

    def test_step_budget_applies(self):
        # ~46 steps at the default tolerances; the budget allows 10
        coupling = random_coupling(np.random.default_rng(3), 3, 10.0)
        with pytest.raises(IntegrationError, match="step budget"):
            multimode_from_hamiltonian(coupling, 10.0, IntegratorConfig(max_steps=10))

    @pytest.mark.parametrize("n_modes", [2.5, "3", 0, -1, 3.0, True])
    def test_random_coupling_refuses_a_mode_count_that_is_not_a_whole_number(self, n_modes):
        with pytest.raises(DomainError, match="n_modes must be an integer >= 1"):
            random_coupling(np.random.default_rng(0), n_modes, 1.0)

    @pytest.mark.parametrize("n_modes", [2, 4])
    def test_random_coupling_preserves_commutators(self, n_modes):
        rng = np.random.default_rng(100 + n_modes)
        for _ in range(4):
            coupling = random_coupling(rng, n_modes, 3.0)
            s = multimode_from_hamiltonian(coupling, 3.0, TIGHT)
            assert s.shape == (2 * n_modes, 2 * n_modes)
            assert symplectic_error(s) < 1e-9
            # the complex relations of the mode map hold to the same order
            a_mat, b_mat = mode_map(s, coupling.d0, coupling.d1)
            unit = a_mat @ a_mat.conj().T - b_mat @ b_mat.conj().T - np.eye(n_modes)
            assert np.max(np.abs(unit)) < 1e-9
            assert np.max(np.abs(a_mat @ b_mat.T - b_mat @ a_mat.T)) < 1e-9

    def test_phonon_number_two_routes_and_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            n_modes = int(rng.integers(1, 5))
            coupling = random_coupling(rng, n_modes, 2.5)
            s = multimode_from_hamiltonian(coupling, 2.5, TIGHT)
            occ = rng.uniform(0.0, 3.0, size=n_modes)
            start = Covariance.thermal(np.sqrt(coupling.d0), occ)
            final = start.evolved(s).occupations(np.sqrt(coupling.d1))
            # the mode map's expectation of each final number operator
            direct = phonon_numbers(s, coupling.d0, coupling.d1, occ)
            assert final == pytest.approx(direct, rel=1e-10, abs=1e-12)
            assert final.sum() >= occ.sum() - 1e-12

    def test_validation(self):
        good = lambda t: np.diag([1.0, 2.0])
        with pytest.raises(DomainError):
            multimode_from_hamiltonian(good, 0.0)
        with pytest.raises(DomainError):  # asymmetric
            multimode_from_hamiltonian(lambda t: np.array([[1.0, 0.2], [0.0, 2.0]]), 1.0)
        with pytest.raises(DomainError):  # endpoint not diagonal
            multimode_from_hamiltonian(lambda t: np.array([[1.0, 0.5], [0.5, 2.0]]), 1.0)
        with pytest.raises(DomainError):  # nonpositive frequency
            multimode_from_hamiltonian(lambda t: np.diag([1.0, -2.0]), 1.0)
        s = multimode_from_hamiltonian(good, 1.0, TIGHT)
        with pytest.raises(DomainError):
            Covariance.thermal([1.0, math.sqrt(2.0)], [1.0]).evolved(s)
        with pytest.raises(DomainError):
            Covariance.thermal([1.0, math.sqrt(2.0)], [1.0, -0.5]).evolved(s)
        with pytest.raises(DomainError):
            Covariance.thermal([1.0], [1.0]).evolved(s)  # a 2 x 2 state, a 4 x 4 map

    def test_batch_over_mode_counts_equals_batches_of_one(self):
        rng = np.random.default_rng(41)
        sizes = [2, 3, 4, 3, 2, 4]
        t_ends = [float(rng.uniform(1.0, 3.0)) for _ in sizes]
        couplings = [random_coupling(rng, n, t) for n, t in zip(sizes, t_ends)]
        # a plain function among the stacked couplings: the same W(t) per point
        couplings.append(lambda t, w=couplings[0]: w(t))
        t_ends.append(t_ends[0])
        batch = multimode_from_hamiltonian_batch(couplings, t_ends)
        assert [len(s) // 2 for s in batch] == sizes + [2]
        for coupling, t_end, s in zip(couplings, t_ends, batch):
            assert np.array_equal(s, multimode_from_hamiltonian(coupling, t_end))
        assert np.array_equal(batch[0], batch[-1])

    @pytest.mark.parametrize("bad, t_end, message", [
        (lambda t: np.diag([1.0, 2.0]), 0.0, "t_final must be positive and finite, got 0.0"),
        (lambda t: np.diag([1.0, 2.0]), math.inf, "t_final must be positive and finite, got inf"),
        (lambda t: np.ones((2, 3)), 1.0, "coupling must return a square matrix of fixed size"),
        (lambda t: np.array([[1.0, 0.2], [0.0, 2.0]]), 1.0, "coupling matrix must be symmetric"),
        (lambda t: np.array([[1.0, 0.5], [0.5, 2.0]]), 1.0,
         "initial coupling matrix must be diagonal in the mode basis"),
        (lambda t: np.diag([1.0, 2.0]) + 0.5 * t * (1.0 - np.eye(2)), 1.0,
         "final coupling matrix must be diagonal in the mode basis"),
        (lambda t: np.diag([1.0, -2.0]), 1.0, "initial squared frequencies must be positive"),
        (lambda t: np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0,
         "initial coupling matrix has non-finite entries [nan]"),
        (lambda t: np.array([[1.0, 0.0], [0.0, np.inf]]), 1.0,
         "initial coupling matrix has non-finite entries [inf]"),
        (lambda t: np.array([[1.0, np.nan], [np.nan, 1.0]]), 1.0,
         "initial coupling matrix has non-finite entries [nan, nan]"),
        (lambda t: np.diag([1.0, 2.0 if t < 1.0 else np.nan]), 1.0,
         "final coupling matrix has non-finite entries [nan]"),
    ])
    def test_bad_coupling_in_a_batch_raises_its_own_message(self, bad, t_end, message):
        good = random_coupling(np.random.default_rng(5), 3, 2.0)
        with pytest.raises(DomainError) as single:
            multimode_from_hamiltonian(bad, t_end)
        assert str(single.value) == message
        with pytest.raises(DomainError) as batch:
            multimode_from_hamiltonian_batch([good, bad, good], [2.0, t_end, 2.0])
        assert str(batch.value) == message
        with pytest.raises(DomainError, match="one t_final per coupling"):
            multimode_from_hamiltonian_batch([good, good], [2.0])

    def test_random_coupling_endpoints(self):
        rng = np.random.default_rng(3)
        coupling = random_coupling(rng, 3, 4.0)
        for t in (0.0, 4.0):
            # sin(pi) is ~1e-16 in floats, so "diagonal" means below 1e-30
            w = coupling(t)
            assert np.max(np.abs(w - np.diag(np.diag(w)))) < 1e-30
        mid = coupling(2.0)
        assert np.max(np.abs(mid - mid.T)) < 1e-12
        assert np.max(np.abs(mid - np.diag(np.diag(mid)))) > 0.0


class TestThermal:
    def test_occupation_hand_value(self):
        assert thermal_occupation(1.0, 1.5) == pytest.approx(
            1.0 / math.expm1(2.0 / 3.0), rel=1e-15
        )
        with pytest.raises(DomainError):
            thermal_occupation(-1.0, 1.0)
        with pytest.raises(DomainError):
            thermal_occupation(1.0, 0.0)

    def test_gain_weighted_sum(self):
        # modes cycled independently (a block-diagonal S) from a thermal start
        # at omega = 1: each mode's energy is multiplied by its own gain
        rng = np.random.default_rng(5)
        s1, s2 = random_symplectic(rng), random_symplectic(rng)
        s = np.zeros((4, 4))
        s[np.ix_([0, 2], [0, 2])] = s1.as_array()
        s[np.ix_([1, 3], [1, 3])] = s2.as_array()
        omegas = [1.0, 1.0]
        occ = [thermal_occupation(1.0, 1.0), thermal_occupation(1.0, 0.3)]
        start = Covariance.thermal(omegas, occ)
        e0 = [n + 0.5 for n in occ]
        assert start.energy(omegas) == pytest.approx(sum(e0), rel=1e-14)
        e_fin = start.evolved(s).energy(omegas)
        assert e_fin == pytest.approx(gain_factor(s1) * e0[0] + gain_factor(s2) * e0[1], rel=1e-14)
        assert e_fin >= start.energy(omegas)


def _closed_couplings():
    """40 closed cycles of couplings, W(T) = W(0), from random_coupling
    draws (seed 11), with a Bose-Einstein temperature each."""
    rng = np.random.default_rng(11)
    draws = []
    for _ in range(40):
        n = int(rng.integers(2, 6))
        t_final = float(rng.uniform(1.0, 20.0))
        k_t = math.exp(rng.uniform(math.log(0.05), math.log(5.0)))
        w = random_coupling(rng, n, t_final)
        draws.append((WindowedCoupling(w.d0, w.d0, w.c, t_final), k_t))
    return draws


class TestRemarkVi:
    """N oscillators that start in thermal equilibrium (or in their ground
    state) and are taken around a closed cycle of couplings never lose
    energy: Gibbs states are passive.  An inverted start can lose energy."""

    @pytest.fixture(scope="class")
    def cycles(self):
        draws = _closed_couplings()
        maps = multimode_from_hamiltonian_batch([c for c, _ in draws], [c.t_final for c, _ in draws], TIGHT)
        return [(c, k_t, s) for (c, k_t), s in zip(draws, maps)]

    def test_maps_are_symplectic(self, cycles):
        for _, _, s in cycles:
            assert symplectic_error(s) < 1e-11 * np.vdot(s, s) / len(s)

    def test_gibbs_and_ground_starts_never_lose_energy(self, cycles):
        for coupling, k_t, s in cycles:
            omegas = np.sqrt(coupling.d0)
            gibbs = [thermal_occupation(w, k_t) for w in omegas]
            for occ in (gibbs, np.zeros(omegas.size)):
                start = Covariance.thermal(omegas, occ)
                e_i = start.energy(omegas)
                assert start.evolved(s).energy(omegas) >= e_i * (1.0 - 1e-10)

    def test_an_inverted_start_can_lose_energy(self, cycles):
        # 5 quanta in the upper mode of two, none in the lower: not passive
        changes = []
        for coupling, _, s in cycles:
            if coupling.d0.size == 2:
                omegas = np.sqrt(coupling.d0)
                occ = np.where(omegas == omegas.max(), 5.0, 0.0)
                start = Covariance.thermal(omegas, occ)
                changes.append(start.evolved(s).energy(omegas) - start.energy(omegas))
        assert changes and min(changes) < 0.0


class TestCavitySpec:
    def test_wall_speed_and_adiabaticity(self):
        spec = CavitySpec(L0=7.0e-3, T=300.0, lam=1.0e-4, v=1.0e3)
        assert spec.wall_speed == pytest.approx(7.0, rel=1e-15)
        assert spec.mode_adiabaticity() == pytest.approx(
            math.pi * LIGHT_C / 7.0, rel=1e-12
        )

    def test_static_walls_are_perfectly_adiabatic(self):
        spec = CavitySpec(L0=1.0, T=300.0, lam=0.5, v=0.0)
        assert spec.mode_adiabaticity() == math.inf

    def test_relativistic_wall_rejected(self):
        with pytest.raises(DomainError):
            CavitySpec(L0=7.0e-3, T=300.0, lam=1.0e-4, v=1.0e10)

    def test_positivity(self):
        with pytest.raises(DomainError):
            CavitySpec(L0=-1.0, T=300.0, lam=0.5, v=0.0)


class TestPlanck:
    def test_density_peaks_at_wien_frequency(self):
        t = 300.0
        scale = BOLTZMANN_K * t / PLANCK_H
        nus = np.linspace(0.5, 8.0, 200001) * scale
        us = planck_density(nus, t)
        peak = nus[np.argmax(us)]
        assert peak == pytest.approx(WIEN_X * scale, rel=1e-4)

    def test_wien_constant_is_the_fixed_point(self):
        # peak of nu^3 / (e^x - 1): 3 (1 - e^-x) = x
        root = brentq(lambda x: 3.0 * (1.0 - math.exp(-x)) - x, 1.0, 5.0, xtol=1e-15)
        assert root == pytest.approx(WIEN_X, rel=1e-14)

    def test_total_density_matches_radiation_constant(self):
        t = 5000.0
        scale = BOLTZMANN_K * t / PLANCK_H
        nus = np.geomspace(1e-3 * scale, 50.0 * scale, 20001)
        total = np.trapezoid(planck_density(nus, t), nus)
        a_rad = 8.0 * math.pi**5 * BOLTZMANN_K**4 / (15.0 * PLANCK_H**3 * LIGHT_C**3)
        assert total == pytest.approx(a_rad * t**4, rel=1e-6)
        # the rounded tabulated constant sits within 2 percent of that
        assert STEFAN_SIGMA == pytest.approx(a_rad, rel=0.02)

    def test_shift_is_exactly_planck_at_scaled_temperature(self):
        spec = CavitySpec(L0=7.0e-3, T=300.0, lam=1.0e-4, v=1.0e3)
        shift = shift_planck_spectrum(spec)
        want = planck_density(shift.nu_after, spec.T / spec.lam)
        assert np.max(np.abs(shift.u_after / want - 1.0)) < 1e-12
        assert shift.fitted_temperature == pytest.approx(spec.T / spec.lam, rel=1e-6)

    def test_total_energy_scales_inversely_with_lambda(self):
        # spectral density integral alone picks up 1/lam^4; the lam^3 volume
        # factor brings the total energy ratio to 1/lam
        spec = CavitySpec(L0=7.0e-3, T=300.0, lam=1.0e-4, v=1.0e3)
        shift = shift_planck_spectrum(spec)
        before = np.trapezoid(shift.u_before, shift.nu_before)
        after = np.trapezoid(shift.u_after, shift.nu_after)
        ratio = spec.lam**3 * after / before
        assert ratio == pytest.approx(1.0 / spec.lam, rel=1e-12)

    def test_n_points_floor(self):
        spec = CavitySpec(L0=7.0e-3, T=300.0, lam=1.0e-4, v=1.0e3)
        with pytest.raises(DomainError):
            shift_planck_spectrum(spec, n_points=8)

    def test_fastest_valid_wall_is_adiabatic(self):
        # |V|/c < 1e-3 already implies Omega_1 = pi c / |V| > 1000 pi
        spec = CavitySpec(L0=1.0, T=300.0, lam=0.5, v=0.999e-3 * LIGHT_C)
        assert spec.mode_adiabaticity() > 1e3 * math.pi
        assert shift_planck_spectrum(spec, n_points=16).nu_after.size == 16

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_wall_speed_bound_is_the_adiabaticity_condition(self, sign):
        # |V|/c = 1e-3 itself is refused, for a contracting or expanding wall
        with pytest.raises(DomainError, match="not small"):
            CavitySpec(L0=1.0, T=300.0, lam=0.5, v=sign * 1e-3 * LIGHT_C)
        fast = CavitySpec(L0=2.0, T=300.0, lam=0.5, v=sign * 0.4999e-3 * LIGHT_C)
        assert fast.mode_adiabaticity() > 1e3 * math.pi


class TestSonoluminescence:
    def test_bubble_scale_numbers(self):
        est = sonoluminescence_estimate(1.0e-4)
        stored = STEFAN_SIGMA * 300.0**4 * (7.0e-3) ** 3
        assert est.excess_energy == pytest.approx(stored * 9999.0, rel=1e-12)
        assert est.excess_energy == pytest.approx(2.122e-7, rel=1e-3)
        low, high = est.photon_count_range
        assert low == pytest.approx(est.excess_energy / (BOLTZMANN_K * 1.0e5), rel=1e-12)
        assert high == pytest.approx(est.excess_energy / (BOLTZMANN_K * 1.0e4), rel=1e-12)
        assert 1.0e4 <= low <= high <= 1.0e7
        assert est.effective_temperature == pytest.approx(3.0e6, rel=1e-12)

    def test_rejects_non_contraction(self):
        for lam in (1.0, 2.0, 0.0, -0.5):
            with pytest.raises(DomainError):
                sonoluminescence_estimate(lam)
        with pytest.raises(DomainError):
            sonoluminescence_estimate(0.5, temperature=0.0)
