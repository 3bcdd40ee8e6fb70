"""Weak-drive transition probabilities and the nonnegative energy shift."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclosc.perturbation
from cyclosc import (
    Custom,
    DomainError,
    Drive,
    IntegratorConfig,
    QuadratureError,
    StationaryState,
    WindowedCarrier,
    check_inequality,
    final_energy,
    first_order_energy_shift,
    propagate_ode,
    transition_probability,
    x_power_matrix,
)
from cyclosc.perturbation import _amplitude, _ladder_column
from oracles import x_power_by_matrix_power

EPS = 1e-3
T_DRIVE = 6.0

# independently frozen for the reference drive below (4097 samples)
P02_FROZEN = 1.1253345841500404e-07
SHIFT5_FROZEN = 2.4757360851300871e-06
P04_QUARTIC_FROZEN = 8.852541287796223e-10


def reference_drive(eps: float = EPS, n_samples: int = 4097) -> Drive:
    def g(t: float) -> float:
        return eps * math.sin(math.pi * t / T_DRIVE) ** 2 * (1.0 + 0.6 * math.cos(2.1 * t))

    return Drive.from_callable(g, T_DRIVE, n_samples)


class TestLadderElements:
    def test_position_elements(self):
        x = x_power_matrix(1, 40)
        assert x[1, 0] == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert x[3, 2] == pytest.approx(math.sqrt(1.5), rel=1e-15)
        assert x[0, 0] == 0.0
        assert x[3, 1] == 0.0

    def test_square_elements(self):
        # x^2 diagonal is n + 1/2; two-step ladder is sqrt((n+1)(n+2))/2
        x2 = x_power_matrix(2, 40)
        assert x2[3, 3] == pytest.approx(3.5, rel=1e-15)
        assert x2[0, 2] == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)
        assert x2[2, 0] == x2[0, 2]
        assert x2[5, 1] == 0.0

    def test_quartic_diagonal(self):
        x4 = x_power_matrix(4, 40)
        for n in (0, 3, 7):
            want = 0.75 * (2.0 * n * n + 2.0 * n + 1.0)
            assert x4[n, n] == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("power", range(1, 9))
    def test_walk_matches_the_matrix_power_of_a_wide_basis(self, power):
        # the oracle's columns n < 64 - power carry no truncation error; its
        # zeros are exactly the walk's missing keys (the selection rule).
        # Both round: at (N, n, f) = (7, 37, 36) the walk is 1.8 ulp below a
        # 50-digit value and the matrix power 2.2 ulp above it.
        wide = x_power_by_matrix_power(power, 64)
        for n in range(41):
            column = _ladder_column(power, n)
            assert set(column) == set(np.flatnonzero(wide[:, n]).tolist()), n
            for f, element in column.items():
                assert abs(element - wide[f, n]) <= 4 * math.ulp(wide[f, n]), (n, f)

    @pytest.mark.parametrize("power", [1, 2, 3, 8])
    @pytest.mark.parametrize("cutoff", [1, 5, 12])
    def test_matrix_columns_are_the_walk_bit_for_bit(self, power, cutoff):
        matrix = x_power_matrix(power, cutoff)
        assert matrix.shape == (cutoff, cutoff)
        for n in range(cutoff):
            want = np.zeros(cutoff)
            for f, element in _ladder_column(power, n).items():
                if f < cutoff:
                    want[f] = element
            assert matrix[:, n].tobytes() == want.tobytes(), n

    def test_a_million_quanta_need_no_basis(self):
        n = 10**6
        d = reference_drive()
        column = _ladder_column(2, n)
        up, down = math.sqrt((n + 1) * (n + 2)) / 2.0, math.sqrt(n * (n - 1)) / 2.0
        assert abs(column[n + 2] - up) <= 4 * math.ulp(up)
        assert abs(column[n - 2] - down) <= 4 * math.ulp(down)
        assert abs(column[n] - (n + 0.5)) <= 4 * math.ulp(n + 0.5)
        a2 = abs(_amplitude(d, 2.0)) ** 2
        p_up, p_down = transition_probability(d, n, n + 2, 2), transition_probability(d, n, n - 2, 2)
        assert p_up == pytest.approx(a2 * up * up, rel=4e-15)
        assert p_down == pytest.approx(a2 * down * down, rel=4e-15)
        # the two channels, each weighted by its energy change; their sum
        # is |A|^2 (2n + 1), which cancels all but ~1e-6 of each term
        shift = first_order_energy_shift(d, n, 2)
        assert shift == -2.0 * p_down + 2.0 * p_up
        assert shift == pytest.approx(a2 * (2 * n + 1), rel=1e-9)

    @pytest.mark.parametrize("call", [
        lambda d: transition_probability(d, 0, 2, 2.5),
        lambda d: transition_probability(d, 0, 2, 0),
        lambda d: transition_probability(d, 0, 2, -2),
        lambda d: transition_probability(d, -1, 1, 2),
        lambda d: transition_probability(d, 0, -2, 2),
        lambda d: transition_probability(d, 0, 2.0, 2),
        lambda d: first_order_energy_shift(d, 0, 2.5),
        lambda d: first_order_energy_shift(d, 2.5, 2),
        lambda d: first_order_energy_shift(d, -1, 2),
        lambda d: check_inequality(2.5, 3),
        lambda d: check_inequality(0, 3),
        lambda d: check_inequality(2, -1),
        lambda d: x_power_matrix(0, 10),
        lambda d: x_power_matrix(2.5, 10),
        lambda d: x_power_matrix(2, 0),
        lambda d: x_power_matrix(2, 4.0),
        lambda d: x_power_matrix(True, 3),
        lambda d: check_inequality(True, 3),
        lambda d: transition_probability(d, True, 3, 2),
        lambda d: transition_probability(d, 1, True, 2),
        lambda d: first_order_energy_shift(d, True, 2),
        lambda d: Drive.from_callable(lambda t: 0.0, 1.0, 16.5),
        lambda d: Drive.from_callable(lambda t: 0.0, 1.0, True),
    ])
    def test_powers_and_state_indices_are_checked_alike(self, call):
        with pytest.raises(DomainError):
            call(reference_drive())


class TestDrive:
    def test_from_callable_roundtrip(self):
        d = reference_drive()
        assert d.t_final == T_DRIVE
        assert d.values[0] == 0.0 and d.values[-1] == pytest.approx(0.0, abs=1e-18)
        assert d.scale() > 0.0

    def test_samples_are_stored_once_as_read_only_arrays(self):
        t = np.linspace(0.0, 1.0, 5)
        d = Drive(t, [0.0, 1.0, 1.0, 1.0, 0.0])
        for samples in (d.times, d.values):
            assert samples.dtype == np.float64 and not samples.flags.writeable
        assert t.flags.writeable  # the caller's array is copied, not frozen
        assert d.t_final == 1.0 and d.scale() == 1.0

    def test_rejects_nonuniform_times(self):
        with pytest.raises(DomainError):
            Drive((0.0, 0.1, 0.3, 0.4, 0.5), (0.0, 1.0, 1.0, 1.0, 0.0))

    def test_rejects_nonzero_endpoints(self):
        t = tuple(np.linspace(0.0, 1.0, 5))
        with pytest.raises(DomainError):
            Drive(t, (0.5, 1.0, 1.0, 1.0, 0.0))
        with pytest.raises(DomainError):
            Drive(t, (0.0, 1.0, 1.0, 1.0, 0.5))

    def test_rejects_wrong_sample_count(self):
        t = tuple(np.linspace(0.0, 1.0, 6))
        with pytest.raises(DomainError):
            Drive(t, (0.0, 1.0, 1.0, 1.0, 1.0, 0.0))
        with pytest.raises(DomainError):
            Drive((0.0, 1.0), (0.0, 0.0))


class TestTransitionProbability:
    def test_parity_selection_rule_is_exact(self):
        d = reference_drive()
        assert transition_probability(d, 0, 1, 2) == 0.0
        assert transition_probability(d, 0, 3, 2) == 0.0
        assert transition_probability(d, 0, 4, 2) == 0.0  # beyond reach of x^2
        assert transition_probability(d, 5, 0, 3) == 0.0
        assert transition_probability(d, 2, 2, 3) == 0.0

    def test_frozen_value_and_detailed_balance(self):
        d = reference_drive()
        p02 = transition_probability(d, 0, 2, 2)
        assert p02 == pytest.approx(P02_FROZEN, rel=1e-10)
        # real drive: the +2 and -2 Fourier amplitudes are conjugates
        assert transition_probability(d, 2, 0, 2) == p02

    def test_quartic_frozen_value(self):
        d = reference_drive()
        assert transition_probability(d, 0, 4, 4) == pytest.approx(
            P04_QUARTIC_FROZEN, rel=1e-10
        )

    @pytest.mark.parametrize("carrier,n_samples", [(300.0, 33), (1500.0, 4097)])
    def test_undersampled_data_is_rejected(self, carrier, n_samples):
        # raw sample data that cannot represent its carrier; caught at
        # integration time by the swing and grid-halving checks
        t = np.linspace(0.0, T_DRIVE, n_samples)
        w = np.sin(np.pi * t / T_DRIVE) ** 2 * np.cos(carrier * t)
        w[0] = w[-1] = 0.0
        fast = Drive(tuple(t), tuple(w))
        with pytest.raises(QuadratureError):
            transition_probability(fast, 0, 2, 2)

    def test_aliasing_onto_a_smooth_curve_is_caught_at_sampling(self):
        # 4000 * h is just short of 2 pi, so the sampled values trace a slow
        # clean cosine; only off-grid probes of the callable can tell
        with pytest.raises(QuadratureError):
            Drive.from_callable(
                lambda t: math.sin(math.pi * t / T_DRIVE) ** 2 * math.cos(4000.0 * t),
                T_DRIVE,
                n_samples=4097,
            )

    @pytest.mark.parametrize("eps, t_end, freq", [(1e-3, 6.0, 2.0), (0.0012, 6.0, 1.7), (0.01, 9.5, 5.3)])
    def test_carrier_samples_in_one_call_with_the_bits_of_its_scalar_calls(self, eps, t_end, freq):
        carrier = WindowedCarrier(eps, t_end, freq)
        stacked = Drive.from_callable(carrier, t_end)
        per_point = Drive.from_callable(lambda t: carrier(t), t_end)
        assert stacked.values.tobytes() == per_point.values.tobytes()
        assert stacked.values[0] == 0.0 and stacked.values[-1] == carrier(t_end)

    def test_aliased_carrier_is_caught_by_the_stacked_probes(self):
        with pytest.raises(QuadratureError):
            Drive.from_callable(WindowedCarrier(1.0, T_DRIVE, 4000.0), T_DRIVE, n_samples=4097)


class TestAmplitudes:
    def test_each_frequency_is_integrated_once_per_drive(self, monkeypatch):
        integrate = cyclosc.perturbation._oscillatory_integral
        calls = []

        def counted(drive, omega_fi):
            calls.append(omega_fi)
            return integrate(drive, omega_fi)

        monkeypatch.setattr(cyclosc.perturbation, "_oscillatory_integral", counted)
        drive = reference_drive()
        # perturb --power 4 --n-max 10: 56 amplitudes at 4 frequencies
        for n in range(11):
            first_order_energy_shift(drive, n, 4)
            transition_probability(drive, n, n + 4, 4)
            if n >= 4:
                transition_probability(drive, n, n - 4, 4)
        assert sorted(calls) == [-4.0, -2.0, 2.0, 4.0]
        first_order_energy_shift(reference_drive(), 0, 4)
        assert len(calls) == 6  # a new drive integrates afresh

    def test_results_are_python_floats(self):
        d = reference_drive()
        values = [
            transition_probability(d, 3, 5, 2),
            transition_probability(d, 3, 4, 2),
            first_order_energy_shift(d, 3, 2),
            first_order_energy_shift(d, 0, 1),
        ]
        assert [type(x) for x in values] == [float] * 4


class TestInequality:
    @pytest.mark.parametrize("power", [1, 2, 3, 4])
    def test_upward_dominates_downward(self, power):
        rep = check_inequality(power, n_max=15)
        assert rep.ok
        assert rep.checked > 0
        assert rep.violations == ()

    def test_report_counts(self):
        # N = 2: only m = 2 survives parity, needing n >= 2: that is n_max - 1 cases
        rep = check_inequality(2, n_max=10)
        assert rep.checked == 9


class TestEnergyShift:
    def test_matches_pair_decomposition_at_n0(self):
        # from the ground state only the upward m = 2 channel is open
        d = reference_drive()
        shift = first_order_energy_shift(d, 0, 2)
        assert shift == pytest.approx(2.0 * transition_probability(d, 0, 2, 2), rel=1e-14)

    def test_frozen_value_n5(self):
        d = reference_drive()
        assert first_order_energy_shift(d, 5, 2) == pytest.approx(SHIFT5_FROZEN, rel=1e-10)

    def test_quadratic_scaling_is_exact(self):
        base = first_order_energy_shift(reference_drive(EPS), 0, 2)
        doubled = first_order_energy_shift(reference_drive(2.0 * EPS), 0, 2)
        assert doubled == 4.0 * base

    @pytest.mark.parametrize("n", [0, 2, 5, 9])
    def test_nonnegative(self, n):
        d = reference_drive()
        assert first_order_energy_shift(d, n, 2) >= 0.0
        assert first_order_energy_shift(d, n, 3) >= 0.0

    @pytest.mark.parametrize("n", [0, 5])
    def test_shift_agrees_with_exact_evolution_to_cubic_order(self, n):
        # omega^2(t) = 1 + delta(t) realizes the (delta/2) x^2 perturbation;
        # the first-order shift should miss the exact energy change only at
        # O(eps^3) (the eps^2 pieces cancel between up and down channels)
        cfg = IntegratorConfig(rtol=1e-12, atol=1e-14)
        prof = Custom(
            lambda t: 1.0
            + EPS * math.sin(math.pi * t / T_DRIVE) ** 2 * (1.0 + 0.6 * math.cos(2.1 * t)),
            duration=T_DRIVE,
        )
        s = propagate_ode(prof, T_DRIVE, cfg)
        e_in = n + 0.5
        exact = final_energy(s, StationaryState(n), 1.0) - e_in
        shift = first_order_energy_shift(reference_drive(), n, 2)
        assert abs(exact - shift) < 2.0 * e_in * EPS**3

    def test_remainder_shrinks_cubically(self):
        # halving eps shrinks the (exact - first order) gap by about 8
        cfg = IntegratorConfig(rtol=1e-13, atol=1e-15)

        def gap(eps: float) -> float:
            prof = Custom(
                lambda t: 1.0
                + eps * math.sin(math.pi * t / T_DRIVE) ** 2 * (1.0 + 0.6 * math.cos(2.1 * t)),
                duration=T_DRIVE,
            )
            s = propagate_ode(prof, T_DRIVE, cfg)
            exact = final_energy(s, StationaryState(0), 1.0) - 0.5
            return exact - first_order_energy_shift(reference_drive(eps), 0, 2)

        g1, g2 = gap(2e-3), gap(1e-3)
        assert abs(g1 / g2) == pytest.approx(8.0, rel=0.15)


@given(
    n=st.integers(min_value=0, max_value=12),
    power=st.integers(min_value=1, max_value=4),
    amp=st.floats(min_value=1e-4, max_value=0.05),
    wobble=st.floats(min_value=-0.8, max_value=0.8),
)
@settings(max_examples=40, deadline=None)
def test_property_energy_shift_never_negative(n, power, amp, wobble):
    def g(t: float) -> float:
        return amp * math.sin(math.pi * t / 5.0) ** 2 * (1.0 + wobble * math.cos(1.7 * t))

    d = Drive.from_callable(g, 5.0, n_samples=2049)
    assert first_order_energy_shift(d, n, power) >= 0.0
