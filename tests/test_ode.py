"""Adaptive propagator: exact references, composition, and the forced map.

The forced-oscillator decomposition is checked against a fully independent
oracle that integrates the first and second moment equations directly:

    d<q>/dt   = <p>                  d<p>/dt   = -w^2 <q> + kappa
    d<q^2>/dt = 2<D>                 d<p^2>/dt = -2 w^2 <D> + 2 kappa <p>
    d<D>/dt   = <p^2> - w^2 <q^2> + kappa <q>

so the energy measured from transported moments never reuses the
matrix-plus-trajectory route it is validating.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from cyclosc import (
    Custom,
    DomainError,
    EvolutionMatrix,
    Exponential,
    IntegrationError,
    IntegratorConfig,
    InverseLinear,
    Piecewise,
    PowerLaw,
    StationaryState,
    Tabulated,
    TimeReversed,
    compose,
    forced_final_energy,
    propagate_forced,
    propagate_ode,
)

from oracles import moment_oracle

TIGHT = IntegratorConfig(rtol=1e-12, atol=1e-14)


class TestAgainstExactSolutions:
    def test_constant_frequency_is_rotation(self):
        prof = Custom(lambda t: 1.0, duration=10.0)
        for t in (0.5, 2.0, 7.3):
            s = propagate_ode(prof, t, TIGHT)
            expect = EvolutionMatrix.rotation(t)
            assert np.max(np.abs(s.as_array() - expect.as_array())) < 1e-10

    def test_constant_nonunit_frequency(self):
        w = 2.5
        prof = Custom(lambda t: w * w, duration=10.0)
        t = 1.7
        s = propagate_ode(prof, t, TIGHT)
        expect = np.array(
            [
                [math.cos(w * t), math.sin(w * t) / w],
                [-w * math.sin(w * t), math.cos(w * t)],
            ]
        )
        assert np.max(np.abs(s.as_array() - expect)) < 1e-10

    def test_det_drift_long_run(self):
        prof = InverseLinear(1.0, 0.01)
        s = propagate_ode(prof, prof.t_for_scale(10.0))  # t = 900
        assert s.det_error() < 1e-9


class TestComposition:
    def test_time_slicing(self):
        prof = Exponential(0.4)
        t1, t2 = 0.8, 2.0
        full = propagate_ode(prof, t2, TIGHT)
        first = propagate_ode(prof, t1, TIGHT)
        second = propagate_ode(prof, t2, TIGHT, t_start=t1)
        glued = compose(second, first)
        assert np.max(np.abs(full.as_array() - glued.as_array())) < 1e-8

    def test_piecewise_handoff(self):
        # a jump in omega between segments must not lose canonical structure
        segs = ((InverseLinear(1.0, 1.0), 1.0), (Exponential(-0.5), 1.2))
        prof = Piecewise(segs)
        s = propagate_ode(prof, prof.duration, TIGHT)
        part1 = propagate_ode(InverseLinear(1.0, 1.0), 1.0, TIGHT)
        part2 = propagate_ode(Exponential(-0.5), 1.2, TIGHT)
        expect = compose(part2, part1)
        assert np.max(np.abs(s.as_array() - expect.as_array())) < 1e-10
        assert s.det_error() < 1e-10

    def test_time_reversed_leg_inverts_with_sign_flip(self):
        # running a profile backwards gives K S^-1 K with K = diag(1, -1)
        prof = PowerLaw(-3.0, 0.7)
        t_end = prof.t_for_z(2.5)
        out = propagate_ode(prof, t_end, TIGHT)
        back = propagate_ode(TimeReversed(prof, t_end), t_end, TIGHT)
        expect = EvolutionMatrix(out.d, out.b, out.c, out.a)
        assert np.max(np.abs(back.as_array() - expect.as_array())) < 1e-9


class TestConfigAndErrors:
    def test_default_config_close_to_tight(self):
        prof = InverseLinear(1.0, 2.0)
        t = prof.t_for_scale(6.0)
        loose = propagate_ode(prof, t)
        ref = propagate_ode(prof, t, TIGHT)
        assert np.max(np.abs(loose.as_array() - ref.as_array())) < 1e-8

    def test_step_budget_enforced(self):
        cfg = IntegratorConfig(max_steps=10)
        with pytest.raises(IntegrationError):
            propagate_ode(InverseLinear(1.0, 0.001), 900.0, cfg)

    def test_backwards_interval_rejected(self):
        with pytest.raises(DomainError):
            propagate_ode(InverseLinear(1.0, 1.0), 1.0, t_start=2.0)

    def test_domain_violation_rejected(self):
        # inverse-linear hits omega -> inf at t = -1/v for v < 0
        with pytest.raises(DomainError):
            propagate_ode(InverseLinear(1.0, -1.0), 1.5)


class TestTabulated:
    def test_matches_smooth_source(self):
        times = np.linspace(0.0, 3.0, 601)
        omegas = np.exp(0.2 * np.sin(math.pi * times / 3.0))
        tab = Tabulated(tuple(times), tuple(omegas))
        smooth = Custom(
            lambda t: math.exp(0.4 * math.sin(math.pi * t / 3.0)), duration=3.0
        )
        s_tab = propagate_ode(tab, 3.0, TIGHT)
        s_smooth = propagate_ode(smooth, 3.0, TIGHT)
        # limited by PCHIP interpolation error on the 601-point table
        assert np.max(np.abs(s_tab.as_array() - s_smooth.as_array())) < 1e-5


class TestProfileDomain:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: Piecewise(((InverseLinear(1.0, 0.5), 1.0), (Exponential(0.2), 1.0))),
            lambda: Tabulated((0.0, 1.0, 2.0), (1.0, 1.2, 1.0)),
            lambda: Custom(lambda t: 1.0, duration=2.0),
            lambda: TimeReversed(InverseLinear(1.0, 0.5), 2.0),
        ],
        ids=["piecewise", "tabulated", "custom", "reversed"],
    )
    def test_container_profile_ends_at_its_duration(self, make):
        prof = make()
        prof.check_domain(2.0)
        with pytest.raises(DomainError, match=r"beyond the domain \[0, 2.0\]"):
            propagate_ode(prof, 2.1)

    def test_profile_without_duration_is_unbounded(self):
        for prof in (InverseLinear(1.0, 0.5), PowerLaw(-3.0, 0.5), Exponential(0.5), Custom(math.cos)):
            prof.check_domain(1e6)


class TestForced:
    def test_endpoint_drive_must_vanish(self):
        prof = Custom(lambda t: 1.0, duration=2.0)
        with pytest.raises(DomainError):
            propagate_forced(prof, lambda t: 1.0, 2.0)

    def test_zero_drive_reduces_to_matrix(self):
        prof = InverseLinear(1.0, 1.0)
        res = propagate_forced(prof, lambda t: 0.0, 1.0, TIGHT)
        plain = propagate_ode(prof, 1.0, TIGHT)
        assert np.max(np.abs(res.matrix.as_array() - plain.as_array())) < 1e-11
        assert res.qc == 0.0 and res.qc_dot == 0.0

    def test_resonant_kick_on_constant_frequency(self):
        # kappa = sin(t) on omega = 1 over one period: Q_c = (sin t - t cos t)/2
        t_end = 2.0 * math.pi
        prof = Custom(lambda t: 1.0, duration=t_end)
        res = propagate_forced(prof, math.sin, t_end, TIGHT)
        assert res.qc == pytest.approx(-t_end / 2.0 * math.cos(t_end), rel=1e-9)
        assert res.qc_dot == pytest.approx(t_end / 2.0 * math.sin(t_end), abs=1e-9)

    @pytest.mark.parametrize("n", [0, 2])
    def test_decomposition_against_moment_oracle(self, n):
        prof = Custom(
            lambda t: math.exp(0.3 * math.sin(math.pi * t / 4.0)), duration=4.0
        )

        def kappa(t):
            return 0.8 * math.sin(math.pi * t / 4.0) + 0.3 * math.sin(
                2.0 * math.pi * t / 4.0
            )

        state = StationaryState(n)
        res = propagate_forced(prof, kappa, 4.0, TIGHT)
        e_decomposed = forced_final_energy(res, state, 1.0)
        e_direct = moment_oracle(prof, kappa, 4.0, state)
        assert e_decomposed == pytest.approx(e_direct, abs=1e-8)
        assert e_decomposed >= state.energy - 1e-9


def test_integrated_results_are_python_floats():
    # closed forms return Python floats; integrated matrices must too, so a
    # gain prints the same whichever route built it
    from cyclosc import CycleSpec, cycle_gain, random_fourier_profile

    prof = random_fourier_profile(np.random.default_rng(1))
    gain = cycle_gain(CycleSpec("custom", profile=prof, duration=prof.duration))
    res = propagate_forced(prof, lambda t: math.sin(math.pi * t / prof.duration), prof.duration)
    for x in (gain, res.qc, res.qc_dot, *vars(res.matrix).values()):
        assert type(x) is float
    assert "np.float64" not in repr(gain) + repr(res)
