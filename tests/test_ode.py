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
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosc import ode
from cyclosc import (
    DEFAULT_CONFIG,
    Custom,
    DomainError,
    EvolutionMatrix,
    Exponential,
    Fourier,
    IntegrationError,
    IntegratorConfig,
    InverseLinear,
    Piecewise,
    PowerLaw,
    SineSeries,
    StationaryState,
    Tabulated,
    TimeReversed,
    WindowedCarrier,
    compose,
    forced_final_energy,
    multimode_from_hamiltonian,
    propagate_forced,
    propagate_forced_batch,
    propagate_ode,
    propagate_ode_batch,
    random_coupling,
    random_fourier_profile,
    random_piecewise_cycle,
)
from cyclosc.profiles import LaneMap

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

    def test_nan_frequency_fails_fast(self):
        # a NaN first step (omega(0) = NaN) starts at the minimum step and
        # fails there, instead of running through the step budget
        with pytest.raises(IntegrationError, match="spacing between numbers"):
            propagate_ode(Custom(lambda t: math.nan, duration=1.0), 1.0)

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

    def test_scale_behind_a_pole_is_refused(self):
        # 1 + v t = -1 at t = 2, past the pole at t = 1; exp(v t) is never -1
        for t_for in (InverseLinear(1.0, -1.0).t_for_scale, PowerLaw(-3.0, -1.0).t_for_z,
                      Exponential(-1.0).t_for_z):
            with pytest.raises(DomainError, match="must be positive"):
                t_for(-1.0)

    @pytest.mark.parametrize("call,message", [
        (lambda: InverseLinear(1.0, -1.0).check_domain(2.0), "1 + v t vanishes before t_final = 2.0 (v = -1.0)"),
        (lambda: PowerLaw(-3.0, -1.0).check_domain(2.0), "z = 1 + v t vanishes before t_final = 2.0 (v = -1.0)"),
        (lambda: InverseLinear(1.0, 1.0).t_for_scale(0.5), "scale 0.5 is not reachable with rate v = 1.0"),
        (lambda: PowerLaw(-3.0, 1.0).t_for_z(0.5), "z_final = 0.5 is not reachable with rate v = 1.0"),
        (lambda: Exponential(1.0).t_for_z(0.5), "z_final = 0.5 is not reachable with rate v = 1.0"),
        (lambda: InverseLinear(1.0, 0.0).t_for_scale(2.0), "v = 0 profile never leaves lambda = 1"),
        (lambda: PowerLaw(-3.0, 0.0).t_for_z(2.0), "v = 0 profile never leaves z = 1"),
        (lambda: PowerLaw(-3.0, 1.0).t_for_z(0.0), "z_final must be positive, got 0.0"),
    ])
    def test_each_family_words_its_domain_errors(self, call, message):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message

    def test_time_to_scale_inverts_the_running_scale(self):
        for prof, s in ((InverseLinear(1.0, 0.5), 3.0), (PowerLaw(-3.0, -0.25), 0.75),
                        (Exponential(0.5), 3.0), (Exponential(-2.0), 0.75)):
            assert prof.scale(prof.t_for_scale(s)) == pytest.approx(s, rel=1e-15)

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

    def test_piecewise_cycles_take_their_own_duration(self):
        # duration sums the segment durations, and omega_sq subtracts them one
        # at a time: at t = duration the remainder can come out past the last
        # segment, which must still take it (13 of these 40 cycles)
        profs = [random_piecewise_cycle(np.random.default_rng(seed)) for seed in range(40)]
        for prof in profs:
            last, dur = prof.segments[-1]
            assert prof.omega_sq(prof.duration) == pytest.approx(last.omega_sq(dur), rel=1e-12)
            with pytest.raises(DomainError):
                prof.omega_sq(prof.duration * (1.0 + 1e-9))
        durations = [prof.duration for prof in profs]
        forced = propagate_forced_batch(profs, [lambda t: 0.0] * len(profs), durations)
        for res, plain in zip(forced, propagate_ode_batch(profs, durations)):
            assert np.max(np.abs(res.matrix.as_array() - plain.as_array())) < 1e-9

    def test_piecewise_drives_stay_on_their_array_formula(self, monkeypatch):
        # every piece reads its drive at t + edge through the stacked formula,
        # so the only scalar calls left are each run's two endpoint checks
        rng = np.random.default_rng(33)
        profiles = [random_piecewise_cycle(rng) for _ in range(20)]
        kappas = [SineSeries(rng.normal(0.0, 0.5, size=3), p.duration) for p in profiles]
        calls, scalar = [], SineSeries.__call__
        monkeypatch.setattr(SineSeries, "__call__", lambda f, t: calls.append(t) or scalar(f, t))
        propagate_forced_batch(profiles, kappas, [p.duration for p in profiles])
        assert calls == [t for p in profiles for t in (0.0, p.duration)]

    def test_driven_nested_piecewise_against_segmentwise_scipy(self):
        # the oracle integrates each constant-omega segment on its own and
        # hands the state, Q_c and dQ_c included, across the jumps
        omegas, durations = (1.0, 2.3, 0.7), (1.1, 0.9, 1.6)
        segments = [(Custom(lambda t, w=w: w * w, duration=d), d) for w, d in zip(omegas, durations)]
        inner = Piecewise(tuple(segments[1:]))
        prof = Piecewise((segments[0], (inner, inner.duration)))
        kappa = SineSeries((0.4, -0.3, 0.2), prof.duration)
        res = propagate_forced(prof, kappa, prof.duration)
        y, edge = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), 0.0
        for w, dur in zip(omegas, durations):
            def rhs(t, y, w2=w * w, edge=edge):
                return np.array([y[1], -w2 * y[0], y[3], -w2 * y[2], y[5], -w2 * y[4] + kappa(t + edge)])

            y = _scipy_final(rhs, y, dur, w, IntegratorConfig(rtol=1e-13, atol=1e-15))
            edge += dur
        q1, p1, q2, p2, qc, pc = y
        assert np.max(np.abs(res.matrix.as_array() - [[q1, q2], [p1, p2]])) <= 1e-10
        assert max(abs(res.qc - qc), abs(res.qc_dot - pc)) <= 1e-10

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


def _scipy_final(rhs, y0, t_final, omega_start, cfg):
    """Final state from scipy's DOP853 at cfg's tolerances and our first step."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    sol = scipy_solve_ivp(
        rhs, (0.0, t_final), y0, method="DOP853", rtol=cfg.rtol, atol=cfg.atol,
        first_step=min(0.1 / max(omega_start, 1.0), t_final),
    )
    assert sol.success
    return sol.y[:, -1]


def _scipy_matrix(prof, t_final, cfg=DEFAULT_CONFIG):
    def rhs(t, y):
        w2 = prof.omega_sq(t)
        return np.array([y[1], -w2 * y[0], y[3], -w2 * y[2]])

    w0 = math.sqrt(prof.omega_sq(0.0))
    q1, p1, q2, p2 = _scipy_final(rhs, np.array([1.0, 0.0, 0.0, 1.0]), t_final, w0, cfg)
    return np.array([[q1, q2], [p1, p2]])


# a reference an order of magnitude tighter than TIGHT
REFERENCE = IntegratorConfig(rtol=1e-13, atol=1e-15)


def _one_lane(prof, t_final, cfg, kappa=None):
    """Final (Q; P) of the whole span run as one lane of ode._run_lanes, with
    no time pieces: the integrator alone."""
    drive = None if kappa is None else LaneMap([kappa])
    return ode._run_lanes(LaneMap([prof], lambda p: p.omega_sq), 1, [t_final], cfg, drive)[0]


def _forced_entries(lane):
    """(a, b, c, d, qc, qc_dot) of a forced lane's final (Q; P)."""
    return np.append(lane[:, :2].ravel(), lane[:, 2])


def _per_point(prof):
    """The same omega^2 as prof, reached one scalar call at a time."""
    if isinstance(prof, Piecewise):
        return Piecewise(tuple((_per_point(p), dur) for p, dur in prof.segments))
    return Custom(prof.omega_sq, duration=getattr(prof, "duration", math.inf))


def _drive(rng, prof):
    coef = rng.normal(0.0, 0.5, size=3).tolist()
    return lambda t: sum(c * math.sin((j + 1) * math.pi * t / prof.duration) for j, c in enumerate(coef))


class TestBatch:
    """The batched DOP853 against batches of one and against scipy's DOP853."""

    def test_tableau_is_scipys(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        n = ref.N_STAGES
        for ours, theirs in ((ode._A, ref.A[:n, :n]), (ode._B, ref.B), (ode._C, ref.C[:n]),
                             (ode._E3, ref.E3), (ode._E5, ref.E5)):
            assert ours.shape == theirs.shape
            assert np.array_equal(ours, theirs)

    # the route's bound against REFERENCE: 3x the largest error measured on
    # these profiles (1.6e-11 at the default tolerances, 1.7e-13 at TIGHT)
    @pytest.mark.parametrize("cfg, bound", [(DEFAULT_CONFIG, 5e-11), (TIGHT, 5e-13)], ids=["default", "tight"])
    def test_fourier_lanes_match_batches_of_one_and_scipy(self, cfg, bound):
        rng = np.random.default_rng(5)
        profs = [random_fourier_profile(rng) for _ in range(12)]
        batch = propagate_ode_batch(profs, [p.duration for p in profs], cfg)
        for prof, s in zip(profs, batch):
            one = propagate_ode(prof, prof.duration, cfg)
            assert np.max(np.abs(s.as_array() - one.as_array())) <= 1e-12
            # the integrator: the whole span as one lane is scipy's DOP853
            ref = _scipy_matrix(prof, prof.duration, cfg)
            assert np.max(np.abs(_one_lane(prof, prof.duration, cfg) - ref)) <= 1e-12
            # the route, time pieces and fold, against a tighter run
            assert np.max(np.abs(s.as_array() - _one_lane(prof, prof.duration, REFERENCE))) <= bound

    def test_forced_lanes_match_batches_of_one_and_scipy(self):
        rng = np.random.default_rng(8)
        profs = [random_fourier_profile(rng) for _ in range(8)]
        kappas = [_drive(rng, prof) for prof in profs]
        batch = propagate_forced_batch(profs, kappas, [p.duration for p in profs])
        for prof, kappa, res in zip(profs, kappas, batch):
            one = propagate_forced(prof, kappa, prof.duration)
            got = np.array([*res.matrix.as_array().ravel(), res.qc, res.qc_dot])
            assert np.max(np.abs(got - [*one.matrix.as_array().ravel(), one.qc, one.qc_dot])) <= 1e-12

            def rhs(t, y, prof=prof, kappa=kappa):
                w2 = prof.omega_sq(t)
                return np.array([y[1], -w2 * y[0], y[3], -w2 * y[2], y[5], -w2 * y[4] + kappa(t)])

            q1, p1, q2, p2, qc, pc = _scipy_final(
                rhs, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), prof.duration, 1.0, DEFAULT_CONFIG
            )
            # the integrator: the whole span as one lane, whose fourth column stays zero
            lane = _one_lane(prof, prof.duration, DEFAULT_CONFIG, kappa)
            assert not lane[:, 3].any()
            assert np.max(np.abs(_forced_entries(lane) - [q1, q2, p1, p2, qc, pc])) <= 1e-12
            # the route against a tighter run: 3x the largest error measured here (1.6e-11)
            ref = _forced_entries(_one_lane(prof, prof.duration, REFERENCE, kappa))
            assert np.max(np.abs(got - ref)) <= 5e-11

    @pytest.mark.parametrize("n_modes", [1, 3])
    def test_multimode_matches_scipy(self, n_modes):
        coupling = random_coupling(np.random.default_rng(4), n_modes, 2.0)
        n = n_modes
        got = multimode_from_hamiltonian(coupling, 2.0)

        def rhs(t, y):
            m = y.reshape(2 * n, 2 * n)
            out = np.empty_like(m)
            out[:n] = m[n:]
            out[n:] = -coupling(t) @ m[:n]
            return out.ravel()

        w0 = math.sqrt(float(np.max(np.diag(coupling(0.0)))))
        s = _scipy_final(rhs, np.eye(2 * n).ravel(), 2.0, w0, DEFAULT_CONFIG).reshape(2 * n, 2 * n)
        assert np.max(np.abs(got - s)) <= 1e-12

    def test_zero_span_lane_keeps_its_start_and_costs_nothing(self):
        y0 = np.array([[[1.0, 2.0], [3.0, 4.0]], [[1.0, 0.0], [0.0, 1.0]]])
        system = ode._Oscillators(LaneMap([InverseLinear(1.0, 1.0)] * 2, lambda p: p.omega_sq), 1, None)
        sol = ode.solve_ivp(system, np.array([0.0, 1.0]), y0, np.array([0.1, 0.1]), DEFAULT_CONFIG)
        assert np.array_equal(sol.y[0], y0[0])
        # the running lane: one evaluation at its start, 12 per attempted step
        assert (sol.nfev - 1) % 12 == 0 and len(sol.t) - 1 >= 1
        # through the public route: a zero span is the identity, beside lanes that run
        prof = PowerLaw(-3.0, 0.7)
        batch = propagate_ode_batch([prof] * 3, [2.0, 0.0, 3.0])
        assert batch[1] == EvolutionMatrix.identity()
        for s, t1 in zip(batch, [2.0, 0.0, 3.0]):
            assert np.max(np.abs(s.as_array() - propagate_ode(prof, t1).as_array())) <= 1e-12

    def test_step_budget_counts_per_lane(self):
        # ten lanes of three to five steps each, 40 in all, fit a ten-step budget
        profs = [InverseLinear(1.0, 0.5 + 0.1 * i) for i in range(10)]
        cfg = IntegratorConfig(max_steps=10)
        propagate_ode_batch(profs, [0.5] * 10, cfg)
        # one lane that needs more than ten steps fails the whole batch
        with pytest.raises(IntegrationError, match="step budget"):
            propagate_ode_batch(profs + [InverseLinear(1.0, 0.001)], [0.5] * 10 + [900.0], cfg)

    def test_step_below_float_spacing_fails(self):
        # omega^2 jumps by 1e20 at t = 1: no step near the jump meets the
        # tolerance, and scipy's DOP853 fails there the same way
        prof = Custom(lambda t: 1.0 if t < 1.0 else 1e20, duration=2.0)
        with pytest.raises(IntegrationError, match="less than spacing between numbers"):
            propagate_ode_batch([InverseLinear(1.0, 1.0), prof], [1.0, 2.0])

    def test_verify_seed_0_batches_take_pinned_loop_iterations(self, monkeypatch):
        # the three Hill and forced batches of verify --seed 0 took 49, 43 and
        # 46 loop iterations before runs were cut into time pieces
        from cyclosc import cli

        batches = []  # [lane rows 2n, terms calls] of each solve_ivp call
        solve, terms = ode.solve_ivp, ode._Oscillators.terms

        def counted_solve(system, *args):
            batches.append([2 * system.n, 0])
            return solve(system, *args)

        def counted_terms(self, *args):
            batches[-1][1] += 1
            return terms(self, *args)

        monkeypatch.setattr(ode, "solve_ivp", counted_solve)
        monkeypatch.setattr(ode._Oscillators, "terms", counted_terms)
        assert cli.main(["verify", "--seed", "0", "--output", os.devnull]) == 0
        # terms runs once at the start, then once per loop iteration
        assert [calls - 1 for rows, calls in batches if rows == 2] == [6, 7, 6]

    def test_verify_needs_no_scipy_integrate(self):
        src = str(Path(ode.__file__).resolve().parents[1])
        code = (
            "import sys, cyclosc.cli; "
            "rc = cyclosc.cli.main(['verify', '--seed', '0', '--output', " + repr(os.devnull) + "]); "
            "sys.exit(rc or 'scipy.integrate' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _bits(x):
    """The float64 bit patterns of x: tells -0.0 from 0.0 and every last bit."""
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def _lane_times(rng, durations, count=2000):
    """Times of shape (count + 3, lanes): 0, each lane's end, a bit past it,
    then many random times inside, so that a formula whose bits depended on
    a point's place in the array would show."""
    durations = np.asarray(durations, dtype=float)
    inside = rng.uniform(0.0, 1.0, size=(count, durations.size)) * durations
    return np.vstack([np.zeros(durations.size), durations, 1.0000001 * durations, inside])


@st.composite
def hill_runs(draw):
    """(profile, t_final, drive) of a run: a Fourier profile, a family leg or
    a random Piecewise cycle, over its whole span, a random part of it, 0 or
    a few ulps of 0; the drive is a sine series that vanishes at both ends."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["fourier", "leg", "piecewise"]))
    if kind == "fourier":
        profile = random_fourier_profile(rng)
    elif kind == "piecewise":
        profile = random_piecewise_cycle(rng)
    else:
        v = float(rng.uniform(0.2, 2.0))
        profile = [InverseLinear(1.0, v), PowerLaw(float(rng.choice([-3.0, 1.0, 3.0])), v), Exponential(-v)][
            int(rng.integers(0, 3))
        ]
    duration = getattr(profile, "duration", float(rng.uniform(0.5, 4.0)))
    span = draw(st.sampled_from(["whole", "part", "zero", "ulps"]))
    t_final = {
        "whole": duration, "part": float(rng.uniform(0.0, duration)), "zero": 0.0,
        "ulps": draw(st.integers(1, 4)) * 5e-324,
    }[span]
    # a series over a subnormal span would round its phase at the end
    return profile, t_final, SineSeries(rng.normal(0.0, 0.5, size=3), duration if t_final < 1.0e-300 else t_final)


def _run_bits(forced, runs):
    """Bits of (S, qc, qc_dot) of each run, integrated as one batch."""
    profiles, t_finals, kappas = zip(*runs)
    if forced:
        results = propagate_forced_batch(profiles, kappas, t_finals)
    else:
        results = [ode.ForcedResult(s, 0.0, 0.0) for s in propagate_ode_batch(profiles, t_finals)]
    return [_bits([r.matrix.a, r.matrix.b, r.matrix.c, r.matrix.d, r.qc, r.qc_dot]).tolist() for r in results]


@given(runs=st.lists(hill_runs(), min_size=1, max_size=5), forced=st.booleans(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_property_a_run_gives_the_same_bits_alone_and_in_any_batch(runs, forced, data):
    # a run's time pieces depend on the run alone, and every lane holds a
    # multiple of 4 entries, so neither its neighbours nor its place count
    whole = _run_bits(forced, runs)
    for run, bits in zip(runs, whole):
        assert _run_bits(forced, [run]) == [bits]
    order = data.draw(st.permutations(range(len(runs))))[: data.draw(st.integers(1, len(runs)))]
    assert _run_bits(forced, [runs[i] for i in order]) == [whole[i] for i in order]


class TestStackedTerms:
    """Each stacked formula, gathered per lane, gives the bits of one scalar
    call per lane and time (the scalar call evaluates it at one point)."""

    def _check(self, items, scalar, durations, rng):
        t = _lane_times(rng, durations)
        # every lane once, in an order that is not the batch order
        lanes = rng.permutation(len(items))
        want = np.array([[scalar(items[i])(x) for i, x in zip(lanes, row)] for row in t[:, lanes].tolist()])
        got = type(items[0]).stacked(items)(t[:, lanes], lanes)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(_bits(LaneMap(items, scalar)(t[:, lanes], lanes)), _bits(want))

    def test_sine_series(self):
        rng = np.random.default_rng(21)
        # different lengths: shorter series are padded with zero terms
        series = [SineSeries(rng.normal(size=n), rng.uniform(1.0, 9.0)) for n in (1, 3, 4, 4, 6)]
        self._check(series, lambda f: f, [f.duration for f in series], rng)

    def test_fourier(self):
        rng = np.random.default_rng(22)
        profiles = [random_fourier_profile(rng) for _ in range(7)]
        assert all(isinstance(p, Fourier) for p in profiles)
        self._check(profiles, lambda p: p.omega_sq, [p.duration for p in profiles], rng)

    @pytest.mark.parametrize("n_modes", [1, 2, 4])
    def test_windowed_coupling(self, n_modes):
        rng = np.random.default_rng(23)
        couplings = [random_coupling(rng, n_modes, rng.uniform(1.0, 3.0)) for _ in range(5)]
        self._check(couplings, lambda w: w, [w.t_final for w in couplings], rng)

    def test_windowed_carrier(self):
        rng = np.random.default_rng(24)
        carriers = [WindowedCarrier(1e-3, 6.0, 2.0)] + [
            WindowedCarrier(10.0 ** rng.uniform(-4, 0), rng.uniform(1.0, 9.0), rng.uniform(0.5, 6.0))
            for _ in range(4)
        ]
        self._check(carriers, lambda g: g, [g.duration for g in carriers], rng)

    def test_mixed_lane_map_evaluates_each_lane_by_its_own_rule(self):
        rng = np.random.default_rng(25)
        fourier = random_fourier_profile(rng)
        items = [
            fourier, Custom(fourier.omega_sq, duration=fourier.duration), random_fourier_profile(rng),
            InverseLinear(1.0, 0.5), Custom(lambda t: 1.0 + t), random_fourier_profile(rng),
        ]
        evaluate = LaneMap(items, lambda p: p.omega_sq)
        for lanes in ([0, 1, 2, 3, 4, 5], [5, 1, 0, 3], [4], [2, 5]):
            t = rng.uniform(0.0, 2.0, size=(11, len(lanes)))
            want = [[items[i].omega_sq(x) for i, x in zip(lanes, row)] for row in t.tolist()]
            assert np.array_equal(_bits(evaluate(t, np.array(lanes))), _bits(want))

    def test_subclass_without_its_own_formula_is_called_per_point(self):
        class Slower(Fourier):
            def omega_sq(self, t):
                return 0.25 * super().omega_sq(t)

        rng = np.random.default_rng(26)
        base = random_fourier_profile(rng)
        items = [base, Slower(base.series)]
        t = np.repeat(rng.uniform(0.0, base.duration, size=(11, 1)), 2, axis=1)
        got = LaneMap(items, lambda p: p.omega_sq)(t, np.arange(2))
        assert np.array_equal(got[:, 1], [items[1].omega_sq(x) for x in t[:, 1].tolist()])
        assert np.array_equal(got[:, 1], 0.25 * got[:, 0])


class TestStackedBatches:
    """Lanes whose terms come from a stacked formula, next to lanes that call
    a Python function per point, give the bits of batches of one."""

    def test_mixed_fourier_and_custom_lanes_equal_batches_of_one(self):
        rng = np.random.default_rng(31)
        fourier = [random_fourier_profile(rng) for _ in range(4)]
        # the same omega^2 as fourier[0], reached one scalar call at a time
        twin = Custom(fourier[0].omega_sq, duration=fourier[0].duration)
        profiles = [fourier[0], twin, fourier[1], Custom(lambda t: 1.0 + 0.3 * math.sin(t), duration=3.0),
                    fourier[2], Piecewise(((InverseLinear(1.0, 1e-8), 1.0), (fourier[3], fourier[3].duration)))]
        durations = [p.duration for p in profiles]
        batch = propagate_ode_batch(profiles, durations)
        for prof, t_end, s in zip(profiles, durations, batch):
            assert s == propagate_ode(prof, t_end)
        assert batch[0] == batch[1]

    @pytest.mark.parametrize("piecewise", [False, True], ids=["fourier", "piecewise"])
    def test_forced_lanes_equal_their_per_point_twins(self, piecewise):
        # the same batch run once more with every omega^2 and kappa called
        # per point must give the same bits; past a Piecewise run's first
        # segment a drive is read at t + edge
        rng = np.random.default_rng(32)
        profiles = [random_fourier_profile(rng) for _ in range(5)]
        if piecewise:  # Fourier segments glued to random piecewise cycles, one of them nested
            cycles = [random_piecewise_cycle(rng) for _ in profiles]
            profiles = [Piecewise(((p, p.duration), (c, c.duration))) for p, c in zip(profiles, cycles)]
            profiles[2] = Piecewise(((cycles[2], cycles[2].duration), (profiles[2], profiles[2].duration)))
        kappas = [SineSeries(rng.normal(0.0, 0.5, size=3), p.duration) for p in profiles]
        kappas[1] = _drive(rng, profiles[1])  # a plain function among the sine series
        durations = [p.duration for p in profiles]
        batch = propagate_forced_batch(profiles, kappas, durations)
        twins = propagate_forced_batch(
            [_per_point(p) for p in profiles], [lambda t, f=kappa: f(t) for kappa in kappas], durations
        )
        assert batch == twins
