"""Closed cycles, parameter scans, and the never-decreasing-energy theorem."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclosc.closed_form
import cyclosc.cycles
from cyclosc import (
    Custom,
    CycleSpec,
    DomainError,
    EvolutionMatrix,
    Exponential,
    GridAxis,
    InverseLinear,
    IntegratorConfig,
    Piecewise,
    PowerLaw,
    ScanResult,
    StationaryState,
    SymplecticError,
    TimeReversed,
    asymptotic_energy,
    build_cycle,
    build_cycles,
    compose,
    cycle_gain,
    final_energy,
    find_unity_points,
    gain_factor,
    propagate_inverse_linear,
    propagate_ode,
    random_cycle_gain,
    random_cycle_spec,
    random_fourier_profile,
    random_piecewise_cycle,
    scan_gain,
)
from cyclosc.cycles import leg, legs
from oracles import inverse_linear_cycle_gain_mp

TIGHT = IntegratorConfig(rtol=1e-12, atol=1e-14)


class TestCycleSpec:
    def test_rejects_unknown_family(self):
        with pytest.raises(DomainError):
            CycleSpec("linear")

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(DomainError):
            CycleSpec("inverse-linear", v=-1.0)

    def test_rejects_degenerate_power_exponents(self):
        for k in (0.0, 2.0):
            with pytest.raises(DomainError):
                CycleSpec("power-law", k=k)

    def test_custom_needs_profile(self):
        with pytest.raises(DomainError):
            CycleSpec("custom")

    @pytest.mark.parametrize("n_cycles", [2.5, 2.0, "2", 0, -1])
    def test_rejects_non_integer_or_nonpositive_cycle_count(self, n_cycles):
        with pytest.raises(DomainError, match="n_cycles"):
            CycleSpec("inverse-linear", v=1.0, lam=2.0, n_cycles=n_cycles)

    @pytest.mark.parametrize("family", ["inverse-linear", "power-law", "exponential"])
    @pytest.mark.parametrize("field", ["v", "lam", "omega0"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_parameters(self, family, field, value):
        with pytest.raises(DomainError):
            CycleSpec(family, **{field: value})

    def test_numpy_integer_cycle_count_accepted(self):
        spec = CycleSpec("inverse-linear", v=1.0, lam=2.0, n_cycles=np.int64(2))
        once = build_cycle(CycleSpec("inverse-linear", v=1.0, lam=2.0))
        assert build_cycle(spec) == compose(once, once)


class TestBuildCycle:
    def test_unit_scale_is_identity(self):
        s = build_cycle(CycleSpec("inverse-linear", v=1.0, lam=1.0))
        assert s == EvolutionMatrix.identity()

    def test_inverse_linear_against_glued_ode(self):
        # one closed cycle (out at rate v, back at rate -v) integrated as a
        # single piecewise profile; independent of the closed-form route
        v, lam = 0.7, 3.0
        spec = CycleSpec("inverse-linear", v=v, lam=lam)
        closed = build_cycle(spec, TIGHT)
        out_leg = InverseLinear(1.0, v)
        back_leg = InverseLinear(1.0 / lam, -v)
        t_out = out_leg.t_for_scale(lam)
        t_back = back_leg.t_for_scale(1.0 / lam)
        glued = Piecewise(((out_leg, t_out), (back_leg, t_back)))
        numeric = propagate_ode(glued, glued.duration, TIGHT)
        assert np.max(np.abs(closed.as_array() - numeric.as_array())) < 1e-9

    def test_inverse_linear_legs_compose(self):
        v, lam = 0.7, 3.0
        out = propagate_inverse_linear(1.0, v, lam)
        back = propagate_inverse_linear(1.0 / lam, -v, 1.0 / lam)
        cyc = build_cycle(CycleSpec("inverse-linear", v=v, lam=lam), TIGHT)
        assert np.max(np.abs(cyc.as_array() - compose(back, out).as_array())) < 1e-12

    @pytest.mark.parametrize("n_cycles", [1, 3])
    @pytest.mark.parametrize(
        "family,k",
        [("power-law", k) for k in (-4.0, -3.0, -2.0, -1.0, 1.0, 3.0)] + [("exponential", -2.0)],
    )
    def test_reversed_return_leg_matches_ode_oracle(self, family, k, n_cycles):
        # the outbound profile and its mirror image integrated as one
        # Piecewise profile; independent of the closed-form time reversal
        v, lam = 0.8, 2.5
        if family == "power-law":
            z_t = lam ** (-2.0 / (k - 2.0))
            out = PowerLaw(k, v if z_t > 1.0 else -v)
        else:
            z_t = 1.0 / lam
            out = Exponential(v if z_t > 1.0 else -v)
        t_out = out.t_for_z(z_t)
        loop = Piecewise(((out, t_out), (TimeReversed(out, t_out), t_out)))
        once = propagate_ode(loop, 2.0 * t_out, TIGHT).as_array()
        expect = np.linalg.matrix_power(once, n_cycles)
        cyc = build_cycle(CycleSpec(family, v=v, lam=lam, k=k, n_cycles=n_cycles))
        assert np.max(np.abs(cyc.as_array() - expect)) < 1e-9 * max(1.0, np.max(np.abs(expect)))
        assert cyc.det_error() < 1e-9
        assert gain_factor(cyc) >= 1.0 - 1e-12

    def test_slow_power_law_cycle_never_loses_energy(self):
        # an integrated return leg left R - 1 = -8.6e-9 here, below R >= 1
        spec = CycleSpec("power-law", v=0.1297208104265089, lam=0.1, k=3.0)
        assert cycle_gain(spec) >= 1.0 - 1e-12

    def test_repeat_is_matrix_power(self):
        spec1 = CycleSpec("inverse-linear", v=1.3, lam=4.0)
        spec3 = CycleSpec("inverse-linear", v=1.3, lam=4.0, n_cycles=3)
        s1 = build_cycle(spec1, TIGHT)
        s3 = build_cycle(spec3, TIGHT)
        expect = compose(s1, compose(s1, s1))
        assert np.max(np.abs(s3.as_array() - expect.as_array())) < 1e-12

    def test_gain_invariant_under_omega0(self):
        gains = [
            cycle_gain(CycleSpec("inverse-linear", v=0.9 * w, lam=5.0, omega0=w), TIGHT)
            for w in (0.1, 1.0, 7.0)
        ]
        assert gains[0] == pytest.approx(gains[1], rel=1e-12)
        assert gains[2] == pytest.approx(gains[1], rel=1e-12)

    def test_contracting_cycle_also_gains(self):
        r = cycle_gain(CycleSpec("inverse-linear", v=1.0, lam=0.2), TIGHT)
        assert r >= 1.0 - 1e-12

    def test_custom_cycle(self):
        rng = np.random.default_rng(5)
        prof = random_fourier_profile(rng)
        spec = CycleSpec("custom", profile=prof, duration=prof.duration)
        assert cycle_gain(spec, TIGHT) >= 1.0 - 1e-12


class TestLeg:
    @pytest.mark.parametrize("family,k,lam", [
        ("inverse-linear", -2.0, 3.0),
        ("inverse-linear", -2.0, 0.4),
        ("power-law", -3.0, 0.4),
        ("power-law", 3.0, 2.5),
        ("exponential", -2.0, 0.4),
        ("exponential", -2.0, 2.5),
    ])
    def test_closed_and_ode_routes_agree(self, family, k, lam):
        closed = leg(family, 0.8, lam, k)
        numeric = leg(family, 0.8, lam, k, method="ode")
        assert np.max(np.abs(closed.as_array() - numeric.as_array())) < 1e-7

    @pytest.mark.parametrize("family,k", [
        ("inverse-linear", -2.0), ("power-law", -3.0), ("power-law", 3.0), ("exponential", -2.0),
    ])
    @pytest.mark.parametrize("lam", [0.4, 2.5])
    def test_sudden_leg_ends_at_frequency_one_over_lambda(self, family, k, lam):
        # a sudden leg leaves the ground state frozen, so its energy read at
        # the final frequency 1/lam is (1 + 1/lam^2)/4 for every family
        s = leg(family, 1.0e4, lam, k)
        energy = final_energy(s, StationaryState(0), 1.0 / lam)
        assert energy == pytest.approx(asymptotic_energy(lam), rel=1e-6)

    MIXED = [("inverse-linear", 0.8, 3.0, -2.0), ("power-law", 0.5, 0.4, -3.0),
             ("exponential", 1.5, 2.5, -2.0), ("power-law", 0.8, 2.5, 3.0), ("inverse-linear", 2.0, 0.4, -2.0)]

    def test_mixed_families_integrate_as_one_batch_with_the_bits_of_each_leg(self, monkeypatch):
        calls = []
        batch = cyclosc.cycles.propagate_ode_batch
        monkeypatch.setattr(cyclosc.cycles, "propagate_ode_batch", lambda *a: calls.append(a) or batch(*a))
        together = legs(self.MIXED, "ode")
        assert len(calls) == 1 and len(calls[0][0]) == len(self.MIXED)
        for run, s in zip(self.MIXED, together):
            assert s == leg(*run, "ode")

    def test_closed_legs_are_each_leg(self):
        assert legs(self.MIXED) == [leg(*run) for run in self.MIXED]
        assert legs([]) == [] and legs([], "ode") == []

    @pytest.mark.parametrize("family,v,k,method", [
        ("power-law", 1.0, 2.0, "closed"),
        ("power-law", 1.0, 0.0, "ode"),
        ("exponential", 0.0, -2.0, "closed"),
        ("inverse-linear", 1.0, -2.0, "euler"),
        ("custom", 1.0, -2.0, "closed"),
    ])
    def test_rejects_bad_arguments(self, family, v, k, method):
        with pytest.raises(DomainError):
            leg(family, v, 2.0, k, method)

    @pytest.mark.parametrize("family", ["inverse-linear", "power-law", "exponential"])
    @pytest.mark.parametrize("lam", [0.0, -2.0])
    @pytest.mark.parametrize("method", ["closed", "ode"])
    def test_rejects_a_scale_that_is_not_positive(self, family, lam, method):
        with pytest.raises(DomainError, match="lambda must be positive"):
            leg(family, 1.0, lam, -3.0, method)


class TestClosedPiecewise:
    """Custom cycles whose Piecewise segments are all closed-form families."""

    def test_random_piecewise_cycles_match_ode_oracle(self):
        kinds = set()
        for seed in range(60):
            prof = random_piecewise_cycle(np.random.default_rng(seed))
            for seg, _ in prof.segments:
                base = seg.base if isinstance(seg, TimeReversed) else seg
                kinds.add((type(seg) is TimeReversed, type(base)))
            spec = CycleSpec("custom", profile=prof, duration=prof.duration)
            closed = build_cycle(spec).as_array()
            numeric = propagate_ode(prof, prof.duration, TIGHT).as_array()
            scale = max(1.0, np.max(np.abs(numeric)))
            assert np.max(np.abs(closed - numeric)) < 1e-9 * scale, seed
        assert kinds == {
            (mirrored, family)
            for mirrored in (False, True)
            for family in (InverseLinear, Exponential, PowerLaw)
        }

    def test_random_cycles_never_integrate_a_piecewise_profile(self, monkeypatch):
        integrate = cyclosc.cycles.propagate_ode

        def no_piecewise(profile, *args, **kwargs):
            if isinstance(profile, Piecewise):
                raise AssertionError("a piecewise cycle reached the ODE")
            return integrate(profile, *args, **kwargs)

        monkeypatch.setattr(cyclosc.cycles, "propagate_ode", no_piecewise)
        rng = np.random.default_rng(3)
        piecewise = 0
        for _ in range(60):
            spec, gain, _ = random_cycle_gain(rng)
            piecewise += isinstance(spec.profile, Piecewise)
            assert gain >= 1.0 - 1e-12
        assert piecewise >= 5

    @pytest.mark.parametrize("family", [InverseLinear, PowerLaw])
    def test_subclassed_segments_match_the_ode(self, family):
        # a subclass may change omega, so only the exact family types take a
        # closed form; this one changes nothing, and the ODE must agree
        @dataclass(frozen=True)
        class Mine(family):
            pass

        seg = Mine(1.0, 0.8) if family is InverseLinear else Mine(-3.0, 0.8)
        prof = Piecewise(((seg, 1.5), (TimeReversed(seg, 1.5), 1.5)))
        closed = build_cycle(CycleSpec("custom", profile=prof, duration=prof.duration)).as_array()
        numeric = propagate_ode(prof, prof.duration, TIGHT).as_array()
        assert np.max(np.abs(closed - numeric)) < 1e-8

    @pytest.mark.parametrize("case", [
        "custom-segment", "omega0-power-law", "high-bessel-order", "slow-rate",
        "partial-reversal", "partial-duration",
    ])
    def test_other_profiles_take_the_ode_route(self, case):
        out = InverseLinear(1.0, 0.8)
        segments = {
            "custom-segment": ((out, 1.0), (Custom(lambda t: 1.0 + 0.1 * t, 1.0), 1.0)),
            "omega0-power-law": ((out, 1.0), (PowerLaw(-3.0, 0.5, omega0=1.8), 1.0)),
            "high-bessel-order": ((out, 1.0), (PowerLaw(0.05, 0.5), 1.0)),
            "slow-rate": ((out, 1.0), (Exponential(1e-9), 1.0)),
            "partial-reversal": ((out, 1.0), (TimeReversed(out, 1.0), 0.5)),
            "partial-duration": ((out, 1.0), (TimeReversed(out, 1.0), 1.0)),
        }[case]
        prof = Piecewise(segments)
        duration = 1.5 if case == "partial-duration" else prof.duration
        spec = CycleSpec("custom", profile=prof, duration=duration)
        assert build_cycle(spec, TIGHT) == propagate_ode(prof, duration, TIGHT)


class TestScan:
    def test_grid_order_v_fastest(self):
        res = scan_gain(
            "inverse-linear",
            GridAxis(0.5, 1.5, 3),
            GridAxis(2.0, 4.0, 2),
        )
        assert res.v.tolist() == [0.5, 1.0, 1.5, 0.5, 1.0, 1.5]
        assert res.lam.tolist() == [2.0, 2.0, 2.0, 4.0, 4.0, 4.0]

    def test_worker_count_does_not_change_rows(self):
        # a row depends on its own grid point only: scanning each point on
        # its own, as any split of the grid among workers would, gives the
        # same rows as the whole scan
        axes = (GridAxis(0.05, 2.0, 8, "log"), GridAxis(10.0, 10.0, 1))
        whole = scan_gain("inverse-linear", *axes)
        for i, (v, lam) in enumerate(zip(whole.v.tolist(), whole.lam.tolist())):
            alone = scan_gain("inverse-linear", GridAxis(v, v, 1), GridAxis(lam, lam, 1))
            assert alone.gain.tolist() == [whole.gain[i]]
            assert alone.det_err.tolist() == [whole.det_err[i]]
            assert alone.error == (whole.error[i],)

    def test_failed_point_reported_not_raised(self):
        # v <= 0 is invalid for a closed-form family; the row carries the
        # message and a NaN gain instead of killing the whole scan
        res = scan_gain("inverse-linear", GridAxis(-1.0, 1.0, 2), GridAxis(2.0, 2.0, 1))
        assert math.isnan(res.gain[0]) and res.error[0] != ""
        assert res.error[1] == "" and res.gain[1] >= 1.0

    def test_non_integer_cycle_count_becomes_nan_rows(self):
        res = scan_gain("inverse-linear", GridAxis(0.5, 1.0, 2), GridAxis(2.0, 2.0, 1), n_cycles=2.5)
        assert np.isnan(res.gain).all()
        assert all("n_cycles" in e for e in res.error)

    def test_non_symplectic_point_reported_not_raised(self):
        # an elliptic cycle with R ~ 2e11: stacked, its det drifts by
        # ~n eps R while R of the stack swings down to ~77 at n = 625, so
        # compose refuses the 626th repeat; the scan reports it as a row
        v, lam = 0.02551539332291277, 408136468856.3615
        res = scan_gain("inverse-linear", GridAxis(v, v, 1), GridAxis(lam, lam, 1), n_cycles=1000)
        assert math.isnan(res.gain[0]) and math.isnan(res.det_err[0])
        assert res.error == (
            "compose: det = 1.0086038469282324 deviates from 1 by 0.00860384692823235 "
            "(tolerance 7.676996547675563e-05)",
        )

    # cycles whose gains the absolute det check used to refuse, against a
    # 60-digit product of the same legs (measured: 3e-15 to 1e-11)
    @pytest.mark.parametrize("v,lam,n", [
        (1.0, 10.0, 30), (1.25, 10.0, 30), (1.203, 10.0, 20), (14.0, 1000.0, 300),
    ])
    def test_large_gains_match_mpmath(self, v, lam, n):
        gain = cycle_gain(CycleSpec("inverse-linear", v=v, lam=lam, n_cycles=n))
        assert gain == pytest.approx(inverse_linear_cycle_gain_mp(v, lam, n), rel=1e-10)

    def test_resonant_stacks_are_valid_gains(self):
        # 30 stacked resonant cycles at v = 1 and 1.25 grow to R ~ 1e30 and
        # 2e16; their det S - 1 is roundoff of that scale, within the contract
        res = scan_gain(
            "inverse-linear", GridAxis(1.0, 1.5, 3), GridAxis(10.0, 10.0, 1), n_cycles=30
        )
        assert res.error == ("", "", "")
        assert res.gain.tolist() == [
            1.2979658584323882e30, 2.3511594829134916e16, 18.038492822866395
        ]
        spec = CycleSpec("inverse-linear", v=1.203, lam=10.0, n_cycles=20)
        assert cycle_gain(spec) == 29811713769146.613

    # (v axis, lambda axis, omega0 axis, n_cycles)
    ARRAY_CASES = {
        "regimes-and-omega0": (
            GridAxis(0.01, 100.0, 41, "log"), GridAxis(0.05, 20.0, 9, "log"),
            GridAxis(0.5, 2.0, 3), 1,
        ),
        "series-cut-lambda-1": (
            GridAxis(2.0 - 1e-7, 2.0 + 1e-7, 41), GridAxis(1e-3, 1e3, 7, "log"),
            GridAxis(1.0, 1.0, 1), 1,
        ),
        "series-cut-omega0": (
            GridAxis(3.0 - 1.5e-7, 3.0 + 1.5e-7, 41), GridAxis(1e-3, 1e3, 3, "log"),
            GridAxis(1.5, 1.5, 1), 3,
        ),
        # enough distinct lambda values that numpy's log and x*x would
        # differ from libm's log and pow somewhere
        "many-lambdas": (
            GridAxis(0.7, 0.7, 1), GridAxis(0.01, 100.0, 20001, "log"), GridAxis(1.0, 1.0, 1), 1,
        ),
        # five-cycle stacks over six decades of v and eight of lambda
        "det-drift-5-cycles": (
            GridAxis(1e-3, 1e3, 40, "log"), GridAxis(1e-4, 1e4, 40, "log"), GridAxis(1.0, 1.0, 1), 5,
        ),
        # return legs at Omega ~ 1e-11 whose d entry loses ~1e-6 to
        # cancellation while R ~ 1: a finite det failure on the first check
        "det-failing-legs": (
            GridAxis(5.0, 1e3, 40, "log"), GridAxis(1e9, 1e12, 30, "log"), GridAxis(1.0, 1.0, 1), 1,
        ),
        "lambda-around-1": (
            GridAxis(-1.0, 2.0, 13), GridAxis(0.5, 1.5, 3), GridAxis(1.0, 1.0, 1), 3,
        ),
        # 30 stacked cycles up to R ~ 1e30, all within the contract
        "resonant-30-cycles": (
            GridAxis(0.5, 3.0, 26), GridAxis(10.0, 10.0, 1), GridAxis(1.0, 1.0, 1), 30,
        ),
        # an elliptic cycle with R ~ 2e11 whose stack fails a det check at
        # repeat 626, beside a hyperbolic one whose stack overflows
        "elliptic-stack": (
            GridAxis(0.02551539332291277, 0.0256, 2),
            GridAxis(408136468856.3615, 408136468856.3615, 1), GridAxis(1.0, 1.0, 1), 1000,
        ),
        "non-integer-cycles": (
            GridAxis(0.5, 1.0, 3), GridAxis(2.0, 2.0, 1), GridAxis(1.0, 1.0, 1), 2.5,
        ),
        # entries overflow on the growing points, which drop out one by one
        "growing-300-cycles": (
            GridAxis(2.0, 20.0, 10), GridAxis(1000.0, 1000.0, 1), GridAxis(1.0, 1.0, 1), 300,
        ),
        # (omega0/v)**2 or omega0**2 past the float range on either leg,
        # 1/lambda = inf, and both sides of the edge of (1/v)**2
        "overflowing-squares": (
            GridAxis(1e-320, 1e300, 61, "log"), GridAxis(5e-324, 1e300, 31, "log"),
            GridAxis(0.5, 2.0, 2), 2,
        ),
        "square-range-edge": (
            GridAxis(0.999999 / 1.3407807929942596e154, 1.000001 / 1.3407807929942596e154, 41),
            GridAxis(0.5, 2.0, 2), GridAxis(1.0, 1.0, 1), 1,
        ),
    }

    @staticmethod
    def scan_per_point(monkeypatch, family, axes, n, k=-2.0):
        """scan_gain(family, *axes, n_cycles=n, k=k), checked row by row: every
        row must carry the bits build_cycle + gain_factor/det_error give for
        its point, or its error as a note, and only the rows the array fold
        leaves over (a failure, or lambda = 1) may be built one by one."""
        calls = []
        monkeypatch.setattr(
            cyclosc.cycles, "CycleSpec", lambda *a, **kw: calls.append(a) or CycleSpec(*a, **kw)
        )
        res = scan_gain(family, *axes, n_cycles=n, k=k)
        monkeypatch.undo()
        assert len(res.error) == math.prod(axis.count for axis in axes)
        for v, lam, omega0, gain, det_err, error in zip(
            res.v.tolist(), res.lam.tolist(), res.omega0.tolist(),
            res.gain.tolist(), res.det_err.tolist(), res.error,
        ):
            try:
                s = build_cycle(CycleSpec(family, v=v, lam=lam, omega0=omega0, n_cycles=n, k=k))
                assert (gain, det_err, error) == (gain_factor(s), s.det_error(), "")
            except (DomainError, SymplecticError) as exc:
                assert math.isnan(gain) and math.isnan(det_err)
                assert error == str(exc)
        assert len(calls) == sum(1 for e, lam in zip(res.error, res.lam) if e or lam == 1.0)
        return res

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(ARRAY_CASES))
    def test_array_scan_equals_per_point_path(self, case, monkeypatch):
        *axes, n = self.ARRAY_CASES[case]
        self.scan_per_point(monkeypatch, "inverse-linear", axes, n)

    # (v axis, lambda axis, omega0 axis) of Bessel-family scans.  The log
    # lambdas include end scales lambda^(-2/(k-2)) that numpy's power rounds
    # differently from libm's pow (k = -3 and 3, on an AVX-512 host); the
    # other grid has a lambda = 1 row, and points that fail: v/omega0 past the
    # float range, frames that are not finite or whose Wronskian drifts, and
    # stacks that overflow
    BESSEL_GRIDS = {
        "log-lambdas": (GridAxis(0.05, 50.0, 5, "log"), GridAxis(0.1, 10.0, 30, "log"), GridAxis(0.5, 2.0, 2)),
        "failing-and-lambda-1": (
            GridAxis(1e-3, 1e200, 7, "log"), GridAxis(0.5, 1.5, 3), GridAxis(1e-150, 1.0, 2, "log"),
        ),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", sorted(BESSEL_GRIDS))
    @pytest.mark.parametrize("family,k", [
        ("power-law", -4.0), ("power-law", -3.0), ("power-law", -1.0), ("power-law", 1.0),
        ("power-law", 3.0), ("exponential", -2.0),
    ])
    def test_bessel_scan_equals_per_point_path(self, family, k, grid, monkeypatch):
        notes = set()
        for n in (1, 2, 3):
            res = self.scan_per_point(monkeypatch, family, self.BESSEL_GRIDS[grid], n, k)
            notes |= set(res.error)
        assert "" in notes and (len(notes) > 1) == (grid != "log-lambdas")

    def test_bessel_grids_reach_every_failure(self):
        notes = [
            note for k in (-4.0, -3.0, 3.0)
            for note in scan_gain("power-law", *self.BESSEL_GRIDS["failing-and-lambda-1"], k=k).error
        ]
        for part in ("v/omega0 = inf leaves the float range", "the Bessel frame is not finite",
                     "is inaccurate: its Wronskian drifts", "compose: Tr[S S^T]/2 overflows to inf"):
            assert any(part in note for note in notes), part

    @pytest.mark.parametrize("family", ["power-law", "exponential"])
    def test_overflowing_normalized_rate_names_both_inputs(self, family):
        # v is finite, but v/omega0 is not: the note names the ratio and both
        note = "v/omega0 = inf leaves the float range at v = 1e+300, omega0 = 1e-10"
        with pytest.raises(DomainError) as exc:
            build_cycle(CycleSpec(family, v=1e300, lam=2.0, omega0=1e-10))
        assert str(exc.value) == note
        res = scan_gain(family, GridAxis(1e300, 1e300, 1), GridAxis(2.0, 2.0, 1), GridAxis(1e-10, 1e-10, 1))
        assert res.error == (note,)

    def test_inverse_linear_refuses_an_underflowing_rate_but_not_the_sudden_limit(self):
        note = "v/omega0 = 0.0 leaves the float range at v = 1e-320, omega0 = 10000000000.0"
        with pytest.raises(DomainError) as exc:
            build_cycle(CycleSpec("inverse-linear", v=1e-320, lam=2.0, omega0=1e10))
        assert str(exc.value) == note
        res = scan_gain("inverse-linear", GridAxis(1e-320, 1e-320, 1), GridAxis(2.0, 2.0, 1), GridAxis(1e10, 1e10, 1))
        assert res.error == (note,)
        # v/omega0 = inf is the sudden limit, a cycle that changes nothing to within roundoff
        s = build_cycle(CycleSpec("inverse-linear", v=1e300, lam=2.0, omega0=1e-10))
        assert np.max(np.abs(s.as_array() - np.eye(2))) <= 1e-15

    def test_array_cases_reach_every_branch(self):
        cases = self.ARRAY_CASES
        notes = [
            note for *axes, n in cases.values()
            for note in scan_gain("inverse-linear", *axes, n_cycles=n).error
        ]
        # a finite det failure names the tolerance DET_TOL_INPUT * R, an
        # overflow names R itself, in compose and in gain_factor
        deviates = re.compile(r"(compose|gain_factor): det = \S+ deviates from 1 by \S+ "
                              r"\(tolerance \S+\)$")
        assert any(deviates.match(n) for n in notes)
        assert "compose: Tr[S S^T]/2 overflows to inf" in notes
        assert "gain_factor: Tr[S S^T]/2 overflows to inf" in notes
        elliptic = scan_gain("inverse-linear", *cases["elliptic-stack"][:3], n_cycles=1000).error
        assert deviates.match(elliptic[0]) and "overflows" in elliptic[1]
        assert any(n.startswith("v must be a positive") for n in notes)
        assert any(n.startswith("n_cycles must be") for n in notes)
        assert any(n.endswith("**2 or omega0**2 overflows") for n in notes)
        edge = scan_gain("inverse-linear", *cases["square-range-edge"][:3]).error
        assert "" in edge and any(edge)
        # both sides of the series cut |s2 ln(lambda)^2| = 1e-6 around
        # Omega = 1/2, for omega0 = 1 and 1.5
        for case in ("series-cut-lambda-1", "series-cut-omega0"):
            v_axis, lam_axis, omega0_axis, _ = cases[case]
            u = v_axis.values()[:, None] / omega0_axis.values()[0]
            cut = np.abs((0.25 - u**-2) * np.log(lam_axis.values()) ** 2) < 1e-6
            assert cut.any() and not cut.all()
        # oscillatory (v < 2 omega0) and growing (v > 2 omega0) at every omega0
        v = cases["regimes-and-omega0"][0].values()
        assert (v < 2.0 * 0.5).any() and (v > 2.0 * 2.0).any()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("start,stop", [(1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_grid_axis_refuses_non_finite_endpoints(self, start, stop, spacing):
        with pytest.raises(DomainError, match="finite"):
            GridAxis(start, stop, 3, spacing).values()

    @pytest.mark.parametrize("start,stop,spacing,reason", [
        (-1.0, 1.0, "log", "positive endpoints"), (1.0, 0.0, "log", "positive endpoints"),
        (1.0, 2.0, "cubic", "unknown spacing 'cubic'"),
    ])
    @pytest.mark.parametrize("count", [1, 2])
    def test_grid_axis_checks_its_spacing_at_any_count(self, start, stop, spacing, reason, count):
        with pytest.raises(DomainError, match=reason):
            GridAxis(start, stop, count, spacing).values()

    @pytest.mark.filterwarnings("error")
    def test_array_scan_leaves_non_finite_points_to_the_per_point_path(self):
        inf, nan = math.inf, math.nan
        omega0 = np.array([1.0, 1.0, 1.0, inf, nan, 1.0])
        lam = np.array([2.0, inf, nan, 2.0, 2.0, 2.0])
        v = np.array([inf, 1.0, 1.0, 1.0, 1.0, 1.0])
        gain, det_err = cyclosc.cycles._scan_points("inverse-linear", omega0, lam, v, 1, -2.0)
        assert np.isnan(gain[:5]).all() and np.isnan(det_err[:5]).all()
        assert gain[5] == cycle_gain(CycleSpec("inverse-linear", v=1.0, lam=2.0))
        for w, l, u in zip(omega0[:5].tolist(), lam[:5].tolist(), v[:5].tolist()):
            with pytest.raises(DomainError):
                CycleSpec("inverse-linear", v=u, lam=l, omega0=w)

    # (omega0, lam, v) in no grid order: lam repeats in runs, stands alone,
    # equals another point's 1/lam across the outbound/return boundary, or
    # lets no point reach the array pass (lam = 1, or a bad argument)
    UNORDERED = {
        "runs": ([1.0, 2.0, 1.0, 1.0, 0.5, 2.0, 1.0, 3.0, 1.0, 1.0],
                 [3.0, 3.0, 3.0, 0.25, 0.25, 3.0, 3.0, 7.0, 7.0, 0.25],
                 [0.5, 1.5, 2.0, 0.7, 0.3, 0.9, 4.0, 1.1, 2.5, 6.0]),
        "singles": ([1.0, 2.0, 0.5, 1.0, 3.0], [5.0, 0.2, 2.5, 9.0, 0.7], [1.3, 0.4, 2.2, 0.8, 5.0]),
        "reciprocal-across-legs": ([1.0, 1.5, 1.0, 2.0], [2.0, 4.0, 4.0, 0.5], [0.6, 1.2, 3.0, 0.9]),
        "none-reach-the-arrays": ([1.0, 1.0, 2.0, 1.0], [1.0, 2.0, 1.0, 0.0], [0.5, -1.0, 2.0, 1.0]),
        "lambda-1-among-runs": ([1.0, 1.0, 1.0, 1.0], [2.0, 1.0, 2.0, 0.5], [0.8, 1.0, 1.4, 2.0]),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("case", sorted(UNORDERED))
    def test_array_scan_in_any_order_equals_per_point_path(self, case, n):
        omega0, lam, v = (np.array(x) for x in self.UNORDERED[case])
        gain, det_err = cyclosc.cycles._scan_points("inverse-linear", omega0, lam, v, n, -2.0)
        reached = 0
        for w, l, u, g, d in zip(omega0.tolist(), lam.tolist(), v.tolist(), gain.tolist(), det_err.tolist()):
            try:
                s = build_cycle(CycleSpec("inverse-linear", v=u, lam=l, omega0=w, n_cycles=n))
                want = (gain_factor(s), s.det_error())
            except (DomainError, SymplecticError):
                want = (math.nan, math.nan)
            if l == 1.0:
                want = (math.nan, math.nan)
            assert np.array_equal((g, d), want, equal_nan=True), (w, l, u)
            reached += not math.isnan(g)
        assert reached == (0 if case == "none-reach-the-arrays" else lam.size - (lam == 1.0).sum())

    def test_scan_takes_log_once_per_lambda_and_leg_direction(self, monkeypatch):
        # a 7 x 5 x 2 grid, every point valid: 140 legs, two of them on the
        # series branch of _cosh_sinch (v/omega0 = 1/2 or 2/3 with lambda
        # 4 or 3), which takes no libm value
        counts = dict.fromkeys(("log", "cosh", "sinh", "cos", "sin"), 0)
        legs, series = [], []

        def counted(name):
            real = getattr(math, name)

            def each(x):
                counts[name] += 1
                return real(x)
            return each

        cosh_sinch = cyclosc.closed_form._cosh_sinch

        def split(s2, x):
            legs.append(x.size)
            series.append(int((np.abs(s2 * x * x) < cyclosc.closed_form._SERIES_CUT).sum()))
            return cosh_sinch(s2, x)

        for name in counts:
            monkeypatch.setattr(math, name, counted(name))
        monkeypatch.setattr(cyclosc.closed_form, "_cosh_sinch", split)
        v_axis, lam_axis, omega0_axis = GridAxis(0.5, 3.0, 7), GridAxis(2.0, 6.0, 5), GridAxis(1.0, 2.0, 2)
        res = scan_gain("inverse-linear", v_axis, lam_axis, omega0_axis)
        monkeypatch.undo()
        assert res.error == ("",) * 70
        assert (legs, series) == ([140], [2])
        assert counts["log"] == 2 * lam_axis.count * omega0_axis.count
        assert counts["cosh"] + counts["cos"] == counts["sinh"] + counts["sin"] == 140 - 2

    def test_all_gains_bounded_below(self):
        res = scan_gain(
            "inverse-linear",
            GridAxis(0.01, 10.0, 60, "log"),
            GridAxis(10.0, 10.0, 1),
        )
        assert (res.gain >= 1.0 - 1e-9).all()


class TestUnityPoints:
    def test_grouping_keeps_its_results(self):
        # descending v axes with a NaN row at v = 0; two omega0 values at
        # one lambda and at a descending pair; and a lambda axis that
        # repeats its value, whose sweeps merge into one.  Values as
        # computed when scans were built row by row.
        v_axis = GridAxis(0.1, 0.0, 51)
        res = scan_gain("inverse-linear", v_axis, GridAxis(10.0, 10.0, 1), GridAxis(1.0, 2.0, 2))
        assert sum(1 for e in res.error if e) == 2
        assert find_unity_points(res, tol=1e-3, refine=False) == (
            (0.01200000000000001, 10.0, 1.0005636542282212),
            (0.018000000000000002, 10.0, 1.0009165728843912),
            (0.024000000000000007, 10.0, 1.0006990149240451),
            (0.036000000000000004, 10.0, 1.0004863194419054),
            (0.01200000000000001, 10.0, 1.0006388067265481),
            (0.018000000000000002, 10.0, 1.0008044289217213),
            (0.024000000000000007, 10.0, 1.000563654228221),
            (0.036000000000000004, 10.0, 1.0009165728843912),
            (0.048, 10.0, 1.0006990149240458),
            (0.07200000000000001, 10.0, 1.0004863194419054),
        )
        assert find_unity_points(res, tol=1e-3)[:5] == (
            (0.012192630153636816, 10.0, 1.0000086324365096),
            (0.018245517051467923, 10.0, 1.0000412443941544),
            (0.02424775732012451, 10.0, 1.0001201612397908),
            (0.03603838757451, 10.0, 1.0004806497713747),
            (0.011271390788343653, 10.0, 1.00000040618318),
        )
        res = scan_gain("inverse-linear", v_axis, GridAxis(10.0, 8.0, 2), GridAxis(1.0, 2.0, 2))
        assert find_unity_points(res, tol=1e-3, refine=False) == (
            (0.01200000000000001, 8.0, 1.0007642478475243),
            (0.01200000000000001, 10.0, 1.0005636542282212),
            (0.018000000000000002, 10.0, 1.0009165728843912),
            (0.024000000000000007, 10.0, 1.0006990149240451),
            (0.036000000000000004, 10.0, 1.0004863194419054),
            (0.013999999999999999, 8.0, 1.0005786161211234),
            (0.024000000000000007, 8.0, 1.0007642478475243),
            (0.027999999999999997, 8.0, 1.0009645560989047),
            (0.082, 8.0, 1.0003574805067181),
            (0.01200000000000001, 10.0, 1.0006388067265481),
            (0.018000000000000002, 10.0, 1.0008044289217213),
            (0.024000000000000007, 10.0, 1.000563654228221),
            (0.036000000000000004, 10.0, 1.0009165728843912),
            (0.048, 10.0, 1.0006990149240458),
            (0.07200000000000001, 10.0, 1.0004863194419054),
        )
        merged = scan_gain(
            "inverse-linear", GridAxis(0.05, 0.02, 40, "log"), GridAxis(10.0, 10.0, 2)
        )
        assert find_unity_points(merged, tol=1e-3) == (
            (0.024135301805843428, 10.0, 1.000214315809277),
            (0.024247677427683894, 10.0, 1.000120161316453),
            (0.024709754407355476, 10.0, 1.0009011542404729),
            (0.03598435837656053, 10.0, 1.0004921027900462),
            (0.036038154252578364, 10.0, 1.0004806498390328),
            (0.03684063602644752, 10.0, 1.000873007093678),
        )

    def test_failed_points_leave_their_sweep_and_flat_runs_are_no_dips(self):
        # the failed point at v = 0.2 drops out, so v = 0.3 is compared with
        # v = 0.1; inside a run of equal gains no point is a dip, at its
        # right end (v = 0.6) the next gain rises and it is one
        res = ScanResult(
            "inverse-linear", -2.0, 1, omega0=np.ones(7), lam=np.full(7, 10.0),
            v=np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]),
            gain=np.array([1.5, math.nan, 1.0, 1.2, 1.2, 1.2, 1.3]),
            det_err=np.zeros(7), error=("", "failed", "", "", "", "", ""),
        )
        assert find_unity_points(res, tol=1.0, refine=False) == ((0.3, 10.0, 1.0), (0.6, 10.0, 1.2))

    def test_near_unity_dips_exist_for_lambda_10(self):
        res = scan_gain(
            "inverse-linear",
            GridAxis(0.02, 2.0, 400, "log"),
            GridAxis(10.0, 10.0, 1),
        )
        points = find_unity_points(res, tol=1e-3)
        assert len(points) >= 1
        for v, lam, gain in points:
            assert lam == 10.0
            assert gain >= 1.0 - 1e-12
            assert gain - 1.0 < 1e-3
            assert 0.02 <= v <= 2.0

    def test_refinement_tightens_the_dip(self):
        res = scan_gain(
            "inverse-linear",
            GridAxis(0.02, 0.05, 60, "log"),
            GridAxis(10.0, 10.0, 1),
        )
        coarse = find_unity_points(res, tol=1e-3, refine=False)
        fine = find_unity_points(res, tol=1e-3, refine=True)
        # golden-section sharpening can only lower the recorded minimum
        assert len(fine) >= len(coarse) >= 1
        assert min(g for _, _, g in fine) <= min(g for _, _, g in coarse) + 1e-15
        for _, _, g in fine:
            assert g >= 1.0 - 1e-12


class TestRandomCycles:
    def test_gain_never_below_one(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            spec, gain, det_err = random_cycle_gain(rng)
            assert gain >= 1.0 - 1e-9, spec
            assert det_err < 1e-6

    def test_gain_is_spec_then_build(self):
        # random_cycle_gain draws exactly random_cycle_spec's numbers
        a, b = np.random.default_rng(31), np.random.default_rng(31)
        for _ in range(40):
            spec, gain, det_err = random_cycle_gain(a)
            same = random_cycle_spec(b)
            assert (same.family, same.v, same.lam, same.omega0, same.k, same.duration) == (
                spec.family, spec.v, spec.lam, spec.omega0, spec.k, spec.duration)
            s = build_cycle(same)
            assert (gain, det_err) == (gain_factor(s), s.det_error())
        assert a.uniform() == b.uniform()

    def test_build_cycles_matches_build_cycle(self):
        # closed-form cycles are the same products; integrated custom cycles
        # agree with batches of one to roundoff
        rng = np.random.default_rng(12)
        specs = [random_cycle_spec(rng) for _ in range(40)]
        specs.append(replace(specs[-1], n_cycles=3))
        integrated = [cyclosc.cycles._cycle_plan(s) is None for s in specs]
        assert any(integrated) and not all(integrated)
        for spec, s, ode_route in zip(specs, build_cycles(specs), integrated):
            one = build_cycle(spec)
            if ode_route:
                assert np.max(np.abs(s.as_array() - one.as_array())) <= 1e-12
            else:
                assert s == one
        assert build_cycles([]) == []

    def test_batches_raise_the_first_failing_items_own_error(self):
        # a batch evaluates its inverse-linear legs before its Bessel legs,
        # yet raises what the first failing spec or run raises on its own
        bessel = CycleSpec("power-law", v=0.5, lam=2.0, omega0=1e-300, k=-3.0)
        inverse_linear = CycleSpec("inverse-linear", v=1.0, lam=1e-320)
        for specs in ([bessel, inverse_linear], [inverse_linear, bessel]):
            with pytest.raises(DomainError) as alone:
                build_cycle(specs[0])
            with pytest.raises(DomainError) as batch:
                build_cycles(specs)
            assert str(batch.value) == str(alone.value)
        runs = [("power-law", 1e205, 2.0, -2.0), ("inverse-linear", 1e-200, 2.0, -2.0)]
        for order in (runs, runs[::-1]):
            with pytest.raises(DomainError) as alone:
                leg(*order[0])
            with pytest.raises(DomainError) as batch:
                legs(order)
            assert str(batch.value) == str(alone.value)

    def test_piecewise_palindrome_closes(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            prof = random_piecewise_cycle(rng)
            w0 = prof.omega_sq(0.0)
            w1 = prof.omega_sq(prof.duration - 1e-12)
            assert w1 == pytest.approx(w0, rel=1e-6)


@given(
    v=st.floats(min_value=0.02, max_value=50.0),
    lam=st.floats(min_value=0.05, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_property_inverse_linear_cycle_gains(v, lam):
    r = cycle_gain(CycleSpec("inverse-linear", v=v, lam=lam))
    assert r >= 1.0 - 1e-9


# specs that fail on their own: a Bessel frame that is not finite, lambda
# past the inverse-linear domain, v/omega0 past the float range, and a stack
# whose det check fails at repeat 626
FAILING_SPECS = (
    CycleSpec("power-law", v=0.5, lam=2.0, omega0=1e-300, k=-3.0),
    CycleSpec("inverse-linear", v=1.0, lam=1e-320),
    CycleSpec("exponential", v=1e300, lam=2.0, omega0=1e-10),
    CycleSpec("inverse-linear", v=0.02551539332291277, lam=408136468856.3615, n_cycles=1000),
)


@st.composite
def closed_cycle_specs(draw):
    """random_cycle_spec draws of 1 to 3 cycles, with Piecewise customs in
    place of the Fourier ones, so that every cycle is composed from closed forms."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = random_cycle_spec(rng)
    if spec.family == "custom" and not isinstance(spec.profile, Piecewise):
        profile = random_piecewise_cycle(rng)
        spec = replace(spec, profile=profile, duration=profile.duration)
    return replace(spec, n_cycles=draw(st.integers(1, 3)))


@given(
    specs=st.lists(closed_cycle_specs(), max_size=8),
    failing=st.lists(st.tuples(st.integers(0, 8), st.sampled_from(FAILING_SPECS)), max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_property_build_cycles_is_build_cycle_of_each_spec(specs, failing):
    for at, spec in failing:
        specs.insert(at, spec)
    alone = []
    for spec in specs:
        try:
            s = build_cycle(spec)
        except (DomainError, SymplecticError) as exc:
            alone.append(exc)
        else:
            alone.append(np.array([s.a, s.b, s.c, s.d]).view(np.int64).tolist())
    first = next((x for x in alone if isinstance(x, Exception)), None)
    if first is None:
        assert [np.array([s.a, s.b, s.c, s.d]).view(np.int64).tolist() for s in build_cycles(specs)] == alone
    else:
        with pytest.raises(type(first)) as batch:
            build_cycles(specs)
        assert str(batch.value) == str(first)
