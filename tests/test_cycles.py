"""Closed cycles, parameter scans, and the never-decreasing-energy theorem."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    StationaryState,
    TimeReversed,
    asymptotic_energy,
    build_cycle,
    compose,
    cycle_gain,
    final_energy,
    find_unity_points,
    gain_factor,
    propagate_inverse_linear,
    propagate_ode,
    random_cycle_gain,
    random_fourier_profile,
    random_piecewise_cycle,
    scan_gain,
)
from cyclosc.cycles import leg

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
        vs = [r.v for r in res.rows]
        lams = [r.lam for r in res.rows]
        assert vs == [0.5, 1.0, 1.5, 0.5, 1.0, 1.5]
        assert lams == [2.0, 2.0, 2.0, 4.0, 4.0, 4.0]
        assert [r.index for r in res.rows] == list(range(6))

    def test_worker_count_does_not_change_rows(self):
        # a row depends on its own grid point only: scanning each point on
        # its own, as any split of the grid among workers would, gives the
        # same rows as the whole scan
        axes = (GridAxis(0.05, 2.0, 8, "log"), GridAxis(10.0, 10.0, 1))
        whole = scan_gain("inverse-linear", *axes)
        for row in whole.rows:
            alone = scan_gain(
                "inverse-linear", GridAxis(row.v, row.v, 1), GridAxis(row.lam, row.lam, 1)
            ).rows[0]
            assert alone == replace(row, index=0)

    def test_failed_point_reported_not_raised(self):
        # v <= 0 is invalid for a closed-form family; the row carries the
        # message and a NaN gain instead of killing the whole scan
        res = scan_gain("inverse-linear", GridAxis(-1.0, 1.0, 2), GridAxis(2.0, 2.0, 1))
        bad, good = res.rows
        assert math.isnan(bad.gain) and bad.error != ""
        assert good.error == "" and good.gain >= 1.0

    def test_non_integer_cycle_count_becomes_nan_rows(self):
        res = scan_gain("inverse-linear", GridAxis(0.5, 1.0, 2), GridAxis(2.0, 2.0, 1), n_cycles=2.5)
        for row in res.rows:
            assert math.isnan(row.gain) and "n_cycles" in row.error

    def test_non_symplectic_point_reported_not_raised(self):
        # 30 stacked resonant cycles trip compose's absolute det tolerance
        # at v = 1 and 1.25; the scan keeps going
        res = scan_gain(
            "inverse-linear", GridAxis(1.0, 1.5, 3), GridAxis(10.0, 10.0, 1), n_cycles=30
        )
        for row in res.rows[:2]:
            assert math.isnan(row.gain) and math.isnan(row.det_err)
            assert row.error.startswith("compose: det")
        assert res.rows[2].error == ""
        assert res.rows[2].gain == 18.038492822866395

    def test_all_gains_bounded_below(self):
        res = scan_gain(
            "inverse-linear",
            GridAxis(0.01, 10.0, 60, "log"),
            GridAxis(10.0, 10.0, 1),
        )
        assert all(r.gain >= 1.0 - 1e-9 for r in res.rows)


class TestUnityPoints:
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
