"""Closed-form propagators against frozen ODE oracles and limit formulas.

The frozen matrices below were computed once with the adaptive integrator at
rtol 1e-12 / atol 1e-14 and are pinned here as independent regression
anchors; the live closed-vs-ODE comparison runs in the acceptance suite.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyclosc.closed_form
from cyclosc import (
    DomainError,
    EvolutionMatrix,
    StationaryState,
    SymplecticError,
    asymptotic_energy,
    energy_inverse_linear,
    exponent_pair,
    final_energy,
    gain_factor,
    leg,
    propagate_exponential,
    propagate_inverse_linear,
    propagate_power_law,
)
from oracles import (
    check_inverse_linear_scalar,
    exponential_leg_reference,
    inverse_linear_energy_mp,
    inverse_linear_entries_scalar,
    power_law_leg_reference,
)

# ODE oracle, inverse-linear omega0=1, v=1, lambda=2.
IL_ORACLE = (
    0.70575535263521416,
    0.92243876938134173,
    -0.46121938469063373,
    0.81409706100829438,
)
# ODE oracle, power-law k=-3, v=2, z_final=4.
PL_ORACLE = (
    0.83437941544255767,
    1.4781220542176314,
    -0.12315084031774698,
    0.98033102422241714,
)
# ODE oracle, inverse-linear energy at omega0=1, v=1 (Omega=1), lambda=10, n=0.
IL_ENERGY_ORACLE = 0.077708873235565273


class TestExponentPair:
    def test_oscillatory_regime(self):
        pair = exponent_pair(1.0, 1.0)  # Omega = 1 > 1/2
        assert pair.delta2 == pytest.approx(0.25 - 1.0)

    def test_confluent_point(self):
        assert exponent_pair(1.0, 2.0).delta2 == pytest.approx(0.0)

    def test_overdamped_regime(self):
        assert exponent_pair(1.0, 4.0).delta2 == pytest.approx(0.25 - 1.0 / 16.0)

    def test_rejects_zero_rate(self):
        with pytest.raises(DomainError):
            exponent_pair(1.0, 0.0)


class TestInverseLinear:
    def test_frozen_oracle(self):
        s = propagate_inverse_linear(1.0, 1.0, 2.0)
        assert s.a == pytest.approx(IL_ORACLE[0], rel=1e-10)
        assert s.b == pytest.approx(IL_ORACLE[1], rel=1e-10)
        assert s.c == pytest.approx(IL_ORACLE[2], rel=1e-10)
        assert s.d == pytest.approx(IL_ORACLE[3], rel=1e-10)
        assert s.det_error() < 1e-12

    def test_identity_at_unit_scale(self):
        s = propagate_inverse_linear(1.0, 1.0, 1.0)
        assert np.allclose(s.as_array(), np.eye(2), atol=1e-14)

    def test_three_regimes_connect(self):
        # delta^2 crosses zero at Omega = 1/2; the series branch must meet
        # the trig and hyperbolic branches seamlessly
        for v in (2.0 - 1e-6, 2.0, 2.0 + 1e-6):
            s = propagate_inverse_linear(1.0, v, 3.0)
            assert s.det_error() < 1e-12
        lo = propagate_inverse_linear(1.0, 2.0 - 1e-9, 3.0).as_array()
        mid = propagate_inverse_linear(1.0, 2.0, 3.0).as_array()
        hi = propagate_inverse_linear(1.0, 2.0 + 1e-9, 3.0).as_array()
        assert np.max(np.abs(lo - mid)) < 1e-7
        assert np.max(np.abs(hi - mid)) < 1e-7

    def test_contraction_needs_negative_rate(self):
        with pytest.raises(DomainError):
            propagate_inverse_linear(1.0, 1.0, 0.5)
        s = propagate_inverse_linear(1.0, -1.0, 0.5)
        assert s.det_error() < 1e-12

    def test_squares_out_of_float_range_are_domain_errors(self):
        # _SQUARE_MAX is the largest float that ** squares without overflow
        top = cyclosc.closed_form._SQUARE_MAX
        assert math.isfinite(top**2)
        with pytest.raises(OverflowError):
            math.nextafter(top, math.inf) ** 2
        # (omega0/v)**2 just past it, omega0**2 past it, and omega0/v = inf
        for omega0, v, lam in ((1.0, 1.0 / top / 2.0, 2.0), (2.0 * top, -1e300, 0.5),
                               (1e300, -1e-300, 0.5)):
            with pytest.raises(DomainError, match="overflows"):
                propagate_inverse_linear(omega0, v, lam)
            with pytest.raises(DomainError, match="overflows"):
                energy_inverse_linear(omega0, v, lam, 0.5)
        assert propagate_inverse_linear(1.0, 1.0 / top, 2.0).det_error() < 1e-12
        # the energy past the float range: sh ** 2 overflows, or E0 (sh^2 + 2)/(2 lam) does
        for omega0, v, lam in ((1e-300, -1.0, 5e-324), (1e-3, -1.0, 1e-300)):
            with pytest.raises(DomainError, match=r"leaves the float range$"):
                energy_inverse_linear(omega0, v, lam, 1.0)
        assert propagate_inverse_linear(1e-300, 1e-300, 1.0) == propagate_inverse_linear(1.0, 1.0, 1.0)

    def test_infinite_lambda_is_a_domain_error(self):
        # cos(inf) would raise ValueError where Omega > 1/2 and give nan where Omega < 1/2
        for run in (lambda: propagate_inverse_linear(1.0, 0.1, math.inf),
                    lambda: propagate_inverse_linear(1.0, 10.0, math.inf),
                    lambda: leg("inverse-linear", 0.1, math.inf)):
            with pytest.raises(DomainError, match=r"^lambda must be finite, got inf$"):
                run()

    def test_arrays_are_legs_checked_one_by_one(self):
        # one leg per element, the identity where lam = 1; the first leg
        # that fails a check raises its own error
        s = propagate_inverse_linear(1.0, np.array([1.0, 0.0, -2.0]), np.array([2.0, 1.0, 0.5]))
        assert s.a.shape == (3,)
        for i, one in enumerate((propagate_inverse_linear(1.0, 1.0, 2.0), EvolutionMatrix.identity(),
                                 propagate_inverse_linear(1.0, -2.0, 0.5))):
            assert EvolutionMatrix(s.a[i], s.b[i], s.c[i], s.d[i]) == one
        with pytest.raises(DomainError, match=r"^lambda = 0\.5 is not reachable with rate v = 1\.0"):
            propagate_inverse_linear(np.array([1.0, 1.0, -1.0]), np.array([1.0, 1.0, 1.0]),
                                     np.array([2.0, 0.5, 0.5]))

    def test_energy_frozen_oracle(self):
        e = energy_inverse_linear(1.0, 1.0, 10.0, 0.5)
        assert e == pytest.approx(IL_ENERGY_ORACLE, rel=1e-10)

    def test_energy_matches_matrix_route(self):
        for v, lam in [(0.3, 5.0), (1.0, 10.0), (4.0, 2.0), (-0.7, 0.2)]:
            s = propagate_inverse_linear(1.0, v, lam)
            via_matrix = final_energy(s, StationaryState(0), 1.0 / lam)
            assert energy_inverse_linear(1.0, v, lam, 0.5) == pytest.approx(
                via_matrix, rel=1e-11
            )

    @pytest.mark.parametrize("eps_lo, eps_hi", [(1e-9, 1e-6), (1e-6, 1e-3), (1e-3, 1e3)])
    def test_energy_near_the_confluent_point_matches_mpmath(self, eps_lo, eps_hi):
        # Omega = (1 +- eps)/2 with lambda log-uniform over 1e-8 .. 1e8.  The
        # energy's (cosh(2 delta ln lam) - 1)/delta^2 is read as 2 sinch^2,
        # which does not cancel just past the series cut (1.8e-10 when it
        # was formed as a difference)
        rng = np.random.default_rng(17)
        points = [(0.49999999397498257, 1.0, 704.03)]
        for _ in range(150):
            eps = 10.0 ** rng.uniform(math.log10(eps_lo), math.log10(eps_hi))
            omega = 0.5 * (1.0 + eps * rng.choice([-1.0, 1.0]))
            lam = 10.0 ** rng.uniform(-8.0, 8.0)
            if omega > 0.0:
                points.append((omega, 1.0 if lam > 1.0 else -1.0, lam))
        for omega, v, lam in points:
            want = inverse_linear_energy_mp(omega, v, lam, 0.5)
            assert energy_inverse_linear(omega, v, lam, 0.5) == pytest.approx(want, rel=1e-13, abs=0.0), (
                omega, lam)

    def test_adiabatic_limit(self):
        # slow change keeps the adiabatic invariant E/omega: E_f -> omega_f/2
        lam = 2.0
        e = energy_inverse_linear(1.0, 1e-3, lam, 0.5)
        assert e == pytest.approx(0.5 / lam, rel=1e-5)

    def test_sudden_limit(self):
        lam = 2.0
        e = energy_inverse_linear(1.0, 1e4, lam, 0.5)
        assert e == pytest.approx(asymptotic_energy(lam), rel=1e-6)

    def test_omega0_rescaling(self):
        # (t, v) -> (omega0 t, v/omega0) maps omega0 to 1; the matrix picks
        # up the canonical scaling S = D S_norm D^-1 with D = diag(1, omega0)
        omega0 = 2.0
        s_native = propagate_inverse_linear(omega0, 1.0, 3.0)
        s_norm = propagate_inverse_linear(1.0, 1.0 / omega0, 3.0)
        assert s_native.a == pytest.approx(s_norm.a, rel=1e-13)
        assert s_native.d == pytest.approx(s_norm.d, rel=1e-13)
        assert s_native.b == pytest.approx(s_norm.b / omega0, rel=1e-13)
        assert s_native.c == pytest.approx(s_norm.c * omega0, rel=1e-13)


class TestPowerLaw:
    def test_frozen_oracle(self):
        s = propagate_power_law(-3.0, 2.0, 4.0)
        assert s.a == pytest.approx(PL_ORACLE[0], rel=1e-10)
        assert s.b == pytest.approx(PL_ORACLE[1], rel=1e-10)
        assert s.c == pytest.approx(PL_ORACLE[2], rel=1e-10)
        assert s.d == pytest.approx(PL_ORACLE[3], rel=1e-10)
        assert s.det_error() < 1e-11

    def test_identity_at_unit_scale(self):
        s = propagate_power_law(-3.0, 2.0, 1.0)
        assert np.allclose(s.as_array(), np.eye(2), atol=1e-12)

    def test_contraction_needs_negative_rate(self):
        with pytest.raises(DomainError):
            propagate_power_law(-2.0, 1.0, 0.5)
        assert propagate_power_law(-2.0, -1.0, 0.5).det_error() < 1e-11

    def test_order_cap(self):
        # Bessel order 1/k blows past the supported range for tiny k
        with pytest.raises(DomainError):
            propagate_power_law(0.05, 1.0, 2.0)

    @pytest.mark.parametrize("k", [-2.0, -3.0, -4.0])
    def test_fast_limit_is_k_independent(self, k):
        lam = 0.1
        z_final = lam ** (-2.0 / (k - 2.0))
        v = 1e3 if z_final > 1.0 else -1e3
        s = propagate_power_law(k, v, z_final)
        e = final_energy(s, StationaryState(0), 1.0 / lam)
        assert e == pytest.approx(25.25, rel=2e-4)


    # magnitudes from the smallest subnormal to near the largest float
    EXTREMES = (5e-324, 1e-300, 1e-150, 1e-10, 0.5, 1.0, 2.0, 1e10, 1e150, 1e300, 1.7e308)

    @pytest.mark.parametrize("k", [1e300, -1e300, 50.0, -50.0, -4.0, 0.1, -0.1, 1.0, 3.0])
    def test_extreme_arguments_raise_only_typed_errors(self, k):
        # k v or z^(k/2) leaving the float range is a DomainError, not a
        # ZeroDivisionError or OverflowError
        for v in self.EXTREMES + tuple(-m for m in self.EXTREMES):
            for z in self.EXTREMES:
                try:
                    s = propagate_power_law(k, v, z)
                except (DomainError, SymplecticError):
                    continue
                assert isinstance(s, EvolutionMatrix)

    @pytest.mark.parametrize("k, v, z, entries", [
        (-4.0, 0.5, 2.0, (0.4188673131478804, 1.813704531167164, -0.35647272870324, 0.8438562418658362)),
        (3.0, -2.0, 0.5, (0.9740612539325618, 0.2480514233737805, -0.18607101076365673, 0.9792452138718528)),
        (-0.1, 1e-10, 1e10, (-176648.33337283498, 20448.543191700843, -6.466397138151704e-07,
                             -5.586110783167619e-06)),
        # det_error 1.0 at R ~ 2.4e256, but its Wronskian drifts by only 1.3e-14
        (0.1, -0.5, 1e-150, (5.209319987068916e-08, 8.4612958371932e-08, -1.1566653967154282e+128,
                             -1.8787266150951846e+128)),
    ])
    def test_extreme_valid_points_keep_their_bits(self, k, v, z, entries):
        s = propagate_power_law(k, v, z)
        assert (s.a, s.b, s.c, s.d) == entries

    @pytest.mark.filterwarnings("error")
    def test_non_finite_frame_is_a_domain_error(self):
        # both frames are finite, but the Wronskian of the start overflows
        not_finite = r"^the Bessel frame is not finite: its Wronskian evaluates to -inf$"
        with pytest.raises(DomainError, match=not_finite):
            propagate_power_law(-2.0, 1e205, math.sqrt(2.0))
        # the start frame and its Wronskian are finite, the end frame is not
        with pytest.raises(DomainError, match=r"^the Bessel frame at z = 1e\+300 is not finite$"):
            propagate_power_law(-1.0, 1.0, 1e300)

    @pytest.mark.parametrize("k, v, z", [(-1.0, -1e150, 1e-300)])
    def test_map_past_the_float_range_is_a_domain_error(self, k, v, z):
        # both frames and the Wronskian are finite, their product is not
        with pytest.raises(DomainError, match=r"^the Bessel map leaves the float range: "):
            propagate_power_law(k, v, z)

    # Legs whose end Wronskian drifts from the start's: the entries the two
    # frames give are wrong.  A 400-digit mpmath map (the same at 700 digits):
    # (-4, -1.0854980928510594e-06, 1.088002219210647e-06): drift 2.79, entries
    #     (-9.75e-10, 7.59e-11, 1.42e8, 1.83e9) against (6.79e-10, 9.10e-10, -7.06e8, 5.27e8);
    # (-50, 1e-300, 1e10): drift 0.43, (-7.53e129, -1.27e113, -1.00e-146, -7.53e-131)
    #     against (9.12e129, -4.10e129, 4.10e-131, 9.12e-131);
    # (-2, 1e-300, 1.7e308): the end Wronskian underflows to 0 and the map
    #     reads a = -inf, against the finite (1.29e308, 1.11e308, 7.60e-301, 6.51e-301);
    # (-3, -1e150, 9.999999999999995e-05), the leg of `cycle --family power --k -3
    #     --v 1e150 --lambda 1e-10`: drift 0.99994, (1.22e-4, 0, -4.09e149, 0.75)
    #     against (1.0, 1.0e-150, -2.5e-135, 1.0).
    @pytest.mark.parametrize("k, v, z", [(-4.0, -1.0854980928510594e-06, 1.088002219210647e-06),
                                         (-50.0, 1e-300, 1e10), (-2.0, 1e-300, 1.7e308),
                                         (-3.0, -1e150, 9.999999999999995e-05)])
    def test_drifting_wronskian_is_a_domain_error(self, k, v, z):
        with pytest.raises(DomainError, match=r"is inaccurate: its Wronskian drifts by .* \(tolerance 1e-06\)$"):
            propagate_power_law(k, v, z)

    @pytest.mark.parametrize("k, v, z", [(-0.1, 5e-324, 2.0), (-1e300, 5e-324, 2.0), (3.0, 1e-300, 1e300),
                                         (-1e300, -5e-324, 5e-324), (1.0, 1e-300, 1e20)])
    def test_bessel_argument_out_of_range_is_a_domain_error(self, k, v, z):
        with pytest.raises(DomainError, match="is not a positive float"):
            propagate_power_law(k, v, z)


class TestExponential:
    def test_identity_at_unit_scale(self):
        s = propagate_exponential(1.0, 1.0)
        assert np.allclose(s.as_array(), np.eye(2), atol=1e-12)

    def test_reachability(self):
        with pytest.raises(DomainError):
            propagate_exponential(1.0, 0.5)
        with pytest.raises(DomainError):
            propagate_exponential(-1.0, 2.0)

    @pytest.mark.parametrize("v", [20.0, 50.0, 100.0])
    def test_fast_asymptote_one_percent(self, v):
        # reference curve E = (1 + z^2)/4 - (z^2 - 1)^2 / (16 v^2) at z = 2
        z = 2.0
        s = propagate_exponential(v, z)
        e = final_energy(s, StationaryState(0), z)
        reference = 0.25 * (1.0 + z * z) - (z * z - 1.0) ** 2 / (16.0 * v * v)
        assert e == pytest.approx(reference, rel=1e-2)

    def test_deficit_scales_as_inverse_square_rate(self):
        z = 2.0
        sudden = 0.25 * (1.0 + z * z)
        deficits = {}
        for v in (20.0, 50.0, 100.0):
            s = propagate_exponential(v, z)
            deficits[v] = sudden - final_energy(s, StationaryState(0), z)
        # deficit * v^2 is constant; measured coefficient is ~0.0820 at z=2
        coeffs = [deficits[v] * v * v for v in (20.0, 50.0, 100.0)]
        assert all(c == pytest.approx(coeffs[0], rel=0.02) for c in coeffs)
        assert coeffs[-1] == pytest.approx(0.08205, rel=0.01)


class TestAsymptoticEnergy:
    def test_fig2_value(self):
        assert asymptotic_energy(0.1) == pytest.approx(25.25, rel=1e-15)

    def test_unit_scale(self):
        assert asymptotic_energy(1.0) == 0.5


@given(
    v=st.floats(min_value=0.05, max_value=50.0),
    lam=st.floats(min_value=1.01, max_value=50.0),
)
@settings(max_examples=150, deadline=None)
def test_property_inverse_linear_det_is_one(v, lam):
    assert propagate_inverse_linear(1.0, v, lam).det_error() < 1e-11


@st.composite
def inverse_linear_legs(draw):
    """(omega0, v, lam) of one leg: growing (Omega = omega0/|v| < 1/2),
    oscillating (Omega > 1/2), within 1e-6 of the confluent Omega = 1/2, or
    with u = s2 ln(lam)^2 at the series cut, |u| = 1e-6 up to a factor 2."""
    omega0 = draw(st.floats(min_value=0.1, max_value=10.0))
    regime = draw(st.sampled_from(["growing", "oscillating", "confluent", "series-cut"]))
    if regime == "growing":
        big = draw(st.floats(min_value=1e-3, max_value=0.5, exclude_max=True))
    elif regime == "oscillating":
        big = draw(st.floats(min_value=0.5, max_value=50.0, exclude_min=True))
    elif regime == "confluent":
        big = 0.5 + draw(st.floats(min_value=-1e-6, max_value=1e-6))
    else:
        big = draw(st.floats(min_value=0.3, max_value=0.45) | st.floats(min_value=0.55, max_value=0.7))
    if regime == "series-cut":
        ln = math.sqrt(1e-6 * draw(st.floats(min_value=0.5, max_value=2.0)) / abs(0.25 - big * big))
        lam = math.exp(draw(st.sampled_from([-ln, ln])))
    else:
        lam = draw(st.floats(min_value=0.05, max_value=20.0).filter(lambda x: x != 1.0))
    return omega0, math.copysign(omega0 / big, lam - 1.0), lam


@given(st.lists(inverse_linear_legs(), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_property_inverse_linear_batch_is_each_leg_alone(points):
    # one array formula: each element of a batch carries the bits of its
    # one-point evaluation and of the scalar reference, in every regime
    batch = propagate_inverse_linear(*(np.array(x) for x in zip(*points)))
    for i, point in enumerate(points):
        one = propagate_inverse_linear(*point)
        bits = [x.hex() for x in (one.a, one.b, one.c, one.d)]
        assert [x[i].item().hex() for x in (batch.a, batch.b, batch.c, batch.d)] == bits
        assert [x.hex() for x in inverse_linear_entries_scalar(*point)] == bits


def _scalar_refusal(omega0, v, lam):
    """The message the one-leg if-chain raises for a leg, or None."""
    try:
        check_inverse_linear_scalar(omega0, v, lam)
    except DomainError as exc:
        return str(exc)
    return None


# zeros, infinities, nan, 1, subnormals and the ends of the float range, any
# float, or a positive one (every leg of a batch must pass the first checks
# for a later check or a later leg to be reached)
_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308]
) | st.floats() | st.floats(min_value=5e-324, max_value=1e10) | st.floats(min_value=0.5, max_value=2.0)


@given(st.lists(st.tuples(_EDGE_FLOATS, _EDGE_FLOATS, _EDGE_FLOATS), min_size=1, max_size=4))
@settings(max_examples=400, deadline=None)
def test_property_inverse_linear_domain_is_the_scalar_chain(points):
    # the domain, stated once as arrays, refuses exactly the legs the
    # one-leg if-chain refuses; a batch raises its first such leg's message
    refusals = [_scalar_refusal(*point) for point in points]
    arrays = [np.array(x) for x in zip(*points)]
    assert cyclosc.closed_form._inverse_linear_args_ok(*arrays).tolist() == [r is None for r in refusals]
    first = next((r for r in refusals if r is not None), None)
    if first is None:
        propagate_inverse_linear(*arrays)
    else:
        with pytest.raises(DomainError) as batch:
            propagate_inverse_linear(*arrays)
        assert str(batch.value) == first
    if refusals[0] is not None:
        with pytest.raises(DomainError) as one:
            energy_inverse_linear(*points[0], 1.0)
        assert str(one.value) == refusals[0]


@given(
    k=st.sampled_from([-4.0, -3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 3.0]),
    v=st.floats(min_value=0.1, max_value=10.0),
    z=st.floats(min_value=1.05, max_value=5.0),
)
@settings(max_examples=150, deadline=None)
def test_property_power_law_det_is_one(k, v, z):
    assert propagate_power_law(k, v, z).det_error() < 1e-10


@given(
    v=st.floats(min_value=0.1, max_value=30.0),
    z=st.floats(min_value=1.05, max_value=6.0),
)
@settings(max_examples=150, deadline=None)
def test_property_exponential_det_is_one(v, z):
    assert propagate_exponential(v, z).det_error() < 1e-10


def _leg_outcome(run, *args):
    """A leg's entries as hex strings, or the message of its DomainError."""
    try:
        s = run(*args)
    except DomainError as exc:
        return str(exc)
    return [x.hex() for x in (s.a, s.b, s.c, s.d)]


def _same_leg_as_reference(run, reference, *args):
    outcome = _leg_outcome(run, *args)
    if isinstance(outcome, str) and "its Wronskian drifts by" in outcome:
        return  # the reference has no drift refusal: its entries here are wrong
    assert outcome == _leg_outcome(reference, *args)


# ends of the float range, subnormals, zeros, infinities and nan, any float,
# and rates and scales in the working range
_LEG_FLOATS = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, 1e-300, -1e-300, 1e300, -1e300,
     1.7e308, 1.0, -1.0]
) | st.floats() | st.floats(min_value=1e-3, max_value=1e3) | st.floats(min_value=-1e3, max_value=-1e-3)


@given(
    k=st.sampled_from([-4.0, -3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 3.0, 0.1, -0.1, 50.0, 0.0, math.nan])
    | st.floats(min_value=-5.0, max_value=5.0) | st.floats(),
    v=_LEG_FLOATS,
    z=_LEG_FLOATS,
)
@settings(max_examples=400, deadline=None)
def test_property_power_law_leg_is_the_reference(k, v, z):
    # the single Bessel leg gives the bits and messages of the power-law
    # family's own frame, wherever it does not refuse a drifting Wronskian
    _same_leg_as_reference(propagate_power_law, power_law_leg_reference, k, v, z)


@given(v=_LEG_FLOATS, z=_LEG_FLOATS)
@example(v=-1e300, z=7.354155559224435e-05)  # J_1 underflows to 0 in the end frame: c is +0.0
@settings(max_examples=400, deadline=None)
def test_property_exponential_leg_is_the_reference(v, z):
    _same_leg_as_reference(propagate_exponential, exponential_leg_reference, v, z)
