"""Symplectic algebra: hand-checked values, invariants, and property tests."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclosc import (
    BogoliubovPair,
    CavitySpec,
    DomainError,
    EvolutionMatrix,
    GridAxis,
    MomentTriple,
    StationaryState,
    SymplecticError,
    asymptotic_energy,
    bogoliubov_energy,
    compose,
    exponent_pair,
    final_energy,
    final_energy_general,
    gain_factor,
    random_symplectic,
    thermal_occupation,
    to_bogoliubov,
    transport_moments,
)

ANGLES = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
SQUEEZES = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)


def sp2(t1: float, r: float, t2: float) -> EvolutionMatrix:
    """rotation * squeeze * rotation covers all of Sp(2)."""
    return compose(
        EvolutionMatrix.rotation(t1),
        compose(EvolutionMatrix.squeeze(r), EvolutionMatrix.rotation(t2)),
    )


class TestEvolutionMatrix:
    def test_identity(self):
        s = EvolutionMatrix.identity()
        assert (s.a, s.b, s.c, s.d) == (1.0, 0.0, 0.0, 1.0)
        assert s.det() == 1.0

    def test_rotation_layout(self):
        s = EvolutionMatrix.rotation(0.3)
        assert s.a == pytest.approx(math.cos(0.3))
        assert s.b == pytest.approx(math.sin(0.3))
        assert s.c == pytest.approx(-math.sin(0.3))
        assert s.d == pytest.approx(math.cos(0.3))
        assert s.is_orthogonal()

    def test_array_roundtrip(self):
        s = EvolutionMatrix(2.0, 3.0, 1.0, 2.0)  # det = 1
        assert EvolutionMatrix.from_array(s.as_array()) == s

    def test_from_array_stores_python_floats(self):
        # numpy scalars would print as np.float64(...) in error messages
        s = EvolutionMatrix.from_array(np.array([[2.0, 3.0], [1.0, 2.0]], dtype=np.float32))
        assert [type(x) for x in (s.a, s.b, s.c, s.d)] == [float] * 4

    def test_inverse(self):
        s = sp2(0.4, 1.7, -0.9)
        prod = compose(s, s.inverse())
        assert np.allclose(prod.as_array(), np.eye(2), atol=1e-12)


class TestCompose:
    def test_identity_absorbs(self):
        eye = EvolutionMatrix.identity()
        assert compose(eye, eye) == eye

    def test_rotations_add(self):
        s = compose(EvolutionMatrix.rotation(0.7), EvolutionMatrix.rotation(-0.2))
        expect = EvolutionMatrix.rotation(0.5)
        assert np.allclose(s.as_array(), expect.as_array(), atol=1e-15)

    def test_reciprocal_squeezes_cancel(self):
        s = compose(EvolutionMatrix.squeeze(2.0), EvolutionMatrix.squeeze(0.5))
        assert np.allclose(s.as_array(), np.eye(2), atol=0.0)

    def test_order_is_right_to_left(self):
        shear_like = compose(EvolutionMatrix.rotation(0.3), EvolutionMatrix.squeeze(2.0))
        direct = EvolutionMatrix.rotation(0.3).as_array() @ EvolutionMatrix.squeeze(2.0).as_array()
        assert np.allclose(shear_like.as_array(), direct, atol=0.0)

    def test_rejects_non_symplectic(self):
        bad = EvolutionMatrix(2.0, 0.0, 0.0, 2.0)  # det = 4
        with pytest.raises(SymplecticError):
            compose(bad, EvolutionMatrix.identity())


class TestSymplecticContract:
    """|det S - 1| < DET_TOL_INPUT * R with R = Tr[S S^T]/2 finite."""

    def test_tolerance_scales_with_r(self):
        # at R ~ 5e9 a deviation of 2e-6 is accepted (an absolute 1e-6 was not)
        big = EvolutionMatrix(1e5, 3.0, 0.0, (1.0 + 2e-6) / 1e5)
        assert gain_factor(big) == 0.5 * (1e10 + 9.0 + 1e-10 * (1.0 + 2e-6) ** 2)
        # ... and refused where the deviation is a relative 1e-6 of R
        with pytest.raises(SymplecticError, match=r"^gain_factor: det = 6000\.0 deviates "
                                                  r"from 1 by 5999\.0 \(tolerance 5000\.\d+\)$"):
            gain_factor(EvolutionMatrix(1e5, 3.0, 0.0, 0.06))
        # at R ~ 1 the tolerance is the old absolute 1e-6
        with pytest.raises(SymplecticError, match=r"\(tolerance 1\.0\d*e-06\)$"):
            gain_factor(EvolutionMatrix(1.0, 0.0, 0.0, 1.0 + 2e-6))

    def test_overflowing_r_is_refused_not_raised_as_overflow(self):
        # det is 1 to roundoff, but the squares overflow: without the
        # finite-R clause inf * 1e-6 would admit it and R would read inf
        s = EvolutionMatrix.squeeze(1e200)
        overflow = r"^gain_factor: Tr\[S S\^T\]/2 overflows to inf$"
        with pytest.raises(SymplecticError, match=overflow):
            gain_factor(s)

    def test_is_symplectic_is_elementwise(self):
        mats = [EvolutionMatrix.squeeze(1e7), EvolutionMatrix(1.0, 0.0, 0.0, 1.1),
                EvolutionMatrix.squeeze(1e200), EvolutionMatrix(math.nan, 0.0, 0.0, 1.0),
                sp2(0.3, 15.0, -1.2)]
        stacked = EvolutionMatrix(*map(np.array, zip(*((m.a, m.b, m.c, m.d) for m in mats))))
        with np.errstate(over="ignore"):
            assert stacked.is_symplectic().tolist() == [m.is_symplectic() for m in mats]
        assert [bool(m.is_symplectic()) for m in mats] == [True, False, False, False, True]

    def test_bogoliubov_energy_reads_the_same_contract(self):
        # |alpha|^2 - |beta|^2 - 1 is ~5e-3 here, roundoff at R ~ 2.5e13
        s = EvolutionMatrix.squeeze(1e7)
        assert bogoliubov_energy(to_bogoliubov(s), StationaryState(0)) == pytest.approx(
            final_energy(s, StationaryState(0), 1.0), rel=1e-12
        )
        with pytest.raises(SymplecticError, match=r"^bogoliubov_energy: det = 2\.25 deviates"):
            bogoliubov_energy(BogoliubovPair(1.5, 0.0), StationaryState(0))


class TestGainFactor:
    def test_identity_gain_is_one(self):
        assert gain_factor(EvolutionMatrix.identity()) == 1.0

    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, 2.0, -5.0])
    def test_rotation_gain_is_one(self, theta):
        assert gain_factor(EvolutionMatrix.rotation(theta)) == pytest.approx(1.0, abs=1e-15)

    def test_squeeze_hand_value(self):
        assert gain_factor(EvolutionMatrix.squeeze(2.0)) == pytest.approx(2.125, abs=0.0)

    def test_squares_are_correctly_rounded_products(self):
        # libm's pow(a, 2) is one bit off a * a here (R from pow reads 1.4010639103749387)
        a = 1.5434958358546733
        s = EvolutionMatrix(a, 0.0, 0.0, 1 / a)
        r = 0.5 * (s.a * s.a + s.b * s.b + s.c * s.c + s.d * s.d)
        assert gain_factor(s) == r == 1.401063910374939
        assert final_energy(s, StationaryState(0), 1.0) == 0.5 * r

    def test_rejects_non_symplectic(self):
        with pytest.raises(SymplecticError):
            gain_factor(EvolutionMatrix(1.0, 0.0, 0.0, 1.1))


class TestFinalEnergy:
    def test_identity_ground_state(self):
        assert final_energy(EvolutionMatrix.identity(), StationaryState(0), 1.0) == 0.5

    def test_squeeze_ground_state(self):
        e = final_energy(EvolutionMatrix.squeeze(2.0), StationaryState(0), 1.0)
        assert e == pytest.approx(1.0625, abs=0.0)

    def test_universality_exact_ratio(self):
        # the gain must not depend on which stationary state went in; E_0 is
        # a power of two, so the shared form factor is recovered exactly and
        # every other level must be bit-identical to form * (n + 1/2)
        s = sp2(1.1, 3.7, -0.4)
        form = 2.0 * final_energy(s, StationaryState(0), 1.0)
        for n in (1, 5, 20):
            assert final_energy(s, StationaryState(n), 1.0) == form * (n + 0.5)

    def test_off_cycle_frequency(self):
        # identity evolution read off at omega_f: E = (omega_f^2 <q^2> + <p^2>)/2
        e = final_energy(EvolutionMatrix.identity(), StationaryState(0), 2.0)
        assert e == pytest.approx(0.5 * (4.0 * 0.5 + 0.5))

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError):
            final_energy(EvolutionMatrix.identity(), StationaryState(0, omega0=2.0), 1.0)


class TestMoments:
    def test_virial_moments(self):
        m = StationaryState(1).virial_moments()
        assert (m.qq, m.pp, m.d) == (1.5, 1.5, 0.0)

    def test_uncertainty_floor_enforced(self):
        with pytest.raises(ValueError):
            MomentTriple(0.1, 0.1, 0.0)  # qq*pp = 0.01 < 1/4
        with pytest.raises(ValueError):
            MomentTriple(0.5, 0.5 - 5e-9, 0.0)  # small moments keep the slack 1e-9

    def test_uncertainty_slack_scales_with_the_moments(self):
        # R = 2.4e8: qq*pp and d^2 ~ 6e16 cancel to 1/4 with roundoff far
        # above 1e-9, the bound of test_property_uncertainty_product_invariant
        s = sp2(0.7, math.exp(10.0), 0.3)
        out = transport_moments(s, StationaryState(0).virial_moments())
        p, d2 = out.qq * out.pp, out.d**2
        assert abs(p - d2 - 0.25) <= 64.0 * sys.float_info.epsilon * (p + d2)

    def test_rotation_hand_value(self):
        e = final_energy_general(
            EvolutionMatrix.rotation(math.pi / 2), MomentTriple(2.0, 0.5, 0.0), 1.0
        )
        assert e == pytest.approx(1.25, abs=1e-15)

    def test_general_reduces_to_stationary(self):
        s = sp2(0.5, 2.4, 1.9)
        state = StationaryState(3)
        direct = final_energy(s, state, 1.3)
        via_moments = final_energy_general(s, state.virial_moments(), 1.3)
        assert direct == pytest.approx(via_moments, rel=1e-14)

    def test_transport_matches_general_energy(self):
        s = sp2(-0.3, 0.6, 2.2)
        m = MomentTriple(1.0, 0.5, 0.3)
        out = transport_moments(s, m)
        assert 0.5 * (out.pp + 4.0 * out.qq) == pytest.approx(
            final_energy_general(s, m, 2.0), rel=1e-14
        )

    def test_squeezed_state_energy_can_decrease(self):
        # a stationary state never loses energy over a cycle, but a squeezed
        # state divided by the right unsqueeze does
        m = MomentTriple(1.0, 0.3, 0.0)
        e_in = 0.5 * (m.pp + m.qq)
        s_opt = EvolutionMatrix.squeeze((m.pp / m.qq) ** 0.25)
        e_out = final_energy_general(s_opt, m, 1.0)
        assert e_out == pytest.approx(math.sqrt(m.pp * m.qq), rel=1e-12)
        assert e_out < e_in


class TestBogoliubov:
    def test_identity_pair(self):
        pair = to_bogoliubov(EvolutionMatrix.identity())
        assert pair.alpha == 1.0 and pair.beta == 0.0

    def test_rotation_is_phase(self):
        pair = to_bogoliubov(EvolutionMatrix.rotation(0.8))
        assert pair.alpha == pytest.approx(complex(math.cos(0.8), -math.sin(0.8)))
        assert abs(pair.beta) == pytest.approx(0.0, abs=1e-15)

    def test_squeeze_hand_value(self):
        pair = to_bogoliubov(EvolutionMatrix.squeeze(2.0))
        assert pair.alpha == 1.25 and pair.beta == 0.75
        assert abs(pair.alpha) ** 2 - abs(pair.beta) ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_energy_hand_values(self):
        assert bogoliubov_energy(BogoliubovPair(1.0, 0.0), StationaryState(5)) == 5.5
        e = bogoliubov_energy(BogoliubovPair(1.25, 0.75), StationaryState(0))
        assert e == pytest.approx(1.0625, abs=0.0)
        # |beta|^2 = 1 forces |alpha|^2 = 2: E = 1/2 + 2 n + (n + 1)
        e = bogoliubov_energy(BogoliubovPair(math.sqrt(2.0), 1.0), StationaryState(1))
        assert e == pytest.approx(4.5, rel=1e-15)

    def test_energy_matches_matrix_route(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = random_symplectic(rng)
            state = StationaryState(int(rng.integers(0, 8)))
            via_pair = bogoliubov_energy(to_bogoliubov(s), state)
            assert via_pair == pytest.approx(final_energy(s, state, 1.0), rel=1e-12)


class TestRandomSymplectic:
    def test_gain_never_below_one(self):
        rng = np.random.default_rng(2)
        gains = [gain_factor(random_symplectic(rng)) for _ in range(500)]
        assert min(gains) >= 1.0 - 1e-12

    def test_unity_gain_implies_orthogonal(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = random_symplectic(rng)
            if abs(gain_factor(s) - 1.0) < 1e-12:
                arr = s.as_array()
                assert np.max(np.abs(arr @ arr.T - np.eye(2))) < 1e-9


@given(t1=ANGLES, r=SQUEEZES, t2=ANGLES)
@settings(max_examples=200, deadline=None)
def test_property_det_preserved_and_gain_bounded(t1, r, t2):
    s = sp2(t1, r, t2)
    assert s.det_error() < 1e-9
    assert gain_factor(s) >= 1.0 - 1e-12


@given(t1=ANGLES, r=SQUEEZES, t2=ANGLES)
@settings(max_examples=200, deadline=None)
def test_property_gain_equals_beta_form(t1, r, t2):
    s = sp2(t1, r, t2)
    pair = to_bogoliubov(s)
    assert pair.unitarity_error() < 1e-9
    r_direct = gain_factor(s)
    assert abs(r_direct - (1.0 + 2.0 * abs(pair.beta) ** 2)) < 1e-12 * max(1.0, r_direct)


@given(
    t1=ANGLES,
    r=SQUEEZES,
    t2=ANGLES,
    qq=st.floats(min_value=0.5, max_value=5.0),
    ratio=st.floats(min_value=1.0, max_value=4.0),
    d=st.floats(min_value=-0.5, max_value=0.5),
)
@settings(max_examples=200, deadline=None)
# the strongest squeeze: after = 0.25 + 3.5e-10 out of P + D ~ 1.1e6
@example(t1=-8.745117037310205, r=0.05, t2=4.363354336548754,
         qq=4.363354336548754, ratio=1.0, d=0.0)
def test_property_uncertainty_product_invariant(t1, r, t2, qq, ratio, d):
    # qq*pp - d^2 is det of the covariance matrix, conserved under det-1 maps.
    # after = P - D with P = out.qq*out.pp and D = out.d**2 cancels down to
    # before (0.25 to 2) while P and D grow as r**-4 (~5.7e5 at r = 0.05),
    # so its rounding error scales with P + D, not with before.  Each of
    # out.qq, out.pp and out.d is a three-term sum bounded by the
    # positive-definite input form (|d| <= 0.5 gives d^2 <= qq*pp/2), so it
    # carries a relative error of a few tens of eps at most, and sp2's
    # entries add det S - 1 of a few eps; hence |after - before| <=
    # c eps (P + D) with c under 64 (c <= 6.5 over 3e5 random draws).
    pp = ratio * (0.25 + d * d) / qq
    m = MomentTriple(qq, pp, d)
    s = sp2(t1, r, t2)
    out = transport_moments(s, m)
    before = m.qq * m.pp - m.d**2
    after = out.qq * out.pp - out.d**2
    bound = 64.0 * sys.float_info.epsilon * (out.qq * out.pp + out.d**2)
    assert abs(after - before) <= bound


# arguments whose squares or exponentials leave the float range: a typed
# error where the result is out of range, the value where it is not
@pytest.mark.parametrize("call,expected", [
    (lambda: exponent_pair(1.0, 1e-200), DomainError),
    (lambda: asymptotic_energy(1e-200), DomainError),
    (lambda: asymptotic_energy(1e200), DomainError),
    (lambda: final_energy(EvolutionMatrix.identity(), StationaryState(0), 1e200), DomainError),
    (lambda: final_energy_general(EvolutionMatrix.identity(), MomentTriple(1.0, 1.0), 1e200),
     DomainError),
    (lambda: thermal_occupation(1.0, 1e-300), 0.0),
    (lambda: thermal_occupation(709.0, 1.0), 1.0 / math.expm1(709.0)),
    (lambda: StationaryState(0, 1e-200).virial_moments(),
     MomentTriple(0.5 / 1e-200, 0.5 * 1e-200)),
    (lambda: StationaryState(2, 1e200).virial_moments(), MomentTriple(2.5 / 1e200, 2.5 * 1e200)),
], ids=["exponent-pair", "asymptotic-small", "asymptotic-large", "final-energy",
        "final-energy-general", "occupation-underflow", "occupation-edge",
        "virial-small", "virial-large"])
def test_extreme_arguments_give_typed_errors_or_values(call, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    else:
        assert call() == expected


# a NaN makes every comparison False, so each check is written to fail on
# it; a grid count must be a whole number
@pytest.mark.parametrize("call,error", [
    (lambda: MomentTriple(1.0, 1.0, math.nan), ValueError),
    (lambda: CavitySpec(1e-2, 300.0, 0.5, math.nan), DomainError),
    (lambda: GridAxis(0.0, 1.0, 2.5).values(), DomainError),
], ids=["moment-nan-d", "cavity-nan-rate", "grid-fractional-count"])
def test_validators_refuse_nan_and_fractional_counts(call, error):
    with pytest.raises(error):
        call()
