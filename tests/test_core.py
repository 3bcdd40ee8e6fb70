"""Symplectic algebra: hand-checked values, invariants, and property tests."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclosc import (
    CavitySpec,
    Covariance,
    CycleSpec,
    DomainError,
    EvolutionMatrix,
    GridAxis,
    IntegratorConfig,
    StationaryState,
    SymplecticError,
    asymptotic_energy,
    compose,
    exponent_pair,
    final_energy,
    gain_factor,
    random_coupling,
    random_symplectic,
    shift_planck_spectrum,
    symplectic_error,
    thermal_occupation,
    to_bogoliubov,
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

    def test_covariance_reads_the_same_contract(self):
        # for N = 1, max|S J S^T - J| = |det S - 1| and Tr[S S^T]/(2N) = R
        ground = Covariance.thermal([1.0], [0.0])
        s = EvolutionMatrix(1e5, 3.0, 0.0, (1.0 + 2e-6) / 1e5)
        assert symplectic_error(s) == s.det_error()
        assert ground.evolved(s).energy([1.0]) == pytest.approx(
            final_energy(s, StationaryState(0), 1.0), rel=1e-12
        )
        with pytest.raises(SymplecticError, match=r"^evolved: max\|S J S\^T - J\| = 5999\.0 "
                                                  r"\(tolerance 5000\.\d+; Tr\[S S\^T\] must be finite\)$"):
            ground.evolved(EvolutionMatrix(1e5, 3.0, 0.0, 0.06))
        # det is 1 to roundoff, but the squares overflow
        with pytest.raises(SymplecticError, match=r"^evolved: max\|S J S\^T - J\| = 0\.0 \(tolerance inf;"):
            ground.evolved(EvolutionMatrix.squeeze(1e200))
        # N modes: the tolerance is DET_TOL_INPUT per unit of Tr[S S^T]/(2N)
        s = np.diag([1e5, 1e5, 1e-5, 1e-5])  # squeezes both modes: Tr[S S^T]/4 = 5e9
        s[2, 2] = 1.5e-5  # A D^T - 1 reads 0.5 at [0, 0]: within 5e3
        assert symplectic_error(s) == pytest.approx(0.5, rel=1e-10)
        two = Covariance.thermal([1.0, 2.0], [0.0, 1.0])
        assert two.evolved(s).v.shape == (4, 4)
        s[2, 2] = 0.06
        with pytest.raises(SymplecticError, match=r"= 5999\.0\d* \(tolerance 5000\.\d+;"):
            two.evolved(s)


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
        # |n> at omega0: <q^2> = E/omega0^2 = (n + 1/2)/omega0, <p^2> = E, <D> = 0
        assert np.array_equal(Covariance.thermal([1.0], [1.0]).v, np.diag([1.5, 1.5]))
        assert np.array_equal(Covariance.thermal([2.0, 0.5], [0.0, 3.0]).v,
                              np.diag([0.25, 7.0, 1.0, 1.75]))

    def test_uncertainty_floor_enforced(self):
        with pytest.raises(DomainError, match="uncertainty bound"):
            Covariance([[0.1, 0.0], [0.0, 0.1]])  # qq*pp = 0.01 < 1/4
        with pytest.raises(DomainError, match="uncertainty bound"):
            Covariance([[0.5, 0.0], [0.0, 0.5 - 5e-9]])  # small moments keep the slack 1e-9
        # N modes: each mode alone obeys det >= 1/4, but V + iJ/2 has a
        # negative eigenvalue once the modes' q are correlated this strongly
        with pytest.raises(DomainError, match="uncertainty bound"):
            Covariance([[0.5, 0.4, 0.0, 0.0], [0.4, 0.5, 0.0, 0.0],
                        [0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.5]])
        for bad, message in (([[1.0, 0.2], [0.0, 1.0]], "symmetric"),
                             (np.eye(3), "2N x 2N"), ([[1.0, math.inf], [math.inf, 1.0]], "finite")):
            with pytest.raises(DomainError, match=message):
                Covariance(bad)

    def test_uncertainty_slack_scales_with_the_moments(self):
        # R = 2.4e8: qq*pp and d^2 ~ 6e16 cancel to 1/4 with roundoff far
        # above 1e-9, the bound of test_property_uncertainty_product_invariant;
        # the transported ground state still passes the constructor's check
        s = sp2(0.7, math.exp(10.0), 0.3)
        v = Covariance.thermal([1.0], [0.0]).evolved(s).v
        p, d2 = v[0, 0] * v[1, 1], v[0, 1] ** 2
        assert abs(p - d2 - 0.25) <= 64.0 * sys.float_info.epsilon * (p + d2)
        assert np.array_equal(Covariance(v).v, v)

    def test_rotation_hand_value(self):
        e = Covariance([[2.0, 0.0], [0.0, 0.5]]).evolved(EvolutionMatrix.rotation(math.pi / 2)).energy([1.0])
        assert e == pytest.approx(1.25, abs=1e-15)

    def test_general_reduces_to_stationary(self):
        s = sp2(0.5, 2.4, 1.9)
        state = StationaryState(3)
        direct = final_energy(s, state, 1.3)
        via_moments = Covariance.thermal([1.0], [3.0]).evolved(s).energy([1.3])
        assert direct == pytest.approx(via_moments, rel=1e-14)

    def test_transport_matches_general_energy(self):
        s = sp2(-0.3, 0.6, 2.2)
        out = Covariance([[1.0, 0.3], [0.3, 0.5]]).evolved(s)
        qq, pp, d = out.v[0, 0], out.v[1, 1], out.v[0, 1]
        # the three-term sums of the 2x2 transport, written out
        a, b, c, dd = s.a, s.b, s.c, s.d
        assert qq == pytest.approx(a * a * 1.0 + b * b * 0.5 + 2.0 * a * b * 0.3, rel=1e-14)
        assert pp == pytest.approx(c * c * 1.0 + dd * dd * 0.5 + 2.0 * c * dd * 0.3, rel=1e-14)
        assert d == pytest.approx(a * c * 1.0 + b * dd * 0.5 + (a * dd + b * c) * 0.3, rel=1e-14)
        assert 0.5 * (pp + 4.0 * qq) == pytest.approx(out.energy([2.0]), rel=1e-14)

    def test_squeezed_state_energy_can_decrease(self):
        # a stationary state never loses energy over a cycle, but a squeezed
        # state divided by the right unsqueeze does
        qq, pp = 1.0, 0.3
        m = Covariance(np.diag([qq, pp]))
        e_in = m.energy([1.0])
        e_out = m.evolved(EvolutionMatrix.squeeze((pp / qq) ** 0.25)).energy([1.0])
        assert e_out == pytest.approx(math.sqrt(pp * qq), rel=1e-12)
        assert e_out < e_in

    def test_occupations_of_a_squeezed_vacuum(self):
        # S = squeeze(2): alpha = 5/4, beta = 3/4, so n_f = |alpha|^2 n + |beta|^2 (n + 1)
        s = EvolutionMatrix.squeeze(2.0)
        assert Covariance.thermal([1.0], [0.0]).evolved(s).occupations([1.0]) == pytest.approx([0.5625], abs=1e-15)
        assert Covariance.thermal([1.0], [2.0]).evolved(s).occupations([1.0]) == pytest.approx(
            [2.0 + 0.5625 * 5.0], rel=1e-15)

    @pytest.mark.parametrize("call, message", [
        (lambda: Covariance.thermal([1.0, 2.0], [1.0]), r"need 1 frequencies in \(0, inf\), got \[1.0, 2.0\]"),
        (lambda: Covariance.thermal([1.0, 2.0], [1.0, -0.5]), "nonnegative finite occupations"),
        (lambda: Covariance.thermal([1.0], [math.nan]), "nonnegative finite occupations"),
        (lambda: Covariance.thermal([1.0, 0.0], [1.0, 1.0]), r"in \(0, inf\)"),
        (lambda: Covariance.thermal([], []), "one per frequency, got \\[\\]"),
        (lambda: Covariance.thermal([1e-300], [1e10]), "leave the float range"),
        (lambda: Covariance.thermal([1.0], [0.0]).energy([1.0, 2.0]), "need 1 frequencies"),
        (lambda: Covariance.thermal([1.0], [0.0]).occupations([math.inf]), r"in \(0, inf\)"),
        (lambda: Covariance.thermal([1.0], [0.0]).energy([1e200]), r"in \(0, 1\.34\d*e\+154\)"),
        (lambda: Covariance.thermal([1.0], [0.0]).evolved(np.eye(4)), r"need a \(2, 2\) matrix, got shape \(4, 4\)"),
        (lambda: symplectic_error(np.eye(3)), "2N x 2N"),
    ])
    def test_arguments_are_checked(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()


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
        # E_fin = omega0 [1/2 + |alpha|^2 n + |beta|^2 (n + 1)] from the moments
        def energy(s, n):
            return Covariance.thermal([1.0], [n]).evolved(s).energy([1.0])

        assert energy(EvolutionMatrix.identity(), 5) == 5.5
        # alpha = 5/4, beta = 3/4
        assert energy(EvolutionMatrix.squeeze(2.0), 0) == pytest.approx(1.0625, abs=0.0)
        # alpha = sqrt(2), beta = 1: E = 1/2 + 2 n + (n + 1)
        s = EvolutionMatrix.squeeze(1.0 + math.sqrt(2.0))
        assert to_bogoliubov(s).alpha == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert energy(s, 1) == pytest.approx(4.5, rel=1e-15)

    def test_energy_matches_matrix_route(self):
        # the moments' energy against the Bogoliubov form and final_energy
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = random_symplectic(rng)
            n = int(rng.integers(0, 8))
            pair = to_bogoliubov(s)
            via_pair = 0.5 + abs(pair.alpha) ** 2 * n + abs(pair.beta) ** 2 * (n + 1)
            via_moments = Covariance.thermal([1.0], [n]).evolved(s).energy([1.0])
            assert via_moments == pytest.approx(via_pair, rel=1e-12)
            assert via_moments == pytest.approx(final_energy(s, StationaryState(n), 1.0), rel=1e-12)


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
    s = sp2(t1, r, t2)
    out = Covariance([[qq, d], [d, pp]]).evolved(s).v
    before = qq * pp - d**2
    after = out[0, 0] * out[1, 1] - out[0, 1] ** 2
    bound = 64.0 * sys.float_info.epsilon * (out[0, 0] * out[1, 1] + out[0, 1] ** 2)
    assert abs(after - before) <= bound


# arguments whose squares or exponentials leave the float range: a typed
# error where the result is out of range, the value where it is not
@pytest.mark.parametrize("call,expected", [
    (lambda: exponent_pair(1.0, 1e-200), DomainError),
    (lambda: asymptotic_energy(1e-200), DomainError),
    (lambda: asymptotic_energy(1e200), DomainError),
    (lambda: final_energy(EvolutionMatrix.identity(), StationaryState(0), 1e200), DomainError),
    (lambda: Covariance.thermal([1.0], [0.0]).energy([1e200]), DomainError),
    (lambda: thermal_occupation(1.0, 1e-300), 0.0),
    (lambda: thermal_occupation(709.0, 1.0), 1.0 / math.expm1(709.0)),
    (lambda: thermal_occupation(1.0, math.inf), DomainError),
    (lambda: thermal_occupation(math.inf, 1.0), DomainError),
    (lambda: thermal_occupation(1e-300, 1e10), DomainError),
    (lambda: thermal_occupation(5e-324, 1.0), DomainError),
    (lambda: thermal_occupation(5e-324, 1e10), DomainError),
    (lambda: Covariance.thermal([1e-200], [0.0]).v.tolist(), [[0.5 / 1e-200, 0.0], [0.0, 0.5 * 1e-200]]),
    (lambda: Covariance.thermal([1e200], [2.0]).v.tolist(), [[2.5 / 1e200, 0.0], [0.0, 2.5 * 1e200]]),
], ids=["exponent-pair", "asymptotic-small", "asymptotic-large", "final-energy",
        "covariance-energy", "occupation-underflow", "occupation-edge",
        "occupation-infinite-temperature", "occupation-infinite-omega",
        "occupation-overflow", "occupation-subnormal", "occupation-quotient-underflow",
        "virial-small", "virial-large"])
def test_extreme_arguments_give_typed_errors_or_values(call, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    else:
        assert call() == expected


# a NaN makes every comparison False, so each check is written to fail on
# it; a count must be a whole number, and a bool is not one
@pytest.mark.parametrize("call,error", [
    (lambda: Covariance([[1.0, math.nan], [math.nan, 1.0]]), DomainError),
    (lambda: CavitySpec(1e-2, 300.0, 0.5, math.nan), DomainError),
    (lambda: GridAxis(0.0, 1.0, 2.5).values(), DomainError),
    (lambda: random_coupling(np.random.default_rng(0), 0, 1.0), DomainError),
    (lambda: GridAxis(1.0, 2.0, True).values(), DomainError),
    (lambda: CycleSpec("inverse-linear", n_cycles=True), DomainError),
    (lambda: IntegratorConfig(max_steps=1.5), DomainError),
    (lambda: IntegratorConfig(max_steps=math.nan), DomainError),
    (lambda: IntegratorConfig(max_steps=True), DomainError),
    (lambda: IntegratorConfig(rtol=math.nan), DomainError),
    (lambda: shift_planck_spectrum(CavitySpec(1.0, 300.0, 0.5, 0.0), n_points=16.5), DomainError),
    (lambda: StationaryState(True), DomainError),
    (lambda: StationaryState(-1), DomainError),
    (lambda: final_energy(EvolutionMatrix.identity(), StationaryState(0, 2.0), 1.0), DomainError),
    (lambda: EvolutionMatrix.from_array(np.eye(3)), DomainError),
    (lambda: EvolutionMatrix.squeeze(0.0), DomainError),
], ids=["moment-nan-d", "cavity-nan-rate", "grid-fractional-count", "coupling-no-modes",
        "grid-bool-count", "cycles-bool-count", "steps-fractional", "steps-nan", "steps-bool",
        "tolerance-nan", "spectrum-fractional-points", "state-bool-index", "state-negative-index",
        "energy-unnormalized-state", "matrix-not-2x2", "squeeze-zero"])
def test_validators_refuse_nan_and_fractional_counts(call, error):
    with pytest.raises(error):
        call()
