"""Symplectic algebra: hand-checked values, invariants, and property tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosc import (
    BogoliubovPair,
    EvolutionMatrix,
    MomentTriple,
    StationaryState,
    SymplecticError,
    bogoliubov_energy,
    compose,
    final_energy,
    final_energy_general,
    gain_factor,
    random_symplectic,
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


class TestGainFactor:
    def test_identity_gain_is_one(self):
        assert gain_factor(EvolutionMatrix.identity()) == 1.0

    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, 2.0, -5.0])
    def test_rotation_gain_is_one(self, theta):
        assert gain_factor(EvolutionMatrix.rotation(theta)) == pytest.approx(1.0, abs=1e-15)

    def test_squeeze_hand_value(self):
        assert gain_factor(EvolutionMatrix.squeeze(2.0)) == pytest.approx(2.125, abs=0.0)

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
def test_property_uncertainty_product_invariant(t1, r, t2, qq, ratio, d):
    # qq*pp - d^2 is det of the covariance matrix, conserved under det-1 maps
    pp = ratio * (0.25 + d * d) / qq
    m = MomentTriple(qq, pp, d)
    s = sp2(t1, r, t2)
    out = transport_moments(s, m)
    before = m.qq * m.pp - m.d**2
    after = out.qq * out.pp - out.d**2
    assert after == pytest.approx(before, rel=1e-9)
