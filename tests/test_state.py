import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvstab.errors import (DirectionError, SingularFrameError,
                           StateValidationError)
from pvstab.state import (MAX_MAGNITUDE, EquilibriumState, WaveDirection, b0_matrix,
                          frequency_bundle, galilean_transform, validate_state)

finite = st.floats(min_value=-5, max_value=5, allow_nan=False)


def test_validate_accepts_restriction_satisfied():
    st_, warnings = validate_state(EquilibriumState(
        H_hat_t=(1, 0), Hv_hat_t=(2, 0), E1_hat=0.3, eps=0.01))
    assert warnings == []
    assert st_.Hv_sq >= st_.E1_hat ** 2  # 4 >= 0.09: nonnegative pressure


def test_validate_warns_on_violated_restriction():
    _, warnings = validate_state(EquilibriumState(
        Hv_hat_t=(1, 0), E1_hat=2.0, eps=0.01))
    assert any("physical restriction violated" in w for w in warnings)


def test_validate_warns_on_equality_restriction():
    _, warnings = validate_state(EquilibriumState(
        Hv_hat_t=(1, 0), E1_hat=1.0, eps=0.01))
    assert any("equality" in w for w in warnings)


def test_validate_warns_on_large_eps():
    _, warnings = validate_state(EquilibriumState(Hv_hat_t=(1, 0), eps=0.3))
    assert any("small-eps" in w for w in warnings)


@pytest.mark.parametrize("eps", [0.0, -0.1, 1.0])
def test_validate_rejects_bad_eps(eps):
    with pytest.raises(StateValidationError):
        validate_state(EquilibriumState(eps=eps))


def test_validate_rejects_relativistic_sigma():
    with pytest.raises(StateValidationError):
        validate_state(EquilibriumState(eps=0.1, sigma=10.0))


def test_validate_rejects_nonfinite():
    with pytest.raises(StateValidationError):
        validate_state(EquilibriumState(H_hat_t=(math.nan, 0), eps=0.01))


@pytest.mark.parametrize("field", ["v_hat_t", "H_hat_t", "Hv_hat_t"])
def test_validate_bounds_magnitudes(field):
    # each component, and E1, up to MAX_MAGNITUDE; sigma is bounded by eps
    # alone, since only the frame change reads it
    at = EquilibriumState(**{field: (MAX_MAGNITUDE, -MAX_MAGNITUDE)},
                          E1_hat=-MAX_MAGNITUDE, eps=1e-60, sigma=1e59)
    assert validate_state(at)[0] is at
    for beyond in ((math.nextafter(MAX_MAGNITUDE, math.inf), 0.0),
                   (0.0, -math.nextafter(MAX_MAGNITUDE, math.inf))):
        with pytest.raises(StateValidationError, match="exceeds 1e[+]50"):
            validate_state(EquilibriumState(**{field: beyond}))
    with pytest.raises(StateValidationError, match=r"\|E1\| = 1e\+51 exceeds"):
        validate_state(EquilibriumState(E1_hat=-1e51))


def test_reconstruction_invariants():
    s = EquilibriumState(v_hat_t=(0.3, -0.7), H_hat_t=(1.0, 2.0),
                         Hv_hat_t=(-0.5, 1.5), E1_hat=0.4, eps=0.05, sigma=0.8)
    # |H| = |H'| and |Hv| = |Hv'|: the normal components vanish
    assert np.linalg.norm([0.0, *s.H_hat_t]) ** 2 == pytest.approx(s.H_sq, rel=1e-15)
    assert np.linalg.norm([0.0, *s.Hv_hat_t]) ** 2 == pytest.approx(s.Hv_sq, rel=1e-15)
    # E reconstruction carries the eps*sigma cross terms
    es = s.eps * s.sigma
    assert s.E_hat[0] == s.E1_hat
    assert s.E_hat[1] == pytest.approx(es * s.Hv_hat_t[1])
    assert s.E_hat[2] == pytest.approx(-es * s.Hv_hat_t[0])


def test_record_round_trip():
    s = EquilibriumState(v_hat_t=(1 / 3, -0.7), H_hat_t=(1.0, 2.0),
                         Hv_hat_t=(-0.5, 1.5), E1_hat=0.4, eps=0.05, sigma=0.8)
    assert EquilibriumState.from_record(s.to_record()) == s


class TestWaveDirection:
    def test_rejects_zero(self):
        with pytest.raises(DirectionError):
            WaveDirection(0.0, 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DirectionError):
            WaveDirection(math.inf, 0.0)

    def test_unit_normalizes(self):
        d = WaveDirection(3.0, 4.0)
        assert d.norm == pytest.approx(5.0)
        assert d.unit().norm == pytest.approx(1.0)
        assert not d.is_unit and d.unit().is_unit


class TestFrequencyBundle:
    def test_projections_axis(self):
        s = EquilibriumState(H_hat_t=(1, 0), Hv_hat_t=(0, 2), eps=0.01)
        b = frequency_bundle(s, WaveDirection(1, 0))
        assert (b.w_plus, b.w_minus, b.w_perp) == (1.0, 0.0, 2.0)
        assert b.w_minus ** 2 + b.w_perp ** 2 == pytest.approx(s.Hv_sq)

    def test_projections_perpendicular(self):
        s = EquilibriumState(H_hat_t=(1, 0), Hv_hat_t=(2, 0), eps=0.01)
        b = frequency_bundle(s, WaveDirection(0, 1))
        assert (b.w_plus, b.w_minus, b.w_perp) == (0.0, 0.0, -2.0)

    def test_identity_many_random(self):
        # (w_minus)^2 + (w_perp)^2 = |Hv'|^2 for unit directions
        rng = np.random.default_rng(7)
        for _ in range(1000):
            s = EquilibriumState(H_hat_t=tuple(rng.uniform(-3, 3, 2)),
                                 Hv_hat_t=tuple(rng.uniform(-3, 3, 2)),
                                 v_hat_t=tuple(rng.uniform(-3, 3, 2)), eps=0.01)
            d = WaveDirection.from_angle(rng.uniform(0, 2 * np.pi))
            b = frequency_bundle(s, d)
            assert b.w_minus ** 2 + b.w_perp ** 2 == pytest.approx(
                s.Hv_sq, rel=1e-12, abs=1e-12)


class TestB0Matrix:
    def test_identity_at_sigma_zero(self):
        assert np.array_equal(b0_matrix(0.5, 0.0), np.eye(6))

    def test_identity_at_eps_zero(self):
        assert np.array_equal(b0_matrix(0.0, 3.0), np.eye(6))

    def test_displayed_entries(self):
        b = b0_matrix(0.1, 1.0)  # eps*sigma = 0.1
        assert b[1, 5] == pytest.approx(-0.1 / 0.99)
        assert b[5, 1] == pytest.approx(-0.1 / 0.99)
        assert b[2, 4] == pytest.approx(0.1 / 0.99)
        assert np.array_equal(b, b.T)

    def test_positive_definite(self):
        # generic symmetric-eigenvalue oracle on the displayed matrix
        for es in np.linspace(0.05, 0.89, 20):
            eigs = np.linalg.eigvalsh(b0_matrix(es, 1.0))
            assert eigs.min() > 0.0

    def test_singular_frame_rejected(self):
        with pytest.raises(SingularFrameError):
            b0_matrix(0.5, 2.0)


class TestGalileanTransform:
    def test_identity_at_zero(self):
        v = np.arange(6.0)
        assert np.array_equal(galilean_transform(v, 0.3, 0.0), v)

    def test_direct_substitution(self):
        # Hv = (0,0,1), E = (0,1,0), eps*sigma = 0.1:
        # Hvt = (0, 0 + 0.1*0, 1 - 0.1*1) = (0, 0, 0.9)
        # Et  = (0, 1 - 0.1*1, 0 + 0.1*0) = (0, 0.9, 0)
        out = galilean_transform([0, 0, 1, 0, 1, 0], 0.1, 1.0)
        assert out == pytest.approx([0, 0, 0.9, 0, 0.9, 0])

    def test_equilibrium_electric_field_reduces_to_rest_frame(self):
        # the moving-frame equilibrium has E = (E1, es*Hv3, -es*Hv2); the
        # transform must strip the tangential components entirely
        s = EquilibriumState(Hv_hat_t=(1.5, -2.0), E1_hat=0.7, eps=0.1, sigma=2.0)
        v6 = np.concatenate([[0.0, *s.Hv_hat_t], s.E_hat])
        out = galilean_transform(v6, s.eps, s.sigma)
        assert out[3] == s.E1_hat
        assert out[4] == pytest.approx(0.0, abs=1e-15)
        assert out[5] == pytest.approx(0.0, abs=1e-15)

    def test_b0_recovers_original(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.uniform(-1, 1, 6)
            eps, sigma = rng.uniform(0.01, 0.3), rng.uniform(-2, 2)
            back = b0_matrix(eps, sigma) @ galilean_transform(v, eps, sigma)
            assert np.abs(back - v).max() < 1e-14 * (1 + np.abs(v).max())


@given(eps=st.floats(min_value=1e-3, max_value=0.9),
       sigma=st.floats(min_value=-0.99, max_value=0.99))
@settings(max_examples=100, deadline=None)
def test_b0_symmetric_positive_any_subcritical(eps, sigma):
    b = b0_matrix(eps, sigma)
    assert np.array_equal(b, b.T)
    assert np.linalg.eigvalsh(b).min() > 0.0
