import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvstab.criterion import (Verdict, classify, critical_e1_squared, degenerate_transitional,
                              f_of_omega, minimize_f, threshold_values,
                              transitional_discriminant, verdict_values)
from pvstab.state import EquilibriumState, WaveDirection


def _state(H=(0, 0), Hv=(0, 0), E1=0.0, v=(0, 0), eps=1e-2):
    return EquilibriumState(v_hat_t=v, H_hat_t=H, Hv_hat_t=Hv, E1_hat=E1, eps=eps)


def _random_state(rng, span=2.0):
    return _state(H=tuple(rng.uniform(-span, span, 2)),
                  Hv=tuple(rng.uniform(-span, span, 2)),
                  v=tuple(rng.uniform(-span, span, 2)),
                  E1=rng.uniform(0, span))


class TestFOfOmega:
    def test_parallel_direction(self):
        assert f_of_omega(_state(H=(1, 0), Hv=(0, 2)), WaveDirection(1, 0)) == 1.0

    def test_perpendicular_direction(self):
        assert f_of_omega(_state(H=(1, 0), Hv=(0, 2)), WaveDirection(0, 1)) == 4.0

    def test_diagonal(self):
        r = math.sqrt(2) / 2
        val = f_of_omega(_state(H=(2, 0), Hv=(1, 1)), WaveDirection(r, r))
        assert val == pytest.approx(4.0, rel=1e-14)  # (2r)^2 + (2r)^2


class TestMinimizeF:
    def test_collinear_fields(self):
        m = minimize_f(_state(H=(1, 0), Hv=(2, 0)))
        assert m.f_min == 0.0
        assert abs(m.omega_star.omega2) < 1e-15
        assert abs(m.omega_star.omega3) == pytest.approx(1.0)

    def test_orthogonal_unequal(self):
        # eigen-oracle: M = diag(1, 4), smaller eigenvalue 1 at (+-1, 0)
        m = minimize_f(_state(H=(1, 0), Hv=(0, 2)))
        assert m.f_min == pytest.approx(1.0, rel=1e-14)
        assert abs(m.omega_star.omega2) == pytest.approx(1.0)
        assert not m.degenerate

    def test_oblique(self):
        # eigen-oracle on M = [[5, 1], [1, 1]]: lambda_min = 3 - sqrt(5)
        m = minimize_f(_state(H=(2, 0), Hv=(1, 1)))
        assert m.f_min == pytest.approx(3 - math.sqrt(5), rel=1e-13)

    def test_zero_fields_degenerate(self):
        m = minimize_f(_state())
        assert m.f_min == 0.0 and m.degenerate

    def test_one_zero_field(self):
        m = minimize_f(_state(Hv=(3, 4)))
        assert m.f_min == 0.0 and not m.degenerate
        # minimizer perpendicular to the nonzero field
        assert 3 * m.omega_star.omega2 + 4 * m.omega_star.omega3 == pytest.approx(
            0.0, abs=1e-14)

    def test_constant_f_degenerate(self):
        m = minimize_f(_state(H=(1, 0), Hv=(0, 1)))
        assert m.degenerate
        assert m.f_min == pytest.approx(1.0)

    @pytest.mark.parametrize("H, Hv, expect", [
        ((1.0, 0.0), (2.0, 0.0), 1.0), ((-1.0, 0.0), (-2.0, 0.0), 1.0),
        ((1.0, 0.0), (-2.0, 0.0), 1.0), ((0.0, 0.0), (-3.0, 0.0), 1.0),
        ((0.0, 1.0), (0.0, 2.0), 0.0), ((0.0, -1.0), (0.0, -2.0), 0.0),
        ((0.0, 1.0), (0.0, -2.0), 0.0), ((0.0, 0.0), (0.0, 3.0), 0.0)])
    def test_axis_aligned_fields_sign_independent(self, H, Hv, expect):
        # the representative must not follow the sign of a zero in m12: on
        # the x axis omega_3 = +1, on the y axis omega_3 = +0.0 (CSV "0.0")
        w = minimize_f(_state(H=H, Hv=Hv)).omega_star
        assert w.omega3 == expect
        assert math.copysign(1.0, w.omega3) == 1.0
        assert abs(w.omega2) < 1e-15 if expect else w.omega2 == 1.0

    def test_canonical_representative(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = minimize_f(_random_state(rng))
            w = m.omega_star
            assert w.omega2 > 0 or (w.omega2 == 0 and w.omega3 >= 0) or \
                (abs(w.omega2) < 1e-12)
            assert w.is_unit

    def test_antipodal_symmetry_and_argmin(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            s = _random_state(rng)
            m = minimize_f(s)
            flipped = WaveDirection(-m.omega_star.omega2, -m.omega_star.omega3)
            assert f_of_omega(s, m.omega_star) == pytest.approx(
                f_of_omega(s, flipped), rel=1e-12, abs=1e-12)
            for theta in rng.uniform(0, 2 * np.pi, 1000):
                assert f_of_omega(s, m.omega_star) <= f_of_omega(
                    s, WaveDirection.from_angle(theta)) + 1e-12


class TestCriticalE1Squared:
    def test_collinear_is_exact_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            d = rng.uniform(-1, 1, 2)
            mu, nu = rng.uniform(-3, 3, 2)
            s = _state(H=tuple(mu * d), Hv=tuple(nu * d))
            assert critical_e1_squared(s) == 0.0

    def test_orthogonal_example(self):
        # (5 - sqrt(25 - 16)) / 2 = 1
        assert critical_e1_squared(_state(H=(1, 0), Hv=(0, 2))) == pytest.approx(
            1.0, rel=1e-14)

    def test_zero_plasma_field(self):
        assert critical_e1_squared(_state(Hv=(1.3, -0.4))) == 0.0

    @pytest.mark.parametrize("H, Hv", [
        ((1.0, 1e-8), (0.0, 1.0)),          # near-constant F
        ((0.7, -1e-7), (1e-9, 0.7)),        # near-constant F, rotated
        ((2.0, 1.0), (4.0, 2.0 + 1e-9)),    # nearly collinear
        ((0.6, 0.8), (-0.8, 0.6)),          # orthogonal, equal magnitude
        ((1.3, -0.4), (0.4, 1.3)),          # orthogonal, equal magnitude
        ((0.0, 0.0), (0.0, 0.0)),           # zero fields
        ((1.2, -0.4), (0.3, 1.5)),          # generic
    ], ids=["near-constant", "near-constant-rotated", "nearly-collinear",
            "orthogonal-equal", "orthogonal-equal-oblique", "zero", "generic"])
    def test_matches_eigenvalue_at_high_precision(self, H, Hv):
        # the smaller eigenvalue of M = H'H'^T + Hv'Hv'^T, at 50 digits from
        # the same float inputs
        import mpmath

        s = _state(H=H, Hv=Hv)
        with mpmath.workdps(50):
            (h2, h3), (g2, g3) = ((mpmath.mpf(x) for x in v) for v in (H, Hv))
            m11, m22, m12 = h2 * h2 + g2 * g2, h3 * h3 + g3 * g3, h2 * h3 + g2 * g3
            exact = (m11 + m22 - mpmath.sqrt((m11 - m22) ** 2 + 4 * m12 ** 2)) / 2
            err = float(abs(critical_e1_squared(s) - exact))
        assert err <= 4e-16 * (s.H_sq + s.Hv_sq)

    def test_equals_minimized_f(self):
        rng = np.random.default_rng(9)
        for _ in range(10_000):
            s = _random_state(rng)
            crit = critical_e1_squared(s)
            f_min = minimize_f(s).f_min
            assert abs(crit - f_min) <= 1e-10 * (1.0 + f_min)


class TestDegenerateTransitional:
    def test_bounds_a_dense_direction_grid(self):
        # the closed-form maximum is at least the product on 4,096
        # directions and equals it at the returned direction
        rng = np.random.default_rng(23)
        theta = 2 * np.pi * np.arange(4096) / 4096
        c, s = np.cos(theta), np.sin(theta)
        for _ in range(300):
            r, alpha = rng.uniform(0.1, 2.0), rng.uniform(0, 2 * np.pi)
            turn = rng.choice([-1.0, 1.0])
            st = _state(H=(r * math.cos(alpha), r * math.sin(alpha)),
                        Hv=(-turn * r * math.sin(alpha), turn * r * math.cos(alpha)),
                        E1=rng.uniform(-2, 2), v=tuple(rng.uniform(-2, 2, 2)))
            assert minimize_f(st).degenerate
            g, w = degenerate_transitional(st)
            (Hv2, Hv3), (v2, v3) = st.Hv_hat_t, st.v_hat_t
            product = st.E1_hat * (Hv3 * c - Hv2 * s) * (v2 * c + v3 * s)
            at_w = st.E1_hat * (Hv3 * w.omega2 - Hv2 * w.omega3) * (
                v2 * w.omega2 + v3 * w.omega3)
            scale = abs(st.E1_hat) * math.sqrt(st.Hv_sq * st.v_sq)
            assert g >= 0.0 and w.is_unit
            assert product.max() <= g + 1e-14 * scale
            assert abs(at_w - g) <= 1e-14 * scale

    @pytest.mark.parametrize("Hv, E1, v", [
        ((0, 0), 1.0, (1, 2)),        # a = 0
        ((0, 1), 1.0, (0, 0)),        # v' = 0
        ((0, 1), 0.0, (1, 2)),        # E1 = 0
        ((0, 1), 1.0, (-2, 0)),       # a antiparallel to sgn(E1) v'
        ((0, 1), -1.0, (2, 0)),
    ], ids=["zero-field", "no-flow", "zero-E1", "antiparallel", "antiparallel-negative"])
    def test_zero_where_no_direction_is_positive(self, Hv, E1, v):
        g, w = degenerate_transitional(_state(Hv=Hv, E1=E1, v=v))
        assert g == 0.0 and w.is_unit


class TestTransitionalDiscriminant:
    def test_zero_velocity(self):
        assert transitional_discriminant(
            _state(H=(1, 2), Hv=(3, -1), E1=0.7)) == 0.0

    def test_hand_value(self):
        # E1 * [(H.Hv)(v x H) + (|Hv|^2 - E1^2)(v x Hv)] = 1*(0 + 3*2) = 6
        s = _state(H=(1, 0), Hv=(0, 2), E1=1.0, v=(1, 0))
        assert transitional_discriminant(s) == pytest.approx(6.0)

    def test_zero_e1(self):
        assert transitional_discriminant(
            _state(H=(1, 2), Hv=(3, -1), v=(1, 1), E1=0.0)) == 0.0

    def test_sign_matches_directionwise_quantity_at_minimizer(self):
        # G carries the sign of E1 * w_perp(omega*) * (v'.omega*) with the
        # wave direction eliminated; cross-check on transitional states
        from pvstab.state import frequency_bundle
        rng = np.random.default_rng(17)
        for _ in range(200):
            s = _state(H=tuple(rng.uniform(-2, 2, 2)),
                       Hv=tuple(rng.uniform(-2, 2, 2)),
                       v=tuple(rng.uniform(-2, 2, 2)))
            m = minimize_f(s)
            if m.degenerate or m.f_min < 1e-6:
                continue
            s = _state(H=s.H_hat_t, Hv=s.Hv_hat_t, v=s.v_hat_t,
                       E1=math.sqrt(m.f_min))
            b = frequency_bundle(s, m.omega_star)
            q = s.E1_hat * b.w_perp * b.v_dot
            g = transitional_discriminant(s)
            if abs(q) > 1e-10 * (1 + s.Hv_sq) ** 2:
                assert math.copysign(1, g) == math.copysign(1, q), (s, g, q)


class TestClassify:
    def test_collinear_unstable(self):
        c = classify(_state(H=(1, 0), Hv=(2, 0), E1=0.3))
        assert c.verdict is Verdict.VIOLENTLY_UNSTABLE
        assert c.margin == pytest.approx(0.09)
        assert c.f_min == 0.0

    def test_neutral(self):
        c = classify(_state(H=(1, 0), Hv=(0, 1), E1=0.5))
        assert c.verdict is Verdict.NEUTRALLY_STABLE
        assert c.margin == pytest.approx(0.25 - 1.0)

    def test_transitional_unstable(self):
        c = classify(_state(H=(1, 0), Hv=(0, 2), E1=1.0, v=(1, 0)))
        assert c.verdict is Verdict.TRANSITIONAL_UNSTABLE
        assert c.margin == pytest.approx(0.0, abs=1e-15)
        assert c.transitional_G == pytest.approx(6.0)

    def test_transitional_neutral_on_sign_flip(self):
        c = classify(_state(H=(1, 0), Hv=(0, 2), E1=1.0, v=(-1, 0)))
        assert c.verdict is Verdict.TRANSITIONAL_NEUTRAL
        assert c.transitional_G == pytest.approx(-6.0)

    def test_degenerate_transitional_uses_direction_maximum(self):
        # F is constant: the closed-form G degenerates to 0, but the
        # square-root-of-eps branch opens at directions with
        # E1 * w_perp * (v'.omega') > 0; here that is omega2^2 > 0.
        c = classify(_state(H=(1, 0), Hv=(0, 1), E1=1.0, v=(1, 0)))
        assert c.degenerate
        assert c.verdict is Verdict.TRANSITIONAL_UNSTABLE
        assert c.transitional_G == pytest.approx(1.0)

    def test_degenerate_narrow_positive_lobe(self):
        # the product is positive only on a lobe 0.02 rad wide around the
        # angle b + pi/2 - 0.01, which lies between two directions of a
        # 64-point grid; the maximum over that grid is -7.8e-4
        b = 0.8 * 2 * math.pi / 64
        c = classify(_state(H=(math.cos(b), math.sin(b)),
                            Hv=(-math.sin(b), math.cos(b)), E1=1.0,
                            v=(math.cos(b + math.pi - 0.02),
                               math.sin(b + math.pi - 0.02))))
        assert c.degenerate
        assert c.verdict is Verdict.TRANSITIONAL_UNSTABLE
        assert c.transitional_G == pytest.approx((1 - math.cos(0.02)) / 2, rel=1e-9)

    def test_scale_covariance(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            s = _random_state(rng)
            t = rng.uniform(0.1, 10.0)
            scaled = _state(H=tuple(t * np.array(s.H_hat_t)),
                            Hv=tuple(t * np.array(s.Hv_hat_t)),
                            E1=t * s.E1_hat, v=s.v_hat_t)
            assert critical_e1_squared(scaled) == pytest.approx(
                t * t * critical_e1_squared(s), rel=1e-10, abs=1e-13)
            tol = threshold_values(*s.H_hat_t, *s.Hv_hat_t)[4]
            c1 = classify(s, tol_eq=tol)
            c2 = classify(scaled, tol_eq=t * t * tol)
            if not c1.degenerate:
                assert c1.verdict is c2.verdict

    def test_remark_violated_restriction_implies_unstable(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            s = _random_state(rng)
            gap = rng.uniform(1e-3, 10.0)
            s = _state(H=s.H_hat_t, Hv=s.Hv_hat_t, v=s.v_hat_t,
                       E1=math.sqrt(s.Hv_sq + gap))
            assert classify(s).verdict is Verdict.VIOLENTLY_UNSTABLE

    def test_near_constant_f_above_band_is_unstable(self):
        # F_min = 1 - 1e-8, so E1^2 = 1 - 5e-9 is 5e-9 above the threshold,
        # outside the band tol_eq = 3e-9; a threshold formed by cancellation
        # reads 1.0 and puts the state 5e-9 below it
        c = classify(_state(H=(1, 1e-8), Hv=(0, 1), E1=math.sqrt(1 - 5e-9)))
        assert c.verdict is Verdict.VIOLENTLY_UNSTABLE
        assert c.margin == pytest.approx(5e-9, rel=1e-6)
        assert c.tol_eq == pytest.approx(3e-9)

    def test_record_fields(self):
        rec = classify(_state(H=(1, 0), Hv=(2, 0), E1=0.3)).to_record()
        assert rec["verdict"] == "ViolentlyUnstable"
        assert set(rec) == {"verdict", "margin", "f_min", "omega_star_2",
                            "omega_star_3", "G", "degenerate_flag"}


@given(h2=st.floats(-3, 3), h3=st.floats(-3, 3),
       g2=st.floats(-3, 3), g3=st.floats(-3, 3),
       theta=st.floats(0, 2 * math.pi))
@settings(max_examples=300, deadline=None)
@example(h2=1.0, h3=1e-8, g2=0.0, g3=1.0, theta=2.0)
def test_fmin_is_global_lower_bound(h2, h3, g2, g3, theta):
    s = _state(H=(h2, h3), Hv=(g2, g3))
    m = minimize_f(s)
    assert m.f_min <= f_of_omega(s, WaveDirection.from_angle(theta)) + 1e-9


def _former_row(s, tol_eq=None):
    # the criterion as the per-object path formed it before the kernel: the
    # same formulas on the state's properties, squares of E1 and of the
    # components by ** and products of the moments by *
    if tol_eq is None:
        tol_eq = 1e-9 * (1.0 + s.H_sq + s.Hv_sq)
    (H2, H3), (Hv2, Hv3) = s.H_hat_t, s.Hv_hat_t
    m11, m22, m12 = H2 * H2 + Hv2 * Hv2, H3 * H3 + Hv3 * Hv3, H2 * H3 + Hv2 * Hv3
    hs, cross = s.H_sq + s.Hv_sq, H2 * Hv3 - H3 * Hv2
    rad = hs * hs - 4.0 * cross * cross
    if rad < 0.0625 * hs * hs:
        f_min = 0.5 * (hs - math.hypot(m11 - m22, 2.0 * m12))
    else:
        f_min = 0.5 * (hs - math.sqrt(rad))
    degenerate = math.hypot(m11 - m22, 2.0 * m12) <= 1e-14 * (s.H_sq + s.Hv_sq)
    w2, w3 = 1.0, 0.0
    if not degenerate:
        theta = 0.5 * math.atan2(-2.0 * m12 + 0.0, -(m11 - m22))
        w2, w3 = math.cos(theta), math.sin(theta)
        if w2 < 0.0 or (w2 == 0.0 and w3 < 0.0):
            w2, w3 = -w2, -w3
    margin = s.E1_hat ** 2 - f_min
    G = None
    if margin > tol_eq:
        verdict = Verdict.VIOLENTLY_UNSTABLE
    elif margin < -tol_eq:
        verdict = Verdict.NEUTRALLY_STABLE
    else:
        G = degenerate_transitional(s)[0] if degenerate else transitional_discriminant(s)
        verdict = Verdict.TRANSITIONAL_UNSTABLE if G > 0.0 else Verdict.TRANSITIONAL_NEUTRAL
    return verdict, margin, f_min, w2, w3, G, degenerate, tol_eq


_COMPONENT = st.floats(-3, 3) | st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-8])


@st.composite
def _kernel_states(draw):
    # random states, and the degenerate corners: collinear and zero fields,
    # constant F, and E1 on the threshold
    v, H, Hv = ((draw(_COMPONENT), draw(_COMPONENT)) for _ in range(3))
    kind = draw(st.sampled_from(["random", "collinear", "constant_f", "zero_fields",
                                 "threshold"]))
    if kind == "collinear":
        c = draw(_COMPONENT)
        Hv = (c * H[0], c * H[1])
    elif kind == "constant_f":
        Hv = (-H[1], H[0])
    elif kind == "zero_fields":
        H = Hv = (draw(st.sampled_from([0.0, -0.0])), 0.0)
    s = _state(H=H, Hv=Hv, v=v, E1=draw(_COMPONENT))
    if kind == "threshold":
        s = _state(H=H, Hv=Hv, v=v,
                   E1=math.sqrt(critical_e1_squared(s)) * draw(st.sampled_from([1.0, -1.0])))
    return s


@settings(max_examples=400, deadline=None)
@given(_kernel_states(), st.sampled_from([None, 0.0, 1e-3]))
@example(_state(H=(1.0, 0.0), Hv=(2.0, 0.0), E1=0.14958982469764415), None)   # E1**2 != E1*E1
def test_classify_is_the_kernel_row(s, tol_eq):
    # every field of classify, to the last bit, is the composition of the two
    # kernels, threshold_values and verdict_values, and that composition is
    # what the per-object path computed
    f_min, w2, w3, degenerate, band = threshold_values(*s.H_hat_t, *s.Hv_hat_t)
    tol = band if tol_eq is None else tol_eq
    (verdict,), (margin,), (G,) = verdict_values(
        [s.E1_hat ** 2], [(f_min, w2, w3, degenerate, tol)], lambda _: s)
    row = (verdict, margin, f_min, w2, w3, G, degenerate, tol)
    assert list(map(repr, row)) == list(map(repr, _former_row(s, tol_eq)))
    c = classify(s, tol_eq=tol_eq)
    got = (c.verdict, c.margin, c.f_min, c.minimizer.omega2, c.minimizer.omega3,
           c.transitional_G, c.degenerate, c.tol_eq)
    assert list(map(repr, got)) == list(map(repr, row))
    assert repr(c.f_min) == repr(critical_e1_squared(s)) == repr(row[2])
    m = minimize_f(s)
    assert (m.f_min, m.omega_star, m.degenerate) == (row[2], c.minimizer, row[6])
