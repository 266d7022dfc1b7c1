import math

import numpy as np
import pytest

from pvstab.criterion import critical_e1_squared
from pvstab.dispersion import make_context
from pvstab.oracle import (dense_root_scan, eigen_fmin, grid_fmin,
                           grid_fmin_bound, local_winding, series_vs_numeric)
from pvstab.state import EquilibriumState, WaveDirection


def _state(H=(0, 0), Hv=(0, 0), E1=0.0, v=(0, 0), eps=1e-2):
    return EquilibriumState(v_hat_t=v, H_hat_t=H, Hv_hat_t=Hv, E1_hat=E1, eps=eps)


COLLINEAR = _state(H=(1, 0), Hv=(2, 0), E1=0.3)
NEUTRAL = _state(H=(1, 0), Hv=(0, 1), E1=0.5)


class TestEigenFmin:
    def test_diagonal(self):
        assert eigen_fmin(_state(H=(1, 0), Hv=(0, 2))) == pytest.approx(1.0)

    def test_characteristic_polynomial_by_hand(self):
        # M = [[5, 1], [1, 1]]: lambda^2 - 6 lambda + 4 = 0, root 3 - sqrt(5)
        assert eigen_fmin(_state(H=(2, 0), Hv=(1, 1))) == pytest.approx(
            3 - math.sqrt(5), rel=1e-14)

    def test_collinear_rank_deficient(self):
        assert eigen_fmin(_state(H=(1.5, -0.9), Hv=(3, -1.8))) == pytest.approx(
            0.0, abs=1e-14)

    def test_near_constant_f_at_high_precision(self):
        # F_min = 1 - 1e-8; the closed form (tr - sqrt(tr^2 - 4 det)) / 2
        # cancels to 1.0 here
        import mpmath

        st = _state(H=(1, 1e-8), Hv=(0, 1))
        with mpmath.workdps(50):
            h3 = mpmath.mpf(1e-8)
            m11, m22, m12 = mpmath.mpf(1), h3 * h3 + 1, h3
            exact = (m11 + m22 - mpmath.sqrt((m11 - m22) ** 2 + 4 * m12 ** 2)) / 2
            err = float(abs(eigen_fmin(st) - exact))
        assert err <= 4e-16 * (st.H_sq + st.Hv_sq)


class TestGridFmin:
    def test_orthogonal_example(self):
        val, w = grid_fmin(_state(H=(1, 0), Hv=(0, 2)), 4096)
        assert val == pytest.approx(1.0, abs=5e-6)
        assert abs(w.omega2) == pytest.approx(1.0, abs=1e-3)

    def test_collinear(self):
        st = _state(H=(1.2, 0.6), Hv=(2.4, 1.2))
        val, _ = grid_fmin(st, 4096)
        assert val <= 5e-6 * (st.H_sq + st.Hv_sq)

    def test_zero_fields(self):
        assert grid_fmin(_state(), 4096)[0] == 0.0

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            grid_fmin(_state(H=(1, 0)), 512)

    def test_agrees_with_eigen_within_stated_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            st = _state(H=tuple(rng.uniform(-2, 2, 2)),
                        Hv=tuple(rng.uniform(-2, 2, 2)))
            gval, _ = grid_fmin(st, 2048)
            e = eigen_fmin(st)
            assert 0.0 <= gval - e + 1e-14
            assert gval - e <= grid_fmin_bound(st, 2048) + 1e-12

    def test_matches_criterion_threshold(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            st = _state(H=tuple(rng.uniform(-2, 2, 2)),
                        Hv=tuple(rng.uniform(-2, 2, 2)))
            assert abs(eigen_fmin(st) - critical_e1_squared(st)) <= 1e-12 * (
                1 + eigen_fmin(st))


class TestDenseRootScan:
    def test_collinear_candidate_near_known_root(self):
        ctx = make_context(COLLINEAR, WaveDirection(0, 1))
        res = dense_root_scan(ctx, (0.05, 1.0, -1.0, 1.0), 1e-3)
        assert len(res.candidates) == 1
        assert res.candidates[0] == pytest.approx(0.3 - 0.006j, abs=5e-3)

    def test_candidates_confirmed_by_local_winding(self):
        ctx = make_context(COLLINEAR, WaveDirection(0, 1))
        res = dense_root_scan(ctx, (0.05, 1.0, -1.0, 1.0), 1e-3)
        for cand in res.candidates:
            assert local_winding(ctx, cand, 10 * 1e-3) == 1

    def test_neutral_no_candidates(self):
        # nearest feature is the imaginary-axis root at ~0.871i, a distance
        # 0.05 from the rectangle edge, so min |L| ~ |L'| * 0.05 ~ 0.087
        ctx = make_context(NEUTRAL, WaveDirection(1, 0))
        res = dense_root_scan(ctx, (0.05, 1.0, -1.0, 1.0), 1e-3)
        assert res.candidates == ()
        assert res.min_abs > 0.05
        assert res.min_abs == pytest.approx(0.0866, abs=2e-3)

    def test_degenerate_rectangle_is_empty(self):
        ctx = make_context(NEUTRAL, WaveDirection(1, 0))
        res = dense_root_scan(ctx, (0.5, 0.5, 0.0, 0.0), 1e-3)
        assert res.candidates == ()

    def test_rejects_left_half_plane(self):
        ctx = make_context(NEUTRAL, WaveDirection(1, 0))
        with pytest.raises(ValueError):
            dense_root_scan(ctx, (-0.1, 1.0, -1.0, 1.0), 1e-3)


class TestSeriesVsNumeric:
    def test_generic_unstable_slope(self):
        rec = series_vs_numeric(COLLINEAR, WaveDirection(0, 1),
                                [1e-2, 1e-3, 1e-4])
        assert rec.branch == "GenericUnstable"
        assert rec.flags == ()
        assert rec.slope_err0 >= 0.9
        # each retained order buys one power of eps
        for order, errs in rec.errors_by_order.items():
            for eps, err in zip(rec.eps_used, errs):
                assert err <= 5.0 * eps ** (order + 1)

    def test_transitional_sqrt_law(self):
        st = _state(H=(1, 0), Hv=(0, 2), E1=1.0, v=(1, 0))
        rec = series_vs_numeric(st, WaveDirection(1, 0), [1e-2, 1e-3, 1e-4])
        assert rec.branch == "TransitionalSqrtEps+"
        assert rec.re_slope == pytest.approx(0.5, abs=0.05)
        assert rec.re_prefactor == pytest.approx(2.0, rel=0.2)

    def test_single_eps_flagged(self):
        rec = series_vs_numeric(COLLINEAR, WaveDirection(0, 1), [1e-2])
        assert "insufficient points" in rec.flags
        assert rec.slope_err0 is None

    def test_neutral_direction_records_absence(self):
        rec = series_vs_numeric(NEUTRAL, WaveDirection(1, 0), [1e-2, 1e-3])
        assert rec.roots == ()
        assert any("no right-half-plane root" in f for f in rec.flags)
