import dataclasses
import math

import numpy as np
import pytest

from pvstab.dispersion import (lopatinski, make_context, newton_refine,
                               vacuum_decay_root)
from pvstab.errors import DegenerateSymbolError
from pvstab.modes import ModeSolution, build_mode, growth_table, residuals
from pvstab.state import EquilibriumState, WaveDirection

COLLINEAR = EquilibriumState(H_hat_t=(1, 0), Hv_hat_t=(2, 0), E1_hat=0.3, eps=1e-2)
PERP = WaveDirection(0, 1)


@pytest.fixture(scope="module")
def collinear_root():
    ctx = make_context(COLLINEAR, PERP)
    root, res, scale = newton_refine(ctx, 0.3)
    assert res <= 1e-12 * scale
    return root


class TestBuildMode:
    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_residuals_tiny_at_root(self, collinear_root, n):
        mode = build_mode(COLLINEAR, collinear_root, PERP, n)
        rep = residuals(mode, COLLINEAR)
        assert rep.worst <= 1e-10
        assert mode.warnings == ()

    def test_perturbed_root_breaks_only_pressure(self, collinear_root):
        mode = build_mode(COLLINEAR, collinear_root + 0.1, PERP, 1)
        rep = residuals(mode, COLLINEAR)
        assert rep.interior_plasma <= 1e-10
        assert rep.interior_vacuum <= 1e-10
        assert rep.constraints <= 1e-10
        assert rep.boundary_pressure > 1e-3
        assert any("NotARoot" in w for w in mode.warnings)

    def test_divergence_and_boundary_constraints(self, collinear_root):
        mode = build_mode(COLLINEAR, collinear_root, PERP, 10)
        ctx = make_context(COLLINEAR, PERP)
        b = ctx.bundle
        n = mode.n
        v, H = mode.plasma_amp[:3], mode.plasma_amp[3:6]
        Hv, E = mode.vacuum_amp[:3], mode.vacuum_amp[3:]
        kp = np.array([mode.lambda_plus, 1j * 0.0, 1j * 1.0])
        km = np.array([mode.lambda_minus, 1j * 0.0, 1j * 1.0])
        scale = mode.amplitude_scale
        assert abs(kp @ v) <= 1e-12 * scale
        assert abs(kp @ H) <= 1e-12 * scale
        assert abs(km @ Hv) <= 1e-12 * scale
        assert abs(km @ E) <= 1e-12 * scale
        assert H[0] == pytest.approx(1j * b.w_plus * n * mode.phi_bar, abs=1e-12 * scale)
        assert Hv[0] == pytest.approx(1j * b.w_minus * n * mode.phi_bar, abs=1e-12 * scale)

    def test_frequency_consistency(self, collinear_root):
        mode = build_mode(COLLINEAR, collinear_root, PERP, 3)
        assert mode.lambda_minus == vacuum_decay_root(mode.s, COLLINEAR.eps)
        assert mode.lambda_plus ** 2 == pytest.approx(1.0)

    def test_amplitudes_proportional_to_phi(self, collinear_root):
        # phibar = 0 would zero every amplitude: the construction is linear
        a = build_mode(COLLINEAR, collinear_root, PERP, 10, decay_p=3.0)
        b = build_mode(COLLINEAR, collinear_root, PERP, 10, decay_p=0.0)
        ratio = a.phi_bar / b.phi_bar
        assert np.allclose(a.plasma_amp, ratio * b.plasma_amp, rtol=1e-13)
        assert np.allclose(a.vacuum_amp, ratio * b.vacuum_amp, rtol=1e-13)

    def test_degenerate_symbol_rejected(self):
        st = dataclasses.replace(COLLINEAR, v_hat_t=(0.0, 1.0))
        with pytest.raises(DegenerateSymbolError):
            # s = -i (v'.omega') makes ell vanish
            build_mode(st, -1j, PERP, 1)

    def test_decay_directions(self, collinear_root):
        mode = build_mode(COLLINEAR, collinear_root, PERP, 1)
        assert mode.s.real > 0
        assert mode.lambda_plus <= 0
        assert mode.lambda_minus.real >= 0


class TestResiduals:
    def test_zero_mode_exact_zero(self):
        mode = ModeSolution(n=1, s=0.5 + 0j, omega=PERP, lambda_plus=-1.0,
                            lambda_minus=1.0 + 0j, phi_bar=0j,
                            plasma_amp=np.zeros(7, complex),
                            vacuum_amp=np.zeros(6, complex))
        rep = residuals(mode, COLLINEAR)
        assert rep.worst == 0.0
        assert rep.scale == 1.0

    def test_perturbation_scales_linearly(self, collinear_root):
        mode = build_mode(COLLINEAR, collinear_root, PERP, 1)
        bump = 1e-3
        vac = mode.vacuum_amp.copy()
        vac[3] += bump                      # E1 amplitude
        perturbed = dataclasses.replace(mode, vacuum_amp=vac)
        rep = residuals(perturbed, COLLINEAR)
        scale = rep.scale
        lam = abs(mode.lambda_minus)
        # divergence of E picks up |lambda_minus| * bump, pressure E1 * bump
        assert rep.constraints == pytest.approx(bump * lam / scale, rel=0.5)
        assert rep.boundary_pressure == pytest.approx(
            bump * COLLINEAR.E1_hat / scale, rel=0.5)

    def test_pressure_residual_proportional_to_lopatinski(self, collinear_root):
        # exact relation: residual * |lambda_minus(s)| * scale = |L(s)| * n * phi;
        # regression of the compensated residual against |L(s)| over perturbed
        # s is a line through the origin, and the raw residual is linear up to
        # the eps^2-small drift of lambda_minus with s
        ctx = make_context(COLLINEAR, PERP)
        xs, ys, ys_comp = [], [], []
        for k in range(1, 7):
            s = collinear_root + 0.02 * k
            mode = build_mode(COLLINEAR, s, PERP, 1)
            rep = residuals(mode, COLLINEAR)
            xs.append(abs(lopatinski(ctx, s)))
            ys.append(rep.boundary_pressure)
            ys_comp.append(rep.boundary_pressure * abs(mode.lambda_minus)
                           * rep.scale / (mode.n * abs(mode.phi_bar)))
        slope, intercept = np.polyfit(xs, ys_comp, 1)
        assert slope == pytest.approx(1.0, rel=1e-10)
        assert abs(intercept) <= 1e-10 * max(ys_comp)
        slope_raw, intercept_raw = np.polyfit(xs, ys, 1)
        assert slope_raw > 0
        assert abs(intercept_raw) <= 1e-5 * max(ys)

    def test_second_maxwell_block_needs_dispersion_relation(self, collinear_root):
        # rebuild the vacuum magnetic amplitudes with a wrong lambda_minus:
        # the first Maxwell block is imposed either way, the second one only
        # closes when lambda_minus^2 = 1 + eps^2 s^2
        good = build_mode(COLLINEAR, collinear_root, PERP, 1)
        lam_bad = good.lambda_minus * 1.05
        E = good.vacuum_amp[3:]
        km = np.array([lam_bad, 0j, 1j])
        Hv_bad = -np.cross(km, E) / (COLLINEAR.eps * good.s)
        bad = dataclasses.replace(
            good, lambda_minus=lam_bad,
            vacuum_amp=np.concatenate([Hv_bad, E]))
        good_rep = residuals(good, COLLINEAR)
        bad_rep = residuals(bad, COLLINEAR)
        assert good_rep.interior_vacuum <= 1e-11
        assert bad_rep.interior_vacuum > 1e-5


class TestGrowthTable:
    def test_exponent_arithmetic(self, collinear_root):
        rows = growth_table(COLLINEAR, 0.3 + 0j, PERP, [100], [0.1])
        assert rows[0].ratio == pytest.approx(math.exp(3.0))

    def test_monotone_unbounded_in_n(self):
        rows = growth_table(COLLINEAR, 0.3 + 0j, PERP, [10, 100, 1000], [0.1])
        ratios = [r.ratio for r in rows]
        assert ratios == sorted(ratios)
        assert ratios[-1] == pytest.approx(math.exp(30.0), rel=1e-12)

    def test_initial_data_bounded_while_growth_wins(self):
        rows = growth_table(COLLINEAR, 0.3 + 0j, PERP, [10, 100, 1000], [0.1],
                            decay_p=3.0)
        norms = {r.n: r.initial_norm for r in rows}
        assert norms[1000] < norms[100] < norms[10]

    def test_neutral_rate_means_no_growth(self):
        rows = growth_table(COLLINEAR, 0.5j, PERP, [10, 100], [0.1, 1.0])
        assert all(r.ratio == 1.0 for r in rows)

    def test_overflow_reported_as_inf(self):
        rows = growth_table(COLLINEAR, 10.0 + 0j, PERP, [1000], [1.0])
        assert math.isinf(rows[0].ratio)
        assert rows[0].log_ratio == pytest.approx(10000.0)


def test_mode_record_amplitudes_are_the_arrays_values(collinear_root):
    mode = build_mode(COLLINEAR, collinear_root, PERP, 10)
    rec = mode.to_record()
    for key in ("plasma_amp", "vacuum_amp"):
        want = [(float(np.real(z)), float(np.imag(z))) for z in getattr(mode, key)]
        assert [tuple(map(type, pair)) for pair in rec[key]] == [(float, float)] * len(want)
        assert np.array(rec[key]).tobytes() == np.array(want).tobytes()


def test_mode_record_round_trip(collinear_root):
    mode = build_mode(COLLINEAR, collinear_root, PERP, 10)
    rec = mode.to_record()
    assert rec["n"] == 10
    assert len(rec["plasma_amp"]) == 7 and len(rec["vacuum_amp"]) == 6
    re, im = rec["s"]
    assert complex(re, im) == mode.s
