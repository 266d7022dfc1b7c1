"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Randomized criteria use fixed seeds; field components are drawn
from the documented sampler of each criterion.
"""

import dataclasses
import functools
import json
import math

import numpy as np

import pvstab as pv
from pvstab.agreement import margin_band
from pvstab.cli import main
from pvstab.dispersion import default_region
from pvstab.oracle import grid_fmin_bound


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num:2d} ({name}): FAIL")
                raise
            print(f"[acceptance] criterion {num:2d} ({name}): PASS")
        return wrapper
    return deco


def _state(H=(0, 0), Hv=(0, 0), E1=0.0, v=(0, 0), eps=1e-2):
    return pv.EquilibriumState(v_hat_t=v, H_hat_t=H, Hv_hat_t=Hv,
                               E1_hat=E1, eps=eps)


@criterion(1, "collinear fields unstable for any nonzero E1")
def test_c01_collinearity():
    rng = np.random.default_rng(101)
    for _ in range(100):
        d = rng.uniform(-1, 1, 2)
        d /= np.hypot(*d)
        mu, nu = rng.uniform(-2, 2, 2)
        e1 = float(rng.choice([-1, 1]) * 10.0 ** rng.uniform(-6, 1))
        st = _state(H=tuple(mu * d), Hv=tuple(nu * d), E1=e1, eps=1e-2)

        cls = pv.classify(st, tol_eq=0.0)
        assert cls.verdict is pv.Verdict.VIOLENTLY_UNSTABLE, (st, cls)

        # omega* perpendicular to the common field direction
        perp = pv.WaveDirection(float(d[1]), float(-d[0]))
        ctx = pv.make_context(st, perp)
        delta = min(pv.default_delta(st), 1e-2 * abs(e1))
        assert pv.find_unstable_roots(ctx, delta).winding_count >= 1, st


def test_collinear_scan_at_a_given_delta_is_unstable():
    # a scan given only a delta counts in a half-disk whose radius is
    # proven at that delta: the growing root s ~ 0.3 of the collinear state
    # cannot fall outside it, and the scan agrees with the closed form
    st = _state(H=(1, 0), Hv=(2, 0), E1=0.3)
    summary = pv.scan_directions(st, 8, delta=0.05)
    assert summary.errors == []
    assert summary.numerically_unstable
    assert summary.numerically_unstable == pv.classify(st).verdict.is_unstable
    assert summary.max_re_s > 0.05
    assert {summary.report(k).region for k in range(len(summary.directions))} == {
        default_region(st, 0.05)}


@criterion(2, "closed-form verdict agrees with winding scan on 200 states")
def test_c02_validate_gate(tmp_path):
    scenario = tmp_path / "validate.scn"
    scenario.write_text(
        "[state]\nH2 = 1.0\nHv2 = 2.0\nE1 = 0.3\n\n"
        "[analysis]\nsample = 200\nn_dirs = 16\n")
    out = tmp_path / "validate.jsonl"
    code = main(["validate", str(scenario), "--out", str(out), "--seed", "0"])
    assert code == 0
    summary = json.loads(out.read_text().splitlines()[-1])["summary"]
    assert summary["checked"] == 200
    assert summary["disagreements"] == 0
    assert summary["agreement"] == 1.0
    assert summary["root_finder_failures"] == 0


@criterion(3, "threshold formula = eigen oracle = dense angular grid")
def test_c03_threshold_equivalence():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        st = _state(H=tuple(rng.uniform(-1, 1, 2)),
                    Hv=tuple(rng.uniform(-1, 1, 2)))
        crit = pv.critical_e1_squared(st)
        eig = pv.eigen_fmin(st)
        grid, _ = pv.grid_fmin(st, 4096)
        assert abs(crit - eig) <= 1e-12 * (1.0 + eig)
        assert abs(eig - grid) <= 5e-6 * (1.0 + eig)
        assert grid - eig >= -1e-14       # grid minimum cannot undershoot
        assert grid - eig <= grid_fmin_bound(st, 4096) + 1e-12


@criterion(4, "neutral states: imaginary series coefficients, winding 0")
def test_c04_neutral_series_and_spectra():
    rng = np.random.default_rng(104)
    checked = 0
    while checked < 50:
        st = _state(H=tuple(rng.uniform(-1, 1, 2)),
                    Hv=tuple(rng.uniform(-1, 1, 2)),
                    v=tuple(rng.uniform(-1, 1, 2)))
        f_min = pv.eigen_fmin(st)
        if f_min < 0.05:
            continue
        st = dataclasses.replace(
            st, E1_hat=float(rng.uniform(0, math.sqrt(0.5 * f_min))))
        cls = pv.classify(st)
        if cls.margin >= -margin_band(st, cls.tol_eq, pv.default_delta(st)):
            continue
        checked += 1

        directions = [cls.minimizer] + [
            pv.WaveDirection.from_angle(t) for t in rng.uniform(0, 2 * np.pi, 4)]
        for d in directions:
            ctx = pv.make_context(st, d)
            for branch in pv.series_root_generic(ctx, order=2):
                scale = 1.0 + max(abs(c) for c in branch.coefficients)
                assert all(abs(c.real) <= 1e-12 * scale
                           for c in branch.coefficients), (st, d, branch)

        summary = pv.scan_directions(st, n_dirs=16)
        assert summary.errors == [], st
        assert not summary.numerically_unstable, st


@criterion(5, "generic unstable root: location and first-order convergence")
def test_c05_generic_series_convergence():
    st = _state(H=(1, 0), Hv=(2, 0), E1=0.3)
    rec = pv.series_vs_numeric(st, pv.WaveDirection(0, 1), [1e-2, 1e-3, 1e-4])
    assert rec.flags == ()
    assert rec.branch == "GenericUnstable"
    root_at_1e2 = rec.roots[0]
    assert abs(root_at_1e2.real - 0.3) <= 0.05 * 0.3
    assert rec.slope_err0 >= 0.9


@criterion(6, "transitional root grows like sqrt(eps) with prefactor 2")
def test_c06_transitional_sqrt_eps_law():
    st = _state(H=(1, 0), Hv=(0, 2), E1=1.0, v=(1, 0))
    rec = pv.series_vs_numeric(st, pv.WaveDirection(1, 0), [1e-2, 1e-3, 1e-4])
    assert rec.flags == ()
    assert rec.branch == "TransitionalSqrtEps+"
    assert abs(rec.re_slope - 0.5) <= 0.05
    assert abs(rec.re_prefactor - 2.0) <= 0.2 * 2.0


@criterion(7, "built modes solve everything; off-root breaks only pressure")
def test_c07_hadamard_modes():
    st = _state(H=(1, 0), Hv=(2, 0), E1=0.3)
    perp = pv.WaveDirection(0, 1)
    ctx = pv.make_context(st, perp)
    report = pv.find_unstable_roots(ctx)
    root = report.roots[0]
    for n in (1, 10, 100):
        rep = pv.residuals(pv.build_mode(st, root, perp, n), st)
        assert rep.interior_plasma <= 1e-10
        assert rep.interior_vacuum <= 1e-10
        assert rep.boundary <= 1e-10
        assert rep.constraints <= 1e-10
    off = pv.residuals(pv.build_mode(st, root + 0.1, perp, 1), st)
    assert off.interior_plasma <= 1e-10
    assert off.interior_vacuum <= 1e-10
    assert off.constraints <= 1e-10
    assert off.boundary_pressure > 1e-3


@criterion(8, "determinant is homogeneous of degree three")
def test_c08_homogeneity():
    rng = np.random.default_rng(108)
    for _ in range(1000):
        st = _state(H=tuple(rng.uniform(-2, 2, 2)),
                    Hv=tuple(rng.uniform(-2, 2, 2)),
                    v=tuple(rng.uniform(-2, 2, 2)),
                    E1=float(rng.uniform(0, 2)), eps=float(rng.uniform(1e-4, 0.1)))
        w = tuple(rng.uniform(-2, 2, 2))
        if w == (0.0, 0.0):
            continue
        s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        t = float(rng.uniform(0.1, 10.0))
        lhs = pv.lopatinski_raw(st, (t * w[0], t * w[1]), t * s)
        rhs = t ** 3 * pv.lopatinski_raw(st, w, s)
        assert abs(lhs - rhs) <= 1e-10 * (abs(rhs) + t ** 3), (st, w, s, t)


@criterion(9, "frame reduction: B0 properties and transform inversion")
def test_c09_frame_reduction():
    assert np.array_equal(pv.b0_matrix(0.0, 5.0), np.eye(6))
    rng = np.random.default_rng(109)
    for es in np.linspace(0.045, 0.9, 20, endpoint=False):
        b = pv.b0_matrix(es, 1.0)
        assert np.array_equal(b, b.T)
        assert np.linalg.eigvalsh(b).min() > 0.0
        v = rng.uniform(-1, 1, 6)
        back = b @ pv.galilean_transform(v, es, 1.0)
        assert np.abs(back - v).max() <= 1e-14 * (1.0 + np.abs(v).max())


@criterion(10, "E1^2 above |Hv|^2 always classifies violently unstable")
def test_c10_violated_restriction_unstable():
    rng = np.random.default_rng(110)
    for _ in range(100):
        st = _state(H=tuple(rng.uniform(-2, 2, 2)),
                    Hv=tuple(rng.uniform(-2, 2, 2)),
                    v=tuple(rng.uniform(-2, 2, 2)))
        gap = 10.0 ** rng.uniform(-3, 1)
        st = dataclasses.replace(st, E1_hat=math.sqrt(st.Hv_sq + gap))
        _, warnings = pv.validate_state(st)
        assert any("physical restriction" in w for w in warnings)
        assert pv.classify(st).verdict is pv.Verdict.VIOLENTLY_UNSTABLE, st
