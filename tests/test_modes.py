import dataclasses
import json
import math

import numpy as np
import pytest

from pvstab.cli import _MODE_T, _json_line, main
from pvstab.criterion import critical_e1_squared
from pvstab.dispersion import (lopatinski, make_context, newton_refine,
                               vacuum_decay_root)
from pvstab.errors import DegenerateSymbolError
from pvstab.modes import (RESIDUAL_KEYS, ModeSolution, build_mode, growth_rows,
                          growth_table, mode_records, residuals)
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


def _unstable_states(count, seed=7):
    # seeded violently unstable states, E1^2 >= F_min + 0.05, and COLLINEAR
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < count:
        v = [float(x) for x in rng.uniform(-2.0, 2.0, 6)]
        st = EquilibriumState(v_hat_t=(v[0], v[1]), H_hat_t=(v[2], v[3]),
                              Hv_hat_t=(v[4], v[5]), E1_hat=0.0, eps=1e-2)
        e1 = float(rng.uniform(0.0, 2.0))
        if e1 * e1 >= critical_e1_squared(st) + 0.05:
            states.append(dataclasses.replace(st, E1_hat=e1))
    return states + [COLLINEAR]


def _modes_lines(tmp_path, states, name):
    # the lines `modes` writes for these states, by index
    path = tmp_path / f"{name}.scn"
    path.write_text("".join("[state]\n" + "".join(
        f"{k} = {v!r}\n" for k, v in zip(EquilibriumState.RECORD_KEYS, st.record_values()))
        for st in states))
    out = tmp_path / f"{name}.jsonl"
    assert main(["modes", str(path), "--out", str(out)]) == 0
    lines: dict = {}
    for line in out.read_text().splitlines(keepends=True):
        lines.setdefault(json.loads(line).get("index"), []).append(line)
    return lines


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    states = _unstable_states(30)
    return states, _modes_lines(tmp_path_factory.mktemp("batch"), states, "batch")


def _assert_built_alone(index, state, lines):
    # each line is, byte for byte, the record of the mode built alone from
    # the record's own s and omega (repr round trips)
    for line in lines:
        rec = json.loads(line)
        mode = build_mode(state, complex(*rec["s"]), WaveDirection(*rec["omega"]), rec["n"])
        res = residuals(mode, state)
        want = {"index": index, **mode.to_record(), "residuals": {
            "interior_plasma": res.interior_plasma,
            "interior_vacuum": res.interior_vacuum, **res.boundary_detail,
            "constraints": res.constraints, "scale": res.scale},
            "growth": [{"t": g.t, "initial_norm": g.initial_norm, "ratio": g.ratio,
                        "log_ratio": g.log_ratio} for g in growth_rows(mode, _MODE_T)]}
        if "flags" in rec:
            want["flags"] = rec["flags"]
        assert _json_line(want) == line


def _with_located(monkeypatch, change):
    # `modes` with each located direction's (roots, residuals, flags) changed
    from pvstab import dispersion

    locate = dispersion.locate_roots

    def changed(*args):
        counts = locate(*args)
        return counts._replace(located=[change(*found) if found and found[0] else found
                                        for found in counts.located])

    monkeypatch.setattr(dispersion, "locate_roots", changed)


class TestModeKernel:
    def test_command_records_are_the_modes_built_one_by_one(self, batch):
        states, lines = batch
        assert sorted(k for k in lines if k is not None) == list(range(len(states)))
        for index, state in enumerate(states):
            assert [json.loads(ln)["n"] for ln in lines[index]] == [1, 10, 100]
            _assert_built_alone(index, state, lines[index])

    def test_overflowing_ratio_is_spelled_as_json_spells_it(self, tmp_path):
        # Re s ~ 29.4, so n Re(s) t >= 700 at n = 100, t = 1
        state = EquilibriumState(v_hat_t=(0.5, 0), H_hat_t=(1, 0), Hv_hat_t=(2, 0), E1_hat=30)
        lines = _modes_lines(tmp_path, [state], "overflow")[0]
        assert [ln.count('"ratio": Infinity') for ln in lines] == [0, 0, 1]
        _assert_built_alone(0, state, lines)

    def test_flags_are_spelled_as_json_spells_them(self, tmp_path, monkeypatch):
        flags = ("first", 'a "quoted" 100% %s flag, \u00e9\\')
        _with_located(monkeypatch, lambda roots, res, _: (roots, res, flags))
        lines = _modes_lines(tmp_path, [COLLINEAR], "flagged")[0]
        assert [json.loads(ln)["flags"] for ln in lines] == [list(flags)] * 3
        _assert_built_alone(0, COLLINEAR, lines)

    def test_warnings_are_spelled_as_json_spells_them(self, tmp_path, monkeypatch):
        # the located root moved off by 0.1, as in the off-root job below
        _with_located(monkeypatch, lambda roots, *rest: ([z + 0.1 for z in roots], *rest))
        lines = _modes_lines(tmp_path, [COLLINEAR], "warned")[0]
        for line in lines:
            warnings = json.loads(line)["warnings"]
            assert len(warnings) == 1 and warnings[0].startswith("NotARoot")
        _assert_built_alone(0, COLLINEAR, lines)

    def test_state_records_alone_equal_those_in_the_batch(self, batch, tmp_path):
        states, lines = batch
        for index, state in enumerate(states):
            alone = _modes_lines(tmp_path, [state], f"alone{index}")[0]
            assert [ln.replace('"index": 0', f'"index": {index}', 1) for ln in alone] \
                == lines[index]

    def test_non_root_warned_and_degenerate_symbol_rejected(self, collinear_root):
        # s = -i (v'.omega') makes ell vanish; root + 0.1 is no root
        degenerate = dataclasses.replace(COLLINEAR, v_hat_t=(0.0, 1.0))
        jobs = [(COLLINEAR, collinear_root, PERP), (degenerate, -1j, PERP),
                (COLLINEAR, collinear_root + 0.1, PERP)]
        root, rejected, off = mode_records(jobs, (1, 10), (0.1,))
        assert isinstance(rejected, DegenerateSymbolError)
        pressure = RESIDUAL_KEYS.index("pressure")
        (*_, root_warnings), root_rows = root
        (*_, off_warnings), off_rows = off
        assert len(root_rows) == len(off_rows) == 2
        assert root_warnings == () and all(res[pressure] <= 1e-10 for _, res, _, _ in root_rows)
        assert len(off_warnings) == 1 and off_warnings[0].startswith("NotARoot")
        assert all(res[pressure] > 1e-4 for _, res, _, _ in off_rows)
        for (state, s, d), ((*_, warnings), rows) in ((jobs[0], root), (jobs[2], off)):
            for n, (amps, *_) in zip((1, 10), rows):
                mode = build_mode(state, s, d, n)
                assert warnings == mode.warnings
                assert amps == np.concatenate([mode.plasma_amp, mode.vacuum_amp]).view(
                    float).tolist()
        only = list(mode_records(jobs[1:2], (1, 10), (0.1,)))
        assert len(only) == 1 and isinstance(only[0], DegenerateSymbolError)


# The per-mode formulas that the kernel replaced, one mode at a time on
# Python complex scalars and size-3 arrays: the reference for its bits.

def _ref_cross(a, b):
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _ref_amplitudes(state, s, direction, n, decay_p=3.0):
    ctx = make_context(state, direction)
    d, b = ctx.direction, ctx.bundle
    eps, e1, (Hv2, Hv3) = state.eps, state.E1_hat, state.Hv_hat_t
    ell = s + 1j * b.v_dot
    lam_minus = complex(vacuum_decay_root(s, eps))
    phi = float(n) ** (-decay_p)
    denom = ell + b.w_plus ** 2 / ell
    q = denom * (n * ell * phi)
    v = -np.array([-1.0, 1j * d.omega2, 1j * d.omega3]) * q / denom
    H = 1j * b.w_plus * v / ell
    E = np.array([-n * (1j * eps * s * b.w_perp + e1) * phi / lam_minus,
                  n * (eps * s * Hv3 - 1j * d.omega2 * e1) * phi,
                  -n * (eps * s * Hv2 + 1j * d.omega3 * e1) * phi])
    Hv = -_ref_cross(np.array([lam_minus, 1j * d.omega2, 1j * d.omega3]), E) / (eps * s)
    return np.concatenate([v, H, [q]]), np.concatenate([Hv, E])


def _ref_residuals(mode, state):
    ctx = make_context(state, mode.omega)
    b, d = ctx.bundle, ctx.direction
    n, s, eps, e1, (Hv2e, Hv3e) = mode.n, mode.s, state.eps, state.E1_hat, state.Hv_hat_t
    v, H, q = mode.plasma_amp[:3], mode.plasma_amp[3:6], mode.plasma_amp[6]
    Hv, E, phi = mode.vacuum_amp[:3], mode.vacuum_amp[3:], mode.phi_bar
    ell = s + 1j * b.v_dot
    kplus = np.array([mode.lambda_plus, 1j * d.omega2, 1j * d.omega3])
    kminus = np.array([mode.lambda_minus, 1j * d.omega2, 1j * d.omega3])
    groups = [
        max(abs(n * (kplus @ v)),
            np.abs(n * (ell * v - 1j * b.w_plus * H + kplus * q)).max(),
            np.abs(n * (ell * H - 1j * b.w_plus * v)).max()),
        max(np.abs(n * (eps * s * Hv + _ref_cross(kminus, E))).max(),
            np.abs(n * (eps * s * E - _ref_cross(kminus, Hv))).max()),
        abs(n * ell * phi - v[0]),
        abs(q - (Hv2e * Hv[1] + Hv3e * Hv[2] - e1 * E[0])),
        abs(E[1] - n * (eps * s * Hv3e - 1j * d.omega2 * e1) * phi),
        abs(E[2] + n * (eps * s * Hv2e + 1j * d.omega3 * e1) * phi),
        max(abs(n * (kplus @ H)), abs(n * (kminus @ Hv)), abs(n * (kminus @ E)),
            abs(H[0] - 1j * b.w_plus * n * phi), abs(Hv[0] - 1j * b.w_minus * n * phi))]
    scale = max(1.0, float(max(np.abs(mode.plasma_amp).max(initial=0.0),
                               np.abs(mode.vacuum_amp).max(initial=0.0), abs(phi))))
    return [float(g) / scale for g in groups] + [scale]


def _report_values(rep):
    return [rep.interior_plasma, rep.interior_vacuum, *rep.boundary_detail.values(),
            rep.constraints, rep.scale]


def test_kernel_keeps_the_bits_of_the_per_mode_formulas():
    # random states, directions and s, exact and perturbed amplitudes: the
    # same bytes as the scalar formulas (repr compares -0.0 and NaN too)
    rng = np.random.default_rng(11)
    for _ in range(60):
        c = rng.uniform(-2.0, 2.0, 7) * 10.0 ** rng.integers(-3, 4)
        st = EquilibriumState(v_hat_t=tuple(c[:2]), H_hat_t=tuple(c[2:4]),
                              Hv_hat_t=tuple(c[4:6]), E1_hat=float(c[6]),
                              eps=float(10.0 ** rng.uniform(-4.0, -0.2)))
        d = WaveDirection.from_angle(rng.uniform(0.0, 2.0 * math.pi))
        s = complex(*(rng.uniform([0.0, -3.0], 3.0) * (1.0 + abs(c).max())))
        n = int(rng.choice([1, 10, 100, 1000]))
        mode = build_mode(st, s, d, n)
        plasma, vacuum = _ref_amplitudes(st, s, d, n)
        assert mode.plasma_amp.tobytes() == plasma.tobytes()
        assert mode.vacuum_amp.tobytes() == vacuum.tobytes()
        bent = dataclasses.replace(
            mode, s=s * 1.01, lambda_plus=-0.5, phi_bar=complex(*rng.standard_normal(2)),
            lambda_minus=mode.lambda_minus * complex(1.0, 1e-2),
            plasma_amp=mode.plasma_amp * (1.0 + 1e-3 * rng.standard_normal(7)),
            vacuum_amp=mode.vacuum_amp + 1e-3j * rng.standard_normal(6))
        for m in (mode, bent):
            assert repr(_report_values(residuals(m, st))) == repr(_ref_residuals(m, st))
