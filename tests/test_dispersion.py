import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as hst

from pvstab.dispersion import (default_region, find_unstable_roots, locate_roots,
                               lopatinski, lopatinski_deriv, lopatinski_scale,
                               make_context, newton_refine, scan_directions, scan_states,
                               vacuum_decay_root)
from pvstab.errors import (NotTransitionalError, PvstabError,
                           TransitionalAtThisDirectionError)
from pvstab.oracle import (BranchKind, local_winding, lopatinski_raw,
                           series_root_generic, series_root_transitional,
                           transitional_tolerance)
from pvstab.state import EquilibriumState, WaveDirection


def _state(H=(0, 0), Hv=(0, 0), E1=0.0, v=(0, 0), eps=1e-2):
    return EquilibriumState(v_hat_t=v, H_hat_t=H, Hv_hat_t=Hv, E1_hat=E1, eps=eps)


COLLINEAR = _state(H=(1, 0), Hv=(2, 0), E1=0.3)          # unstable
NEUTRAL = _state(H=(1, 0), Hv=(0, 1), E1=0.5)            # stable
TRANSITIONAL = _state(H=(1, 0), Hv=(0, 2), E1=1.0, v=(1, 0))
PERP = WaveDirection(0, 1)


def _counted(cols, regions) -> list:
    """Per direction of the columns ``cols``: the count-only RootReport of
    ``_algebraic_counts`` in its region, or the error that ended its count."""
    from pvstab.dispersion import StateCounts, _algebraic_counts

    _, *counts = _algebraic_counts(cols, [r.delta for r in regions],
                                   [r.radius for r in regions])
    k = cols.shape[1]
    scan = StateCounts([None] * k, *counts, [None] * k)
    return [scan.report(j) for j in range(k)]


def _reports(scan) -> list:
    """(direction, RootReport or PvstabError) per direction of a scan."""
    return [(d, scan.report(k)) for k, d in enumerate(scan.directions)]


class TestDecayRoots:
    def test_vacuum_real(self):
        assert vacuum_decay_root(1.0, 0.1) == pytest.approx(math.sqrt(1.01))

    def test_vacuum_eps_zero(self):
        assert vacuum_decay_root(2.3 + 4j, 0.0) == 1.0

    def test_vacuum_imaginary_argument(self):
        # principal branch: sqrt(1 - 0.25) real nonnegative
        val = vacuum_decay_root(5j, 0.1)
        assert val == pytest.approx(math.sqrt(0.75))
        assert val.imag == 0.0

    def test_vacuum_right_half_plane_nonnegative_real(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(0.01, 5, 200) + 1j * rng.uniform(-50, 50, 200)
        assert (vacuum_decay_root(s, 0.05).real >= 0).all()


class TestLopatinski:
    def test_eps_zero_collapse(self):
        # at omega' perpendicular to collinear fields, L = s^2 - E1^2
        st = dataclasses.replace(COLLINEAR, eps=0.0)
        ctx = make_context(st, PERP)
        assert lopatinski(ctx, 0.3) == 0.0
        assert lopatinski(ctx, 1.0) == pytest.approx(1.0 - 0.09)

    def test_eps_zero_exact_roots_random(self):
        # for eps = 0 and zero flow, L = s^2 + w_plus^2 + w_minus^2 - E1^2,
        # so sqrt(E1^2 - F(omega')) is an exact root whenever positive
        rng = np.random.default_rng(2)
        for _ in range(100):
            st = _state(H=tuple(rng.uniform(-2, 2, 2)),
                        Hv=tuple(rng.uniform(-2, 2, 2)),
                        E1=rng.uniform(0, 3), eps=0.0)
            d = WaveDirection.from_angle(rng.uniform(0, 2 * np.pi))
            ctx = make_context(st, d)
            D = ctx.leading_deficit
            if D <= 0:
                continue
            assert abs(lopatinski(ctx, math.sqrt(D))) <= 1e-13 * (1 + abs(D))

    def test_newton_refines_eps_root(self):
        ctx = make_context(COLLINEAR, PERP)
        root, res, scale = newton_refine(ctx, 0.3)
        assert res <= 1e-12 * scale
        assert root.real == pytest.approx(0.3, abs=5e-3)

    def test_derivative_matches_finite_difference(self):
        ctx = make_context(TRANSITIONAL, WaveDirection(0.6, 0.8))
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = complex(rng.uniform(0.05, 2), rng.uniform(-2, 2))
            h = 1e-7
            fd = (lopatinski(ctx, s + h) - lopatinski(ctx, s - h)) / (2 * h)
            assert lopatinski_deriv(ctx, s) == pytest.approx(fd, rel=1e-6)

    def test_mirror_symmetry(self):
        # L(-conj(s)) = conj(L(s)): roots pair across the imaginary axis
        ctx = make_context(TRANSITIONAL, WaveDirection(0.6, 0.8))
        rng = np.random.default_rng(4)
        for _ in range(100):
            s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert lopatinski(ctx, -s.conjugate()) == pytest.approx(
                lopatinski(ctx, s).conjugate(), rel=1e-13, abs=1e-13)

    def test_homogeneity_degree_three(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            st = _state(H=tuple(rng.uniform(-2, 2, 2)),
                        Hv=tuple(rng.uniform(-2, 2, 2)),
                        v=tuple(rng.uniform(-2, 2, 2)),
                        E1=rng.uniform(0, 2), eps=rng.uniform(1e-4, 0.1))
            omega = tuple(rng.uniform(-2, 2, 2))
            if omega == (0.0, 0.0):
                continue
            s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            t = rng.uniform(0.1, 10)
            lhs = lopatinski_raw(st, (t * omega[0], t * omega[1]), t * s)
            rhs = t ** 3 * lopatinski_raw(st, omega, s)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def _count(ctx, delta):
    return find_unstable_roots(ctx, delta).winding_count


class TestCounting:
    def test_neutral_no_roots(self):
        ctx = make_context(NEUTRAL, WaveDirection(1, 0))
        assert _count(ctx, 0.05) == 0

    def test_collinear_one_root(self):
        ctx = make_context(COLLINEAR, PERP)
        assert _count(ctx, 0.05) == 1

    def test_region_excluding_root(self):
        st = dataclasses.replace(COLLINEAR, eps=0.0)
        ctx = make_context(st, PERP)
        assert _count(ctx, 1.0) == 0

    def test_root_on_boundary_recovers_by_jitter(self):
        # exact eps = 0 root at s = 0.3 sits on the delta = 0.3 boundary:
        # its inclusion disk straddles the chord, and a jittered half-disk
        # decides the count
        st = dataclasses.replace(COLLINEAR, eps=0.0)
        ctx = make_context(st, PERP)
        rep = find_unstable_roots(ctx, 0.3)
        assert rep.region.delta != 0.3
        assert rep.winding_count == 1


class TestFindRoots:
    def test_collinear_root_located(self):
        ctx = make_context(COLLINEAR, PERP)
        rep = find_unstable_roots(ctx)
        assert rep.winding_count == 1 and len(rep.roots) == 1
        root = rep.roots[0]
        assert root.real == pytest.approx(0.3, abs=5e-3)
        assert rep.residuals[0] <= 1e-10 * lopatinski_scale(ctx, root)
        assert not rep.flags

    def test_local_winding_confirms_root(self):
        ctx = make_context(COLLINEAR, PERP)
        rep = find_unstable_roots(ctx)
        assert local_winding(ctx, rep.roots[0], 1e-2) == 1

    def test_transitional_sqrt_eps_root(self):
        st = dataclasses.replace(TRANSITIONAL, eps=1e-4)
        ctx = make_context(st, WaveDirection(1, 0))
        expect = 2.0 * math.sqrt(1e-4)
        rep = find_unstable_roots(ctx, 0.2 * expect)
        assert len(rep.roots) == 1
        assert rep.roots[0].real == pytest.approx(expect, rel=0.2)

    def test_neutral_empty(self):
        ctx = make_context(NEUTRAL, WaveDirection(1, 0))
        rep = find_unstable_roots(ctx)
        assert rep.winding_count == 0 and rep.roots == ()

    def test_mirror_root_excluded(self):
        # the partner root at -conj(s) must never appear in the half-disk
        ctx = make_context(COLLINEAR, PERP)
        rep = find_unstable_roots(ctx)
        assert all(r.real > 0 for r in rep.roots)


def _mp_newton_step(ctx, s):
    """|L(s) / L'(s)| at 50 digits: the distance to the nearest simple root."""
    import mpmath

    with mpmath.workdps(50):
        s = mpmath.mpc(s.real, s.imag)
        eps, e1, hv, wp, wm, wperp, v = (mpmath.mpf(x) for x in ctx)
        ell = s + 1j * v
        g = mpmath.sqrt(1 + (eps * s) ** 2)
        val = ((ell ** 2 + wp ** 2) * g + wm ** 2 - e1 ** 2
               - 2j * e1 * wperp * eps * s + hv * (eps * s) ** 2)
        dval = (2 * ell * g + (ell ** 2 + wp ** 2) * eps ** 2 * s / g
                - 2j * e1 * wperp * eps + 2 * hv * eps ** 2 * s)
        return float(abs(val / dval))


OBLIQUE = _state(H=(1.2, -0.4), Hv=(0.3, 1.5), E1=1.6, v=(0.7, -1.1))


@pytest.mark.parametrize("st", [
    *(dataclasses.replace(OBLIQUE, eps=eps)
      for eps in (1e-6, 1e-4, 1e-2, 0.2, 0.5, 0.9)),
    _state(H=(1.0, 0.5), Hv=(2.0, 1.0), E1=0.8, v=(0.5, -1.0)),   # collinear
    dataclasses.replace(OBLIQUE, eps=0.0),
    TRANSITIONAL,
], ids=["eps1e-6", "eps1e-4", "eps1e-2", "eps0.2", "eps0.5", "eps0.9",
        "collinear", "eps0", "transitional"])
def test_polynomial_roots_certified_at_high_precision(st):
    # every located root must match the winding count and lie within
    # 1e-10 (1 + |s|) of a true root of L evaluated at 50 digits
    located = 0
    for k in range(8):
        ctx = make_context(st, WaveDirection.from_angle(math.pi * k / 8 + 0.1))
        rep = find_unstable_roots(ctx)
        assert not rep.flags
        assert len(rep.roots) == rep.winding_count
        for s in rep.roots:
            assert _mp_newton_step(ctx, s) <= 1e-10 * (1.0 + abs(s))
        located += len(rep.roots)
    assert located > 0


class TestSeriesGeneric:
    def test_unstable_leading_coefficient(self):
        ctx = make_context(COLLINEAR, PERP)
        unstable, decaying = series_root_generic(ctx, order=2)
        assert unstable.branch is BranchKind.GENERIC_UNSTABLE
        assert unstable.coefficients[0] == pytest.approx(0.3)
        assert decaying.coefficients[0] == pytest.approx(-0.3)

    def test_first_correction_hand_value(self):
        # s1 = i E1 wperp s0 / (s0 + iV); here V = 0, wperp = -2, s0 = 0.3:
        # s1 = i*0.3*(-2) = -0.6i
        ctx = make_context(COLLINEAR, PERP)
        unstable = series_root_generic(ctx, order=1)[0]
        assert unstable.coefficients[1] == pytest.approx(-0.6j)

    def test_neutral_branch_coefficients(self):
        # D = -0.75, eta = sqrt(0.75); s1 = +0.5i on both branches
        ctx = make_context(NEUTRAL, WaveDirection(1, 0))
        plus, minus = series_root_generic(ctx, order=2)
        eta = math.sqrt(0.75)
        assert plus.coefficients[0] == pytest.approx(1j * eta)
        assert minus.coefficients[0] == pytest.approx(-1j * eta)
        assert plus.coefficients[1] == pytest.approx(0.5j)
        assert minus.coefficients[1] == pytest.approx(0.5j)

    def test_zero_e1_kills_first_correction(self):
        ctx = make_context(_state(H=(1, 0), Hv=(0, 2), E1=0.0), WaveDirection(1, 0))
        for branch in series_root_generic(ctx, order=1):
            assert branch.coefficients[1] == pytest.approx(0.0, abs=1e-15)

    def test_neutral_coefficients_pure_imaginary(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 50:
            st = _state(H=tuple(rng.uniform(-1, 1, 2)),
                        Hv=tuple(rng.uniform(-1, 1, 2)),
                        v=tuple(rng.uniform(-1, 1, 2)))
            ctx0 = make_context(st, WaveDirection.from_angle(rng.uniform(0, 2 * np.pi)))
            fmin = min(ctx0.bundle.w_plus ** 2 + ctx0.bundle.w_minus ** 2, 1.0)
            st = dataclasses.replace(st, E1_hat=0.5 * math.sqrt(fmin))
            ctx = make_context(st, ctx0.direction)
            if ctx.leading_deficit >= -transitional_tolerance(ctx):
                continue
            checked += 1
            for branch in series_root_generic(ctx, order=4):
                scale = 1.0 + max(abs(c) for c in branch.coefficients)
                assert all(abs(c.real) <= 1e-12 * scale
                           for c in branch.coefficients)

    def test_rejects_transitional_direction(self):
        ctx = make_context(TRANSITIONAL, WaveDirection(1, 0))
        with pytest.raises(TransitionalAtThisDirectionError):
            series_root_generic(ctx)

    def test_series_predicts_newton_root(self):
        # partial sums converge at one-power-per-order rate
        for eps in (1e-2, 1e-3):
            st = dataclasses.replace(COLLINEAR, eps=eps)
            ctx = make_context(st, PERP)
            root, _, _ = newton_refine(ctx, 0.3)
            ser = series_root_generic(ctx, order=2)[0]
            for order in (0, 1, 2):
                err = abs(root - ser.eval(eps, order=order))
                assert err <= 5.0 * eps ** (order + 1)


class TestSeriesTransitional:
    def test_sqrt_eps_coefficient(self):
        ctx = make_context(TRANSITIONAL, WaveDirection(1, 0))
        plus, minus = series_root_transitional(ctx)
        assert plus.branch is BranchKind.TRANSITIONAL_SQRT_EPS_PLUS
        assert plus.exponents == (0.0, 0.5)
        # s1^2 = 2 E1 wperp (v'.omega') = 2*1*2*1 = 4
        assert plus.coefficients[1] == pytest.approx(2.0)
        assert minus.coefficients[1] == pytest.approx(-2.0)
        assert plus.coefficients[0] == pytest.approx(-1j)

    def test_negative_product_is_neutral(self):
        st = dataclasses.replace(TRANSITIONAL, v_hat_t=(-1.0, 0.0))
        ctx = make_context(st, WaveDirection(1, 0))
        plus, _ = series_root_transitional(ctx)
        assert plus.coefficients[1] == pytest.approx(2j)
        assert plus.coefficients[1].real == 0.0

    def test_zero_speed_roots(self):
        st = dataclasses.replace(TRANSITIONAL, v_hat_t=(0.0, 0.0))
        ctx = make_context(st, WaveDirection(1, 0))
        zero, oscillating = series_root_transitional(ctx)
        assert zero.coefficients == (0j,)
        # s = 2i E1 wperp eps + O(eps^3) = 4i eps - 18i eps^3
        assert oscillating.coefficients[0] == pytest.approx(4j)
        assert oscillating.coefficients[1] == pytest.approx(-18j)
        assert oscillating.exponents == (1.0, 3.0)

    def test_zero_speed_against_axis_root(self):
        # L is real on the imaginary axis; bracket the root there and
        # compare with the odd-ladder expansion
        st = dataclasses.replace(TRANSITIONAL, v_hat_t=(0.0, 0.0), eps=1e-2)
        ctx = make_context(st, WaveDirection(1, 0))
        pred = series_root_transitional(ctx)[1].eval(1e-2).imag
        f = lambda tau: lopatinski(ctx, 1j * tau).real
        lo, hi = 0.5 * pred, 2.0 * pred
        assert f(lo) * f(hi) < 0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if f(lo) * f(mid) <= 0 else (mid, hi)
        assert 0.5 * (lo + hi) == pytest.approx(pred, rel=1e-4)

    def test_rejects_generic_direction(self):
        ctx = make_context(COLLINEAR, PERP)
        with pytest.raises(NotTransitionalError):
            series_root_transitional(ctx)


class TestCountAgainstBruteForce:
    @pytest.mark.parametrize("eps", [1e-2, 0.9])
    def test_count_matches_dense_uniform_sampling(self, eps):
        # the certified count must equal the winding number of L along the
        # boundary of the half-disk, summed from oversampled uniform points
        # on random states, directions and default regions
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 40:
            st = _state(H=tuple(rng.uniform(-2, 2, 2)),
                        Hv=tuple(rng.uniform(-2, 2, 2)),
                        v=tuple(rng.uniform(-2, 2, 2)),
                        E1=float(rng.uniform(0, 2.5)), eps=eps)
            d = WaveDirection.from_angle(rng.uniform(0, 2 * np.pi))
            ctx = make_context(st, d)
            region = default_region(st)
            delta, radius = region.delta, region.radius
            t = np.linspace(0.0, 1.0, (1 << 16) + 1)
            chord = delta + 1j * radius * (1.0 - 2.0 * t)
            arc = delta + radius * np.exp(1j * np.pi * (t[1:] - 0.5))
            s = np.concatenate([chord, arc])
            vals = lopatinski(ctx, s)
            if np.min(np.abs(vals) / lopatinski_scale(ctx, s)) < 1e-6:
                continue            # a root at the boundary: no sampled winding
            dphi = np.diff(np.angle(vals))
            dphi = np.mod(dphi + np.pi, 2 * np.pi) - np.pi
            assert np.max(np.abs(dphi)) < 0.5, (st, d)      # resolved
            brute = np.sum(dphi) / (2 * np.pi)
            assert abs(brute - round(brute)) < 1e-9
            rep = find_unstable_roots(ctx)
            assert rep.region == region and rep.winding_count == round(brute), (st, d)
            checked += 1


def _is_antipode(k, n_dirs):
    # whether direction k of a scan of n_dirs is the antipode of one it counts
    half = n_dirs // 2 if n_dirs % 2 == 0 else n_dirs
    return half <= k < n_dirs or k == n_dirs + 1


def _record(report, antipode):
    # (count, region, error) and, unless the direction is an antipode (whose
    # roots a scan conjugates), the bytes of its roots and residuals
    if isinstance(report, PvstabError):
        return None, None, str(report), None
    found = None if antipode else (np.array(report.roots, dtype=complex).tobytes(),
                                   np.array(report.residuals, dtype=float).tobytes())
    return report.winding_count, report.region, None, found


def _single_scan(state, n_dirs, delta=None):
    """``_records`` of a scan, each direction counted alone, antipodes too, with
    Re s >= ``delta`` or the default delta."""
    from pvstab.criterion import minimize_f

    star = minimize_f(state).omega_star
    directions = [WaveDirection.from_angle(2.0 * math.pi * k / n_dirs)
                  for k in range(n_dirs)]
    directions += [star, WaveDirection(-star.omega2, -star.omega3)]
    out = []
    for k, d in enumerate(directions):
        try:
            report = find_unstable_roots(make_context(state, d), delta)
        except PvstabError as err:
            report = err
        out.append(_record(report, _is_antipode(k, n_dirs)))
    return out


def _records(scan):
    n_dirs = len(scan.directions) - 2
    return [_record(scan.report(k), _is_antipode(k, n_dirs))
            for k in range(len(scan.directions))]


class TestBatchedCount:
    def test_batch_matches_batch_of_one(self):
        # 12 states x 18 directions: sampler states plus the corners.  Every
        # counted direction has the roots and residuals, bit for bit, of the
        # direction located alone
        from pvstab.agreement import sample_validation_state

        rng = np.random.default_rng(17)
        states = [sample_validation_state(rng) for _ in range(6)]
        states += [COLLINEAR, TRANSITIONAL,
                   _state(H=(1.3, -0.2), Hv=(0.4, 2.0), v=(0.5, 0.2))]   # E1 = 0
        states += [dataclasses.replace(OBLIQUE, eps=eps) for eps in (1e-4, 0.5, 0.9)]
        pairs = located = 0
        for st in states:
            batched = _records(scan_directions(st, n_dirs=16))
            assert batched == _single_scan(st, 16), st
            pairs += len(batched)
            located += sum(r[0] for r in batched if r[3] is not None)
        assert pairs >= 200 and located >= 20

    def test_grazed_root_jitters_only_its_directions(self):
        # the chord Re s = delta runs through the root at omega' = (0, 1)
        # and, by the mirror symmetry of this flowless state, through the
        # conjugate root at (0, -1); those directions alone are re-counted on
        # a jittered region, the others keep the delta they were given
        ctx = make_context(COLLINEAR, PERP)
        root = find_unstable_roots(ctx).roots[0]
        summary = scan_directions(COLLINEAR, n_dirs=16, delta=root.real)
        assert _records(summary) == _single_scan(COLLINEAR, 16, root.real)
        jittered = [(d, r) for d, r in _reports(summary) if r.region.delta != root.real]
        assert len(jittered) == 4
        assert all(abs(d.omega3) == 1.0 and r.winding_count == 1 for d, r in jittered)
        assert summary.errors == []

    def test_failed_direction_leaves_others_unchanged(self, monkeypatch):
        # with no jittered retry, the directions whose chord runs through a
        # root (omega' = (0, +-1), see above) stay undecided: each is its own
        # error, and every other direction of the batch keeps its count
        from pvstab import dispersion
        from pvstab.dispersion import _table_columns

        ctx = make_context(COLLINEAR, PERP)
        root = find_unstable_roots(ctx).roots[0]
        region = default_region(COLLINEAR, root.real)
        directions = [WaveDirection.from_angle(2.0 * math.pi * k / 16) for k in range(16)]
        cols = _table_columns([COLLINEAR] * 16, (), directions)
        regions = [region] * 16
        free = _counted(cols, regions)
        monkeypatch.setattr(dispersion, "_JITTERS", dispersion._JITTERS[:1])
        tight = _counted(cols, regions)
        failed = 0
        for f, t in zip(free, tight):
            assert not isinstance(f, PvstabError)
            if f.region != region:
                assert isinstance(t, PvstabError) and "cannot decide" in str(t)
                failed += 1
            else:
                assert t == f
        assert failed == 2

    def test_undecided_directions_are_error_records(self, monkeypatch):
        # the scan of the batch above: the undecided directions and their
        # mirror images are errors, listed in errors, and the other reports
        # are those of the scan with jittered retries; as only
        # the undecided directions have roots in the region, the state is
        # not reported unstable
        from pvstab import dispersion

        ctx = make_context(COLLINEAR, PERP)
        root = find_unstable_roots(ctx).roots[0]
        free = scan_directions(COLLINEAR, n_dirs=16, delta=root.real)
        monkeypatch.setattr(dispersion, "_JITTERS", dispersion._JITTERS[:1])
        tight = scan_directions(COLLINEAR, n_dirs=16, delta=root.real)
        failed = [(d, t) for d, t in _reports(tight) if isinstance(t, PvstabError)]
        assert len(failed) == len(tight.errors) == 4
        assert all(abs(d.omega3) == 1.0 and str(t) in tight.errors for d, t in failed)
        for (_, f), (_, t) in zip(_reports(free), _reports(tight)):
            assert isinstance(t, PvstabError) or t == f
        assert free.numerically_unstable and not tight.numerically_unstable

    def test_states_batch_matches_each_state_alone(self, monkeypatch):
        # sampler and corner states in one batch, at their default deltas and
        # at one delta for all: the root of the collinear state (its chord
        # runs through its roots, a jittered retry) and 1e-5 (the chord passes
        # 1e-5 from the neutral roots of the fifth state); the counts of each
        # equal the scan of its state alone, and each state's region is
        # proven once for all its directions
        from pvstab import dispersion
        from pvstab.agreement import sample_validation_state

        root = find_unstable_roots(make_context(COLLINEAR, PERP)).roots[0]
        rng = np.random.default_rng(41)
        states = [sample_validation_state(rng) for _ in range(4)]
        states += [COLLINEAR, _state(H=(1, 0), Hv=(0, 1), E1=0.5, v=(0.8, -0.3)),
                   TRANSITIONAL, CORNERS["eps0.5"]]
        batches, proofs = [], []
        count, prove = dispersion._algebraic_counts, dispersion.default_region
        monkeypatch.setattr(dispersion, "_algebraic_counts", lambda cols, *region: (
            batches.append(cols.shape[1]), count(cols, *region))[1])
        monkeypatch.setattr(dispersion, "default_region", lambda st, delta=None: (
            proofs.append((st, delta)), prove(st, delta))[1])
        monkeypatch.setattr(dispersion, "_MAX_BATCH", 100)
        for delta in (None, root.real, 1e-5):
            batches.clear()
            proofs.clear()
            summaries = list(dispersion.scan_states(states, 16, delta))
            assert batches == [9 * len(states)]
            assert proofs == [(st, delta) for st in states]
            for st, summary in zip(states, summaries):
                assert summary == scan_directions(st, 16, delta), (st, delta)
            assert sum(len(s.errors) for s in summaries) == 0, delta
            assert sum(s.numerically_unstable for s in summaries) >= 5, delta
            jittered = [sum(r.region != prove(st, delta) for _, r in _reports(s))
                        for st, s in zip(states, summaries)]
            assert jittered == [0] * 4 + [4 if delta == root.real else 0] + [0] * 3

    def test_states_are_read_a_batch_at_a_time(self, monkeypatch):
        # a generator of 7 states at batches of 3 (4 + 1 directions each):
        # the first StateCounts comes when only the first batch is read, and
        # the scans of the states equal those of a list
        from pvstab import dispersion

        monkeypatch.setattr(dispersion, "_MAX_BATCH", 15)
        states = [COLLINEAR, NEUTRAL, TRANSITIONAL] * 2 + [COLLINEAR]
        pulled = []

        def read():
            for st in states:
                pulled.append(st)
                yield st

        scans = scan_states(read(), 8)
        first = next(scans)
        assert len(pulled) == 3
        assert [first, *scans] == list(scan_states(states, 8))
        assert len(pulled) == 7


class TestScanDirections:
    def test_collinear_unstable_everywhere_detected(self):
        summary = scan_directions(COLLINEAR, n_dirs=32)
        assert summary.numerically_unstable
        assert summary.errors == []
        # worst direction is the F-minimizer, perpendicular to the fields
        best, _ = max(_reports(summary), key=lambda p: max(
            (z.real for z in p[1].roots), default=-math.inf))
        assert abs(best.omega3) == pytest.approx(1.0, abs=1e-6)
        assert summary.max_re_s == pytest.approx(0.3, abs=5e-3)

    def test_neutral_all_zero(self):
        summary = scan_directions(NEUTRAL, n_dirs=32)
        assert not summary.numerically_unstable
        assert all(r.winding_count == 0 for _, r in _reports(summary))

    def test_zero_e1_stable(self):
        summary = scan_directions(_state(H=(1.3, -0.2), Hv=(0.4, 2.0)), n_dirs=16)
        assert not summary.numerically_unstable

    def test_rejects_few_directions(self):
        with pytest.raises(ValueError):
            scan_directions(NEUTRAL, n_dirs=4)

    def test_rejects_many_directions(self):
        with pytest.raises(ValueError, match="n_dirs must be at most 1024"):
            scan_directions(NEUTRAL, n_dirs=1025)

    def test_a_state_fits_one_batch_up_to_the_bound(self, monkeypatch):
        # the most directions a scan counts for one state, n_dirs + 1 at the
        # largest odd n_dirs, fill one batch
        from pvstab import dispersion

        batches = []
        count = dispersion._algebraic_counts
        monkeypatch.setattr(dispersion, "_algebraic_counts", lambda cols, *region: (
            batches.append(cols.shape[1]), count(cols, *region))[1])
        for n_dirs, sizes in ((1023, [1024, 1024]), (1024, [513, 513])):
            batches.clear()
            scans = list(scan_states([NEUTRAL, COLLINEAR], n_dirs=n_dirs))
            assert batches == sizes
            assert [s.numerically_unstable for s in scans] == [False, True]


# ---------------------------------------------------------------------------
# the antipodes of a scan and the proven radius R*


CORNERS = {
    **{f"eps{eps:g}": dataclasses.replace(OBLIQUE, eps=eps)
       for eps in (1e-6, 1e-2, 0.19, 0.5, 0.9)},
    "collinear": _state(H=(1.0, 0.5), Hv=(2.0, 1.0), E1=0.8, v=(0.5, -1.0)),
    "zero_fields": _state(E1=0.7, v=(0.4, -0.9)),
    "E1_zero": _state(H=(1.3, -0.2), Hv=(0.4, 2.0), v=(0.5, 0.2)),
    "transitional": TRANSITIONAL,
    "eps0": dataclasses.replace(OBLIQUE, eps=0.0),
    "strong_Hv": _state(Hv=(10.0, 0.0), E1=1.0, eps=0.9),     # R* > R
}


def _mp_coefficients(st, w):
    """A and B of L = A g + B as polynomials in s (lowest order first), for
    omega' = w, at the working precision."""
    import mpmath

    f = mpmath.mpf
    (h2, h3), (hv2, hv3), (v2, v3) = (map(f, x) for x in
                                      (st.H_hat_t, st.Hv_hat_t, st.v_hat_t))
    w2, w3 = w
    eps, e1 = f(st.eps), f(st.E1_hat)
    v = v2 * w2 + v3 * w3
    a = [(h2 * w2 + h3 * w3) ** 2 - v ** 2, 2j * v, mpmath.mpc(1)]
    b = [(hv2 * w2 + hv3 * w3) ** 2 - e1 ** 2, -2j * e1 * (hv3 * w2 - hv2 * w3) * eps,
         (hv2 ** 2 + hv3 ** 2) * eps ** 2]
    return a, b, eps


def _mp_terms(st, w, s):
    """(A, g, B) of L = A g + B at s, for omega' = w."""
    import mpmath

    a, b, eps = _mp_coefficients(st, w)
    return (mpmath.polyval(a[::-1], s), mpmath.sqrt(1 + (eps * s) ** 2),
            mpmath.polyval(b[::-1], s))


def _mp_roots(st, w, principal=True, reverse=False):
    """The roots of L for omega' = w: the principal-branch roots of
    A^2 (1 + eps^2 s^2) - B^2, at the working precision (all of its roots
    when ``principal`` is false); with ``reverse``, from the reversed
    polynomial, whose roots are 1/s (for a tiny eps)."""
    import mpmath

    def mul(p, q):
        out = [mpmath.mpc(0)] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    a, b, eps = _mp_coefficients(st, w)
    lhs = mul(mul(a, a), [1, 0, eps ** 2])
    poly = [x - y for x, y in zip(lhs, mul(b, b) + [0, 0])][::-1]
    while poly[0] == 0:                 # degree 4 at eps = 0
        poly = poly[1:]
    if reverse:
        poly = poly[::-1]
    start = np.roots([complex(c) for c in poly])      # double precision start
    roots = []
    for z in mpmath.polyroots(poly, maxsteps=100, extraprec=50,
                              roots_init=[mpmath.mpc(z) for z in start]):
        if reverse:
            if z == 0:
                continue
            z = 1 / z
        ta, g, tb = _mp_terms(st, w, z)
        if not principal or abs(ta * g + tb) <= abs(ta * g - tb):
            roots.append(z)
    return roots


@pytest.mark.parametrize("st", CORNERS.values(), ids=CORNERS.keys())
def test_antipodal_symmetry_at_high_precision(st):
    # L_{-omega'}(s) = conj(L_{omega'}(conj s)): what lets a scan build the
    # record of -omega' from that of omega'
    import mpmath

    rng = np.random.default_rng(31)
    with mpmath.workdps(50):
        for theta in rng.uniform(0.0, 2.0 * np.pi, 4):
            w = (mpmath.cos(theta), mpmath.sin(theta))
            for re, im in rng.uniform((1e-3, -4.0), (4.0, 4.0), (6, 2)):
                s = mpmath.mpc(re, im)
                a, g, b = _mp_terms(st, w, mpmath.conj(s))
                am, gm, bm = _mp_terms(st, (-w[0], -w[1]), s)
                assert abs(am * gm + bm - mpmath.conj(a * g + b)) <= \
                    mpmath.mpf(10) ** -45 * (abs(am * gm) + abs(bm))


@pytest.mark.parametrize("st", CORNERS.values(), ids=CORNERS.keys())
def test_no_root_beyond_proven_radius(st):
    # no root with Re s >= delta has |s| >= R* in any direction, and the
    # bound |A g| > |B| behind it holds on sampled points with |s| >= R*;
    # half a circle of directions suffices, the other half being mirror
    # images with conjugate roots
    import mpmath

    from pvstab.criterion import minimize_f
    from pvstab.dispersion import root_radius_bound

    delta = default_region(st).delta
    r_star = root_radius_bound(st, delta)
    star = minimize_f(st).omega_star
    thetas = [math.pi * k / 6 + 0.1 for k in range(6)]
    thetas.append(math.atan2(star.omega3, star.omega2))
    radii = [r_star * t for t in (1.0, 1.1, 1.5, 3.0, 10.0)]
    if st.eps > 0.0:
        radii += [x / st.eps for x in (1.0 - 2.0 ** -8, 1.0, 1.0 + 2.0 ** -8)
                  if x / st.eps >= r_star]
    found = 0
    with mpmath.workdps(50):
        d = mpmath.mpf(delta)
        for theta in thetas:
            w = (mpmath.cos(theta), mpmath.sin(theta))
            for z in _mp_roots(st, w):
                if z.real >= d:
                    assert abs(z) < r_star, (theta, z)
                    found += 1
            for r in map(mpmath.mpf, radii):
                for t in (0.0, 0.125, 0.5, 1.0):
                    re = d + (r - d) * t
                    im = mpmath.sqrt(r * r - re * re)
                    for s in {mpmath.mpc(re, im), mpmath.mpc(re, -im)}:
                        a, g, b = _mp_terms(st, w, s)
                        assert abs(a * g) > abs(b), (theta, s)
    assert found > 0 or st.E1_hat == 0.0 or st is CORNERS["strong_Hv"]


def test_default_radius_holds_jittered_regions():
    # every half-disk a grazed count may move to still holds every root to
    # its right; where R* exceeds the nominal radius, it sets the radius
    from pvstab.dispersion import _JITTERS, root_radius_bound

    for st in CORNERS.values():
        reg = default_region(st)
        for jd, jr in _JITTERS:
            assert root_radius_bound(st, jd * reg.delta) <= jr * reg.radius
    strong = CORNERS["strong_Hv"]
    assert default_region(strong).radius > 1e3 * default_region(strong).delta


_COMPONENT = hst.floats(-2.0, 2.0)
_PAIR = hst.tuples(_COMPONENT, _COMPONENT)


@given(h=_PAIR, hv=_PAIR, v=_PAIR, e1=hst.floats(0.0, 2.5), eps=hst.floats(1e-6, 0.9),
       theta=hst.floats(0.0, 2.0 * math.pi),
       points=hst.lists(hst.tuples(hst.floats(1e-3, 20.0), hst.floats(-20.0, 20.0)),
                        min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
@example(h=(1.0, 0.0), hv=(0.0, 2.0), v=(1.0, 0.0), e1=1.0, eps=1e-4, theta=0.0,
         points=[(0.02, 0.0)])
@example(h=(1.0, 0.0), hv=(0.0, 1.0), v=(0.5, 1.0), e1=0.5, eps=0.1, theta=0.7,
         points=[(0.5, 0.5)])
@example(h=(0.109375, 0.0), hv=(0.0, 3.0822702764006485e-18), v=(0.0, 0.0), e1=0.0,
         eps=0.75, theta=0.0, points=[(1.0, 0.0)])
def test_l_and_roots_against_mpmath(h, hv, v, e1, eps, theta, points):
    # L at random points, and the roots of L taken from the degree-6
    # polynomial, for random states and directions, against 50 digits; the
    # first example is the transitional band, a root at Re s ~ 2 sqrt(eps),
    # the second a neutral state with two candidates on the imaginary axis,
    # the third a near-double root on the axis
    import mpmath

    from pvstab.dispersion import _candidate_roots, _inclusion, _table_columns

    st = _state(H=h, Hv=hv, E1=e1, v=v, eps=eps)
    d = WaveDirection.from_angle(theta)
    ctx = make_context(st, d)
    s = np.array([complex(re, im) for re, im in points])
    with mpmath.workdps(50):
        w = (mpmath.mpf(d.omega2), mpmath.mpf(d.omega3))
        for z, val, scale in zip(s, lopatinski(ctx, s), lopatinski_scale(ctx, s)):
            a, g, b = _mp_terms(st, w, mpmath.mpc(z.real, z.imag))
            assert abs(val - complex(a * g + b)) <= 1e-13 * scale, z
        try:
            want = [complex(z) for z in _mp_roots(st, w)]
            every = [complex(z) for z in _mp_roots(st, w, principal=False)]
        except mpmath.mp.NoConvergence:
            reject()    # a (near-)multiple root polyroots cannot separate
    cols = _table_columns([st], (), [d])
    got = _candidate_roots(cols, _inclusion(cols)[0])[0][0].tolist()
    # the roots clearly off the imaginary axis agree both ways; on the axis
    # sit neutral roots, where roundoff decides the sign of Re s, so a
    # candidate there is a root y or its mirror image -conj(y).  It is
    # paired with every root of the polynomial: at a (near-)double root on
    # the axis, where A ~ 0 and B ~ 0, 50 digits leave the branch undecided
    for z in got:
        if z.real > 1e-8 * (1.0 + abs(z)):
            assert min(abs(z - y) for y in want) <= 1e-10 * (1.0 + abs(z)), (z, want)
        else:
            assert min(min(abs(z - y), abs(z + y.conjugate())) for y in every) <= \
                1e-10 * (1.0 + abs(z)), (z, every)
    for y in want:
        if y.real > 1e-8 * (1.0 + abs(y)):
            assert min((abs(z - y) for z in got), default=math.inf) <= \
                1e-10 * (1.0 + abs(y)), (y, got)


def test_stacked_eigenvalues_are_np_roots():
    # bit for bit, as values of s = i sigma: sampler states (degree 6 in
    # sigma), eps |Hv'| = 1 (the sigma^4 coefficient loses its constant
    # term; the sigma^6 one is -eps^2 for every eps > 0) and eps = 0
    # (two leading zeros: degree 4)
    from pvstab.agreement import sample_validation_state
    from pvstab.dispersion import _inclusion, _sigma_polynomial, _table_columns

    rng = np.random.default_rng(43)
    states = [sample_validation_state(rng) for _ in range(6)]
    states += [_state(H=(1.0, 0.5), Hv=(2.0, 0.0), E1=0.7, v=(0.3, 0.0), eps=0.5),
               dataclasses.replace(OBLIQUE, eps=0.0)]
    angles = rng.uniform(0.0, 2.0 * np.pi, (len(states), 4))
    cols = _table_columns([st for st in states for _ in range(4)], (),
                          [WaveDirection.from_angle(a) for a in angles.ravel()])
    got = _inclusion(cols)[0]
    degrees = set()
    for p, z in zip(_sigma_polynomial(cols).T, got):
        want = 1j * np.roots(p[::-1])
        degrees.add(want.size)
        assert want.tobytes() == z[:want.size].tobytes()
        assert not np.isfinite(z[want.size:]).any()
    assert degrees == {6, 4}


def test_unsolvable_polynomial_fails_alone():
    # at eps = 1e-160 the companion matrix of Q overflows (its first row is
    # the coefficients over -eps^2), and with Q(0) = 0 so does that of the
    # reversed polynomial; that context gets an error, and the others of the
    # batch keep the roots and reports they have alone
    from pvstab.dispersion import _inclusion, _sigma_polynomial, _table_columns

    # Q(0) = (w_plus^2 - v^2)^2 - (w_minus^2 - E1^2)^2 = (0 - 1)^2 - (0.5625 - 1.5625)^2
    stuck = _state(H=(0.0, 1.0), Hv=(0.75, 0.0), E1=1.25, v=(1.0, 0.0), eps=1e-160)
    tiny = dataclasses.replace(COLLINEAR, eps=1e-160)
    ctxs = [make_context(st, WaveDirection(1.0, 0.0)) for st in (stuck, tiny, COLLINEAR)]
    cols = _table_columns([c.state for c in ctxs], (), [c.direction for c in ctxs])
    assert _sigma_polynomial(cols)[0, 0] == 0.0
    got = _inclusion(cols)[0]
    assert np.isfinite(got).any(axis=1).tolist() == [False, True, True]
    counts = locate_roots([c.state for c in ctxs], [c.direction for c in ctxs], [None] * 3)
    failed, *reports = (counts.report(j) for j in range(3))
    assert isinstance(failed, PvstabError) and "finite companion" in str(failed)
    assert reports == [find_unstable_roots(c) for c in ctxs[1:]]


def test_locate_roots_takes_one_delta_per_context():
    # each pair is counted at its own delta, in one batch, as alone; lists
    # of other lengths are refused, never zipped short
    root = find_unstable_roots(make_context(COLLINEAR, PERP)).roots[0]
    states = [COLLINEAR, NEUTRAL, COLLINEAR]
    deltas = [None, 0.05, root.real]
    counts = locate_roots(states, [PERP] * 3, deltas)
    reports = [counts.report(j) for j in range(3)]
    assert reports == [find_unstable_roots(make_context(st, PERP), d)
                       for st, d in zip(states, deltas)]
    assert [r.winding_count for r in reports] == [1, 0, 1]
    assert reports[2].region.delta != root.real      # the chord ran through the root
    for wrong in ([None], [0.05] * 4):
        with pytest.raises(ValueError, match=f"3 states, 3 directions and {len(wrong)} deltas"):
            locate_roots(states, [PERP] * 3, wrong)
    with pytest.raises(ValueError, match="3 states, 2 directions and 3 deltas"):
        locate_roots(states, [PERP] * 2, deltas)


def test_locate_roots_of_nothing_is_empty():
    from pvstab.dispersion import StateCounts

    assert locate_roots([], [], []) == StateCounts(*[[]] * 7)


def _located_bits(report):
    # every field of a RootReport, or the text of its error, as bytes
    if isinstance(report, PvstabError):
        return str(report)
    return (report.winding_count, repr(report.region.delta), repr(report.region.radius),
            np.array(report.roots, dtype=complex).tobytes(),
            np.array(report.residuals, dtype=float).tobytes(), report.flags,
            repr(report.inclusion_radius))


def test_two_batches_locate_as_each_pair_alone():
    # 1,025 pairs are two batches; each pair has the count, region, error,
    # roots, residuals and flags, bit for bit, that it has located alone
    from pvstab.agreement import sample_validation_state
    from pvstab.dispersion import _MAX_BATCH

    rng = np.random.default_rng(23)
    stuck = _state(H=(0.0, 1.0), Hv=(0.75, 0.0), E1=1.25, v=(1.0, 0.0), eps=1e-160)
    pool = [sample_validation_state(rng) for _ in range(20)] + list(CORNERS.values())
    pool += [COLLINEAR, TRANSITIONAL, stuck]
    n = _MAX_BATCH + 1
    states = [pool[j % len(pool)] for j in range(n)]
    directions = [WaveDirection(1.0, 0.0) if st is stuck else WaveDirection.from_angle(a)
                  for st, a in zip(states, rng.uniform(0.0, 2.0 * np.pi, n))]
    deltas = [None if j % 3 else 0.05 for j in range(n)]
    counts = locate_roots(states, directions, deltas)
    got = [_located_bits(counts.report(j)) for j in range(n)]
    assert got == [_located_bits(locate_roots([st], [d], [delta]).report(0))
                   for st, d, delta in zip(states, directions, deltas)]
    assert sum(isinstance(g, str) for g in got) >= 20
    assert sum(g[0] for g in got if not isinstance(g, str)) >= 100


def test_branch_points_are_not_roots():
    # B(+-i/eps) ~ 0 makes the branch points +-i/eps roots of the polynomial;
    # roundoff can put such a root at Re s > 0, where Newton cannot move it,
    # and none may come back as a root of L
    from pvstab.dispersion import _candidate_roots, _inclusion, _table_columns

    st = _state(H=(1.1993, 0.9874), Hv=(0.0, 1e-12), E1=1e-12, eps=0.487)
    cols = _table_columns([st] * 24, (), [WaveDirection.from_angle(a) for a in
                                          np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)])
    raw = _inclusion(cols)[0]
    at_branch = np.abs(1.0 + (st.eps * raw) ** 2) < 1e-12
    assert at_branch.sum() >= 24
    for roots, _, _ in _candidate_roots(cols, raw):
        assert np.all(np.abs(1.0 + (st.eps * roots) ** 2) > 1e-6), roots


_PICK = hst.tuples(_PAIR, _PAIR, _PAIR, hst.floats(0.0, 2.5), hst.floats(1e-4, 0.9),
                   hst.floats(0.0, 2.0 * math.pi), hst.floats(1e-5, 1.0),
                   hst.floats(0.5, 8.0))
# a neutral state's roots +-0.87i pass 1e-5 from the chord; the transitional
# root sits near 2 sqrt(eps) = 0.2
_NEAR_NEUTRAL = ((1.0, 0.0), (0.0, 1.0), (0.0, 0.0), 0.5, 1e-2, 0.0, 1e-5, 2.0)
_TRANSITIONAL = ((1.0, 0.0), (0.0, 2.0), (1.0, 0.0), 1.0, 1e-2, 0.0, 0.05, 3.0)


@given(picks=hst.lists(_PICK, min_size=2, max_size=3))
@settings(max_examples=20, deadline=None)
@example(picks=[_NEAR_NEUTRAL, _TRANSITIONAL, ((1.0, 0.0), (0.0, 1.0), (0.3, -0.2), 0.5,
                                               1e-2, 1.0, 1e-3, 1.5)])
def test_counts_against_mpmath(picks):
    # each pick is a state, a direction and a half-disk {Re s >= delta,
    # |s - delta| <= R}; one batch counts them all, and each count equals
    # the number of principal-branch roots at 50 digits inside the half-disk
    # it was certified on
    import mpmath

    from pvstab.dispersion import HalfDiskRegion, _table_columns

    ctxs, regions = [], []
    for h, hv, v, e1, eps, theta, delta, radius in picks:
        ctxs.append(make_context(_state(H=h, Hv=hv, E1=e1, v=v, eps=eps),
                                 WaveDirection.from_angle(theta)))
        regions.append(HalfDiskRegion(delta, radius))
    counts = _counted(_table_columns([c.state for c in ctxs], (), [c.direction for c in ctxs]),
                      regions)
    for ctx, c in zip(ctxs, counts):
        if isinstance(c, PvstabError):
            continue            # a cluster across every jittered boundary
        d = ctx.direction
        with mpmath.workdps(50):
            try:
                roots = _mp_roots(ctx.state, (mpmath.mpf(d.omega2), mpmath.mpf(d.omega3)))
            except mpmath.mp.NoConvergence:
                reject()
            delta = mpmath.mpf(c.region.delta)
            inside = sum(1 for z in roots
                         if z.real > delta and abs(z - delta) < c.region.radius)
        assert c.winding_count == inside, (ctx, c, roots)


class TestFold:
    def test_folded_scan_matches_unfolded(self, monkeypatch):
        # one direction of each antipodal pair is counted; every record
        # equals the one of its direction counted and located alone
        from pvstab import dispersion
        from pvstab.agreement import sample_validation_state

        batches = []
        count = dispersion._algebraic_counts
        monkeypatch.setattr(dispersion, "_algebraic_counts", lambda cols, *region: (
            batches.append(cols.shape[1]), count(cols, *region))[1])
        rng = np.random.default_rng(37)
        states = [sample_validation_state(rng) for _ in range(4)]
        states += [COLLINEAR, TRANSITIONAL, CORNERS["collinear"], CORNERS["zero_fields"]]
        states += [CORNERS[k] for k in ("eps1e-06", "eps0.19", "eps0.5", "eps0.9")]
        located = 0
        for st in states:
            for n in (16, 15):
                batches.clear()
                summary = scan_directions(st, n_dirs=n)
                assert batches[0] == (n // 2 if n % 2 == 0 else n) + 1
                for d, rep in _reports(summary):
                    alone = find_unstable_roots(make_context(st, d))
                    assert not isinstance(rep, PvstabError), (st, d, rep)
                    assert (rep.winding_count, rep.region) == (
                        alone.winding_count, alone.region), (st, d)
                    assert len(rep.roots) == len(alone.roots) == alone.winding_count
                    for got, want in zip(rep.roots, alone.roots):
                        assert abs(got - want) <= 1e-12 * abs(want), (st, d)
                    located += alone.winding_count
        assert located >= 50

    def test_antipode_conjugates_and_resorts(self):
        # the antipode of a located direction: the conjugate roots sorted
        # again by (-Re, Im) with their residuals, and the same flags
        from pvstab.dispersion import _antipode

        roots = (2.0 + 1.0j, 1.0 - 3.0j, 1.0 + 2.0j)
        assert _antipode((roots, (1e-15, 2e-15, 3e-15), ("f",))) == (
            (2.0 - 1.0j, 1.0 - 2.0j, 1.0 + 3.0j), (1e-15, 3e-15, 2e-15), ("f",))
        assert _antipode(None) is None

    @pytest.mark.parametrize("n_dirs", [16, 15])
    def test_scan_gives_each_antipode_its_pair(self, n_dirs):
        # every list of a scan has an item per direction; the antipode of a
        # counted direction has its count, delta, radius, largest disk,
        # error and flags, and its roots conjugated and sorted again by
        # (-Re, Im), with their residuals
        from test_inclusion import corner_corpus

        states = [*corner_corpus().values(), COLLINEAR]
        half = n_dirs // 2 if n_dirs % 2 == 0 else n_dirs
        pairs = [(k, k + half) for k in range(n_dirs - half)] + [(n_dirs, n_dirs + 1)]
        located = 0
        for st, scan in zip(states, scan_states(states, n_dirs)):
            assert {len(items) for items in scan} == {n_dirs + 2}, st
            for k, a in pairs:
                d, e = scan.directions[k], scan.directions[a]
                assert abs(d.omega2 + e.omega2) + abs(d.omega3 + e.omega3) < 1e-15
                for items in scan[1:6]:
                    assert items[a] == items[k], (st, k)
                if scan.located[k] is None:
                    assert scan.located[a] is None, (st, k)
                    continue
                roots, residuals, flags = scan.located[k]
                want = sorted(zip((z.conjugate() for z in roots), residuals),
                              key=lambda q: (-q[0].real, q[0].imag))
                assert scan.located[a] == (tuple(z for z, _ in want),
                                           tuple(res for _, res in want), flags), (st, k)
                located += len(roots)
        assert located >= 10
