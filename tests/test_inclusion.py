"""The inclusion-disk certificate of root counts against 50-digit roots: on
a seeded corpus of the hard corners of the analysis, on clustered and
boundary roots, and on a seeded guard against undecided directions."""

import dataclasses
import math

import numpy as np
import pytest

from pvstab.criterion import critical_e1_squared, minimize_f
from pvstab.dispersion import (_inclusion, _table_columns, default_region, find_unstable_roots,
                               make_context, scan_directions, scan_states)
from pvstab.state import EquilibriumState, WaveDirection
from test_dispersion import _counted, _mp_roots

EPS = (1e-6, 0.2, 0.5, 0.9)


def _state(H=(0.0, 0.0), Hv=(0.0, 0.0), E1=0.0, v=(0.0, 0.0), eps=1e-2):
    return EquilibriumState(v_hat_t=tuple(v), H_hat_t=tuple(H), Hv_hat_t=tuple(Hv),
                            E1_hat=E1, eps=eps)


def corner_corpus(seed: int = 2024) -> dict:
    """Named states, seeded: collinear fields with nonzero E1, orthogonal
    fields of equal magnitude (constant F), zero fields, E1 = 0 (roots on
    the imaginary axis), each eps of EPS, and the transitional band."""
    rng = np.random.default_rng(seed)

    def unit():
        a = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([math.cos(a), math.sin(a)])

    def pair(scale=2.0):
        return tuple(rng.uniform(-scale, scale, 2).tolist())

    corpus = {}
    for k, eps in enumerate(EPS):
        d, (mu, nu) = unit(), rng.uniform(0.3, 2.0, 2)
        e1 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 0.3))
        corpus[f"collinear{k}"] = _state(H=tuple(mu * d), Hv=tuple(nu * d), E1=e1,
                                         v=pair(1.0), eps=eps)
        d, m = unit(), rng.uniform(0.3, 2.0)
        corpus[f"orthogonal{k}"] = _state(H=tuple(m * d), Hv=(-m * d[1], m * d[0]),
                                          E1=float(rng.uniform(0.0, 2.0 * m)),
                                          v=pair(1.0), eps=eps)
        corpus[f"zero_fields{k}"] = _state(E1=float(rng.uniform(0.1, 1.5)), v=pair(),
                                           eps=eps)
        corpus[f"E1_zero{k}"] = _state(H=pair(), Hv=pair(), v=pair(), eps=eps)
        corpus[f"eps{eps:g}"] = _state(H=pair(), Hv=pair(), E1=float(rng.uniform(0.0, 2.5)),
                                       v=pair(), eps=eps)
        st = _state(H=pair(), Hv=pair(), v=pair(), eps=min(eps, 1e-2))
        corpus[f"band{k}"] = dataclasses.replace(
            st, E1_hat=math.sqrt(critical_e1_squared(st)) * (1.0 + rng.uniform(-1e-3, 1e-3)))
    return corpus


CORPUS = corner_corpus()


def _directions(state, n=8):
    star = minimize_f(state).omega_star
    return [WaveDirection.from_angle(math.pi * k / n + 0.05) for k in range(n)] + [star]


def _mp_count(st, direction, region):
    """The principal-branch roots of L inside the half-disk, at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        roots = _mp_roots(st, (mpmath.mpf(direction.omega2), mpmath.mpf(direction.omega3)))
        delta = mpmath.mpf(region.delta)
        return sum(1 for z in roots if z.real > delta and abs(z - delta) < region.radius)


@pytest.mark.parametrize("name", CORPUS)
def test_inclusion_counts_against_mpmath(name):
    # per direction: the inclusion count equals the number of
    # principal-branch roots inside the half-disk at 50 digits, and the
    # roots of Q at 50 digits lie in the clusters' disks, as many in each
    # as the cluster has disks
    import mpmath

    st = CORPUS[name]
    ctxs = [make_context(st, d) for d in _directions(st)]
    regions = [default_region(st)] * len(ctxs)
    cols = _table_columns([st] * len(ctxs), (), [c.direction for c in ctxs])
    counts = _counted(cols, regions)
    _, size, center, radius, beyond = _inclusion(cols)
    for j, (ctx, reg, c) in enumerate(zip(ctxs, regions, counts)):
        assert not isinstance(c, Exception), (name, ctx.direction, c)
        assert c.region == reg and c.winding_count == _mp_count(st, ctx.direction, reg), \
            (name, ctx.direction)
        d = ctx.direction
        with mpmath.workdps(50):
            every = [complex(z) for z in _mp_roots(st, (mpmath.mpf(d.omega2),
                                                        mpmath.mpf(d.omega3)), principal=False)]
        assert len(every) in (4, 6) and size[j].sum() == len(every)
        held = [[z for z in every if abs(z - center[j, i]) <= radius[j, i]
                 or (radius[j, i] == math.inf and abs(z) >= beyond[j, i])]
                for i in range(6)]
        assert all(len(h) >= n for h, n in zip(held, size[j])), (name, ctx.direction)
        assert all(any(z in h for h, n in zip(held, size[j]) if n) for z in every)


def test_corpus_covers_the_corners():
    names = " ".join(CORPUS)
    for kind in ("collinear", "orthogonal", "zero_fields", "E1_zero", "band"):
        assert names.count(kind) == len(EPS)
    assert {st.eps for st in CORPUS.values()} >= set(EPS)
    assert all(st.E1_hat != 0.0 for k, st in CORPUS.items() if k.startswith("collinear"))


def test_root_on_the_chord_is_decided_on_a_jittered_region():
    # the eps = 0 root s = 0.3 of the collinear state lies on the chord
    # Re s = delta = 0.3: its disk straddles it, and the same disks decide
    # the count on a jittered half-disk
    st = _state(H=(1.0, 0.0), Hv=(2.0, 0.0), E1=0.3, eps=0.0)
    rep = find_unstable_roots(make_context(st, WaveDirection(0.0, 1.0)), 0.3)
    assert rep.region.delta != 0.3 and rep.inclusion_radius < 1e-10
    assert rep.winding_count == 1 and len(rep.roots) == 1 and not rep.flags


def test_double_roots_are_decided_by_clusters():
    # with Hv' = 0 and E1 = 0, B = 0 and Q = A^2 (1 + eps^2 s^2): every root
    # of A is a double root of Q, some of them exactly repeated eigenvalues;
    # the two disks of each form one cluster, which lies left of delta.  The
    # roots of L = A g are those of A, on the imaginary axis: the count is 0
    st = _state(H=(1.0, 0.5), v=(0.3, -0.2), eps=0.2)
    directions = _directions(st)
    regions = [default_region(st)] * len(directions)
    counts = _counted(_table_columns([st] * len(directions), (), directions), regions)
    assert [(c.winding_count, c.region) for c in counts] == [(0, regions[0])] * len(directions)
    summary = scan_directions(st, n_dirs=16)
    assert summary.errors == [] and summary.count == [0] * len(summary.count)


def test_tiny_eps_against_mpmath():
    # at eps = 1e-160 the companion matrix of Q is not finite; the reversed
    # polynomial t^6 Q(1/t) gives the roots, whose located values and counts
    # match the principal-branch roots at 50 digits.  Its two far roots come
    # out as t = 0 twice: their cluster about t = 0 lies beyond the region,
    # and every direction is decided on the region itself
    import mpmath

    st = _state(H=(1.0, 0.0), Hv=(2.0, 0.0), E1=0.3, eps=1e-160)
    summary = scan_directions(st, n_dirs=8)
    assert summary.errors == [] and summary.numerically_unstable
    reg = default_region(st)
    for k, d in enumerate(summary.directions):
        rep = summary.report(k)
        assert rep.region == reg
        with mpmath.workdps(50):
            want = [z for z in map(complex, _mp_roots(st, (mpmath.mpf(d.omega2),
                                                           mpmath.mpf(d.omega3)), reverse=True))
                    if z.real >= reg.delta and abs(z - reg.delta) <= reg.radius]
        assert rep.winding_count == len(want), rep
        got = rep.roots
        assert len(got) == len(want)
        for z in got:
            assert min(abs(z - y) for y in want) <= 1e-12, (z, want)


# the near-double neutral root of roots-neutral, seed 7, batch 1: two roots
# at s ~ -2.11570i, 8.6e-7 apart
NEAR_DOUBLE = _state(v=(-1.3063210993516403, 0.21523148281423543),
                     H=(1.8120189654612209, -1.321640485180128),
                     Hv=(1.274133775368902, 1.7046450893096425), E1=1.4564763865375248)
NEAR_DOUBLE_DIRECTION = WaveDirection.from_angle(2.0 * math.pi * 9 / 32)


def test_near_double_root_is_one_cluster():
    ctx = make_context(NEAR_DOUBLE, NEAR_DOUBLE_DIRECTION)
    reg = default_region(NEAR_DOUBLE)
    _, size, center, radius, _ = _inclusion(
        _table_columns([NEAR_DOUBLE], (), [NEAR_DOUBLE_DIRECTION]))
    pair = [i for i in range(6) if size[0, i] == 2 and abs(center[0, i] + 2.1157j) < 1e-4]
    assert len(pair) == 1 and center[0, pair[0]].real + radius[0, pair[0]] < reg.delta
    rep = find_unstable_roots(ctx)
    assert rep.region == reg and rep.winding_count == 0
    assert _mp_count(NEAR_DOUBLE, NEAR_DOUBLE_DIRECTION, reg) == 0


def test_roots_at_zero_are_decided():
    # Q(0) = Q'(0) = 0 along (1, 0) and (0, 1) and their mirrors, exactly or
    # up to rounding: every direction is counted on its region as at 50 digits
    st = _state(v=(1.0, -1.0), H=(1.0, -1.0), Hv=(-1.0, 1.0), E1=1.0)
    summary = scan_directions(st, n_dirs=8)
    assert summary.errors == [] and summary.numerically_unstable
    reg = default_region(st)
    for k, d in enumerate(summary.directions):
        rep = summary.report(k)
        assert rep.region == reg and rep.winding_count == _mp_count(st, d, reg), (d, rep)


def test_no_undecided_direction_on_neutral_states():
    # a guard on what the roots-neutral traffic meets: 64 seeded neutral
    # states (E1^2 <= 0.9 F_min, components in [-2, 2], eps = 1e-2) and the
    # near-double root; every direction must be decided
    rng = np.random.default_rng(7)
    states = [NEAR_DOUBLE]
    while len(states) < 65:
        st = _state(v=tuple(rng.uniform(-2.0, 2.0, 2)), H=tuple(rng.uniform(-2.0, 2.0, 2)),
                    Hv=tuple(rng.uniform(-2.0, 2.0, 2)), E1=float(rng.uniform(0.0, 2.0)))
        if st.E1_hat ** 2 <= 0.9 * critical_e1_squared(st):
            states.append(st)
    summaries = list(scan_states(states, 32))
    assert [s.errors for s in summaries] == [[]] * len(states)
    assert not any(s.numerically_unstable for s in summaries)


def test_a_chain_of_overlapping_disks_is_one_cluster():
    # three roots d apart, with the rounding bound inflated so that each end
    # disk overlaps the middle one (of twice its radius) but not the other
    # end: the three still form one cluster, holding three roots
    from pvstab.dispersion import _stacked_roots

    d = 1e-3
    p = np.poly([1.0, 1.0 + d, 1.0 + 2.0 * d, 5.0, -5.0, 10.0])[None, :]
    z, size, _, radius = _stacked_roots(p, np.abs(p))
    assert size.tolist() == [[1] * 6]
    end = radius[np.abs(np.abs(z - 1.0 - d) - d) < 0.1 * d].max()
    _, size, center, radius = _stacked_roots(p, 0.45 * d / end * np.abs(p))
    assert sorted(size[0].tolist()) == [0, 0, 1, 1, 1, 3]
    i = int(np.argmax(size[0]))
    assert abs(center[0, i] - (1.0 + d)) < 1e-9 and d < radius[0, i] < 3.0 * d
