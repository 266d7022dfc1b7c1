"""The inclusion-disk certificate of root counts against the winding count
and 50-digit roots, on a seeded corpus of the hard corners of the analysis,
and the directions that must fall back to the winding."""

import dataclasses
import math

import numpy as np
import pytest

from pvstab.criterion import critical_e1_squared, minimize_f
from pvstab.dispersion import (HalfDiskRegion, _algebraic_counts, _columns, _count_on_regions,
                               _inclusion, default_region, find_unstable_roots, make_context,
                               scan_directions)
from pvstab.state import EquilibriumState, WaveDirection
from test_dispersion import _mp_roots

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


@pytest.mark.parametrize("name", CORPUS)
def test_inclusion_counts_against_winding_and_mpmath(name):
    # per direction: the inclusion count equals the winding count and the
    # number of principal-branch roots inside the half-disk at 50 digits,
    # and every root of Q at 50 digits lies in one disk, one root per disk
    import mpmath

    st = CORPUS[name]
    ctxs = [make_context(st, d) for d in _directions(st)]
    regions = [default_region(st)] * len(ctxs)
    cols = _columns(ctxs)
    counts = _algebraic_counts(cols, regions)[1]
    _, center, radius, beyond, _ = _inclusion(cols)
    wound = _count_on_regions(ctxs, regions)
    for j, (ctx, reg, c, w) in enumerate(zip(ctxs, regions, counts, wound)):
        assert c is not None and c.certificate == "inclusion", (name, ctx.direction)
        assert c.winding == w.winding, (name, ctx.direction)
        d = ctx.direction
        with mpmath.workdps(50):
            w2, w3 = mpmath.mpf(d.omega2), mpmath.mpf(d.omega3)
            every = _mp_roots(st, (w2, w3), principal=False)
            principal = _mp_roots(st, (w2, w3))
            delta = mpmath.mpf(reg.delta)
            inside = sum(1 for z in principal
                         if z.real > delta and abs(z - delta) < reg.radius)
        assert c.winding == inside, (name, ctx.direction)
        held = [0] * 6
        for z in (complex(y) for y in every):
            hits = [i for i in range(6) if abs(z - center[j, i]) <= radius[j, i]
                    or (radius[j, i] == math.inf and abs(z) >= beyond[j, i])]
            assert hits, (name, ctx.direction, z)
            held[hits[0]] += 1
        assert held[:len(every)] == [1] * len(every) and len(every) in (4, 6)


def test_corpus_covers_the_corners():
    names = " ".join(CORPUS)
    for kind in ("collinear", "orthogonal", "zero_fields", "E1_zero", "band"):
        assert names.count(kind) == len(EPS)
    assert {st.eps for st in CORPUS.values()} >= set(EPS)
    assert all(st.E1_hat != 0.0 for k, st in CORPUS.items() if k.startswith("collinear"))


def test_root_on_the_chord_falls_back_to_winding():
    # the eps = 0 root s = 0.3 of the collinear state lies on the chord
    # Re s = delta = 0.3: its disk straddles it, and the jittered winding
    # counts the direction
    st = _state(H=(1.0, 0.0), Hv=(2.0, 0.0), E1=0.3, eps=0.0)
    rep = find_unstable_roots(make_context(st, WaveDirection(0.0, 1.0)),
                              HalfDiskRegion(0.3, 10.0))
    assert rep.certificate == "winding" and rep.inclusion_radius is None
    assert rep.winding_count == 1 and rep.contour_points > 0
    assert len(rep.roots) == 1 and not rep.flags


def test_double_root_falls_back_to_winding():
    # with Hv' = 0 and E1 = 0, B = 0 and Q = A^2 (1 + eps^2 s^2): every root
    # of A is a double root of Q, whose two disks overlap; the winding
    # counts every direction, and no root lies to the right of delta
    st = _state(H=(1.0, 0.5), v=(0.3, -0.2), eps=0.2)
    ctxs = [make_context(st, d) for d in _directions(st)]
    regions = [default_region(st)] * len(ctxs)
    assert _algebraic_counts(_columns(ctxs), regions)[1] == [None] * len(ctxs)
    summary = scan_directions(st, n_dirs=16)
    assert {r.certificate for r in summary.records} == {"winding"}
    assert all(r.count == 0 and r.contour_points > 0 for r in summary.records)


def test_tiny_eps_against_mpmath():
    # at eps = 1e-160 the companion matrix of Q is not finite; the reversed
    # polynomial t^6 Q(1/t) gives the roots, whose located values and counts
    # match the principal-branch roots at 50 digits
    import mpmath

    st = _state(H=(1.0, 0.0), Hv=(2.0, 0.0), E1=0.3, eps=1e-160)
    summary = scan_directions(st, n_dirs=8)
    assert summary.n_errors == 0 and summary.numerically_unstable
    reg = default_region(st)
    for rec in summary.records:
        d = rec.direction
        with mpmath.workdps(50):
            want = [complex(z) for z in _mp_roots(st, (mpmath.mpf(d.omega2),
                                                       mpmath.mpf(d.omega3)), reverse=True)
                    if reg.contains(complex(z))]
        assert rec.count == len(want), rec
        got = rec.report.roots if rec.report else ()
        assert len(got) == len(want)
        for z in got:
            assert min(abs(z - y) for y in want) <= 1e-12, (z, want)
