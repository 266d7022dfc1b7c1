"""Lopatinski determinant: evaluation and right-half-plane roots.

For a unit tangential wave vector omega' the normal-mode analysis reduces to
the scalar equation L(s) = 0 in the Laplace variable s, with

    L(s) = (ell^2 + w_plus^2) * sqrt(1 + eps^2 s^2)
           + w_minus^2 - E1^2 - 2i E1 w_perp eps s + |Hv'|^2 eps^2 s^2,

    ell = s + i (v'.omega').

Roots with Re s > 0 generate exponentially growing modes whose rate scales
with the wavenumber (violent instability).  The principal branch of the
square root is analytic on the open right half-plane, so roots there are
counted exactly by the argument principle along the boundary of a half-disk
{Re s >= delta, |s - delta| <= R}.  The default radius is proven to hold
every such root: beyond a closed-form R* (``root_radius_bound``) the terms
of L cannot cancel on Re s >= delta, so each direction is counted once.
Since L_{-omega'}(s) = conj(L_{omega'}(conj s)) and the half-disk is
symmetric about the real axis, a scan counts and locates one direction of
each antipodal pair and builds the record of the other by conjugation.
The directions of one state share the half-disk, so a scan counts them as
one batch: the starting grid is evaluated once for all of them, and each
refinement round bisects, evaluates (in one call) and tests only the
intervals that failed the round before, with each direction refined by the
rules of a count alone.  The roots are located without a search: writing
L = A sqrt(1 + eps^2 s^2) + B with A = ell^2 + w_plus^2, the roots of L
are the principal-branch roots of the degree-6 polynomial
A^2 (1 + eps^2 s^2) - B^2.  They are polished by Newton iteration with the
analytic derivative, and the winding count certifies them.

Its independent cross-checks (small-eps root expansions, L at a non-unit
omega', a densely sampled winding) are in ``oracle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ContourTooCloseError, NonConvergentError, PvstabError
from .state import EquilibriumState, FrequencyBundle, WaveDirection, frequency_bundle

_MAX_CONTOUR_POINTS = 1 << 20
_CONTOUR_FLOOR = 1e-8          # min |L|/scale on a usable contour
_NEWTON_TARGET = 1e-13         # relative residual targeted by polishing
_ROOT_RESIDUAL = 1e-10         # relative residual certified per reported root
_BRANCH_POINT = 1e-9           # |1 + eps^2 s^2| at which a root is a branch point
_MAX_BATCH = 64                # directions per batch (or one state's): bounds memory
# (delta, R) multipliers tried when a contour grazes a root, and the least
_JITTERS = ((1.0, 1.0), (0.9, 1.1), (1.1, 0.9), (1.05, 1.05))
_JITTER_MIN = min(min(j) for j in _JITTERS)
MIN_N_DIRS = 8                 # least number of directions a scan accepts


# ---------------------------------------------------------------------------
# context and pointwise evaluation


@dataclass(frozen=True)
class LopatinskiContext:
    """Frozen per-direction data for evaluating L and its derivative.

    The evaluators read the state scalars and the ``bundle`` fields through
    the attributes below, so they also take a batch of directions of any
    states (``_Batch``), whose attributes are arrays that broadcast against
    ``s``.
    """

    state: EquilibriumState
    direction: WaveDirection | None     # unit vector; None for a batch
    bundle: FrequencyBundle

    @property
    def eps(self) -> float:
        return self.state.eps

    @property
    def e1(self) -> float:
        return self.state.E1_hat

    @property
    def hv_sq(self) -> float:
        return self.state.Hv_sq

    @property
    def v_dot(self) -> float:
        return self.bundle.v_dot

    @property
    def leading_deficit(self) -> float:
        """D = E1^2 - w_plus^2 - w_minus^2, the eps = 0 squared growth rate."""
        return self.e1 ** 2 - self.bundle.w_plus ** 2 - self.bundle.w_minus ** 2


def make_context(state: EquilibriumState, direction: WaveDirection) -> LopatinskiContext:
    """Normalize the direction and cache the field projections."""
    d = direction if direction.is_unit else direction.unit()
    return LopatinskiContext(state=state, direction=d,
                             bundle=frequency_bundle(state, d))


def plasma_decay_root(direction) -> float:
    """Decay exponent of the plasma side, -|omega'| (equals -1 when unit)."""
    if not isinstance(direction, WaveDirection):
        direction = WaveDirection(*direction)
    return -direction.norm


def vacuum_decay_root(s, eps: float):
    """Principal square root sqrt(1 + eps^2 s^2); Re >= 0 always.

    Analytic in s on the open right half-plane: there 1 + eps^2 s^2 can only
    reach the branch cut (-inf, 0] if s^2 is real and negative, which forces
    s onto the imaginary axis.
    """
    out = np.sqrt(1.0 + (eps * np.asarray(s, dtype=complex)) ** 2)
    return complex(out) if np.ndim(out) == 0 else out


def _sqrt_factor(es):
    # sqrt(1 + eps^2 s^2) from es = eps s.  Here and below, the in-place
    # additions repeat the operations of the plain expression in the same
    # order, so the values are the same; they only keep fewer arrays of the
    # size of s alive, which matters for a batch.  Complex products are
    # never taken in place: numpy multiplies a complex array of one element
    # in place with other roundings than any longer array, and a direction
    # must get the same values of L in a batch of any size.
    g = es * es
    g += 1.0
    return np.sqrt(g)


def _head(ctx, s, g):
    # (ell^2 + w_plus^2) g: the term that L and its scale share
    ell = s + 1j * ctx.bundle.v_dot
    head = ell * ell
    del ell
    head += ctx.bundle.w_plus ** 2
    return head * g


def _add_tail(ctx, head, es):
    # L from its head, in place: the terms of L without the square root
    head += ctx.bundle.w_minus ** 2
    head -= ctx.e1 ** 2
    head -= 2j * ctx.e1 * ctx.bundle.w_perp * es
    head += (ctx.hv_sq * es) * es
    return head


def _scale_of(ctx, head, es):
    # the sum of the term magnitudes of L, from its head
    out = np.abs(head)
    out += ctx.bundle.w_minus ** 2
    out += ctx.e1 ** 2
    out += np.abs(2.0 * ctx.e1 * ctx.bundle.w_perp * es)
    out += ctx.hv_sq * np.abs(es) ** 2
    return out


def lopatinski(ctx: LopatinskiContext, s):
    """L(s) on the unit-|omega'| normalization; vectorized over s."""
    s = np.asarray(s, dtype=complex)
    es = ctx.eps * s
    out = _add_tail(ctx, _head(ctx, s, _sqrt_factor(es)), es)
    return complex(out) if np.ndim(out) == 0 else out


def lopatinski_deriv(ctx: LopatinskiContext, s):
    """dL/ds; the square-root term contributes eps^2 s / sqrt(1 + eps^2 s^2)."""
    s = np.asarray(s, dtype=complex)
    b = ctx.bundle
    ell = s + 1j * b.v_dot
    es = ctx.eps * s
    g = np.sqrt(1.0 + es * es)
    out = (2.0 * ell * g + (ell * ell + b.w_plus ** 2) * (ctx.eps ** 2) * s / g
           - 2j * ctx.e1 * b.w_perp * ctx.eps + 2.0 * ctx.hv_sq * (ctx.eps ** 2) * s)
    return complex(out) if np.ndim(out) == 0 else out


def lopatinski_scale(ctx: LopatinskiContext, s):
    """Sum of the term magnitudes of L(s): the natural relative scale."""
    s = np.asarray(s, dtype=complex)
    es = ctx.eps * s
    out = _scale_of(ctx, _head(ctx, s, _sqrt_factor(es)), es)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# argument-principle machinery


@dataclass(frozen=True)
class HalfDiskRegion:
    """Search region {Re s >= delta, |s - delta| <= R} in the right half-plane."""

    delta: float
    radius: float

    def __post_init__(self):
        if not (self.delta > 0.0 and self.radius > 0.0):
            raise ValueError("half-disk region requires delta > 0 and radius > 0")

    def contains(self, s: complex) -> bool:
        return s.real >= self.delta and abs(s - self.delta) <= self.radius


def _beyond(p2: float, p1: float, p0: float) -> float:
    # the larger root of p2 r^2 + p1 r + p0 (p2 > 0): the polynomial is
    # positive beyond it; -inf when it is positive everywhere
    disc = p1 * p1 - 4.0 * p2 * p0
    return (-p1 + math.sqrt(disc)) / (2.0 * p2) if disc > 0.0 else -math.inf


# The intervals, in x = eps |s|, on which the dip of |1 + eps^2 s^2| at x = 1
# is checked, from the top down: (lower end, upper end, least |x - 1| on the
# interval, sqrt(1 + lower end^2)).  Their ends halve the distance to x = 1,
# from 1/2 and from 2.
_DIP_LADDER = (0.5, 0.75, 0.875, 0.9375, 1.0, 1.0625, 1.125, 1.25, 1.5, 2.0)
_DIP_PIECES = tuple((lo, hi, max(lo - 1.0, 1.0 - hi), math.sqrt(1.0 + lo * lo))
                    for lo, hi in zip(_DIP_LADDER[-2::-1], _DIP_LADDER[:0:-1]))


def root_radius_bound(state: EquilibriumState, delta: float) -> float:
    """R*: no root of L with Re s >= delta has |s| >= R*, in any direction.

    Write L = A g + B with A = ell^2 + w_plus^2, g = sqrt(1 + eps^2 s^2)
    and B the rest (see ``_candidate_roots``).  With r = |s| >= |v'|, the
    projections bounded by the magnitudes of the state, and x = eps r,

        |A|   >= (r - |v'|)^2 - |H'|^2                          =: a(r),
        |B|   <= |Hv'|^2 x^2 + 2 |E1| |Hv'| x + max(|Hv'|^2, E1^2) =: b(r),
        |g|^2 =  eps^2 |s - i/eps| |s + i/eps|
              >= max(eps delta, |x - 1|) sqrt(1 + x^2)           =: G(r),

    the last on Re s >= delta: the factor nearer the branch point is at
    least Re s and at least ||s| - 1/eps|, the other at least
    sqrt(r^2 + 1/eps^2).  Where a > 0 and a^2 G > b^2, |A g| > |B| and L
    has no root.  Three ranges of x cover r >= R*.  On x <= 1/2, G >= 1/2
    and on x >= 2, G >= x^2/2; on each the condition follows from one
    quadratic in r.  The dip of G at x = 1 between them is checked
    explicitly, on the intervals of ``_DIP_PIECES``: on each, a is taken at
    its lower end, b at its upper end, and |x - 1| in G at its point nearest
    x = 1.
    """
    c, h, hv = math.sqrt(state.v_sq), math.sqrt(state.H_sq), math.sqrt(state.Hv_sq)
    e, eps = abs(state.E1_hat), state.eps
    m = max(hv * hv, e * e)
    if eps == 0.0:                          # g = 1 and |B| <= m exactly
        return c + math.sqrt(h * h + m)
    rt2 = math.sqrt(2.0)
    # x >= 2: a(r) > sqrt2 (|Hv'|^2 eps r + 2 |E1| |Hv'| + m/2) >= sqrt2 b / x
    tail = max(_beyond(1.0, -(2.0 * c + rt2 * hv * hv * eps),
                       c * c - h * h - rt2 * (2.0 * e * hv + 0.5 * m)), c, 2.0 / eps)
    if tail > 2.0 / eps:
        return tail
    floor = eps * delta
    for x_lo, x_hi, dist, root in _DIP_PIECES:    # the first to fail is the highest
        lo = x_lo / eps - c                         # r - |v'| at the lower end
        a = lo * lo - h * h
        y = hv * x_hi
        b = y * (y + 2.0 * e) + m                   # b at the upper end
        if lo < 0.0 or a <= 0.0 or a * a * (dist if dist > floor else floor) * root <= b * b:
            return x_hi / eps
    # x <= 1/2: a(r) > sqrt2 b(r)
    p2 = 1.0 - rt2 * (hv * eps) ** 2
    if p2 <= 0.0:
        return 0.5 / eps
    inner = max(_beyond(p2, -2.0 * (c + rt2 * e * hv * eps), c * c - h * h - rt2 * m), c)
    return min(inner, 0.5 / eps)


def default_region(state: EquilibriumState) -> HalfDiskRegion:
    """Half-disk holding every root with Re s >= delta, in every direction.

    R = 10 (1 + |v'| + |H'| + |Hv'| + |E1|) sets delta = 1e-3 R and is the
    radius unless the proven bound (``root_radius_bound``) needs more.  The
    bound is taken at the least jittered delta and divided by the least
    jitter factor (``_JITTERS``), so that every half-disk a count may move
    to still holds all the roots to its right.
    """
    r = 10.0 * (1.0 + math.sqrt(state.v_sq) + math.sqrt(state.H_sq)
                + math.sqrt(state.Hv_sq) + abs(state.E1_hat))
    delta = 1e-3 * r
    r_star = root_radius_bound(state, _JITTER_MIN * delta)
    return HalfDiskRegion(delta=delta, radius=max(r, r_star / _JITTER_MIN))


def _path_factors(u):
    # the parts of the boundary that depend on the path parameter alone: the
    # masks of the arc and of the chord, exp(i theta) on the arc, and y and
    # |y| on the chord
    arc = u < 0.5
    y = 1.0 - 4.0 * (u[~arc] - 0.5)            # +1 .. -1 down the chord
    return arc, ~arc, np.exp(1j * (-0.5 * np.pi + 2.0 * np.pi * u[arc])), y, np.abs(y)


def _half_disk_points(delta, radius, u, factors=None):
    """Points of half-disk boundaries at path parameters u in [0, 1].

    Positively oriented: the right half-circle from delta - iR through
    delta + R to delta + iR, then the vertical chord back down.  The chord
    is parametrized with a quadratic stretch toward small |Im s|: that is
    where the imaginary-axis roots of neutral states pass at distance delta,
    the sharpest feature the sampling has to resolve.  ``delta`` and
    ``radius`` broadcast against ``u``: one half-disk per point, or (k, 1)
    columns of one half-disk per direction against shared parameters, whose
    ``_path_factors`` may be passed in.
    """
    arc, chord, rot, y, ay = _path_factors(u) if factors is None else factors
    shape = np.broadcast_shapes(np.shape(delta), np.shape(radius), np.shape(u))
    delta, radius = np.broadcast_to(delta, shape), np.broadcast_to(radius, shape)
    s = np.empty(shape, dtype=complex)
    s[..., arc] = delta[..., arc] + radius[..., arc] * rot
    s[..., chord] = delta[..., chord] + 1j * radius[..., chord] * y * ay
    return s


def _columns(ctxs) -> np.ndarray:
    # (7, k): eps, E1, |Hv'|^2 and the bundle fields of each context
    return np.array([(c.eps, c.e1, c.hv_sq, c.bundle.w_plus, c.bundle.w_minus,
                      c.bundle.w_perp, c.bundle.v_dot) for c in ctxs]).T


class _Batch:
    """Directions of any states, as the evaluators read them.

    ``cols`` holds the rows of ``_columns``, or of its columns indexed or
    broadcast alike: one value per evaluation point, or (k, 1) columns of
    one value per direction.  Its rows become the attributes of a
    LopatinskiContext that the evaluators read.
    """

    def __init__(self, cols: np.ndarray):
        self.cols = cols
        self.eps, self.e1, self.hv_sq = cols[:3]
        self.bundle = FrequencyBundle(*cols[3:])


def _finish(ctx, head, es):
    # L and |L|/scale from the head of L and es = eps s, with the values of
    # lopatinski and lopatinski_scale: the scale is taken from the head, and
    # L is completed in place on the head's array
    scale = _scale_of(ctx, head, es)
    np.maximum(scale, 1e-300, out=scale)
    vals = _add_tail(ctx, head, es)
    rel = np.abs(vals)
    rel /= scale
    return vals, rel


def _evaluate(ctx, s):
    # L and |L|/scale, computing the head they share once
    es = ctx.eps * s
    return _finish(ctx, _head(ctx, s, _sqrt_factor(es)), es)


@lru_cache(maxsize=None)
def _unit_grid(n0: int):
    # The starting parameters of every count and their path factors, shared
    # read-only: building them anew took a few per cent of a count.
    u = np.linspace(0.0, 1.0, n0 + 1)
    arc, _, *parts = _path_factors(u)
    for a in (u, *parts):
        a.flags.writeable = False
    # u is sorted, so the arc is its first part: slices index it faster
    n_arc = int(arc.sum())
    return u, (slice(0, n_arc), slice(n_arc, None), *parts)


def _step_test(du, lo, hi):
    # Wrapped phase step and refinement flag of intervals of parameter
    # length du whose ends lo and hi are (L, |L|, arg L) triples.
    bad = np.abs(hi[0] - lo[0]) > 0.8 * np.minimum(lo[1], hi[1])
    dphi = np.mod(hi[2] - lo[2] + np.pi, 2.0 * np.pi) - np.pi
    bad |= np.abs(dphi) >= 0.5 * np.pi
    bad &= du > 1e-12                       # stop refining below roundoff
    return dphi, bad


def _winding_numbers(ctxs, delta, radius, n0: int = 512,
                     max_points: int = _MAX_CONTOUR_POINTS) -> list:
    """Winding of L around 0 along half-disk boundaries, for several directions.

    Direction j, with context ``ctxs[j]`` of any state, is counted on the
    half-disk of ``delta[j]`` and ``radius[j]``.  Its state scalars, field
    projections and half-disk are columns of one batch, so the starting
    grids of all paths are evaluated in one call, and every value of L is
    computed elementwise from the columns of its own direction: a direction
    gets the same values, and the same count, in any batch.  Refinement is
    incremental: an interval that passes the tests is accepted for good, its
    wrapped phase step added to its direction's total, and only the
    intervals that fail are kept, as flat arrays of both ends (direction,
    path parameter, L, |L|, arg L).  Each round bisects them all, evaluates
    every midpoint in one call and tests only the two halves, so its cost is
    proportional to the points it adds.  A direction leaves the batch the
    round it finishes.

    Parametric midpoints are inserted until every step both changes the
    argument by less than pi/2 and changes the value by less than the
    smaller endpoint magnitude.  The second criterion is what catches
    near-misses of the path: a root just off the contour flips the sign of
    L across a span the initial sampling can step over entirely, leaving a
    wrapped phase difference that looks small (aliasing) -- but the value
    jump |dL| ~ 2|L| it causes cannot be hidden.

    Returns, per context, (winding, n_intervals, min relative |L|), or the
    error that ended its count: ContourTooCloseError when the relative |L|
    floor is undercut (a root sits on or too near the path),
    NonConvergentError past the point budget or for a non-integer winding.
    """
    k = len(ctxs)
    cols = _columns(ctxs)
    delta, radius = np.asarray(delta), np.asarray(radius, dtype=float)
    u0, factors = _unit_grid(n0)
    # the directions of one state on one half-disk share the starting grid
    # of their path, and the factors of L that depend on s alone: those are
    # computed once per run of such directions
    key = np.stack((cols[0], delta, radius))
    run = np.concatenate(([0], np.cumsum(np.any(key[:, 1:] != key[:, :-1], axis=0))))
    first = np.flatnonzero(np.diff(run, prepend=-1))
    s = _half_disk_points(delta[first, None], radius[first, None], u0, factors)
    es = cols[0, first, None] * s
    g = _sqrt_factor(es)
    if first.size < k:
        s, es, g = s[run], es[run], g[run]
    batch = _Batch(cols[:, :, None])
    head = _head(batch, s, g)
    del s, g                # of the size of the grid: only es is needed on
    vals, rel = _finish(batch, head, es)
    del head, es
    min_rel = rel.min(axis=1)
    del rel
    grid = (vals, np.abs(vals), np.angle(vals))
    # round 0 tests every interval of the grid, on views of its ends
    dphi, bad = _step_test(np.diff(u0), [a[:, :-1] for a in grid],
                           [a[:, 1:] for a in grid])
    total = np.sum(dphi, axis=1, where=~bad)
    # the failing intervals: direction, then (u, L, |L|, arg L) at each end
    seg, i = np.nonzero(bad)
    lo = [u0[i]] + [a[seg, i] for a in grid]
    hi = [u0[i + 1]] + [a[seg, i + 1] for a in grid]
    del grid, vals, dphi, bad, i
    n_int = [n0] * k
    live = list(range(k))
    out: list = [None] * k
    while True:
        n_bad = np.bincount(seg, minlength=k).tolist()
        still = []
        for j in live:
            if min_rel[j] < _CONTOUR_FLOOR:
                out[j] = ContourTooCloseError(
                    f"min |L|/scale = {min_rel[j]:.3e} on contour "
                    f"(floor {_CONTOUR_FLOOR:g})")
            elif n_bad[j] == 0:
                turns = float(total[j]) / (2.0 * np.pi)
                winding = int(round(turns))
                out[j] = (
                    NonConvergentError(f"non-integer winding {turns:.6f}")
                    if abs(turns - winding) > 0.25
                    else (winding, n_int[j], float(min_rel[j])))
            elif n_int[j] + 1 + n_bad[j] > max_points:
                out[j] = NonConvergentError(
                    f"contour refinement exceeded {max_points} points")
            else:
                still.append(j)
                n_int[j] += n_bad[j]
        if not still:
            return out
        if len(still) < len(live):
            # finished directions leave the batch
            keep = np.zeros(k, dtype=bool)
            keep[still] = True
            keep = keep[seg]
            seg, lo, hi = seg[keep], [a[keep] for a in lo], [a[keep] for a in hi]
        live = still
        # bisect every failing interval into (lo, mid) and (mid, hi): of each
        # quantity laid out as lo, mid, hi, the first two thirds are the low
        # ends of the halves and the last two thirds their high ends
        mid_u = 0.5 * (lo[0] + hi[0])
        mid, mid_rel = _evaluate(_Batch(cols[:, seg]), _half_disk_points(
            delta[seg], radius[seg], mid_u))
        np.minimum.at(min_rel, seg, mid_rel)
        n = seg.size
        ends = [np.concatenate(e) for e in
                zip(lo, (mid_u, mid, np.abs(mid), np.angle(mid)), hi)]
        lo, hi = [e[:2 * n] for e in ends], [e[n:] for e in ends]
        seg = np.concatenate((seg, seg))
        dphi, bad = _step_test(hi[0] - lo[0], lo[1:], hi[1:])
        total += np.bincount(seg, weights=np.where(bad, 0.0, dphi), minlength=k)
        seg, lo, hi = seg[bad], [a[bad] for a in lo], [a[bad] for a in hi]


class _RegionCount(NamedTuple):
    """A winding count certified on one half-disk (after any jitter)."""

    winding: int
    region: HalfDiskRegion
    contour_points: int
    min_rel: float


def _count_on_regions(ctxs, regions) -> list:
    """Winding over each context's half-disk, as one batch.

    ``regions[j]`` is the half-disk of ``ctxs[j]``; the contexts may belong
    to different states.  A direction whose contour grazes a root is counted
    again, with every direction that grazed alongside it, on each jittered
    boundary in turn.  Returns a _RegionCount or the error per context.
    """
    out: list = [None] * len(ctxs)
    last_err: dict = {}
    pending = list(range(len(ctxs)))
    for jd, jr in _JITTERS:
        regs = [HalfDiskRegion(regions[i].delta * jd, regions[i].radius * jr)
                for i in pending]
        results = _winding_numbers([ctxs[i] for i in pending],
                                   [r.delta for r in regs], [r.radius for r in regs])
        grazed = []
        for i, reg, res in zip(pending, regs, results):
            if isinstance(res, ContourTooCloseError):
                last_err[i] = res
                grazed.append(i)
            else:
                out[i] = res if isinstance(res, Exception) else _RegionCount(
                    res[0], reg, *res[1:])
        pending = grazed
        if not pending:
            return out
    for i in pending:
        out[i] = ContourTooCloseError(
            f"contour grazes a root after {len(_JITTERS) - 1} boundary "
            f"perturbations: {last_err[i]}")
    return out


def _count_on_region(ctx: LopatinskiContext, region: HalfDiskRegion) -> _RegionCount:
    """Winding over the half-disk, jittering the boundary off grazed roots."""
    result = _count_on_regions([ctx], [region])[0]
    if isinstance(result, Exception):
        raise result
    return result


def count_unstable_roots(ctx: LopatinskiContext, region: HalfDiskRegion) -> int:
    """Number of roots of L (with multiplicity) inside the half-disk region."""
    winding, _, _, _ = _count_on_region(ctx, region)
    return winding


def _modulus(z):
    # |z| by the C library's hypot, as abs() takes it of a Python complex:
    # the residuals then keep the digits that a polish of one root with
    # Python numbers gives more often (numpy's complex absolute rounds
    # otherwise in the last bit)
    return np.hypot(z.real, z.imag)


def newton_refine(ctx, s0, max_iter: int = 60):
    """Polish root estimates by Newton iteration, all of them at once.

    ``ctx`` is one direction's context, or a ``_Batch`` of one direction
    per estimate.  An estimate stops when |L| is within _NEWTON_TARGET of
    the scale, when dL/ds vanishes, or when its step falls below roundoff;
    |L| and the scale are evaluated at the point where it stopped.  Returns
    (s, |L(s)|, scale at s) of the shape of ``s0``.
    """
    s = np.array(s0, dtype=complex)
    shape = s.shape
    s = s.reshape(-1)
    n = s.size
    cols = ctx.cols if isinstance(ctx, _Batch) else _columns([ctx])
    cols = np.broadcast_to(cols, (cols.shape[0], n))
    abs_l, scale = np.empty(n), np.empty(n)
    act = np.arange(n)
    stepped = []                  # stopped after a step: evaluated at the end
    for _ in range(max_iter):
        if not act.size:
            break
        c, z = _Batch(cols[:, act]), s[act]
        val = lopatinski(c, z)
        sc = lopatinski_scale(c, z)
        mag = _modulus(val)
        dval = lopatinski_deriv(c, z)
        stop = (mag <= _NEWTON_TARGET * sc) | (dval == 0)
        abs_l[act[stop]], scale[act[stop]] = mag[stop], sc[stop]
        go = ~stop
        act, step = act[go], val[go] / dval[go]
        s[act] -= step
        small = _modulus(step) <= 1e-16 * (1.0 + _modulus(s[act]))
        stepped.append(act[small])
        act = act[~small]
    done = np.concatenate(stepped + [act])
    if done.size:
        c, z = _Batch(cols[:, done]), s[done]
        abs_l[done], scale[done] = _modulus(lopatinski(c, z)), lopatinski_scale(c, z)
    if not shape:
        return complex(s[0]), float(abs_l[0]), float(scale[0])
    return s.reshape(shape), abs_l.reshape(shape), scale.reshape(shape)


@dataclass(frozen=True)
class RootReport:
    """Certified right-half-plane roots of L in a region."""

    region: HalfDiskRegion           # region actually integrated (after jitter)
    winding_count: int
    roots: tuple[complex, ...]       # multiplicity-repeated, sorted by (-Re, Im)
    residuals: tuple[float, ...]     # |L| at each root
    contour_points: int
    min_abs_on_contour: float        # min |L|/scale along the counting contour
    flags: tuple[str, ...] = ()

    @property
    def max_re(self) -> float | None:
        return max((r.real for r in self.roots), default=None)


def _polynomial(ctx: LopatinskiContext) -> np.ndarray:
    # A^2 (1 + eps^2 s^2) - B^2 for L = A g + B, highest power first.  The
    # products are np.convolve's: its dot products may fuse multiply-adds,
    # and a closed form that does not would move the roots that Newton
    # leaves in place by an ulp.
    b, eps, e1 = ctx.bundle, ctx.eps, ctx.e1
    a = np.array([1.0, 2j * b.v_dot, b.w_plus ** 2 - b.v_dot ** 2])
    bq = np.array([ctx.hv_sq * eps ** 2, -2j * e1 * b.w_perp * eps,
                   b.w_minus ** 2 - e1 ** 2])
    return np.polysub(np.convolve(np.convolve(a, a), [eps ** 2, 0.0, 1.0]),
                      np.convolve(bq, bq))


def _stacked_roots(polys) -> list:
    """np.roots of each coefficient array (highest power first), bit for bit,
    without the roots at s = 0 of trailing zero coefficients.

    The companion matrices are laid out as np.roots lays them out, after
    dropping the leading and trailing zero coefficients, and the finite ones
    of one degree are stacked into one eigenvalue call.  A polynomial whose
    companion matrix is not finite (its leading coefficient, eps^2 for L, is
    too small against the others) gets a PvstabError in place of its roots.
    """
    out = [np.empty(0, dtype=complex)] * len(polys)
    by_degree: dict = {}
    for i, p in enumerate(polys):
        nz = np.flatnonzero(p)
        if nz.size > 1:
            by_degree.setdefault(nz[-1] - nz[0], []).append((i, p[nz[0]:nz[-1] + 1]))
    for m, group in by_degree.items():
        p = np.array([q for _, q in group])
        with np.errstate(over="ignore", invalid="ignore"):
            head = -p[:, 1:] / p[:, :1]
        finite = np.isfinite(head).all(axis=1)
        comp = np.zeros((int(finite.sum()), m, m), dtype=p.dtype)
        comp[:, 0, :] = head[finite]
        comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        roots = iter(np.linalg.eigvals(comp))
        for (i, _), ok in zip(group, finite):
            out[i] = next(roots) if ok else PvstabError(
                f"cannot locate roots: the leading coefficient of the degree-{m} "
                "polynomial, eps^2, is too small against the others")
    return out


def _candidate_roots(ctxs) -> list:
    """Roots of L with Re s > 0, Newton-polished, for each context.

    Writing L = A g + B with A = ell^2 + w_plus^2, g = sqrt(1 + eps^2 s^2)
    and B the remaining quadratic, the roots of L on either branch of g are
    the roots of A^2 (1 + eps^2 s^2) - B^2, of degree 6 (4 at eps = 0).
    The polynomials of all contexts are solved together
    (``_stacked_roots``), and all their roots polished by one Newton
    iteration.  A root belongs to the principal branch when
    |A g + B| <= |A g - B|.  Returns (roots, |L|, scale) arrays per
    context, the last two from Newton, or the PvstabError of a context
    whose polynomial could not be solved.
    """
    if not ctxs:
        return []
    found = _stacked_roots([_polynomial(c) for c in ctxs])
    failed = {j: z for j, z in enumerate(found) if isinstance(z, PvstabError)}
    found = [np.empty(0, dtype=complex) if j in failed else z for j, z in enumerate(found)]
    owner = np.repeat(np.arange(len(ctxs)), [z.size for z in found])
    z = np.concatenate(found)
    cols = _columns(ctxs)[:, owner]
    batch, es = _Batch(cols), cols[0] * z
    g = _sqrt_factor(es)
    ag = _head(batch, z, g)
    bz = _add_tail(batch, np.zeros_like(z), es)
    # the branch points +-i/eps are roots of the polynomial where B(+-i/eps)
    # = 0, and roundoff can put them at Re s > 0; dL/ds is singular there,
    # so Newton cannot move them, and they are dropped
    keep = (z.real > 0.0) & (np.abs(g) ** 2 > _BRANCH_POINT) & (
        np.abs(ag + bz) <= np.abs(ag - bz))
    owner = owner[keep]
    roots, abs_l, scale = newton_refine(_Batch(cols[:, keep]), z[keep])
    ends = np.searchsorted(owner, np.arange(len(ctxs) + 1))
    return [failed[j] if j in failed else (roots[lo:hi], abs_l[lo:hi], scale[lo:hi])
            for j, (lo, hi) in enumerate(zip(ends[:-1], ends[1:]))]


def _root_reports(ctxs, counts) -> list:
    """The RootReport of each context from its certified count.

    The roots of all contexts with a positive winding are located as one
    batch (see ``_candidate_roots``); those inside the counted region are
    reported, sorted by (-Re, Im), with the residuals Newton ended on.  A
    mismatch with the winding, or a root whose residual exceeds
    certification, is reported via ``flags``; a context whose roots could
    not be located has its PvstabError in place of a report.
    """
    located = [i for i, c in enumerate(counts) if c.winding > 0]
    found = dict(zip(located, _candidate_roots([ctxs[i] for i in located])))
    reports = []
    for i, (winding, used, n_int, min_rel) in enumerate(counts):
        if winding == 0:
            reports.append(RootReport(used, 0, (), (), n_int, min_rel))
            continue
        if isinstance(found[i], PvstabError):
            reports.append(found[i])
            continue
        roots, abs_l, scale = (a.tolist() for a in found[i])
        inside = sorted((j for j, s in enumerate(roots) if used.contains(s)),
                        key=lambda j: (-roots[j].real, roots[j].imag))
        flags: list[str] = []
        if len(inside) != winding:
            flags.append(f"located {len(inside)} roots but winding is {winding}")
        flags += [f"root {roots[j]:.6g} residual {abs_l[j]:.3e} above certification"
                  for j in inside if abs_l[j] > _ROOT_RESIDUAL * scale[j]]
        reports.append(RootReport(used, winding, tuple(roots[j] for j in inside),
                                  tuple(abs_l[j] for j in inside), n_int, min_rel,
                                  tuple(flags)))
    return reports


def locate_roots(ctxs, regions):
    """Count and locate the roots of each context in its region, in batches.

    ``regions[j]`` is the region of ``ctxs[j]``; the contexts may belong to
    different states.  Up to _MAX_BATCH directions are counted as one batch
    (see ``_count_on_regions``) and located as one (see ``_root_reports``).
    Yields, per context and in order, its RootReport or the error that
    ended its count.
    """
    for lo in range(0, len(ctxs), _MAX_BATCH):
        part, regs = ctxs[lo:lo + _MAX_BATCH], regions[lo:lo + _MAX_BATCH]
        counts = _count_on_regions(part, regs)
        ok = [i for i, c in enumerate(counts) if not isinstance(c, Exception)]
        reports = dict(zip(ok, _root_reports([part[i] for i in ok],
                                             [counts[i] for i in ok])))
        yield from (reports.get(i, c) for i, c in enumerate(counts))


def find_unstable_roots(ctx: LopatinskiContext, region: HalfDiskRegion) -> RootReport:
    """Count roots in the region, then localize them (``locate_roots``).

    The roots are those of a degree-6 polynomial (see ``_candidate_roots``)
    that lie in the region after Newton polishing; the winding count over
    the region certifies them.  A mismatch between the two, or a root whose
    residual exceeds certification, is reported via ``flags``.
    """
    result = next(locate_roots([ctx], [region]))
    if isinstance(result, Exception):
        raise result
    return result


# ---------------------------------------------------------------------------
# direction scans


@dataclass(frozen=True)
class DirectionScan:
    direction: WaveDirection
    count: int | None                  # None when the count itself failed
    region: HalfDiskRegion | None = None
    contour_points: int | None = None
    min_rel: float | None = None
    report: RootReport | None = None   # present when roots were located
    error: str | None = None

    @property
    def max_re_s(self) -> float | None:
        return self.report.max_re if self.report is not None else None


@dataclass(frozen=True)
class ScanSummary:
    """Per-direction root counts plus the worst growth rate found."""

    records: tuple[DirectionScan, ...]
    numerically_unstable: bool
    max_re_s: float | None
    n_errors: int


def _mirrored(scan: DirectionScan, direction: WaveDirection) -> DirectionScan:
    """The scan of -omega' built from that of omega'.

    Under omega' -> -omega' the projections w_plus, w_minus, w_perp and
    v'.omega' all change sign, so L_{-omega'}(s) = conj(L_{omega'}(conj s)).
    The half-disk is symmetric about the real axis: the count, region and
    contour certificates carry over, and the roots are the conjugates.
    """
    report = scan.report
    if report is not None:
        pairs = sorted(zip((z.conjugate() for z in report.roots), report.residuals),
                       key=lambda p: (-p[0].real, p[0].imag))
        report = replace(report, roots=tuple(z for z, _ in pairs),
                         residuals=tuple(res for _, res in pairs))
    return DirectionScan(direction, scan.count, scan.region, scan.contour_points,
                         scan.min_rel, report, scan.error)


def _summary(records) -> ScanSummary:
    counts = [r.count for r in records if r.count is not None]
    res = [r.max_re_s for r in records if r.max_re_s is not None]
    return ScanSummary(
        records=tuple(records),
        numerically_unstable=any(c > 0 for c in counts),
        max_re_s=max(res) if res else None,
        n_errors=sum(1 for r in records if r.error is not None),
    )


def scan_states(states, n_dirs: int = 32, regions=None):
    """Scan the directions of each state (see ``scan_directions``) in batches.

    ``regions[j]`` is the region of ``states[j]``, None for its default
    region.  The counted directions of as many states as fit in _MAX_BATCH
    (at least one state) go to ``locate_roots`` together, so they are
    counted as one batch and those with roots located as one.  Yields a
    ScanSummary per state, in order.
    """
    if n_dirs < MIN_N_DIRS:
        raise ValueError(f"n_dirs must be at least {MIN_N_DIRS}")
    from .criterion import minimize_f  # local import: criterion has no dispersion dep

    states = list(states)
    regions = [None] * len(states) if regions is None else list(regions)
    equispaced = [WaveDirection.from_angle(2.0 * math.pi * k / n_dirs)
                  for k in range(n_dirs)]
    # index of the direction whose mirror image each folded direction is
    mirror_of = {n_dirs + 1: n_dirs}
    if n_dirs % 2 == 0:
        mirror_of.update((k + n_dirs // 2, k) for k in range(n_dirs // 2))
    own = [i for i in range(n_dirs + 2) if i not in mirror_of]
    per_batch = max(1, _MAX_BATCH // len(own))
    for lo in range(0, len(states), per_batch):
        group, ctxs, regs = [], [], []
        for st, reg in zip(states[lo:lo + per_batch], regions[lo:lo + per_batch]):
            star = minimize_f(st).omega_star
            directions = equispaced + [star, WaveDirection(-star.omega2, -star.omega3)]
            group.append(directions)
            ctxs += [make_context(st, directions[i]) for i in own]
            regs += [reg or default_region(st)] * len(own)
        located = locate_roots(ctxs, regs)
        for directions in group:
            scans = {}
            for i in own:
                rep = next(located)
                scans[i] = (DirectionScan(directions[i], None, error=str(rep))
                            if isinstance(rep, Exception) else
                            DirectionScan(directions[i], rep.winding_count, rep.region,
                                          rep.contour_points, rep.min_abs_on_contour,
                                          rep if rep.winding_count else None))
            yield _summary([scans[i] if i in scans else _mirrored(scans[mirror_of[i]], d)
                            for i, d in enumerate(directions)])


def scan_directions(state: EquilibriumState, n_dirs: int = 32,
                    region: HalfDiskRegion | None = None) -> ScanSummary:
    """Count unstable roots over equispaced directions plus the F-minimizers.

    A state is declared numerically unstable iff any scanned direction has a
    positive right-half-plane root count.  Only one direction of each
    antipodal pair is counted and located: the first half of an even
    equispaced set, and the F-minimizer; the other is its mirror image (see
    ``_mirrored``).  With an odd ``n_dirs`` only the F-minimizer pair folds.
    The counted directions are counted once, on ``region`` or on the default
    region, whose radius is proven to hold every root; directions with roots
    are localized with that count.  Per-direction failures are recorded,
    not raised.  A scan of one state is a batch of one of ``scan_states``.
    """
    return next(scan_states([state], n_dirs, [region]))
