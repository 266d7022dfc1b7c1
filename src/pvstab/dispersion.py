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

from .errors import ContourTooCloseError, NonConvergentError
from .state import EquilibriumState, FrequencyBundle, WaveDirection, frequency_bundle

_MAX_CONTOUR_POINTS = 1 << 20
_CONTOUR_FLOOR = 1e-8          # min |L|/scale on a usable contour
_NEWTON_TARGET = 1e-13         # relative residual targeted by polishing
_ROOT_RESIDUAL = 1e-10         # relative residual certified per reported root
# (delta, R) multipliers tried when a contour grazes a root, and the least
_JITTERS = ((1.0, 1.0), (0.9, 1.1), (1.1, 0.9), (1.05, 1.05))
_JITTER_MIN = min(min(j) for j in _JITTERS)
MIN_N_DIRS = 8                 # least number of directions a scan accepts


# ---------------------------------------------------------------------------
# context and pointwise evaluation


@dataclass(frozen=True)
class LopatinskiContext:
    """Frozen per-direction data for evaluating L and its derivative.

    The evaluators also take a batch of directions of one state: then
    ``direction`` is None and the ``bundle`` fields are arrays that
    broadcast against ``s``: one value per evaluation point, or (k, 1)
    columns of one value per direction against points shared by all k.
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


def lopatinski(ctx: LopatinskiContext, s):
    """L(s) on the unit-|omega'| normalization; vectorized over s."""
    # The in-place steps repeat the operations of the plain expression in the
    # same order, so the values are the same; they only keep fewer arrays of
    # the size of s alive, which matters when s holds a batch of directions.
    s = np.asarray(s, dtype=complex)
    b = ctx.bundle
    es = ctx.eps * s
    g = es * es
    g += 1.0
    g = np.sqrt(g)
    out = s + 1j * b.v_dot                       # ell
    out *= out
    out += b.w_plus ** 2
    out *= g
    del g
    out += b.w_minus ** 2
    out -= ctx.e1 ** 2
    out -= 2j * ctx.e1 * b.w_perp * es
    quad = ctx.hv_sq * es
    quad *= es
    out += quad
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
    # in place for the same reason, and with the same values, as lopatinski
    s = np.asarray(s, dtype=complex)
    b = ctx.bundle
    es = ctx.eps * s
    g = es * es
    g += 1.0
    g = np.sqrt(g)
    head = s + 1j * b.v_dot                      # ell
    head *= head
    head += b.w_plus ** 2
    head *= g
    del g
    out = np.abs(head)
    del head
    out += b.w_minus ** 2
    out += ctx.e1 ** 2
    out += np.abs(2.0 * ctx.e1 * b.w_perp * es)
    out += ctx.hv_sq * np.abs(es) ** 2
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


def _half_disk_path(delta: float, radius: float):
    # Positively oriented boundary: right half-circle from delta-iR through
    # delta+R to delta+iR, then the vertical chord back down.  The chord is
    # parametrized with a quadratic stretch toward small |Im s|: that is
    # where the imaginary-axis roots of neutral states pass at distance
    # delta, the sharpest feature the sampling has to resolve.
    def point_of(u):
        u = np.asarray(u, dtype=float)
        s = np.empty(u.shape, dtype=complex)
        arc = u < 0.5
        theta = -0.5 * np.pi + 2.0 * np.pi * u[arc]
        s[arc] = delta + radius * np.exp(1j * theta)
        y = 1.0 - 4.0 * (u[~arc] - 0.5)            # +1 .. -1 down the chord
        s[~arc] = delta + 1j * radius * y * np.abs(y)
        return s
    return point_of


def _batch_context(ctxs, fields: np.ndarray) -> LopatinskiContext:
    # fields rows are (w_plus, w_minus, w_perp, v_dot), one value per point
    # (or per direction, as (k, 1) columns against a shared 1-D s): many
    # directions of one state in one context.
    # A batch of one keeps its own context: with float fields every array
    # operation of the evaluators stays on numpy's contiguous fast path,
    # where per-point arrays would add work and nothing else.
    if len(ctxs) == 1:
        return ctxs[0]
    return LopatinskiContext(state=ctxs[0].state, direction=None,
                             bundle=FrequencyBundle(*fields))


def _evaluate(ctx: LopatinskiContext, s):
    # L and |L|/scale.  The scale comes first, so that its real array rather
    # than the complex L is what stays alive while the other one is built:
    # that lowers the peak memory of a large batch.
    scale = np.maximum(lopatinski_scale(ctx, s), 1e-300)
    vals = lopatinski(ctx, s)
    rel = np.abs(vals)
    rel /= scale
    return vals, rel


@lru_cache(maxsize=None)
def _unit_grid(n0: int) -> np.ndarray:
    # The starting parameters of every count, shared read-only: building
    # them anew took a few per cent of a one-direction count.
    u = np.linspace(0.0, 1.0, n0 + 1)
    u.flags.writeable = False
    return u


def _step_test(du, lo, hi):
    # Wrapped phase step and refinement flag of intervals of parameter
    # length du whose ends lo and hi are (L, |L|, arg L) triples.
    bad = np.abs(hi[0] - lo[0]) > 0.8 * np.minimum(lo[1], hi[1])
    dphi = np.mod(hi[2] - lo[2] + np.pi, 2.0 * np.pi) - np.pi
    bad |= np.abs(dphi) >= 0.5 * np.pi
    bad &= du > 1e-12                       # stop refining below roundoff
    return dphi, bad


def _winding_numbers(ctxs, point_of, n0: int,
                     max_points: int = _MAX_CONTOUR_POINTS) -> list:
    """Winding of L around 0 along one closed path, for several directions.

    The contexts share the state and the path; only their field projections
    differ.  The starting grid of the path is evaluated once, as points
    shared by all directions, so the factors that depend on s alone are
    computed once per point.  Refinement is incremental: an interval that
    passes the tests is accepted for good, its wrapped phase step added to
    its direction's total, and only the intervals that fail are kept, as
    flat arrays of both ends (direction, path parameter, L, |L|, arg L).
    Each round bisects them all, evaluates every midpoint in one call and
    tests only the two halves, so its cost is proportional to the points
    it adds.  Each direction is refined by the same rules as if it were
    counted alone, and leaves the batch the round it finishes.  Its values
    of L can differ from those of a count alone in the last bit: per-point
    arrays square the field projections with numpy, floats with libm's pow.

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
    fields = np.array([[c.bundle.w_plus, c.bundle.w_minus, c.bundle.w_perp,
                        c.bundle.v_dot] for c in ctxs]).T
    u0 = _unit_grid(n0)
    vals, rel = _evaluate(_batch_context(ctxs, fields[:, :, None]), point_of(u0))
    vals = vals.reshape(k, n0 + 1)            # a batch of one gives (n0 + 1,)
    min_rel = rel.reshape(k, n0 + 1).min(axis=1)
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
    del grid, dphi, bad, i
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
        mid, mid_rel = _evaluate(_batch_context(ctxs, fields[:, seg]), point_of(mid_u))
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


def _count_on_regions(ctxs, region: HalfDiskRegion) -> list:
    """Winding over the half-disk for each context, as one batch.

    A direction whose contour grazes a root is counted again, with the
    directions that grazed alongside it, on each jittered boundary in turn.
    Returns a _RegionCount or the error per context.
    """
    out: list = [None] * len(ctxs)
    last_err: dict = {}
    pending = list(range(len(ctxs)))
    for jd, jr in _JITTERS:
        reg = HalfDiskRegion(region.delta * jd, region.radius * jr)
        results = _winding_numbers([ctxs[i] for i in pending],
                                   _half_disk_path(reg.delta, reg.radius), n0=512)
        grazed = []
        for i, res in zip(pending, results):
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
    result = _count_on_regions([ctx], region)[0]
    if isinstance(result, Exception):
        raise result
    return result


def count_unstable_roots(ctx: LopatinskiContext, region: HalfDiskRegion) -> int:
    """Number of roots of L (with multiplicity) inside the half-disk region."""
    winding, _, _, _ = _count_on_region(ctx, region)
    return winding


def newton_refine(ctx: LopatinskiContext, s0: complex, max_iter: int = 60):
    """Polish a root estimate; returns (s, |L(s)|, scale at s)."""
    s = complex(s0)
    for _ in range(max_iter):
        val = lopatinski(ctx, s)
        if abs(val) <= _NEWTON_TARGET * lopatinski_scale(ctx, s):
            break
        dval = lopatinski_deriv(ctx, s)
        if dval == 0:
            break
        step = val / dval
        s -= step
        if abs(step) <= 1e-16 * (1.0 + abs(s)):
            break
    return s, abs(lopatinski(ctx, s)), lopatinski_scale(ctx, s)


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


def _candidate_roots(ctx: LopatinskiContext) -> list[complex]:
    """Roots of L with Re s > 0, from one polynomial, Newton-polished.

    Writing L = A g + B with A = ell^2 + w_plus^2, g = sqrt(1 + eps^2 s^2)
    and B the remaining quadratic, the roots of L on either branch of g are
    the roots of A^2 (1 + eps^2 s^2) - B^2, of degree 6 (4 at eps = 0).  A
    root belongs to the principal branch when |A g + B| <= |A g - B|.
    """
    b, eps, e1 = ctx.bundle, ctx.eps, ctx.e1
    a = np.array([1.0, 2j * b.v_dot, b.w_plus ** 2 - b.v_dot ** 2])
    bq = np.array([ctx.hv_sq * eps ** 2, -2j * e1 * b.w_perp * eps,
                   b.w_minus ** 2 - e1 ** 2])
    poly = np.polysub(np.convolve(np.convolve(a, a), [eps ** 2, 0.0, 1.0]),
                      np.convolve(bq, bq))
    z = np.roots(poly)
    # Re s > 0 only: this also drops the branch points +-i/eps, where dL/ds
    # is singular and which are roots of the polynomial when B(+-i/eps) = 0.
    z = z[z.real > 0.0]
    ag = np.polyval(a, z) * np.sqrt(1.0 + (eps * z) ** 2)
    bz = np.polyval(bq, z)
    z = z[np.abs(ag + bz) <= np.abs(ag - bz)]
    return [newton_refine(ctx, complex(s))[0] for s in z]


def find_unstable_roots(ctx: LopatinskiContext, region: HalfDiskRegion,
                        counted: _RegionCount | None = None) -> RootReport:
    """Count roots in the region, then localize them.

    The roots are those of a degree-6 polynomial (see ``_candidate_roots``)
    that lie in the region after Newton polishing; the winding count over
    the region certifies them.  A mismatch between the two, or a root whose
    residual exceeds certification, is reported via ``flags``.  ``counted``
    is a count already certified on ``region`` for this direction; it is
    used instead of counting again.
    """
    winding, used, n_int, min_rel = (counted if counted is not None
                                     else _count_on_region(ctx, region))
    if winding == 0:
        return RootReport(used, 0, (), (), n_int, min_rel)

    roots = sorted((s for s in _candidate_roots(ctx) if used.contains(s)),
                   key=lambda z: (-z.real, z.imag))
    flags: list[str] = []
    if len(roots) != winding:
        flags.append(f"located {len(roots)} roots but winding is {winding}")
    residuals = []
    for s in roots:
        res = abs(lopatinski(ctx, s))
        residuals.append(res)
        if res > _ROOT_RESIDUAL * lopatinski_scale(ctx, s):
            flags.append(f"root {s:.6g} residual {res:.3e} above certification")
    return RootReport(used, winding, tuple(roots), tuple(residuals),
                      n_int, min_rel, tuple(flags))


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
    return replace(scan, direction=direction, report=report)


def scan_directions(state: EquilibriumState, n_dirs: int = 32,
                    region: HalfDiskRegion | None = None) -> ScanSummary:
    """Count unstable roots over equispaced directions plus the F-minimizers.

    A state is declared numerically unstable iff any scanned direction has a
    positive right-half-plane root count.  Only one direction of each
    antipodal pair is counted and located: the first half of an even
    equispaced set, and the F-minimizer; the other is its mirror image (see
    ``_mirrored``).  With an odd ``n_dirs`` only the F-minimizer pair folds.
    The counted directions share the state and the region, so their winding
    counts run as one batch (see ``_winding_numbers``), once, on ``region``
    or on the default region, whose radius is proven to hold every root.
    Directions with roots are localized with the count already certified.
    Per-direction failures are recorded, not raised.
    """
    if n_dirs < MIN_N_DIRS:
        raise ValueError(f"n_dirs must be at least {MIN_N_DIRS}")
    from .criterion import minimize_f  # local import: criterion has no dispersion dep

    mres = minimize_f(state)
    star = mres.omega_star
    directions = [WaveDirection.from_angle(2.0 * math.pi * k / n_dirs)
                  for k in range(n_dirs)]
    directions += [star, WaveDirection(-star.omega2, -star.omega3)]
    # index of the direction whose mirror image each folded direction is
    mirror_of = {n_dirs + 1: n_dirs}
    if n_dirs % 2 == 0:
        mirror_of.update((k + n_dirs // 2, k) for k in range(n_dirs // 2))
    own = [i for i in range(len(directions)) if i not in mirror_of]

    ctxs = [make_context(state, directions[i]) for i in own]
    results = _count_on_regions(ctxs, region or default_region(state))
    scans = {}
    for i, ctx, c in zip(own, ctxs, results):
        if isinstance(c, Exception):
            scans[i] = DirectionScan(directions[i], None, error=str(c))
            continue
        report = None
        if c.winding > 0:
            report = find_unstable_roots(ctx, c.region, counted=c)
        scans[i] = DirectionScan(directions[i], c.winding, c.region,
                                 c.contour_points, c.min_rel, report)
    records = [scans[i] if i in scans else _mirrored(scans[mirror_of[i]], d)
               for i, d in enumerate(directions)]
    counts = [r.count for r in records if r.count is not None]
    res = [r.max_re_s for r in records if r.max_re_s is not None]
    return ScanSummary(
        records=tuple(records),
        numerically_unstable=any(c > 0 for c in counts),
        max_re_s=max(res) if res else None,
        n_errors=sum(1 for r in records if r.error is not None),
    )
