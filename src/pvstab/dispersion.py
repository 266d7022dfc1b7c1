"""Lopatinski determinant: evaluation and right-half-plane roots.

For a unit tangential wave vector omega' the normal-mode analysis reduces to
the scalar equation L(s) = 0 in the Laplace variable s, with

    L(s) = (ell^2 + w_plus^2) * sqrt(1 + eps^2 s^2)
           + w_minus^2 - E1^2 - 2i E1 w_perp eps s + |Hv'|^2 eps^2 s^2,

    ell = s + i (v'.omega').

Roots with Re s > 0 generate modes growing at a rate proportional to the
wavenumber (violent instability).  The public counts take a delta (None:
``default_delta``) and count the roots with Re s >= delta in a half-disk
{Re s >= delta, |s - delta| <= R} that ``default_region`` builds, with R
proven to hold them all at that delta.  With L = A sqrt(1 + eps^2 s^2) + B and
A = ell^2 + w_plus^2, they are principal-branch roots of the degree-6
polynomial Q = A^2 (1 + eps^2 s^2) - B^2, real in sigma = -i s.  One
eigenvalue call solves Q for a batch of directions, and clusters of
Weierstrass disks about its roots certify every count
(``_algebraic_counts``); a direction they cannot decide is an error, never
a guess.  Newton polishes the roots.  Every count runs on (7, k) columns
built from a table of the states and one of the directions
(``_table_columns``), in batches of up to _MAX_BATCH.  Its one result is a
``StateCounts``, which keeps counts, regions, errors and roots as lists with
an item per direction and gives a direction's RootReport on demand: a scan
(``scan_states``) counts one direction of each antipodal pair and gives the
other its pair's items with the conjugate roots (``_antipode``), and
``locate_roots`` counts given (state, direction) pairs.  The evaluators of L
unpack seven values, the rows of those columns or the floats of one
``LopatinskiContext``.  Independent cross-checks are in ``oracle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

from ._lazy import numpy as np
from .errors import PvstabError
from .state import (MAX_N_DIRS, MIN_N_DIRS, N_DIRS, EquilibriumState, FrequencyBundle,
                    WaveDirection, _default_radius, default_delta, frequency_bundle)

_NEWTON_TARGET = 1e-13         # relative residual targeted by polishing
_NEWTON_ITERATIONS = 60        # most Newton steps a polished estimate takes
_ROOT_RESIDUAL = 1e-10         # relative residual certified per reported root
_BRANCH_POINT = 1e-9           # |1 + eps^2 s^2| at which a root is a branch point
_ROUNDING = 2.0 ** -46         # 128 u: relative rounding bound of Q's coefficients and Horner
_UNDERFLOW = 1e-322            # absolute rounding bound of values below the normal range
_NUDGE = 2.0 ** -23            # relative step between nodes from repeated eigenvalues
# Directions per batch.  Counting and locating cost 28 us per direction at
# 17, 10 at 136, 7.4 at 1,088 and 9.6 at 4,352 (seed-7 neutral states,
# n_dirs 32, 2-core Xeon); the cap bounds memory.  It is the most directions
# a scan counts of a state (MAX_N_DIRS), so one state always fits a batch.
_MAX_BATCH = MAX_N_DIRS
# (delta, R) multipliers tried when an inclusion disk straddles the boundary,
# and the least
_JITTERS = ((1.0, 1.0), (0.9, 1.1), (1.1, 0.9), (1.05, 1.05))
_JITTER_MIN = min(min(j) for j in _JITTERS)


# ---------------------------------------------------------------------------
# context and pointwise evaluation


@dataclass(frozen=True)
class LopatinskiContext:
    """Frozen per-direction data for evaluating L and its derivative.

    A context iterates over its seven floats in the order of the rows of
    ``_table_columns``, which is all the evaluators read: they unpack a
    context and (7, k) columns alike.
    """

    state: EquilibriumState
    direction: WaveDirection            # unit vector
    bundle: FrequencyBundle

    def __iter__(self):
        st, b = self.state, self.bundle
        return iter((st.eps, st.E1_hat, st.Hv_sq, b.w_plus, b.w_minus, b.w_perp, b.v_dot))

    @property
    def leading_deficit(self) -> float:
        """D = E1^2 - w_plus^2 - w_minus^2, the eps = 0 squared growth rate."""
        return self.state.E1_hat ** 2 - self.bundle.w_plus ** 2 - self.bundle.w_minus ** 2


def make_context(state: EquilibriumState, direction: WaveDirection) -> LopatinskiContext:
    """Normalize the direction and cache the field projections."""
    d = direction if direction.is_unit else direction.unit()
    return LopatinskiContext(state=state, direction=d,
                             bundle=frequency_bundle(state, d))


def vacuum_decay_root(s, eps: float):
    """Principal square root sqrt(1 + eps^2 s^2); Re >= 0, and analytic in s
    on the open right half-plane (its branch cut needs s^2 < 0)."""
    out = np.sqrt(1.0 + (eps * np.asarray(s, dtype=complex)) ** 2)
    return complex(out) if np.ndim(out) == 0 else out


def _sqrt_factor(es):
    # sqrt(1 + eps^2 s^2) from es = eps s.  Here and below, in-place
    # additions give the plain expression's values with fewer temporaries.
    # Complex products are never taken in place: numpy rounds an in-place
    # product of one element otherwise than of longer arrays, and a
    # direction must get the same values of L in a batch of any size.
    g = es * es
    g += 1.0
    return np.sqrt(g)


def _head(cols, s, g):
    # (ell^2 + w_plus^2) g: the term that L and its scale share
    _, _, _, wp, _, _, v = cols
    ell = s + 1j * v
    head = ell * ell
    del ell
    head += wp ** 2
    return head * g


def _add_tail(cols, head, es):
    # L from its head, in place: the terms of L without the square root
    _, e1, hv_sq, _, wm, wperp, _ = cols
    head += wm ** 2
    head -= e1 ** 2
    head -= 2j * e1 * wperp * es
    head += (hv_sq * es) * es
    return head


def _scale_of(cols, head, es):
    # the sum of the term magnitudes of L, from its head
    _, e1, hv_sq, _, wm, wperp, _ = cols
    out = np.abs(head)
    out += wm ** 2
    out += e1 ** 2
    out += np.abs(2.0 * e1 * wperp * es)
    out += hv_sq * np.abs(es) ** 2
    return out


def lopatinski(ctx, s):
    """L(s) on the unit-|omega'| normalization; vectorized over s.  ``ctx``
    is a LopatinskiContext or (7, k) columns that broadcast against s."""
    s = np.asarray(s, dtype=complex)
    eps, *_ = ctx
    es = eps * s
    out = _add_tail(ctx, _head(ctx, s, _sqrt_factor(es)), es)
    return complex(out) if np.ndim(out) == 0 else out


def lopatinski_deriv(ctx, s):
    """dL/ds; the square-root term contributes eps^2 s / sqrt(1 + eps^2 s^2)."""
    s = np.asarray(s, dtype=complex)
    eps, e1, hv_sq, wp, _, wperp, v = ctx
    ell = s + 1j * v
    es = eps * s
    g = np.sqrt(1.0 + es * es)
    out = (2.0 * ell * g + (ell * ell + wp ** 2) * (eps ** 2) * s / g
           - 2j * e1 * wperp * eps + 2.0 * hv_sq * (eps ** 2) * s)
    return complex(out) if np.ndim(out) == 0 else out


def lopatinski_scale(ctx, s):
    """Sum of the term magnitudes of L(s): the natural relative scale."""
    s = np.asarray(s, dtype=complex)
    eps, *_ = ctx
    es = eps * s
    out = _scale_of(ctx, _head(ctx, s, _sqrt_factor(es)), es)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class HalfDiskRegion:
    """Search region {Re s >= delta, |s - delta| <= R} in the right half-plane."""

    delta: float
    radius: float

    def __post_init__(self):
        if not (self.delta > 0.0 and self.radius > 0.0):
            raise ValueError("half-disk region requires delta > 0 and radius > 0")


def _beyond(p2: float, p1: float, p0: float) -> float:
    # the larger root of p2 r^2 + p1 r + p0 (p2 > 0): the polynomial is
    # positive beyond it; -inf when it is positive everywhere
    disc = p1 * p1 - 4.0 * p2 * p0
    return (-p1 + math.sqrt(disc)) / (2.0 * p2) if disc > 0.0 else -math.inf


# Intervals in x = eps |s| on which the dip of |1 + eps^2 s^2| at x = 1 is
# checked, from the top down: (lower end, upper end, least |x - 1| on it,
# sqrt(1 + lower end^2)).
_DIP_LADDER = (0.5, 0.75, 0.875, 0.9375, 1.0, 1.0625, 1.125, 1.25, 1.5, 2.0)
_DIP_PIECES = tuple((lo, hi, max(lo - 1.0, 1.0 - hi), math.sqrt(1.0 + lo * lo))
                    for lo, hi in zip(_DIP_LADDER[-2::-1], _DIP_LADDER[:0:-1]))


def root_radius_bound(state: EquilibriumState, delta: float) -> float:
    """R*: no root of L with Re s >= delta has |s| >= R*, in any direction.

    Write L = A g + B, g = sqrt(1 + eps^2 s^2).  With r = |s| >= |v'| and
    x = eps r,

        |A|   >= (r - |v'|)^2 - |H'|^2                          =: a(r),
        |B|   <= |Hv'|^2 x^2 + 2 |E1| |Hv'| x + max(|Hv'|^2, E1^2) =: b(r),
        |g|^2 =  eps^2 |s - i/eps| |s + i/eps|
              >= max(eps delta, |x - 1|) sqrt(1 + x^2)           =: G(r),

    the last on Re s >= delta.  Where a > 0 and a^2 G > b^2, |A g| > |B|
    and L has no root.  On x <= 1/2, G >= 1/2 and on x >= 2, G >= x^2/2:
    on each the condition is one quadratic in r.  The dip of G at x = 1 is
    checked on the intervals of ``_DIP_PIECES``, with a at their lower end,
    b at their upper end and |x - 1| at their point nearest x = 1.
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


def default_region(state: EquilibriumState, delta: float | None = None) -> HalfDiskRegion:
    """Half-disk holding every root with Re s >= delta, in every direction:
    the only place a counting region is built.

    R = 10 (1 + |v'| + |H'| + |Hv'| + |E1|) sets the default delta = 1e-3 R
    (`default_delta`) and is the radius unless the bound R*
    (``root_radius_bound``), taken at the least jittered delta and divided by
    the least jitter factor, needs more: every half-disk a count may move to
    still holds all the roots.  The radius is proven at the delta given,
    whatever it is.
    """
    r = _default_radius(state)
    delta = default_delta(state, delta)
    r_star = root_radius_bound(state, _JITTER_MIN * delta)
    return HalfDiskRegion(delta=delta, radius=max(r, r_star / _JITTER_MIN))


def _table_columns(states, directions, stars) -> np.ndarray:
    """(7, k) columns: eps, E1, |Hv'|^2 and the ``frequency_bundle`` fields
    of each state's ``directions`` and then of its ``stars[j]``, from a table
    of the state values and one of the directions.  Each direction is
    normalized as ``make_context`` does, and the bundle takes the products
    and sums of ``frequency_bundle`` in its order, so the same bits.  With
    no ``directions`` the columns are those of the pairs (states[j],
    stars[j]), as ``locate_roots`` counts them."""
    units = [d if d.is_unit else d.unit() for d in (*directions, *stars)]
    w = np.array([(d.omega2, d.omega3) for d in units]).T
    n = len(directions)
    w2, w3 = np.concatenate([np.repeat(w[:, None, :n], len(stars), axis=1), w[:, n:, None]], 2)
    eps, e1, hv_sq, h2, h3, hv2, hv3, v2, v3 = np.array([
        (st.eps, st.E1_hat, st.Hv_sq, *st.H_hat_t, *st.Hv_hat_t, *st.v_hat_t)
        for st in states]).T[:, :, None]
    return np.array(np.broadcast_arrays(
        eps, e1, hv_sq, h2 * w2 + h3 * w3, hv2 * w2 + hv3 * w3, hv3 * w2 - hv2 * w3,
        v2 * w2 + v3 * w3)).reshape(7, -1)


# ---------------------------------------------------------------------------
# algebraic counts: the roots of Q and the clusters of disks that hold them


def _sigma_polynomial(cols, sign: float = -1.0) -> np.ndarray:
    """Q = A^2 (1 + eps^2 s^2) - B^2 at s = i sigma: (7, k) coefficients,
    lowest power first, for the ``_table_columns`` of k directions.

    There A = w_plus^2 - (sigma + v.omega')^2, 1 + eps^2 s^2 = 1 - eps^2
    sigma^2 and B = w_minus^2 - E1^2 + 2 E1 w_perp eps sigma - |Hv'|^2 eps^2
    sigma^2 are real.  With sign = 1 on the absolute columns the same
    operations sum the term magnitudes of each coefficient, its rounding bound.
    """
    eps, e1, hv_sq, wp, wm, wperp, v = cols
    n, e2 = sign, sign * eps * eps
    a0 = wp * wp + n * (v * v)              # A = a0 + 2 n v sigma + n sigma^2
    c0, c1, c2 = a0 * a0, 4.0 * n * a0 * v, 4.0 * v * v + 2.0 * n * a0
    b0, b1, b2 = wm * wm + n * (e1 * e1), 2.0 * e1 * wperp * eps, hv_sq * e2
    return np.array([c0 + n * b0 * b0, c1 + 2.0 * n * b0 * b1,
                     c2 + e2 * c0 + n * (b1 * b1 + 2.0 * b0 * b2),
                     4.0 * v + e2 * c1 + 2.0 * n * b1 * b2,
                     1.0 + e2 * c2 + n * b2 * b2, 4.0 * v * e2, e2])


def _stacked_roots(p, mag):
    """Roots of the real polynomials ``p`` (k, m + 1; highest power first)
    from one eigenvalue call on companion matrices laid out as np.roots's,
    and the clusters of disks that hold them.

    About distinct nodes z_i the disks |z - z_i| <= m |w_i|, with the
    Weierstrass correction w_i = p(z_i) / (a_m prod_{j != i} (z_i - z_j)),
    hold every root, and a connected component of c disks holds exactly c
    (Carstensen 1991; Neumaier 2003).  The nodes are the eigenvalues, those
    closer than a step _NUDGE (|z| + the middle root modulus) moved apart by
    multiples of it (any distinct nodes will do: this separates double
    roots and roots split by rounding), and p(z_i) is bounded by Horner's
    rounding bound, the term magnitudes ``mag`` evaluated at |z_i| (Higham,
    sec. 5.1).  Returns the eigenvalues and, at the first disk of each
    component, its number of disks and the center and radius of a disk that
    encloses it (0 elsewhere).
    """
    k, m = p.shape[0], p.shape[1] - 1
    comp = np.zeros((k, m, m))
    comp[:, 0, :] = -p[:, 1:] / p[:, :1]
    comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
    z = np.linalg.eigvals(comp).astype(complex)
    index, eye = np.arange(m), np.eye(m, dtype=bool)
    az = np.abs(z)
    middle = np.sort(az, axis=1)[:, m // 2:m // 2 + 1]       # the scale of the roots
    step = _NUDGE * (az + np.where(middle > 0.0, middle, 1.0))
    gap = np.abs(z[:, :, None] - z[:, None, :])
    close, nodes = gap <= step[:, :, None], z
    if np.count_nonzero(close) > k * m:                     # not only the diagonal
        nodes = z + np.tril(close, -1).any(axis=2) * index * step
        gap = np.abs(nodes[:, :, None] - nodes[:, None, :])
    # p(z) / 2^(m e) by Horner in z / 2^e, with |z| <= 2^e: no overflow
    e = np.frexp(np.maximum(np.abs(nodes), 1.0))[1]
    u = nodes * np.ldexp(1.0, -e)
    au = np.abs(u)
    val, err = np.zeros_like(u), np.zeros_like(au)
    with np.errstate(all="ignore"):
        for j, (c, a) in enumerate(zip(p.T, mag.T)):
            val = val * u + np.ldexp(c[:, None], -j * e)
            err = err * au + np.ldexp(a[:, None], -j * e) + _UNDERFLOW / _ROUNDING
        lead = np.abs(p[:, :1]) - _ROUNDING * mag[:, :1]
        # |w| in mantissas and exponents, which over- and underflow only at the end
        (bm, be), (lm, le) = np.frexp(np.abs(val) + _ROUNDING * err), np.frexp(lead)
        gm, ge = np.frexp(np.where(eye, 1.0, gap))
        r = np.where(lead > 0.0, np.ldexp((m + _ROUNDING) * bm / (lm * gm.prod(axis=2)),
                                          be + m * e - le - ge.sum(axis=2)), np.inf)
        # the components: disks joined by chains of overlaps, first to last
        joined = (gap <= r[:, :, None] + r[:, None, :]) | eye
        if np.count_nonzero(joined) == k * m:           # every disk alone
            return z, np.ones((k, m), dtype=int), nodes, r
        for _ in range((m - 1).bit_length()):
            joined = joined @ joined
        first = joined.argmax(axis=2) == index
        size = joined.sum(axis=2)
        center = (joined @ nodes[:, :, None])[:, :, 0] / size
        reach = np.where(joined, np.abs(nodes[:, None, :] - center[:, :, None])
                         + r[:, None, :], 0.0).max(axis=2)
        radius = np.where(size > 1, reach * (1.0 + _ROUNDING), r)   # a disk alone is its own
    return z, np.where(first, size, 0), np.where(first, center, 0.0), np.where(first, radius, 0.0)


def _inclusion(cols):
    """The roots of Q of each direction, as values of s, and the clusters of
    disks that hold them (``_stacked_roots``).

    Q is of degree 4 at eps = 0.  Where its companion matrix is not finite
    (eps^2 too small) t^6 Q(1/t) is solved: a disk in t without 0 maps to a
    disk in sigma, one with 0 holds roots with |s| >= 1/(|t| + r), its
    ``beyond``.  Returns (k, 6) arrays: the roots (NaN where none was
    solved) and, at the first disk of each cluster, its size and the center,
    radius and ``beyond`` (0 for a disk) of a disk that holds it (size 0
    elsewhere).
    """
    k = cols.shape[1]
    q = _sigma_polynomial(cols).T
    mag = _sigma_polynomial(np.abs(cols), 1.0).T + _UNDERFLOW / _ROUNDING
    roots, center = np.full((k, 6), np.nan, dtype=complex), np.zeros((k, 6), dtype=complex)
    size, radius, beyond = np.zeros((k, 6), dtype=int), np.zeros((k, 6)), np.zeros((k, 6))
    flat = cols[0] == 0.0
    with np.errstate(all="ignore"):
        plain = ~flat & np.isfinite(q[:, :6] / q[:, 6:]).all(axis=1)
        flip = ~flat & ~plain & np.isfinite(q[:, 1:] / q[:, :1]).all(axis=1)
    for rows, order in ((flat, slice(4, None, -1)), (plain, slice(None, None, -1)),
                        (flip, slice(None))):
        if not rows.any():
            continue
        z, n, mid, r = _stacked_roots(q[rows][:, order], mag[rows][:, order])
        m, out = z.shape[1], 0.0
        if rows is flip:                    # disks in t = 1/sigma
            az = np.abs(mid)
            near = az > r
            with np.errstate(all="ignore"):
                den = az * az - r * r
                out = np.where(near, 0.0, 1.0 / (az + r))
                mid = np.where(near, np.conj(mid) / den, 0.0)
                r = np.where(near, r / den, np.inf)
                z = 1.0 / z
        roots[rows, :m], size[rows, :m], center[rows, :m] = 1j * z, n, 1j * mid
        radius[rows, :m], beyond[rows, :m] = r, out
    return roots, size, center, radius, beyond


def _factors(cols, z):
    # eps z, g, A g and B of L = A g + B at z
    eps, *_ = cols
    es = eps * z
    g = _sqrt_factor(es)
    return es, g, _head(cols, z, g), _add_tail(cols, np.zeros_like(z), es)


def _root_of_l(cols, z, r):
    """Whether the roots of Q = (A g - B)(A g + B) in each disk |s - z| <= r
    (in Re s > 0, where g is analytic) are roots of L = A g + B, and whether
    that is decided: exactly one factor has a modulus at z above r times a
    bound of its derivative on the disk (finite), plus rounding.
    """
    eps, e1, hv_sq, wp, _, wperp, v = cols
    es, g, ag, bz = _factors(cols, z)
    m = np.abs(z) + r
    ml = np.abs(z + 1j * v) + r                     # |ell| on the disk
    g2 = np.abs(g) ** 2 - eps * eps * r * (2.0 * np.abs(z) + r)     # |g|^2 on it
    with np.errstate(all="ignore"):
        slope = (2.0 * ml * np.sqrt(1.0 + (eps * m) ** 2)
                 + (ml * ml + wp ** 2) * eps * eps * m / np.sqrt(g2)
                 + 2.0 * eps * (np.abs(e1 * wperp) + hv_sq * eps * m))
        reach = r * slope + _ROUNDING * _scale_of(cols, ag, es)
    of_l = np.abs(ag - bz) > reach
    return of_l, (g2 > 0.0) & (of_l != (np.abs(ag + bz) > reach))


def _algebraic_counts(cols, delta, radius):
    """The roots of Q (see ``_inclusion``) and, as lists per direction: the
    count of the roots of L in {Re s >= delta, |s - delta| <= radius} (None
    where the clusters cannot decide it), the half-disk decided on, the
    largest disk and the error text (None where decided).

    A cluster is decided when it lies wholly outside the half-disk, or wholly
    inside with its factor of Q decided (``_root_of_l``); the count is the
    size of the inside clusters that hold roots of L.  A direction with a
    cluster across the boundary is decided again, from the same disks, on
    each jittered half-disk in turn (all of them proven to hold every root
    by ``default_region``).
    """
    roots, size, center, radius_, beyond = _inclusion(cols)
    largest = np.max(np.where(np.isfinite(radius_), radius_, 0.0), axis=1).tolist()
    base = np.array([delta, radius], dtype=float)
    count, region = np.full(base.shape[1], -1), base.copy()
    pending = np.arange(base.shape[1])
    for jitter in _JITTERS:
        d, big = base[:, pending, None] * np.array(jitter)[:, None, None]
        c, r, n = center[pending], radius_[pending], size[pending]
        with np.errstate(invalid="ignore"):
            dist = np.abs(c - d)
            inside = (n > 0) & (c.real - r > d) & (dist + r < big)
            known = ((n == 0) | (c.real + r < d) | (dist - r > big)
                     | (beyond[pending] > d + big))
        of_l = np.zeros_like(inside)
        j, i = np.nonzero(inside)
        of_l[j, i], known[j, i] = _root_of_l(cols[:, pending[j]], c[j, i], r[j, i])
        decided = known.all(axis=1) & n.any(axis=1)
        done = pending[decided]
        count[done] = np.where(of_l, n, 0).sum(axis=1)[decided]
        region[:, done] = d[decided, 0], big[decided, 0]
        pending = pending[~decided]
        if not pending.size:
            break
    error = [None] * len(count)
    for j in pending.tolist():
        error[j] = ("cannot count roots: neither the degree-6 polynomial nor its reverse has a "
                    "finite companion matrix" if np.isnan(roots[j]).all() else
                    f"inclusion disks cannot decide the root count after {len(_JITTERS) - 1} "
                    "boundary perturbations")
    return (roots, [n if n >= 0 else None for n in count.tolist()], *region.tolist(),
            largest, error)


def _modulus(z):
    # |z| by the C library's hypot, as abs() of a Python complex takes it
    # (numpy's complex absolute rounds otherwise in the last bit)
    return np.hypot(z.real, z.imag)


def newton_refine(ctx, s0):
    """Polish root estimates by Newton iteration, all of them at once.

    ``ctx`` is one direction's LopatinskiContext, or (7, n) columns
    (``_table_columns``), one direction per estimate.  An estimate stops when
    |L| <= _NEWTON_TARGET * scale, when dL/ds vanishes, when its step falls
    below roundoff or after _NEWTON_ITERATIONS steps.  Returns (s, |L(s)|,
    scale at s) of the shape of ``s0``.
    """
    s = np.array(s0, dtype=complex)
    shape = s.shape
    s = s.reshape(-1)
    n = s.size
    one = isinstance(ctx, LopatinskiContext)    # its floats serve every estimate
    abs_l, scale = np.empty(n), np.empty(n)
    act = np.arange(n)
    stepped = []                  # stopped after a step: evaluated at the end
    for _ in range(_NEWTON_ITERATIONS):
        if not act.size:
            break
        c, z = ctx if one else ctx[:, act], s[act]
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
        c, z = ctx if one else ctx[:, done], s[done]
        abs_l[done], scale[done] = _modulus(lopatinski(c, z)), lopatinski_scale(c, z)
    if not shape:
        return complex(s[0]), float(abs_l[0]), float(scale[0])
    return s.reshape(shape), abs_l.reshape(shape), scale.reshape(shape)


@dataclass(frozen=True)
class RootReport:
    """The certified count of the roots of L in a region and, when it is
    positive, the roots located: a count of 0 has no roots."""

    region: HalfDiskRegion           # region actually counted (after jitter)
    winding_count: int               # roots of L in the region
    roots: tuple[complex, ...]       # multiplicity-repeated, sorted by (-Re, Im)
    residuals: tuple[float, ...]     # |L| at each root
    flags: tuple[str, ...] = ()
    inclusion_radius: float | None = None    # the largest disk of the count


def _candidate_roots(cols, roots) -> list:
    """Roots of L with Re s > 0, Newton-polished, per direction.

    ``roots[j]`` are the finite roots of Q (``_inclusion``) of the direction
    of ``cols[:, j]``; each root of L is one of them, on the principal
    branch: |A g + B| <= |A g - B|.  All are polished by one Newton
    iteration.  Returns (roots, |L|, scale) arrays per direction.
    """
    j, i = np.nonzero(np.isfinite(roots))
    z, cols = roots[j, i], cols[:, j]
    _, g, ag, bz = _factors(cols, z)
    # the branch points +-i/eps, roots of Q where B(+-i/eps) = 0, are dropped:
    # roundoff can put them at Re s > 0, where Newton cannot move them
    keep = (z.real > 0.0) & (np.abs(g) ** 2 > _BRANCH_POINT) & (
        np.abs(ag + bz) <= np.abs(ag - bz))
    polished, abs_l, scale = newton_refine(cols[:, keep], z[keep])
    ends = np.searchsorted(j[keep], np.arange(len(roots) + 1))
    return [(polished[lo:hi], abs_l[lo:hi], scale[lo:hi])
            for lo, hi in zip(ends[:-1], ends[1:])]


def _located(cols, roots, count, delta, radius) -> list:
    """Per direction with a positive count (None elsewhere): the roots of L
    in its half-disk, sorted by (-Re, Im), their |L| and the flags.

    The roots of Q of all these directions are polished as one batch
    (``_candidate_roots``).  A mismatch with the count, or a residual above
    certification, is reported via the flags.
    """
    out = [None] * len(count)
    counted = [j for j, n in enumerate(count) if n]
    for j, candidates in zip(counted, _candidate_roots(cols[:, counted], roots[counted])
                             if counted else ()):
        z, abs_l, scale = (a.tolist() for a in candidates)
        d, big, n = delta[j], radius[j], count[j]
        inside = sorted((i for i, s in enumerate(z) if s.real >= d and abs(s - d) <= big),
                        key=lambda i: (-z[i].real, z[i].imag))
        flags = [f"located {len(inside)} roots but winding is {n}"] if len(inside) != n else []
        flags += [f"root {z[i]:.6g} residual {abs_l[i]:.3e} above certification"
                  for i in inside if abs_l[i] > _ROOT_RESIDUAL * scale[i]]
        out[j] = (tuple(z[i] for i in inside), tuple(abs_l[i] for i in inside), tuple(flags))
    return out


def _count(cols, delta, radius) -> tuple:
    # the lists count, delta, radius, largest and error of
    # ``_algebraic_counts``, and located (``_located``)
    roots, *counts = _algebraic_counts(cols, delta, radius)
    return (*counts, _located(cols, roots, *counts[:3]))


class StateCounts(NamedTuple):
    """The one result of a count: the lists of ``_count``, an item per
    direction.  A scan (``scan_states``) counts one direction of each
    antipodal pair and gives the antipode its pair's items (``_antipode``);
    ``locate_roots`` counts every direction.  ``report`` gives one
    direction's RootReport."""

    directions: list        # a scan's n_dirs equispaced, the F-minimizer and its antipode
    count: list             # the root count, None where it failed
    delta: list             # the half-disk counted {Re s >= delta, |s - delta| <= radius}
    radius: list
    largest: list           # the largest inclusion disk of the count
    error: list             # the text of the error that ended the count, or None
    located: list           # (roots, residuals, flags) where the count is positive

    @property
    def numerically_unstable(self) -> bool:
        return any(self.count)

    @property
    def max_re_s(self) -> float | None:
        return max((z.real for loc in self.located if loc for z in loc[0]), default=None)

    @property
    def errors(self) -> list[str]:
        """The error text of each direction whose count failed, in order."""
        return [e for n, e in zip(self.count, self.error) if n is None]

    def report(self, k: int):
        """The RootReport of direction k (a count of 0 included), or the
        PvstabError that ended its count."""
        if self.count[k] is None:
            return PvstabError(self.error[k])
        return RootReport(HalfDiskRegion(self.delta[k], self.radius[k]), self.count[k],
                          *(self.located[k] or ((), (), ())), self.largest[k])


def _antipode(located):
    """The (roots, residuals, flags) of the antipode -omega' of a direction
    that has ``located`` (None stays None): as L_{-omega'}(s) =
    conj(L_{omega'}(conj s)), the conjugate roots, sorted again by (-Re, Im)
    with their residuals, and the same flags."""
    if not located:
        return located
    roots, residuals, flags = located
    pairs = sorted(zip((z.conjugate() for z in roots), residuals),
                   key=lambda q: (-q[0].real, q[0].imag))
    return tuple(z for z, _ in pairs), tuple(res for _, res in pairs), flags


def locate_roots(states, directions, deltas) -> StateCounts:
    """Count and locate the roots of each pair (states[j], directions[j])
    with Re s >= ``deltas[j]`` (None: its state's default delta).

    Each count is in ``default_region(states[j], deltas[j])``.  Up to
    _MAX_BATCH pairs, of any states, are counted and located together.
    Returns one StateCounts whose direction j is pair j.
    """
    if not len(states) == len(directions) == len(deltas):
        raise ValueError(f"{len(states)} states, {len(directions)} directions and "
                         f"{len(deltas)} deltas")
    regions = [default_region(st, d) for st, d in zip(states, deltas)]
    lists = [[] for _ in StateCounts._fields[1:]]      # count ... located, of all batches
    for lo in range(0, len(states), _MAX_BATCH):
        part = slice(lo, lo + _MAX_BATCH)
        counts = _count(_table_columns(states[part], (), directions[part]),
                        [r.delta for r in regions[part]], [r.radius for r in regions[part]])
        for out, c in zip(lists, counts):
            out += c
    return StateCounts(list(directions), *lists)


def find_unstable_roots(ctx: LopatinskiContext, delta: float | None = None) -> RootReport:
    """Count the roots of L with Re s >= delta and locate them: the pair of
    one of ``locate_roots``.  Raises the error that ended the count."""
    result = locate_roots([ctx.state], [ctx.direction], [delta]).report(0)
    if isinstance(result, Exception):
        raise result
    return result


# ---------------------------------------------------------------------------
# direction scans


def _counted(n_dirs: int) -> int:
    """The equispaced directions a scan counts of each state at ``n_dirs``."""
    return n_dirs // 2 if n_dirs % 2 == 0 else n_dirs


def scan_states(states, n_dirs: int = N_DIRS, delta: float | None = None):
    """Count and locate the roots of every direction of each state (see
    ``scan_directions``) as columns; yields a StateCounts per state.

    One direction of each antipodal pair is counted: the first half of an
    even set of equispaced directions, and the F-minimizer.  Each state is
    counted with Re s >= ``delta`` (None: its own default) in one region
    proven once.  The states are read as they are needed: as many as fit
    their counted directions and F-minimizer in _MAX_BATCH are one batch,
    whose columns are built from a table of the states and one of the
    directions.
    """
    if n_dirs < MIN_N_DIRS:
        raise ValueError(f"n_dirs must be at least {MIN_N_DIRS}")
    if n_dirs > MAX_N_DIRS:
        raise ValueError(f"n_dirs must be at most {MAX_N_DIRS}")
    from .criterion import minimize_f  # local import: criterion has no dispersion dep

    states = iter(states)
    equispaced = [WaveDirection.from_angle(2.0 * math.pi * k / n_dirs)
                  for k in range(n_dirs)]
    half = _counted(n_dirs)
    per_batch = _MAX_BATCH // (half + 1)
    while group := list(islice(states, per_batch)):
        stars = [minimize_f(st).omega_star for st in group]
        regions = [default_region(st, delta) for st in group]
        *counts, located = _count(_table_columns(group, equispaced[:half], stars),
                                  np.repeat([r.delta for r in regions], half + 1),
                                  np.repeat([r.radius for r in regions], half + 1))
        for j, star in enumerate(stars):
            # the counted directions at [first, last), the F-minimizer at last;
            # an antipode takes its pair's items and the _antipode of its roots
            first, last = j * (half + 1), (j + 1) * (half + 1) - 1
            found = located[first:last]
            antipodes = map(_antipode, found) if half < n_dirs else ()
            yield StateCounts(equispaced + [star, WaveDirection(-star.omega2, -star.omega3)],
                              *([*c[first:last] * (n_dirs // half), c[last], c[last]]
                                for c in counts),
                              [*found, *antipodes, located[last], _antipode(located[last])])


def scan_directions(state: EquilibriumState, n_dirs: int = N_DIRS,
                    delta: float | None = None) -> StateCounts:
    """Count unstable roots over equispaced directions plus the F-minimizers.

    A state is numerically unstable iff some direction has a root with
    Re s >= ``delta`` (default: ``default_delta``), counted in a half-disk
    proven to hold every such root.  One direction of each antipodal pair is
    counted and located, and the other has its count, half-disk and flags
    and the conjugate roots (``_antipode``); with an odd ``n_dirs`` the
    F-minimizer and its antipode are the only pair.  Per-direction failures
    are recorded, not raised.  A batch of one of ``scan_states``.
    """
    return next(scan_states([state], n_dirs, delta))
