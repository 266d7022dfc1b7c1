"""Independent brute-force verifiers.

Nothing here shares code paths with the implementations it checks: the
minimum of F comes from a dense angular grid and from the eigenvalues of the
2x2 quadratic-form matrix, right-half-plane roots from dense |L| sampling,
L at a non-unit omega' from its own homogeneous formula, the winding around
a root from L sampled densely on a circle, and the small-eps root expansions
from substituting a truncated power series into L and solving order by
order (integer-power ladder in the generic case, half-integer ladder in the
transitional case); the expansions are validated against located roots
over a ladder of eps values.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

from ._lazy import numpy as np
from .dispersion import (LopatinskiContext, default_delta, find_unstable_roots,
                         lopatinski, lopatinski_scale, make_context)
from .errors import (DirectionError, NotTransitionalError, PvstabError,
                     TransitionalAtThisDirectionError)
from .state import EquilibriumState, WaveDirection


def grid_fmin(state: EquilibriumState, n: int = 4096) -> tuple[float, WaveDirection]:
    """Minimum of F over n equispaced unit directions.

    F is a smooth trigonometric polynomial, so the grid minimum is within
    (a + b) * (pi/n)^2 of the true one (second-order Taylor bound at the
    minimizer, |F''| <= 2(a+b)).
    """
    if n < 1024:
        raise ValueError("n must be at least 1024")
    theta = 2.0 * np.pi * np.arange(n) / n
    c, s = np.cos(theta), np.sin(theta)
    H2, H3 = state.H_hat_t
    Hv2, Hv3 = state.Hv_hat_t
    f = (H2 * c + H3 * s) ** 2 + (Hv2 * c + Hv3 * s) ** 2
    k = int(np.argmin(f))
    return float(f[k]), WaveDirection(float(c[k]), float(s[k]))


def grid_fmin_bound(state: EquilibriumState, n: int) -> float:
    """A-priori error bound for grid_fmin at resolution n."""
    return (state.H_sq + state.Hv_sq) * (math.pi / n) ** 2


def eigen_fmin(state: EquilibriumState) -> float:
    """Smaller eigenvalue of M = H' H'^T + Hv' Hv'^T.

    F(omega') = omega'^T M omega' on the unit circle, so its minimum is the
    smaller eigenvalue of M, taken here from LAPACK (`np.linalg.eigvalsh`):
    no closed form, so no cancellation in tr^2 - 4 det near constant F.
    """
    fields = np.array([state.H_hat_t, state.Hv_hat_t])
    return float(np.linalg.eigvalsh(fields.T @ fields)[0])


def lopatinski_raw(state: EquilibriumState, omega, s):
    """Unnormalized determinant for a general (non-unit) omega'.

    Homogeneous of degree three: L(t s, t omega') = t^3 L(s, omega') for t > 0.
    """
    w2, w3 = (omega.omega2, omega.omega3) if isinstance(omega, WaveDirection) else omega
    if w2 == 0.0 and w3 == 0.0:
        raise DirectionError("omega' must be nonzero")
    s = np.asarray(s, dtype=complex)
    H2, H3 = state.H_hat_t
    Hv2, Hv3 = state.Hv_hat_t
    v2, v3 = state.v_hat_t
    wmag = math.hypot(w2, w3)
    wp = H2 * w2 + H3 * w3
    wm = Hv2 * w2 + Hv3 * w3
    wperp = Hv3 * w2 - Hv2 * w3
    ell = s + 1j * (v2 * w2 + v3 * w3)
    es = state.eps * s
    out = ((ell * ell + wp ** 2) * np.sqrt(wmag ** 2 + es * es)
           + wm ** 2 * wmag - state.E1_hat ** 2 * wmag ** 3
           - 2j * state.E1_hat * wperp * es * wmag
           + wmag * state.Hv_sq * es * es)
    return complex(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class DenseScanResult:
    candidates: tuple[complex, ...]   # grid-local minima of |L| below tolerance
    min_abs: float                    # min |L| over the whole grid
    min_rel: float                    # same, relative to the local term scale
    argmin: complex


def dense_root_scan(ctx: LopatinskiContext, rect, resolution: float,
                    tolerance: float = 1e-2) -> DenseScanResult:
    """Sample |L| on a dense rectangular grid in {Re s > 0}.

    Local minima with |L|/scale < tolerance are root candidates; the global
    grid minimum certifies "no roots" claims when it stays large.
    """
    re0, re1, im0, im1 = rect
    if re0 <= 0.0:
        raise ValueError("dense scan rectangle must lie in Re s > 0")
    re = np.arange(re0, re1 + 0.5 * resolution, resolution)
    im = np.arange(im0, im1 + 0.5 * resolution, resolution)
    S = re[None, :] + 1j * im[:, None]
    absL = np.abs(lopatinski(ctx, S))
    rel = absL / np.maximum(lopatinski_scale(ctx, S), 1e-300)

    k = int(np.argmin(absL))
    result_min = float(absL.flat[k])
    argmin = complex(S.flat[k])

    candidates = []
    if rel.shape[0] >= 3 and rel.shape[1] >= 3:
        inner = rel[1:-1, 1:-1]
        neigh = np.stack([rel[1 + di:rel.shape[0] - 1 + di, 1 + dj:rel.shape[1] - 1 + dj]
                          for di in (-1, 0, 1) for dj in (-1, 0, 1)
                          if (di, dj) != (0, 0)])
        is_min = (inner <= neigh.min(axis=0)) & (inner < tolerance)
        for i, j in zip(*np.nonzero(is_min)):
            candidates.append(complex(S[i + 1, j + 1]))
    return DenseScanResult(tuple(candidates), result_min, float(rel.min()), argmin)


def local_winding(ctx: LopatinskiContext, center: complex, radius: float) -> int:
    """Winding of L along a small circle; confirms an isolated root.

    L is sampled at equispaced points of the circle and the wrapped phase
    steps between neighbours are summed.  There is no refinement: the
    sampling is dense enough for a circle that holds one simple root well
    inside it.
    """
    n = 1 << 14
    theta = 2.0 * np.pi * np.arange(n + 1) / n
    vals = lopatinski(ctx, center + radius * np.exp(1j * theta))
    dphi = np.mod(np.diff(np.angle(vals)) + np.pi, 2.0 * np.pi) - np.pi
    return round(float(np.sum(dphi)) / (2.0 * np.pi))


# ---------------------------------------------------------------------------
# small-eps root expansions


class BranchKind(str, Enum):
    GENERIC_UNSTABLE = "GenericUnstable"
    GENERIC_DECAYING = "GenericDecaying"
    GENERIC_NEUTRAL_PLUS = "GenericNeutral+"
    GENERIC_NEUTRAL_MINUS = "GenericNeutral-"
    TRANSITIONAL_SQRT_EPS_PLUS = "TransitionalSqrtEps+"
    TRANSITIONAL_SQRT_EPS_MINUS = "TransitionalSqrtEps-"
    TRANSITIONAL_ZERO_SPEED = "TransitionalZeroSpeed"


@dataclass(frozen=True)
class SeriesRoot:
    """Truncated expansion s(eps) = sum_j c_j eps^(k_j) of one root branch."""

    branch: BranchKind
    coefficients: tuple[complex, ...]
    exponents: tuple[float, ...]

    def eval(self, eps: float, order: int | None = None) -> complex:
        """Partial sum at eps, optionally truncated to ``order + 1`` terms."""
        terms = zip(self.coefficients, self.exponents)
        if order is not None:
            terms = list(terms)[:order + 1]
        return sum(c * eps ** k for c, k in terms)


def transitional_tolerance(ctx: LopatinskiContext) -> float:
    """Band |D| below which a direction counts as transitional."""
    b = ctx.bundle
    return 1e-9 * (1.0 + ctx.state.E1_hat ** 2 + b.w_plus ** 2 + b.w_minus ** 2)


def _series_mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    return np.convolve(a, b)[:n + 1]


def _series_shift(a: np.ndarray, k: int, n: int) -> np.ndarray:
    out = np.zeros(n + 1, dtype=complex)
    m = min(len(a), n + 1 - k)
    if m > 0:
        out[k:k + m] = a[:m]
    return out


def _sqrt1p_series(u: np.ndarray, n: int) -> np.ndarray:
    # sqrt(1 + u) for a series u in eps with zero constant term
    out = np.zeros(n + 1, dtype=complex)
    out[0] = 1.0
    uk = np.zeros(n + 1, dtype=complex)
    uk[0] = 1.0
    coef = 1.0
    for k in range(1, n + 1):
        coef *= (0.5 - (k - 1)) / k
        uk = _series_mul(uk, u, n)
        if not uk.any():
            break
        out += coef * uk
    return out


def _lopatinski_series(ctx: LopatinskiContext, s_ser: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of eps^0 .. eps^n of L(s(eps), eps) for s a series in eps."""
    b, e1 = ctx.bundle, ctx.state.E1_hat
    s = _series_shift(s_ser, 0, n)
    ell = s.copy()
    ell[0] += 1j * b.v_dot
    ell2 = _series_mul(ell, ell, n)
    s2 = _series_mul(s, s, n)
    u = _series_shift(s2, 2, n)                     # eps^2 s^2
    g = _sqrt1p_series(u, n)
    head = ell2.copy()
    head[0] += b.w_plus ** 2
    out = _series_mul(head, g, n)
    out[0] += b.w_minus ** 2 - e1 ** 2
    out += -2j * e1 * b.w_perp * _series_shift(s, 1, n)
    out += ctx.state.Hv_sq * u
    return out


def _generic_coefficients(ctx: LopatinskiContext, s0: complex, order: int) -> list[complex]:
    # Order j coefficient of L depends on c_j only through 2*(s0 + iV)*c_j,
    # so each order is a single linear solve.
    denom = 2.0 * (s0 + 1j * ctx.bundle.v_dot)
    coeffs = [s0]
    for j in range(1, order + 1):
        trial = np.array(coeffs + [0.0], dtype=complex)
        residual = _lopatinski_series(ctx, trial, j)[j]
        coeffs.append(-residual / denom)
    return coeffs


def series_root_generic(ctx: LopatinskiContext, order: int = 2) -> list[SeriesRoot]:
    """Integer-ladder expansions s = s0 + s1 eps + ... at a generic direction.

    With D = E1^2 - w_plus^2 - w_minus^2:
      D > 0: s0 = +-sqrt(D) - i(v'.omega'); the + branch is the growing root.
      D < 0: s0 = i(+-eta - (v'.omega')), eta = sqrt(-D); every coefficient
             is purely imaginary (neutral oscillations).
    """
    D = ctx.leading_deficit
    if abs(D) <= transitional_tolerance(ctx):
        raise TransitionalAtThisDirectionError(
            f"|D| = {abs(D):.3e} within the transitional band; "
            "use series_root_transitional")
    v = ctx.bundle.v_dot
    out = []
    if D > 0.0:
        branches = ((1.0, BranchKind.GENERIC_UNSTABLE),
                    (-1.0, BranchKind.GENERIC_DECAYING))
        s0_of = lambda sign: sign * math.sqrt(D) - 1j * v
    else:
        eta = math.sqrt(-D)
        branches = ((1.0, BranchKind.GENERIC_NEUTRAL_PLUS),
                    (-1.0, BranchKind.GENERIC_NEUTRAL_MINUS))
        s0_of = lambda sign: 1j * (sign * eta - v)
    for sign, kind in branches:
        coeffs = _generic_coefficients(ctx, s0_of(sign), order)
        out.append(SeriesRoot(kind, tuple(coeffs),
                              tuple(float(j) for j in range(order + 1))))
    return out


def series_root_transitional(ctx: LopatinskiContext, order: int = 2) -> list[SeriesRoot]:
    """Root expansions exactly on the critical set (D = 0 at this direction).

    If (v'.omega') != 0 the double root at -i(v'.omega') splits on a
    half-integer ladder with s1^2 = 2 E1 w_perp (v'.omega'): a real pair
    (one growing like sqrt(eps)) when the product is positive, an imaginary
    pair (neutral) otherwise.  If (v'.omega') = 0 one root is exactly 0 and
    the other is purely imaginary of size O(eps).
    """
    D = ctx.leading_deficit
    if abs(D) > transitional_tolerance(ctx):
        raise NotTransitionalError(
            f"|D| = {abs(D):.3e} exceeds the transitional band at this direction")
    b, e1 = ctx.bundle, ctx.state.E1_hat
    v = b.v_dot
    if v != 0.0:
        s1 = cmath.sqrt(2.0 * e1 * b.w_perp * v)
        return [
            SeriesRoot(BranchKind.TRANSITIONAL_SQRT_EPS_PLUS,
                       (-1j * v, s1), (0.0, 0.5)),
            SeriesRoot(BranchKind.TRANSITIONAL_SQRT_EPS_MINUS,
                       (-1j * v, -s1), (0.0, 0.5)),
        ]
    alpha = 2j * e1 * b.w_perp
    # next term of the odd ladder s = alpha*eps + beta*eps^3 + ...
    beta = -alpha * (ctx.state.Hv_sq + 0.5 * b.w_plus ** 2)
    return [
        SeriesRoot(BranchKind.TRANSITIONAL_ZERO_SPEED, (0j,), (0.0,)),
        SeriesRoot(BranchKind.TRANSITIONAL_ZERO_SPEED, (alpha, beta), (1.0, 3.0)),
    ]


@dataclass(frozen=True)
class ConvergenceRecord:
    """Series-vs-located-root comparison over a ladder of eps values."""

    branch: str
    eps_used: tuple[float, ...]
    roots: tuple[complex, ...]
    errors_by_order: dict              # order -> tuple of |s_num - partial sum|
    slope_err0: float | None           # log-log slope of the order-0 error
    re_slope: float | None             # log-log slope of Re s_num vs eps
    re_prefactor: float | None         # exp(intercept) of the Re-growth fit
    flags: tuple[str, ...] = ()


def _fit_loglog(x, y):
    x, y = np.asarray(x, float), np.asarray(y, float)
    keep = (x > 0) & (y > 0)
    if keep.sum() < 2:
        return None, None
    slope, intercept = np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)
    return float(slope), float(math.exp(intercept))


def series_vs_numeric(state: EquilibriumState, direction: WaveDirection,
                      eps_list, order: int = 2) -> ConvergenceRecord:
    """Locate the growing root for each eps and compare with the expansion.

    Expected log-log slopes: generic branch, |s_num - s0| ~ eps (slope 1,
    one full power per retained term); transitional branch, Re s ~ sqrt(eps)
    (slope 0.5) with prefactor Re s1.  Root-finder failures are recorded per
    eps and excluded from the fits.
    """
    base_ctx = make_context(state, direction)
    transitional = abs(base_ctx.leading_deficit) <= transitional_tolerance(base_ctx)
    flags: list[str] = []
    if len(eps_list) < 2:
        flags.append("insufficient points")

    eps_used, roots = [], []
    tracked_series = None
    branch = ""
    for eps in eps_list:
        st = dataclasses.replace(state, eps=float(eps))
        ctx = make_context(st, direction)
        if transitional:
            series = series_root_transitional(ctx, order=order)
            tracked = series[0]        # "+" branch (or the O(eps) root)
            expected_re = tracked.eval(eps).real
        else:
            series = series_root_generic(ctx, order=order)
            tracked = series[0]        # growing branch when D > 0
            expected_re = tracked.coefficients[0].real
        branch = tracked.branch.value
        tracked_series = tracked

        delta = default_delta(st)
        if expected_re > 0.0:
            delta = min(delta, 0.2 * expected_re)
        try:
            report = find_unstable_roots(ctx, delta)
        except PvstabError as err:          # a count the inclusion disks cannot decide
            flags.append(f"eps={eps:g}: {err}")
            continue
        if not report.roots:
            flags.append(f"eps={eps:g}: no right-half-plane root located")
            continue
        eps_used.append(float(eps))
        roots.append(max(report.roots, key=lambda z: z.real))

    errors_by_order = {}
    if tracked_series is not None:
        for k in range(len(tracked_series.coefficients)):
            errors_by_order[k] = tuple(
                abs(z - tracked_series.eval(e, order=k))
                for e, z in zip(eps_used, roots))
    slope0, _ = _fit_loglog(eps_used, errors_by_order.get(0, ()))
    re_slope, re_pref = _fit_loglog(eps_used, [z.real for z in roots])
    return ConvergenceRecord(
        branch=branch,
        eps_used=tuple(eps_used),
        roots=tuple(roots),
        errors_by_order=errors_by_order,
        slope_err0=slope0,
        re_slope=re_slope,
        re_prefactor=re_pref,
        flags=tuple(flags),
    )
