"""Independent brute-force verifiers.

Nothing here shares code paths with the implementations it checks: the
minimum of F comes from a dense angular grid and from the eigenvalues of the
2x2 quadratic-form matrix, right-half-plane roots from dense |L| sampling,
and the series expansions are validated against located roots over a ladder
of eps values.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import (HalfDiskRegion, LopatinskiContext, default_region,
                         find_unstable_roots, lopatinski, lopatinski_scale,
                         make_context, series_root_generic,
                         series_root_transitional, transitional_tolerance)
from .errors import ContourTooCloseError, NonConvergentError
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

        reg = default_region(st)
        if expected_re > 0.0:
            reg = HalfDiskRegion(min(reg.delta, 0.2 * expected_re), reg.radius)
        try:
            report = find_unstable_roots(ctx, reg)
        except (ContourTooCloseError, NonConvergentError) as err:
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
