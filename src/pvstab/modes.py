"""Explicit exponential mode sequences and their residuals.

For a right-half-plane root s of the Lopatinski determinant, the n-th mode

    (U_n, q_n) = (Ubar, qbar) exp(n(s t + lambda_plus x1 + i omega'.x'))   x1 > 0
    V_n        =  Vbar        exp(n(s t + lambda_minus x1 + i omega'.x'))  x1 < 0
    phi_n      =  phibar      exp(n(s t + i omega'.x'))

decays into both half-spaces (lambda_plus = -1, Re lambda_minus >= 0) and
grows in time like exp(n Re(s) t): bounded initial data, unbounded solutions
as n grows, for any positive time.  Every amplitude follows from
phibar = n**(-decay_p) through the interior and boundary relations; all
equations then hold identically except the pressure condition, whose
residual is proportional to |L(s)| and vanishes exactly at a root.  The
residuals re-evaluate every linearized equation independently.

One kernel builds and checks all modes of a command (`mode_records`): the
symbol once per state (`_admit`), the modes as rows of (K, 7) plasma and
(K, 6) vacuum amplitudes (`_build`), each residual group as a (K,) column
(`_residual_columns`).  `build_mode` and `residuals` are its one-row case.
It yields plain floats, not records: the ``modes`` command spells its
records from these rows (`cli._mode_lines`), each float once and byte-equal
to ``json.dumps`` of `ModeSolution.to_record`, the residuals and the growth.
It keeps the bits of scalar formulas by these rules (numpy 2.4.6, AVX-512):

* numpy's array complex ``*``, ``/`` and ``abs`` give the same bits at every
  shape (size 3, (K, 3), a broadcast scalar), but differ from Python's
  complex for about 27%, 42% and 38% of random arguments;
* Python's complex and numpy's complex scalars multiply unfused and take
  ``abs`` as ``hypot(re, im)``.  Where the formulas use them (the products
  with n, the cross products, the boundary residuals) the kernel forms real
  and imaginary parts apart (`_mul`, `_quot`);
* a size-3 ``@`` equals a stacked (K, 1, 3) @ (K, 3, 1) matmul, while
  ``einsum`` and ``.sum(-1)`` differ for about 70% of random arguments;
* Python's ``max(a, b, ...)`` keeps the earlier argument when a NaN is
  involved: columns reduce as ``np.where(b > a, b, a)`` in argument order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import numpy as np
from .dispersion import lopatinski, lopatinski_scale, make_context, vacuum_decay_root
from .errors import DegenerateSymbolError
from .state import DECAY_P, EquilibriumState, WaveDirection

_NOT_A_ROOT = 1e-8  # relative |L(s)| above which the input is flagged
_NEXT, _LAST = [1, 2, 0], [2, 0, 1]     # (k x v)_i = k_next v_last - k_last v_next
RESIDUAL_KEYS = ("interior_plasma", "interior_vacuum", "kinematic", "pressure",
                 "efield2", "efield3", "constraints")


@dataclass(frozen=True)
class ModeSolution:
    """One exponential mode: frequencies and complex amplitude vectors.

    plasma_amp = (v1, v2, v3, H1, H2, H3, q); vacuum_amp = (Hv1..3, E1..3).
    """

    n: int
    s: complex
    omega: WaveDirection
    lambda_plus: float
    lambda_minus: complex
    phi_bar: complex
    plasma_amp: np.ndarray
    vacuum_amp: np.ndarray
    warnings: tuple[str, ...] = ()

    @property
    def amplitude_scale(self) -> float:
        plasma, vacuum = np.asarray(self.plasma_amp), np.asarray(self.vacuum_amp)
        return _amplitude(plasma[None], vacuum[None], np.array([self.phi_bar], complex)).item()

    def to_record(self) -> dict:
        s, lam, phi = complex(self.s), complex(self.lambda_minus), complex(self.phi_bar)
        return {"n": self.n, "s": (s.real, s.imag), "lambda_plus": self.lambda_plus,
                "lambda_minus": (lam.real, lam.imag),
                "omega": (self.omega.omega2, self.omega.omega3),
                "phi_bar": (phi.real, phi.imag),
                "plasma_amp": [(z.real, z.imag) for z in self.plasma_amp.tolist()],
                "vacuum_amp": [(z.real, z.imag) for z in self.vacuum_amp.tolist()],
                "warnings": list(self.warnings)}


@dataclass(frozen=True)
class ResidualReport:
    """Max absolute residual per equation group, relative to ``scale``."""

    interior_plasma: float        # divergence + momentum + induction
    interior_vacuum: float        # both Maxwell blocks
    boundary_detail: dict         # kinematic, pressure, efield2, efield3
    constraints: float            # interior divergences + boundary constraints
    scale: float                  # max(1, largest amplitude magnitude)

    @property
    def boundary(self) -> float:
        return max(self.boundary_detail.values())

    @property
    def boundary_pressure(self) -> float:
        return self.boundary_detail["pressure"]

    @property
    def worst(self) -> float:
        return max(self.interior_plasma, self.interior_vacuum,
                   self.boundary, self.constraints)


def _mul(ar, ai, br, bi):
    # (ar + i ai)(br + i bi) with each product rounded on its own
    return ar * br - ai * bi, ar * bi + ai * br


def _quot(ar, ai, br, bi):
    # (ar + i ai)/(br + i bi) by Smith's rule, as Python's complex divides
    wide = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(wide, bi / br, br / bi)
        den = np.where(wide, br + bi * ratio, br * ratio + bi)
        return (np.where(wide, ar + ai * ratio, ar * ratio + ai) / den,
                np.where(wide, ai - ar * ratio, ai * ratio - ar) / den)


def _complex(re, im) -> np.ndarray:
    return np.stack([re, im], -1).view(complex)[..., 0]


def _scaled(x, n, phi):
    # n * x * phi for a real column n, as Python multiplies complex numbers
    return _mul(*_mul(n, 0.0, x.real, x.imag), phi.real, phi.imag)


def _k_cross(k, v) -> np.ndarray:
    # k x v row by row, each product rounded as numpy's complex scalars round it
    a = _mul(k.real[:, _NEXT], k.imag[:, _NEXT], v.real[:, _LAST], v.imag[:, _LAST])
    b = _mul(k.real[:, _LAST], k.imag[:, _LAST], v.real[:, _NEXT], v.imag[:, _NEXT])
    return _complex(a[0] - b[0], a[1] - b[1])


def _pymax(first, *rest):
    for x in rest:
        first = np.where(x > first, x, first)
    return first


def _amplitude(plasma, vacuum, phi):
    return _pymax(np.abs(plasma).max(1, initial=0.0), np.abs(vacuum).max(1, initial=0.0),
                  np.hypot(phi.real, phi.imag))


def _symbol(state: EquilibriumState, s, direction: WaveDirection):
    # the context, and the residuals' scalars at s as Python complex: ell, eps s,
    # i w_plus, i w_minus, i omega2, i omega3, the tangential E factors, Hv2, Hv3, E1
    ctx = make_context(state, direction)
    b, d, s = ctx.bundle, ctx.direction, complex(s)
    Hv2, Hv3 = state.Hv_hat_t
    e1, es, i2, i3 = state.E1_hat, state.eps * s, 1j * d.omega2, 1j * d.omega3
    return ctx, [s + 1j * b.v_dot, es, 1j * b.w_plus, 1j * b.w_minus, i2, i3,
                 es * Hv3 - i2 * e1, es * Hv2 + i3 * e1, Hv2, Hv3, e1]


def _admit(state: EquilibriumState, s: complex, direction: WaveDirection):
    """`_symbol` extended by lambda_minus, ell + w_plus^2/ell and the normal E
    factor, and the warnings.  Raises DegenerateSymbolError when a formula
    would divide by a vanishing factor; a non-root s only earns a warning."""
    s = complex(s)
    ctx, sym = _symbol(state, s, direction)
    b, eps, ell = ctx.bundle, state.eps, sym[0]
    symbol_scale = 1.0 + abs(s) + abs(b.v_dot)
    if abs(ell) < 1e-12 * symbol_scale:
        raise DegenerateSymbolError(f"ell(s) = {ell:.3e} vanishes")
    if abs(ell * ell + b.w_plus ** 2) < 1e-12 * (symbol_scale ** 2 + b.w_plus ** 2):
        raise DegenerateSymbolError("ell^2 + w_plus^2 vanishes")
    if abs(sym[1]) < 1e-300:
        raise DegenerateSymbolError("eps*s = 0: vacuum magnetic amplitudes undefined")
    lval, lscale = lopatinski(ctx, s), lopatinski_scale(ctx, s)
    warnings = ((f"NotARoot: |L(s)| = {abs(lval):.3e} relative {abs(lval) / lscale:.3e}",)
                if abs(lval) > _NOT_A_ROOT * lscale else ())
    sym += [complex(vacuum_decay_root(s, eps)), ell + b.w_plus ** 2 / ell,
            1j * eps * s * b.w_perp + state.E1_hat]
    return ctx, sym, warnings


def _columns(symbols, reps: int) -> np.ndarray:
    # one contiguous (K,) complex column per scalar, each state's repeated
    return np.ascontiguousarray(np.repeat(np.array(symbols, complex), reps, axis=0).T)


def _build(cols, n, phi):
    """Amplitudes of `_admit`'s rows at phi = n**(-decay_p): v1 and q from the
    kinematic condition and the pressure relation, v and H from momentum and
    induction, E from the boundary conditions and div E = 0, Hv from Faraday."""
    ell, es, cp, _, i2, i3, f2, f3, _, _, _, lam, denom, f1 = cols
    phi = phi + 0j
    q = _complex(*_mul(denom.real, denom.imag, *_scaled(ell, n, phi)))
    v = -np.stack([np.full_like(ell, -1.0), i2, i3], 1) * q[:, None] / denom[:, None]
    H = cp[:, None] * v / ell[:, None]
    E = np.stack([_complex(*_quot(*_scaled(f1, -n, phi), lam.real, lam.imag)),
                  _complex(*_scaled(f2, n, phi)), _complex(*_scaled(f3, -n, phi))], 1)
    Hv = -_k_cross(np.stack([lam, i2, i3], 1), E) / es[:, None]
    return np.concatenate([v, H, q[:, None]], 1), np.concatenate([Hv, E], 1)


def _residual_columns(cols, n, lam_plus, lam_minus, phi, plasma, vacuum):
    """Residual groups (RESIDUAL_KEYS) over the scale max(1, amplitude), the
    scale and the amplitude, as (K,) columns; d/dt -> n s, d/dx1 -> n lambda,
    d/dx2,3 -> i n omega2,3."""
    ell, es, cp, cm, i2, i3, f2, f3, hv2, hv3, e1 = cols[:11]
    v, H, q, Hv, E = plasma[:, :3], plasma[:, 3:6], plasma[:, 6:], vacuum[:, :3], vacuum[:, 3:]
    kplus, kminus = np.stack([lam_plus + 0j, i2, i3], 1), np.stack([lam_minus, i2, i3], 1)
    nc, ellc, cpc, esc = (n + 0j)[:, None], ell[:, None], cp[:, None], es[:, None]

    def dot(k, x):                  # |n (k . x)|
        z = np.matmul(k[:, None], x[:, :, None])[:, 0, 0]
        return np.hypot(*_mul(n, 0.0, z.real, z.imag))

    def off(a, b, sign=-1.0):       # |a + sign b|, b as parts
        return np.hypot(a.real + sign * b[0], a.imag + sign * b[1])

    p = [_mul(h.real, h.imag, x.real, x.imag)
         for h, x in ((hv2, Hv[:, 1]), (hv3, Hv[:, 2]), (e1, E[:, 0]))]
    amplitude = _amplitude(plasma, vacuum, phi)
    scale = np.where(amplitude > 1.0, amplitude, 1.0)
    groups = (
        _pymax(dot(kplus, v), np.abs(nc * (ellc * v - cpc * H + kplus * q)).max(1),
               np.abs(nc * (ellc * H - cpc * v)).max(1)),
        _pymax(np.abs(nc * (esc * Hv + _k_cross(kminus, E))).max(1),
               np.abs(nc * (esc * E - _k_cross(kminus, Hv))).max(1)),
        off(v[:, 0], _scaled(ell, n, phi)),
        off(q[:, 0], (p[0][0] + p[1][0] - p[2][0], p[0][1] + p[1][1] - p[2][1])),
        off(E[:, 1], _scaled(f2, n, phi)),
        off(E[:, 2], _scaled(f3, n, phi), 1.0),
        _pymax(dot(kplus, H), dot(kminus, Hv), dot(kminus, E),
               off(H[:, 0], _scaled(cp, n, phi)), off(Hv[:, 0], _scaled(cm, n, phi))))
    return [g / scale for g in groups], scale, amplitude


def phi_bars(ns, decay_p: float = DECAY_P) -> list[float]:
    """The initial sizes phibar = n**(-decay_p) of the modes n in ``ns``."""
    return [float(n) ** (-decay_p) for n in ns]


def build_mode(state: EquilibriumState, s: complex, direction: WaveDirection,
               n: int, decay_p: float = DECAY_P) -> ModeSolution:
    """The n-th mode for a (near-)root s with Re s > 0 (see `_build`);
    raises DegenerateSymbolError as `_admit` does."""
    ctx, sym, warnings = _admit(state, s, direction)
    phi, = phi_bars((n,), decay_p)
    plasma, vacuum = _build(_columns([sym], 1), np.array([float(n)]), np.array([phi]))
    return ModeSolution(n=n, s=complex(s), omega=ctx.direction, lambda_plus=-1.0,
                        lambda_minus=sym[11], phi_bar=complex(phi),
                        plasma_amp=plasma[0], vacuum_amp=vacuum[0], warnings=warnings)


def residuals(mode: ModeSolution, state: EquilibriumState) -> ResidualReport:
    """Every linearized equation on the mode as given (n, s, lambdas, phibar,
    amplitudes): the largest residual per group, relative to the scale."""
    groups, scale, _ = _residual_columns(
        _columns([_symbol(state, mode.s, mode.omega)[1]], 1), np.array([float(mode.n)]),
        np.array([float(mode.lambda_plus)]), np.array([mode.lambda_minus], complex),
        np.array([mode.phi_bar], complex), np.asarray(mode.plasma_amp, complex)[None],
        np.asarray(mode.vacuum_amp, complex)[None])
    plasma, vacuum, *boundary, constraints = (g.item() for g in groups)
    return ResidualReport(plasma, vacuum, dict(zip(RESIDUAL_KEYS[2:6], boundary)),
                          constraints, scale.item())


def mode_records(jobs, ns, t_list, decay_p: float = DECAY_P):
    """Build and check the modes n in ``ns`` of every job (state, s, direction)
    as one table.  Yields, per job, the DegenerateSymbolError that rejected it
    or its numbers: ``(s, lambda_minus, direction, warnings)`` and a row per n
    of plain floats, the values of `ModeSolution.to_record`, `residuals` and
    `growth_rows`: the 26 real and imaginary parts of plasma_amp then
    vacuum_amp, the residual groups (RESIDUAL_KEYS) and the scale, the
    amplitude (the initial norm), and ratio, log_ratio per time of t_list."""
    admitted = []
    for state, s, direction in jobs:
        try:
            admitted.append((complex(s), *_admit(state, s, direction)))
        except DegenerateSymbolError as err:
            admitted.append(err)
    ok = [a for a in admitted if isinstance(a, tuple)]
    if not ok:
        yield from admitted
        return
    cols = _columns([sym for _, _, sym, _ in ok], len(ns))
    phis = phi_bars(ns, decay_p)
    n, phi = np.tile(np.array(ns, float), len(ok)), np.tile(phis, len(ok))
    plasma, vacuum = _build(cols, n, phi)
    groups, scale, amplitude = _residual_columns(cols, n, -np.ones(len(n)), cols[11],
                                                 phi + 0j, plasma, vacuum)
    rows = zip(np.concatenate([plasma, vacuum], 1).view(float).tolist(),
               np.stack([*groups, scale], 1).tolist(), amplitude.tolist())
    for a in admitted:
        if isinstance(a, DegenerateSymbolError):
            yield a
            continue
        s, ctx, sym, warnings = a
        yield (s, sym[11], ctx.direction, warnings), [
            (amps, res, amp, _growth(m, s.real, t_list))
            for m, (amps, res, amp) in zip(ns, rows)]


@dataclass(frozen=True)
class GrowthRow:
    n: int
    t: float
    initial_norm: float     # sup norm of the amplitudes at t = 0
    ratio: float            # ||mode(t)|| / ||mode(0)|| = exp(n Re(s) t)
    log_ratio: float


def _growth(n, rate, t_list) -> list[float]:
    # ratio, log_ratio at each time: exp(n Re(s) t), inf past 700, and n Re(s) t
    out = []
    for t in t_list:
        log_ratio = n * rate * t
        out += (math.exp(log_ratio) if log_ratio < 700.0 else math.inf, log_ratio)
    return out


def growth_rows(mode: ModeSolution, t_list) -> list[GrowthRow]:
    """Growth exp(n Re(s) t) of one mode at the times t_list."""
    norm, growth = mode.amplitude_scale, _growth(mode.n, mode.s.real, t_list)
    return [GrowthRow(mode.n, t, norm, ratio, log_ratio)
            for t, ratio, log_ratio in zip(t_list, growth[::2], growth[1::2])]


def growth_table(state: EquilibriumState, s: complex, direction: WaveDirection,
                 n_list, t_list, decay_p: float = DECAY_P) -> list[GrowthRow]:
    """The Hadamard growth exp(n Re(s) t) against the initial size: with decay_p
    large, the initial norms decay in n while the ratio diverges in n."""
    return [row for n in n_list
            for row in growth_rows(build_mode(state, s, direction, n, decay_p=decay_p),
                                   t_list)]
