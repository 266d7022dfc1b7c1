"""Explicit exponential mode sequences and their residuals.

For a right-half-plane root s of the Lopatinski determinant, the n-th mode

    (U_n, q_n) = (Ubar, qbar) exp(n(s t + lambda_plus x1 + i omega'.x'))   x1 > 0
    V_n        =  Vbar        exp(n(s t + lambda_minus x1 + i omega'.x'))  x1 < 0
    phi_n      =  phibar      exp(n(s t + i omega'.x'))

decays into both half-spaces (lambda_plus = -1, Re lambda_minus >= 0) and
grows in time like exp(n Re(s) t): bounded initial data, unbounded solutions
as n grows, for any positive time.  `build_mode` derives every amplitude from
phibar = n**(-decay_p) through the interior and boundary relations; all
equations are then satisfied identically except the pressure condition,
whose residual is proportional to |L(s)| and vanishes exactly at a root.
`residuals` re-evaluates every linearized equation independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import lopatinski, lopatinski_scale, make_context, vacuum_decay_root
from .errors import DegenerateSymbolError
from .state import EquilibriumState, WaveDirection

_NOT_A_ROOT = 1e-8  # relative |L(s)| above which the input is flagged


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
        return float(max(
            np.abs(self.plasma_amp).max(initial=0.0),
            np.abs(self.vacuum_amp).max(initial=0.0),
            abs(self.phi_bar),
        ))

    def to_record(self) -> dict:
        pair = lambda z: (float(np.real(z)), float(np.imag(z)))
        return {
            "n": self.n,
            "s": pair(self.s),
            "lambda_plus": self.lambda_plus,
            "lambda_minus": pair(self.lambda_minus),
            "omega": (self.omega.omega2, self.omega.omega3),
            "phi_bar": pair(self.phi_bar),
            "plasma_amp": [(z.real, z.imag) for z in self.plasma_amp.tolist()],
            "vacuum_amp": [(z.real, z.imag) for z in self.vacuum_amp.tolist()],
            "warnings": list(self.warnings),
        }


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


def _cross(a, b) -> np.ndarray:
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def build_mode(state: EquilibriumState, s: complex, direction: WaveDirection,
               n: int, decay_p: float = 3.0) -> ModeSolution:
    """Construct the n-th mode for a (near-)root s with Re s > 0.

    phibar = n**(-decay_p) normalizes the sequence; v1 and q follow from the
    kinematic condition and the elliptic pressure relation, the tangential
    plasma amplitudes from the momentum equations, the magnetic plasma
    amplitudes from the induction equations; the tangential vacuum electric
    amplitudes come from the boundary conditions, the normal one from the
    divergence constraint, and the vacuum magnetic amplitudes from the first
    Maxwell block.  Raises DegenerateSymbolError when a construction formula
    would divide by a vanishing factor; a non-root s only earns a warning
    (the pressure residual will expose it).
    """
    ctx = make_context(state, direction)
    d, b = ctx.direction, ctx.bundle
    eps, e1 = state.eps, state.E1_hat
    Hv2, Hv3 = state.Hv_hat_t
    s = complex(s)

    ell = s + 1j * b.v_dot
    symbol_scale = 1.0 + abs(s) + abs(b.v_dot)
    if abs(ell) < 1e-12 * symbol_scale:
        raise DegenerateSymbolError(f"ell(s) = {ell:.3e} vanishes")
    if abs(ell * ell + b.w_plus ** 2) < 1e-12 * (symbol_scale ** 2 + b.w_plus ** 2):
        raise DegenerateSymbolError("ell^2 + w_plus^2 vanishes")
    if abs(eps * s) < 1e-300:
        raise DegenerateSymbolError("eps*s = 0: vacuum magnetic amplitudes undefined")

    warnings = []
    lval = lopatinski(ctx, s)
    if abs(lval) > _NOT_A_ROOT * lopatinski_scale(ctx, s):
        warnings.append(f"NotARoot: |L(s)| = {abs(lval):.3e} relative "
                        f"{abs(lval) / lopatinski_scale(ctx, s):.3e}")

    lam_plus = -1.0
    lam_minus = complex(vacuum_decay_root(s, eps))
    phi = float(n) ** (-decay_p)

    v1 = n * ell * phi
    denom = ell + b.w_plus ** 2 / ell
    q = denom * v1                                  # |omega'| = 1
    kvec = np.array([lam_plus, 1j * d.omega2, 1j * d.omega3])
    v = -kvec * q / denom
    H = 1j * b.w_plus * v / ell

    E2 = n * (eps * s * Hv3 - 1j * d.omega2 * e1) * phi
    E3 = -n * (eps * s * Hv2 + 1j * d.omega3 * e1) * phi
    E1a = -n * (1j * eps * s * b.w_perp + e1) * phi / lam_minus
    Evec = np.array([E1a, E2, E3])
    kminus = np.array([lam_minus, 1j * d.omega2, 1j * d.omega3])
    Hvec = -_cross(kminus, Evec) / (eps * s)

    return ModeSolution(
        n=n, s=s, omega=d,
        lambda_plus=lam_plus, lambda_minus=lam_minus,
        phi_bar=complex(phi),
        plasma_amp=np.concatenate([v, H, [q]]),
        vacuum_amp=np.concatenate([Hvec, Evec]),
        warnings=tuple(warnings),
    )


def residuals(mode: ModeSolution, state: EquilibriumState) -> ResidualReport:
    """Evaluate every linearized equation on the mode amplitudes.

    Under the exponential ansatz each derivative becomes a multiplier:
    d/dt -> n s, d/dx1 -> n lambda(+-), d/dx2,3 -> i n omega2,3.  Residual
    maxima are reported per group, relative to the amplitude scale.
    """
    ctx = make_context(state, mode.omega)
    b = ctx.bundle
    d = ctx.direction
    n, s, eps, e1 = mode.n, mode.s, state.eps, state.E1_hat
    Hv2e, Hv3e = state.Hv_hat_t

    v = mode.plasma_amp[:3]
    H = mode.plasma_amp[3:6]
    q = mode.plasma_amp[6]
    Hv = mode.vacuum_amp[:3]
    E = mode.vacuum_amp[3:]
    phi = mode.phi_bar
    ell = s + 1j * b.v_dot
    kplus = np.array([mode.lambda_plus, 1j * d.omega2, 1j * d.omega3])
    kminus = np.array([mode.lambda_minus, 1j * d.omega2, 1j * d.omega3])

    # interior plasma: divergence, momentum, induction
    div_v = n * (kplus @ v)
    momentum = n * (ell * v - 1j * b.w_plus * H + kplus * q)
    induction = n * (ell * H - 1j * b.w_plus * v)
    interior_plasma = max(abs(div_v), np.abs(momentum).max(),
                          np.abs(induction).max())

    # interior vacuum: both Maxwell blocks
    faraday = n * (eps * s * Hv + _cross(kminus, E))
    ampere = n * (eps * s * E - _cross(kminus, Hv))
    interior_vacuum = max(np.abs(faraday).max(), np.abs(ampere).max())

    # boundary conditions
    boundary_detail = {
        "kinematic": abs(n * ell * phi - v[0]),
        "pressure": abs(q - (Hv2e * Hv[1] + Hv3e * Hv[2] - e1 * E[0])),
        "efield2": abs(E[1] - n * (eps * s * Hv3e - 1j * d.omega2 * e1) * phi),
        "efield3": abs(E[2] + n * (eps * s * Hv2e + 1j * d.omega3 * e1) * phi),
    }

    # divergence constraints and boundary constraints
    constraints = max(
        abs(n * (kplus @ H)),
        abs(n * (kminus @ Hv)),
        abs(n * (kminus @ E)),
        abs(H[0] - 1j * b.w_plus * n * phi),
        abs(Hv[0] - 1j * b.w_minus * n * phi),
    )

    scale = max(1.0, mode.amplitude_scale)
    return ResidualReport(
        interior_plasma=float(interior_plasma) / scale,
        interior_vacuum=float(interior_vacuum) / scale,
        boundary_detail={k: float(r) / scale for k, r in boundary_detail.items()},
        constraints=float(constraints) / scale,
        scale=scale,
    )


@dataclass(frozen=True)
class GrowthRow:
    n: int
    t: float
    initial_norm: float     # sup norm of the amplitudes at t = 0
    ratio: float            # ||mode(t)|| / ||mode(0)|| = exp(n Re(s) t)
    log_ratio: float


def growth_rows(mode: ModeSolution, t_list) -> list[GrowthRow]:
    """Growth exp(n Re(s) t) of one mode at the times t_list."""
    norm0 = mode.amplitude_scale
    rows = []
    for t in t_list:
        log_ratio = mode.n * mode.s.real * t
        ratio = math.exp(log_ratio) if log_ratio < 700.0 else math.inf
        rows.append(GrowthRow(n=mode.n, t=t, initial_norm=norm0,
                              ratio=ratio, log_ratio=log_ratio))
    return rows


def growth_table(state: EquilibriumState, s: complex, direction: WaveDirection,
                 n_list, t_list, decay_p: float = 3.0) -> list[GrowthRow]:
    """Tabulate the Hadamard growth exp(n Re(s) t) against the initial size.

    With decay_p large enough the initial norms stay bounded (they decay in
    n) while the ratio diverges in n for every fixed t > 0.
    """
    return [row for n in n_list
            for row in growth_rows(build_mode(state, s, direction, n, decay_p=decay_p),
                                   t_list)]
