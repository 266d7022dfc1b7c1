"""Closed-form stability classification of a planar interface.

An equilibrium is violently unstable (the linearized problem is ill-posed in
the Hadamard sense) exactly when

    E1^2 > ( |H|^2 + |Hv|^2 - sqrt((|H|^2 + |Hv|^2)^2 - 4|H x Hv|^2) ) / 2,

or when equality holds and an additional sign condition G > 0 is met.  The
right-hand side equals the minimum over unit wave directions omega' of

    F(omega') = (H'.omega')^2 + (Hv'.omega')^2,

a quadratic form on the unit circle whose smaller eigenvalue has the closed
form above.  `minimize_f` returns the minimum together with the minimizing
direction, the eigenvector of that eigenvalue.  On the critical set,
`transitional_discriminant` gives G; when F is constant (every direction
minimizes it) `degenerate_transitional` gives G as the maximum of the
direction-wise sign quantity, with its maximizing direction, also in
closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .state import EquilibriumState, WaveDirection, frequency_bundle

class Verdict(str, enum.Enum):
    VIOLENTLY_UNSTABLE = "ViolentlyUnstable"
    NEUTRALLY_STABLE = "NeutrallyStable"
    TRANSITIONAL_UNSTABLE = "TransitionalUnstable"
    TRANSITIONAL_NEUTRAL = "TransitionalNeutral"

    @property
    def is_unstable(self) -> bool:
        return self in (Verdict.VIOLENTLY_UNSTABLE, Verdict.TRANSITIONAL_UNSTABLE)


@dataclass(frozen=True)
class MinimizationResult:
    """Minimum of F over the unit circle and one of the two antipodal minimizers."""

    f_min: float
    omega_star: WaveDirection
    degenerate: bool = False          # F constant on the circle (or both fields zero)


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    critical_e1_sq: float        # instability threshold for E1^2
    margin: float                # E1^2 - critical_e1_sq
    minimizer: WaveDirection     # worst direction omega'* (antipode equivalent)
    f_min: float                 # min F, equal to critical_e1_sq
    transitional_G: float | None = None
    degenerate: bool = False
    tol_eq: float = 0.0

    def to_record(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "margin": self.margin,
            "f_min": self.f_min,
            "omega_star_2": self.minimizer.omega2,
            "omega_star_3": self.minimizer.omega3,
            "G": self.transitional_G,
            "degenerate_flag": self.degenerate,
        }


def f_of_omega(state: EquilibriumState, direction: WaveDirection) -> float:
    """F(omega') = (H'.omega')^2 + (Hv'.omega')^2 for unit omega'."""
    b = frequency_bundle(state, direction)
    return b.w_plus ** 2 + b.w_minus ** 2


def default_tol_eq(state: EquilibriumState, coeff: float = 1e-9) -> float:
    """Half-width of the transitional band around E1^2 = critical value.

    Exact equality is a codimension-one condition that floating point cannot
    test; the band scales with the squared field magnitudes.
    """
    return coeff * (1.0 + state.H_sq + state.Hv_sq)


def _canonical(w2: float, w3: float) -> WaveDirection:
    # Deterministic representative of the antipodal pair: omega2 >= 0,
    # ties broken by omega3 >= 0.
    if w2 < 0.0 or (w2 == 0.0 and w3 < 0.0):
        w2, w3 = -w2, -w3
    return WaveDirection(w2, w3)


def _moments(state: EquilibriumState) -> tuple[float, float, float]:
    # entries (m11, m22, m12) of M = H'H'^T + Hv'Hv'^T, F(omega') = omega'^T M omega'
    H2, H3 = state.H_hat_t
    Hv2, Hv3 = state.Hv_hat_t
    return H2 * H2 + Hv2 * Hv2, H3 * H3 + Hv3 * Hv3, H2 * H3 + Hv2 * Hv3


def minimize_f(state: EquilibriumState) -> MinimizationResult:
    """Minimize F(omega') = (H'.omega')^2 + (Hv'.omega')^2 on |omega'| = 1.

    F(omega') = omega'^T M omega' with M = H'H'^T + Hv'Hv'^T, so the minimizer
    is the eigenvector of the smaller eigenvalue of M, at the angle

        theta* = atan2(-2 m12, -(m11 - m22)) / 2,

    and F_min = critical_e1_squared(state).  When the eigenvalue gap
    r = sqrt((m11 - m22)^2 + 4 m12^2) vanishes (both fields zero, or
    orthogonal fields with |H'| = |Hv'|), F is constant on the circle and any
    direction minimizes: that case is flagged degenerate and reports (1, 0).
    """
    m11, m22, m12 = _moments(state)
    f_min = critical_e1_squared(state)
    r = math.hypot(m11 - m22, 2.0 * m12)
    if r <= 1e-14 * (state.H_sq + state.Hv_sq):
        return MinimizationResult(f_min, WaveDirection(1.0, 0.0), degenerate=True)
    # + 0.0 turns -0.0 into +0.0: on axis-aligned fields the signed zero of
    # m12 would otherwise pick the representative
    theta = 0.5 * math.atan2(-2.0 * m12 + 0.0, -(m11 - m22))
    return MinimizationResult(f_min, _canonical(math.cos(theta), math.sin(theta)))


def critical_e1_squared(state: EquilibriumState) -> float:
    """Instability threshold for E1^2 (the minimum of F in closed form).

    Uses |H x Hv| = |H2*Hv3 - H3*Hv2| directly.  The radicand is the squared
    eigenvalue gap of M, (m11 - m22)^2 + 4 m12^2, formed as a difference of
    squares; near constant F that difference cancels (roundoff can even make
    it negative), so where it loses four or more leading bits the gap is
    taken from the entries of M instead.  Where it loses fewer, the two
    forms are about equally accurate.
    """
    hs = state.H_sq + state.Hv_sq
    cross = state.cross_H_Hv
    rad = hs * hs - 4.0 * cross * cross
    if rad < 0.0625 * hs * hs:
        m11, m22, m12 = _moments(state)
        return 0.5 * (hs - math.hypot(m11 - m22, 2.0 * m12))
    return 0.5 * (hs - math.sqrt(rad))


def transitional_discriminant(state: EquilibriumState) -> float:
    """Sign quantity G deciding the transitional (equality) case.

    G = E1 * [ (H.Hv)(v2*H3 - v3*H2) + (|Hv|^2 - E1^2)(v2*Hv3 - v3*Hv2) ].

    G > 0 means violent instability on the critical set; computable for any
    state but meaningful only where E1^2 equals the critical value.
    """
    v2, v3 = state.v_hat_t
    H2, H3 = state.H_hat_t
    Hv2, Hv3 = state.Hv_hat_t
    dot = H2 * Hv2 + H3 * Hv3
    return state.E1_hat * (dot * (v2 * H3 - v3 * H2)
                           + (state.Hv_sq - state.E1_hat ** 2) * (v2 * Hv3 - v3 * Hv2))


def degenerate_transitional(state: EquilibriumState) -> tuple[float, WaveDirection]:
    """Sign quantity G and its direction when every direction minimizes F.

    The closed form for G assumes an isolated minimizer pair and collapses
    to zero when F is constant.  There the square-root-of-eps growth branch
    opens at every direction omega' with E1 * w_perp(omega') * (v'.omega') > 0,
    so G is the maximum of that product over unit omega'.  With
    a = (Hv3, -Hv2), w_perp = a.omega' and the maximum is

        G* = |E1| * | |v'| a + sgn(E1) |a| v' |^2 / (4 |a| |v'|)  >= 0,

    attained along omega' ~ |v'| a + sgn(E1) |a| v'.  Where that vector
    vanishes, G* is 0 and the direction reported is (1, 0).
    """
    Hv2, Hv3 = state.Hv_hat_t
    v2, v3 = state.v_hat_t
    na, nv = math.hypot(Hv2, Hv3), math.hypot(v2, v3)
    sign = math.copysign(1.0, state.E1_hat)
    u2, u3 = nv * Hv3 + sign * na * v2, -nv * Hv2 + sign * na * v3
    nu = math.hypot(u2, u3)
    if nu == 0.0:       # a = 0, v' = 0, or a antiparallel to sgn(E1) v'
        return 0.0, WaveDirection(1.0, 0.0)
    g = abs(state.E1_hat) * nu * nu / (4.0 * na * nv)
    return g, _canonical(u2 / nu, u3 / nu)


def classify(state: EquilibriumState, tol_eq: float | None = None) -> Classification:
    """Classify an equilibrium by the closed-form criterion.

    margin = E1^2 - critical_e1_squared(state); the verdict is

      * ViolentlyUnstable   if margin >  tol_eq,
      * NeutrallyStable     if margin < -tol_eq,
      * TransitionalUnstable / TransitionalNeutral inside the band,
        decided by the sign of the transitional discriminant G (in the
        degenerate constant-F case, by the largest direction-wise sign
        quantity instead, in closed form; see degenerate_transitional).

    ``tol_eq`` defaults to ``default_tol_eq(state)``; pass 0 to resolve the
    strict inequality exactly (meaningful when the threshold is exact, e.g.
    collinear fields).
    """
    if tol_eq is None:
        tol_eq = default_tol_eq(state)
    mres = minimize_f(state)
    crit = mres.f_min
    margin = state.E1_hat ** 2 - crit

    if margin > tol_eq:
        verdict, G = Verdict.VIOLENTLY_UNSTABLE, None
    elif margin < -tol_eq:
        verdict, G = Verdict.NEUTRALLY_STABLE, None
    else:
        if mres.degenerate:
            G, _ = degenerate_transitional(state)
        else:
            G = transitional_discriminant(state)
        verdict = (Verdict.TRANSITIONAL_UNSTABLE if G > 0.0
                   else Verdict.TRANSITIONAL_NEUTRAL)

    return Classification(
        verdict=verdict,
        critical_e1_sq=crit,
        margin=margin,
        minimizer=mres.omega_star,
        f_min=mres.f_min,
        transitional_G=G,
        degenerate=mres.degenerate,
        tol_eq=tol_eq,
    )
