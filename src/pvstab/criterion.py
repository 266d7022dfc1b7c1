"""Closed-form stability classification of a planar interface.

An equilibrium is violently unstable (the linearized problem is ill-posed in
the Hadamard sense) exactly when

    E1^2 > ( |H|^2 + |Hv|^2 - sqrt((|H|^2 + |Hv|^2)^2 - 4|H x Hv|^2) ) / 2,

or when equality holds and an additional sign condition G > 0 is met.  The
right-hand side equals the minimum over unit wave directions omega' of

    F(omega') = (H'.omega')^2 + (Hv'.omega')^2,

a quadratic form on the unit circle whose smaller eigenvalue has the closed
form above.  Two kernels on plain floats decide the criterion:
`threshold_values`, the minimum, the minimizing direction (the eigenvector
of that eigenvalue) and the default equality band, set by the fields H',
Hv' alone, and `verdict_values`, which places E1^2 against that threshold.
`Classification.from_parts` joins their rows.  `classify` composes them for
an `EquilibriumState`, and `minimize_f` and `critical_e1_squared` wrap the
threshold.  A grid calls them on the rows of a block, the threshold once per
block when the swept parameter leaves the fields fixed (E1, v2, v3, eps) and
once per point otherwise.  On the critical set, `transitional_discriminant`
gives G; when F is constant (every direction minimizes it)
`degenerate_transitional` gives G as the maximum of the direction-wise sign
quantity, with its maximizing direction, also in closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .state import EquilibriumState, WaveDirection, frequency_bundle


# A verdict's text is read as the plain attribute ``_value_``: ``value`` is a
# property of enum, several times slower, and on Python 3.11 ``str()`` and
# ``"%s"`` of a member spell ``Verdict.NAME``.
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


# the keys of a classification record (`Classification.to_record`)
RECORD_KEYS = ("verdict", "margin", "f_min", "omega_star_2", "omega_star_3", "G",
               "degenerate_flag")


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    margin: float                # E1^2 - f_min
    minimizer: WaveDirection     # worst direction omega'* (antipode equivalent)
    f_min: float                 # min F: the instability threshold for E1^2
    transitional_G: float | None = None
    degenerate: bool = False
    tol_eq: float = 0.0

    @classmethod
    def from_parts(cls, part: tuple, threshold: tuple) -> "Classification":
        """The classification of a `verdict_values` row and the
        `threshold_values` row it was decided on."""
        (verdict, margin, G), (f_min, w2, w3, degenerate, tol_eq) = part, threshold
        return cls(verdict, margin, WaveDirection(w2, w3), f_min, G, degenerate, tol_eq)

    def to_record(self) -> dict:
        return dict(zip(RECORD_KEYS, (
            self.verdict._value_, self.margin, self.f_min, self.minimizer.omega2,
            self.minimizer.omega3, self.transitional_G, self.degenerate)))


def f_of_omega(state: EquilibriumState, direction: WaveDirection) -> float:
    """F(omega') = (H'.omega')^2 + (Hv'.omega')^2 for unit omega'."""
    b = frequency_bundle(state, direction)
    return b.w_plus ** 2 + b.w_minus ** 2


def _canonical(w2: float, w3: float) -> tuple[float, float]:
    # Deterministic representative of the antipodal pair: omega2 >= 0,
    # ties broken by omega3 >= 0.
    if w2 < 0.0 or (w2 == 0.0 and w3 < 0.0):
        return -w2, -w3
    return w2, w3


def threshold_values(H2: float, H3: float, Hv2: float, Hv3: float,
                     coeff: float = 1e-9) -> tuple:
    """The instability threshold of the tangential fields H', Hv' alone.

    Returns the row (f_min, omega_star_2, omega_star_3, degenerate, tol_eq):
    the threshold f_min for E1^2, its minimizing direction, whether F is
    constant, and the default half-width ``coeff (1 + |H'|^2 + |Hv'|^2)`` of
    the equality band: exact equality is a codimension-one condition that
    floating point cannot test, so the band scales with the squared field
    magnitudes.  E1 and v' play no part, so the points of a sweep that moves
    only those share one row.

    F(omega') = omega'^T M omega' with M = H'H'^T + Hv'Hv'^T.  Its minimum is
    the smaller eigenvalue of M, (|H|^2 + |Hv|^2 - sqrt(rad)) / 2 with
    rad = (|H|^2 + |Hv|^2)^2 - 4|H x Hv|^2 the squared eigenvalue gap
    r^2 = (m11 - m22)^2 + 4 m12^2 formed as a difference of squares; near
    constant F that difference cancels (roundoff can even make it
    negative), so where it loses four or more leading bits the gap is taken
    from the entries of M instead.  The minimizer is the eigenvector of that
    eigenvalue, at the angle

        theta* = atan2(-2 m12, -(m11 - m22)) / 2.

    When the gap r vanishes (both fields zero, or orthogonal fields with
    |H'| = |Hv'|), F is constant on the circle and any direction minimizes:
    that case is flagged degenerate and reports (1, 0).
    """
    H_sq = H2 ** 2 + H3 ** 2
    Hv_sq = Hv2 ** 2 + Hv3 ** 2
    # entries (m11, m22, m12) of M
    m11, m22, m12 = H2 * H2 + Hv2 * Hv2, H3 * H3 + Hv3 * Hv3, H2 * H3 + Hv2 * Hv3
    hs = H_sq + Hv_sq
    cross = H2 * Hv3 - H3 * Hv2             # |H x Hv|, signed
    rad = hs * hs - 4.0 * cross * cross
    r = math.hypot(m11 - m22, 2.0 * m12)
    f_min = 0.5 * (hs - (r if rad < 0.0625 * hs * hs else math.sqrt(rad)))
    degenerate = r <= 1e-14 * hs
    if degenerate:
        w2, w3 = 1.0, 0.0
    else:
        # + 0.0 turns -0.0 into +0.0: on axis-aligned fields the signed zero
        # of m12 would otherwise pick the representative
        theta = 0.5 * math.atan2(-2.0 * m12 + 0.0, -(m11 - m22))
        w2, w3 = _canonical(math.cos(theta), math.sin(theta))
    return f_min, w2, w3, degenerate, coeff * (1.0 + H_sq + Hv_sq)


def verdict_values(v2: float, v3: float, H2: float, H3: float, Hv2: float, Hv3: float,
                   E1: float, f_min: float, degenerate: bool, tol_eq: float) -> tuple:
    """The E1 part of the criterion, given the threshold of `threshold_values`.

    Returns (verdict, margin, G): margin = E1^2 - f_min decides the verdict
    against tol_eq (see `classify`), and G, the sign quantity of the
    transitional band, is None outside it.
    """
    margin = E1 ** 2 - f_min
    if margin > tol_eq:
        return Verdict.VIOLENTLY_UNSTABLE, margin, None
    if margin < -tol_eq:
        return Verdict.NEUTRALLY_STABLE, margin, None
    state = EquilibriumState((v2, v3), (H2, H3), (Hv2, Hv3), E1)
    G = degenerate_transitional(state)[0] if degenerate else transitional_discriminant(state)
    return (Verdict.TRANSITIONAL_UNSTABLE if G > 0.0 else Verdict.TRANSITIONAL_NEUTRAL,
            margin, G)


def minimize_f(state: EquilibriumState) -> MinimizationResult:
    """Minimize F(omega') = (H'.omega')^2 + (Hv'.omega')^2 on |omega'| = 1.

    The minimum, a minimizer and the degenerate flag of `threshold_values`.
    """
    f_min, w2, w3, degenerate, _ = threshold_values(*state.H_hat_t, *state.Hv_hat_t)
    return MinimizationResult(f_min, WaveDirection(w2, w3), degenerate)


def critical_e1_squared(state: EquilibriumState) -> float:
    """Instability threshold for E1^2: the minimum of F in closed form
    (`threshold_values`)."""
    return threshold_values(*state.H_hat_t, *state.Hv_hat_t)[0]


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
    return g, WaveDirection(*_canonical(u2 / nu, u3 / nu))


def classify(state: EquilibriumState, tol_eq: float | None = None) -> Classification:
    """Classify an equilibrium by the closed-form criterion: the verdict of
    `verdict_values` on the threshold of `threshold_values`.

    margin = E1^2 - critical_e1_squared(state); the verdict is

      * ViolentlyUnstable   if margin >  tol_eq,
      * NeutrallyStable     if margin < -tol_eq,
      * TransitionalUnstable / TransitionalNeutral inside the band,
        decided by the sign of the transitional discriminant G (in the
        degenerate constant-F case, by the largest direction-wise sign
        quantity instead, in closed form; see degenerate_transitional).

    ``tol_eq`` defaults to the threshold's band, 1e-9 (1 + |H'|^2 + |Hv'|^2);
    pass 0 to resolve the strict inequality exactly (meaningful when the
    threshold is exact, e.g. collinear fields).
    """
    threshold = threshold_values(*state.H_hat_t, *state.Hv_hat_t)
    if tol_eq is not None:
        threshold = (*threshold[:4], tol_eq)
    f_min, _, _, degenerate, tol_eq = threshold
    return Classification.from_parts(verdict_values(
        *state.v_hat_t, *state.H_hat_t, *state.Hv_hat_t, state.E1_hat, f_min, degenerate,
        tol_eq), threshold)
