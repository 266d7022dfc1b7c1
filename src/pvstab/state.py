"""Equilibrium states of a planar plasma-vacuum interface and frame utilities.

The interface x1 = sigma*t separates an incompressible, perfectly conducting
plasma (x1 > 0) from a vacuum region carrying electromagnetic fields
(x1 < 0).  A constant equilibrium is described by seven free tangential
parameters plus the small parameter ``eps`` (flow speed over speed of light)
and the interface speed ``sigma``:

    plasma velocity        v = (sigma, v2, v3)
    plasma magnetic field  H = (0, H2, H3)
    vacuum magnetic field  Hv = (0, Hv2, Hv3)
    vacuum electric field  Ev = (E1, eps*sigma*Hv3, -eps*sigma*Hv2)

All quantities are dimensionless.  A moving interface (sigma != 0) is
reduced to the rest frame by the Joules-Bernoulli change of vacuum unknowns
(`galilean_transform`), whose inverse is the symmetric matrix `b0_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import and_, itemgetter, le
from typing import Iterator

import numpy as np

from .errors import DirectionError, SingularFrameError, StateValidationError

# Above this value the O(eps^2) terms dropped by the asymptotic analysis
# reach the percent scale; results are still computed, with a warning.
EPS_WARN_THRESHOLD = 0.2

# Largest magnitude of a flow or field component, or of E1, that a state may
# have.  The analysis multiplies up to six of them: L on a counted half-disk
# is of degree 3 in s (the head (ell^2 + w_plus^2) sqrt(1 + eps^2 s^2)),
# and the radius of that half-disk, the bound R* of
# ``dispersion.root_radius_bound``, grows like |Hv'|^2.  With every
# magnitude at most 1e50 these products stay below 1e300, which leaves a
# factor 1e8 under the largest float (1.8e308) for their coefficients.
MAX_MAGNITUDE = 1e50


@dataclass(frozen=True)
class EquilibriumState:
    """Constant solution parameters (tangential components only).

    ``v_hat_t``, ``H_hat_t`` and ``Hv_hat_t`` are the (x2, x3) components of
    the plasma velocity, plasma magnetic field and vacuum magnetic field;
    the normal magnetic components vanish identically.  ``E1_hat`` is the
    normal vacuum electric field, the quantity that decides stability.
    """

    v_hat_t: tuple[float, float] = (0.0, 0.0)
    H_hat_t: tuple[float, float] = (0.0, 0.0)
    Hv_hat_t: tuple[float, float] = (0.0, 0.0)
    E1_hat: float = 0.0
    eps: float = 1e-2
    sigma: float = 0.0

    @property
    def E_hat(self) -> np.ndarray:
        """The vacuum electric field Ev = (E1, eps sigma Hv3, -eps sigma Hv2)."""
        es = self.eps * self.sigma
        return np.array([self.E1_hat, es * self.Hv_hat_t[1], -es * self.Hv_hat_t[0]])

    # -- derived scalars ----------------------------------------------------

    @property
    def H_sq(self) -> float:
        """|H|^2 (equals |H'|^2: the normal component is zero)."""
        return self.H_hat_t[0] ** 2 + self.H_hat_t[1] ** 2

    @property
    def Hv_sq(self) -> float:
        """|Hv|^2 (equals |Hv'|^2)."""
        return self.Hv_hat_t[0] ** 2 + self.Hv_hat_t[1] ** 2

    @property
    def v_sq(self) -> float:
        """|v'|^2, tangential part only."""
        return self.v_hat_t[0] ** 2 + self.v_hat_t[1] ** 2

    # -- serialization (flat key-value record, CLI scenario format) ---------

    RECORD_KEYS = ("v2", "v3", "H2", "H3", "Hv2", "Hv3", "E1", "eps", "sigma")

    def record_values(self) -> tuple:
        """The parameters in the order of RECORD_KEYS."""
        return (*self.v_hat_t, *self.H_hat_t, *self.Hv_hat_t,
                self.E1_hat, self.eps, self.sigma)

    def to_record(self) -> dict[str, str]:
        return {k: repr(float(v)) for k, v in zip(self.RECORD_KEYS, self.record_values())}

    @classmethod
    def from_values(cls, v2, v3, H2, H3, Hv2, Hv3, E1, eps, sigma) -> "EquilibriumState":
        """The state of ``record_values()``."""
        return cls((v2, v3), (H2, H3), (Hv2, Hv3), E1, eps, sigma)

    @classmethod
    def from_record(cls, record: dict) -> "EquilibriumState":
        return cls.from_values(*(float(record.get(k, 1e-2 if k == "eps" else 0.0))
                                 for k in cls.RECORD_KEYS))


@dataclass(frozen=True)
class WaveDirection:
    """Tangential wave vector omega' = (omega2, omega3), the Fourier variable.

    The spectral analysis is scaled to |omega'| = 1; `unit()` produces the
    normalized representative.  omega' = 0 is rejected: no one-dimensional
    ill-posedness mechanism exists.
    """

    omega2: float
    omega3: float

    def __post_init__(self):
        if not (math.isfinite(self.omega2) and math.isfinite(self.omega3)):
            raise DirectionError("wave direction components must be finite")
        if self.omega2 == 0.0 and self.omega3 == 0.0:
            raise DirectionError("wave direction omega' must be nonzero")

    @property
    def norm(self) -> float:
        return math.hypot(self.omega2, self.omega3)

    @property
    def is_unit(self) -> bool:
        return abs(self.norm - 1.0) <= 1e-12

    def unit(self) -> "WaveDirection":
        r = self.norm
        return WaveDirection(self.omega2 / r, self.omega3 / r)

    @classmethod
    def from_angle(cls, theta: float) -> "WaveDirection":
        return cls(math.cos(theta), math.sin(theta))


@dataclass(frozen=True)
class FrequencyBundle:
    """Scalar field projections onto a unit wave direction.

    w_plus  = H'  . omega'
    w_minus = Hv' . omega'
    w_perp  = Hv3*omega2 - Hv2*omega3    (orthogonal vacuum projection)
    v_dot   = v'  . omega'

    For unit omega': w_minus^2 + w_perp^2 = |Hv'|^2.

    The fields are floats, for one direction.  A batch of directions is the
    rows of ``dispersion._table_columns`` instead, with the same products.
    """

    w_plus: float
    w_minus: float
    w_perp: float
    v_dot: float


def _rejection(vals: tuple) -> str:
    # the message of the first condition of `validate_state` that a state
    # with these record values fails, when it fails one
    if not all(map(math.isfinite, vals)):
        return "non-finite equilibrium parameter"
    if max(map(abs, vals[:7])) > MAX_MAGNITUDE:
        name, value = next((k, v) for k, v in zip(EquilibriumState.RECORD_KEYS, vals)
                           if abs(v) > MAX_MAGNITUDE)
        return (f"|{name}| = {abs(value):g} exceeds {MAX_MAGNITUDE:g}, "
                "the largest magnitude the analysis represents")
    eps, sigma = vals[7:]
    if eps <= 0.0:
        return f"eps must be positive, got {eps}"
    if eps >= 1.0:
        return f"eps must be below 1, got {eps}"
    return f"relativistic interface speed: eps*|sigma| = {eps * abs(sigma)} >= 1"


def _warning_lists(eps: float) -> tuple[list[str], list[str], list[str]]:
    """The warnings of a state with this eps whose E1^2 is above, equal to
    and below |Hv|^2: the physical restriction |Hv|^2 >= E1^2 violated, met
    with equality or kept, and eps above the asymptotic ceiling."""
    tail = []
    if eps >= EPS_WARN_THRESHOLD:
        tail.append(f"eps = {eps} is outside the small-eps regime "
                    f"(>= {EPS_WARN_THRESHOLD}); classification may not "
                    "match finite-eps numerics")
    return (["physical restriction violated: E1^2 > |Hv|^2 "
             "(equilibrium pressure would be negative)", *tail],
            ["physical restriction met with equality: E1^2 = |Hv|^2", *tail], tail)


def _bounded(cells) -> Iterator[bool]:
    """Per cell, whether its magnitude is at most MAX_MAGNITUDE (False on NaN)."""
    return map(le, map(abs, cells), repeat(MAX_MAGNITUDE))


def _frame_ok(eps: float, sigma: float) -> bool:
    """Whether 0 < eps < 1 and eps*|sigma| < 1 (False on NaN)."""
    return 0.0 < eps < 1.0 and eps * abs(sigma) < 1.0


def check_values(v2: float, v3: float, H2: float, H3: float, Hv2: float, Hv3: float,
                 E1: float, eps: float, sigma: float) -> str | list[str]:
    """Admissibility of the equilibrium with these ``record_values()``: the
    message that rejects it, or the list of its warnings (see `validate_state`)."""
    # as floats: a numpy float32 cell would meet the bound in float32, where
    # it is inf, so that inf would pass
    vals = v2, v3, H2, H3, Hv2, Hv3, E1, eps, sigma = tuple(
        map(float, (v2, v3, H2, H3, Hv2, Hv3, E1, eps, sigma)))
    if not (all(_bounded(vals[:7])) and _frame_ok(eps, sigma)):
        return _rejection(vals)
    e1sq, hvsq = E1 ** 2, Hv2 ** 2 + Hv3 ** 2
    above, equal, below = _warning_lists(eps)
    return above if e1sq > hvsq else equal if e1sq == hvsq else below


def _shared_cells_hold(values: tuple, swept: tuple[int, ...]) -> bool:
    """Whether the hard conditions of `check_values` on the cells of
    ``values`` outside the columns ``swept`` hold."""
    return (all(_bounded(x for c, x in enumerate(values[:7]) if c not in swept))
            and (7 in swept or _frame_ok(values[7], values[8])))


def check_block(rows: list[tuple], swept: tuple[int, ...] | None) -> list[str | list[str]]:
    """`check_values` of each tuple of record values in ``rows``.

    ``swept`` names the columns in which the rows may differ (sigma, column
    8, is never one); each other cell, a shared one, is the same in every
    row.  The shared cells are checked once and then only the swept cells
    of each row; a row that fails either check is rejected by
    `check_values` on its full record, so its message names its first
    failure.  With ``swept`` None every cell of every row is checked.  Rows
    of one block with the same warnings may share one list.
    """
    if swept is None or not _shared_cells_hold(rows[0], swept):
        return [check_values(*values) for values in rows]
    first = rows[0]
    ok = [True] * len(rows)
    for c in swept:
        ok = list(map(and_, ok, _bounded(map(itemgetter(c), rows)) if c < 7
                      else map(_frame_ok, map(itemgetter(7), rows), repeat(first[8]))))
    # E1^2, |Hv|^2 and the warning lists per row, or the block's one value;
    # a rejected row's squares are not computed (its E1^2 may overflow)
    e1sq = ([v[6] ** 2 if k else 0.0 for k, v in zip(ok, rows)] if 6 in swept
            else repeat(first[6] ** 2))
    hvsq = ([v[4] ** 2 + v[5] ** 2 if k else 0.0 for k, v in zip(ok, rows)]
            if 4 in swept or 5 in swept else repeat(first[4] ** 2 + first[5] ** 2))
    lists = ([_warning_lists(v[7]) for v in rows] if 7 in swept
             else repeat(_warning_lists(first[7])))
    return [(w[0] if a > b else w[1] if a == b else w[2]) if k else check_values(*v)
            for k, v, a, b, w in zip(ok, rows, e1sq, hvsq, lists)]


def validate_state(raw: EquilibriumState) -> tuple[EquilibriumState, list[str]]:
    """Check admissibility of an equilibrium; return it with warnings.

    Hard errors (raised): non-finite entries, a component of v', H' or Hv',
    or E1, beyond MAX_MAGNITUDE in magnitude, eps <= 0, eps >= 1, and
    eps*|sigma| >= 1.
    Soft conditions (warnings): the physical restriction |Hv|^2 >= E1^2 is
    violated or met with equality (either way the state is ill-posed, which
    the analysis itself will report), and eps above the asymptotic ceiling.
    """
    checked = check_values(*raw.record_values())
    if isinstance(checked, str):
        raise StateValidationError(checked)
    return raw, checked


def frequency_bundle(state: EquilibriumState, direction: WaveDirection) -> FrequencyBundle:
    """Project the equilibrium fields onto a unit wave direction."""
    w2, w3 = direction.omega2, direction.omega3
    H2, H3 = state.H_hat_t
    Hv2, Hv3 = state.Hv_hat_t
    v2, v3 = state.v_hat_t
    return FrequencyBundle(
        w_plus=H2 * w2 + H3 * w3,
        w_minus=Hv2 * w2 + Hv3 * w3,
        w_perp=Hv3 * w2 - Hv2 * w3,
        v_dot=v2 * w2 + v3 * w3,
    )


def b0_matrix(eps: float, sigma: float) -> np.ndarray:
    """Symmetric 6x6 matrix mapping transformed vacuum unknowns back: V = B0 @ Vt.

    Identity at eps*sigma = 0; positive definite for eps*|sigma| < 1.
    Row/column order is (Hv1, Hv2, Hv3, E1, E2, E3).
    """
    es = eps * sigma
    if abs(es) >= 1.0:
        raise SingularFrameError(f"frame change singular: eps*|sigma| = {abs(es)} >= 1")
    d = 1.0 - es * es
    b = np.eye(6)
    b[1, 1] = b[2, 2] = b[4, 4] = b[5, 5] = 1.0 / d
    b[1, 5] = b[5, 1] = -es / d
    b[2, 4] = b[4, 2] = es / d
    return b


def galilean_transform(V, eps: float, sigma: float) -> np.ndarray:
    """Joules-Bernoulli change of vacuum unknowns (Hv, E) -> (Hvt, Et).

    Hvt = (Hv1, Hv2 + es*E3,  Hv3 - es*E2)
    Et  = (E1,  E2  - es*Hv3, E3  + es*Hv2)        with es = eps*sigma.

    Removes the interface speed from the boundary conditions;
    ``b0_matrix(eps, sigma) @ galilean_transform(V, eps, sigma) == V``.
    """
    V = np.asarray(V, dtype=float)
    if V.shape != (6,):
        raise ValueError(f"expected a 6-vector (Hv, E), got shape {V.shape}")
    es = eps * sigma
    Hv, E = V[:3], V[3:]
    return np.array([
        Hv[0], Hv[1] + es * E[2], Hv[2] - es * E[1],
        E[0], E[1] - es * Hv[2], E[2] + es * Hv[1],
    ])
