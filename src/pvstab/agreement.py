"""Where the three answers meet: the closed-form verdict, the root count and
the mode sequences.

`expected` bands a point once (`margin_band`): inside the band the answers
cannot be compared.  ``sweep`` with ``cross_check`` and ``validate`` judge
the closed-form verdict against a root scan by one rule (`judge_verdicts`),
and ``modes`` turns each unstable point into a mode job, a note or an
error (`mode_jobs`).
"""

from __future__ import annotations

import dataclasses
import math
from itertools import tee
from typing import Iterable

from . import criterion, dispersion
from ._lazy import numpy as np
from .errors import PvstabError
from .state import EquilibriumState, default_delta, frequency_bundle


def margin_band(state: EquilibriumState, tol_eq: float, delta: float | None) -> float:
    """Half-width of the margin interval not decidable numerically at fixed eps.

    The classification criterion is asymptotic (valid for eps below a
    state-dependent ceiling), while the root count runs at the state's
    actual eps on the scan's half-disk Re s >= delta (None: the state's
    default, `default_delta`).  Near the critical set the finite-eps root
    moves in the squared growth rate, and roots with Re s <= delta are
    undetectable, so agreement can only be asserted outside the band.  Its
    terms, as the code reads:

    - ``a`` bounds the first-order shift 2 eps E1 w_perp (v'.omega') over
      all unit directions (|w_perp| <= |Hv'|, |v'.omega'| <= |v'|), and
      its square term (eps E1 |Hv'|)^2;
    - ``b`` bounds the eps^2 part, with s_max = |E1| + |v'|;
    - ``9 delta^2`` covers the roots with Re s <= delta, which the scan
      cannot detect;
    - ``10 tol_eq`` covers the equality band of the criterion.

    The constants 10, 2.5 and 9 are safety factors, not derived yet: a
    measured band is an open item of ROADMAP.md.
    """
    delta = default_delta(state, delta)
    e1, hv, vm = abs(state.E1_hat), math.sqrt(state.Hv_sq), math.sqrt(state.v_sq)
    a = 2.0 * state.eps * e1 * hv * vm + (state.eps * e1 * hv) ** 2
    smax = e1 + vm
    b = (state.eps * smax) ** 2 * (state.Hv_sq + 0.5 * (smax ** 2 + state.H_sq))
    return 10.0 * tol_eq + 2.5 * (a + b) + 9.0 * delta ** 2


def expected(state: EquilibriumState, cls: criterion.Classification,
             delta: float | None) -> tuple[float, bool | None]:
    """The margin band of ``state``, classified ``cls``, at ``delta`` (None:
    the state's default), and the verdict a root scan is expected to give:
    None while |margin| <= band, where the numerics cannot decide, and
    otherwise whether the closed-form verdict is unstable."""
    band = margin_band(state, cls.tol_eq, delta)
    return band, None if abs(cls.margin) <= band else cls.verdict.is_unstable


def judge_verdicts(pairs: Iterable[tuple[EquilibriumState, bool | None]],
                   n_dirs: int, delta: float | None):
    """Scan the states of the (state, expected) pairs ``pairs`` over
    ``n_dirs`` directions at ``delta``, read as the scan needs them
    (`dispersion.scan_states`), and judge each closed-form verdict.

    ``expected`` is the verdict `expected` gives the state.  Yields, per
    pair in order, the scan and the agreement: whether some direction has a
    right-half-plane root exactly when ``expected`` is true, or None when it
    is None.  A scan in which any direction failed yields, in place of the
    pair, a PvstabError naming how many failed and the first failure.
    """
    pairs, ahead = tee(pairs)
    scans = dispersion.scan_states((st for st, _ in ahead), n_dirs, delta)
    for (_, expected), scan in zip(pairs, scans):
        errors = scan.errors
        if errors:
            yield PvstabError(f"{len(errors)} direction(s) failed: {errors[0]}")
        else:
            yield scan, None if expected is None else expected == scan.numerically_unstable


def mode_jobs(points: list[tuple[EquilibriumState, criterion.Classification]],
              delta: float | None) -> list:
    """Locate the growing root of each unstable (state, cls) of ``points``
    at the counting delta ``delta`` (None: each state's default).

    Returns per point, in order: its mode job ``(state, s, direction)`` of
    `modes.mode_records` and the root finder's flags; where no root is
    located, the text of a note inside the band at the delta it was sought
    with (`expected`), and a PvstabError of that text outside it; or a
    PvstabError when the count failed.

    The root is sought along the direction of the leading-order growth
    rate, on a half-disk whose delta is below that rate.  Above the
    threshold it sits at sqrt(margin) along the F-minimizer.  On the
    critical set it opens at sqrt(2 eps P), where P = E1 w_perp (v'.omega')
    > 0 is the sign product at the F-minimizer or, when F is constant and
    every direction minimizes it, the largest P over all directions
    (`criterion.degenerate_transitional`).  A point whose rate is 0 is not
    sought, and is banded at its default delta.
    """
    banded = []     # per point: the delta it is banded at when no root is sought, else None
    states, directions, deltas = [], [], []     # per root sought: where it is sought
    for state, cls in points:
        at = default_delta(state, delta)
        if cls.margin > cls.tol_eq:
            rate, direction = math.sqrt(cls.margin), cls.minimizer
        else:
            if cls.degenerate:
                g, direction = criterion.degenerate_transitional(state)
                product = 2.0 * g
            else:
                direction = cls.minimizer
                bundle = frequency_bundle(state, direction)
                product = 2.0 * state.E1_hat * bundle.w_perp * bundle.v_dot
            rate = math.sqrt(max(product, 0.0) * state.eps)
        if rate > 0.0:
            states.append(state)
            directions.append(direction)
            deltas.append(min(at, 0.3 * rate))
            banded.append(None)
        else:
            banded.append(at)
    counts = dispersion.locate_roots(states, directions, deltas)
    sought = zip(directions, deltas, counts.count, counts.error, counts.located)
    routes = []
    for (state, cls), at in zip(points, banded):
        if at is None:
            direction, at, count, text, located = next(sought)
            if count is None:
                routes.append(PvstabError(text))
                continue
            if located and located[0]:
                roots, _, flags = located
                routes.append(((state, max(roots, key=lambda z: z.real), direction), flags))
                continue
        band, verdict = expected(state, cls, at)
        text = (f"no root located in the direction of growth; margin "
                f"{cls.margin:.6g}, band {band:.6g}")
        routes.append(text if verdict is None else PvstabError(text))
    return routes


def sample_validation_state(rng: np.random.Generator) -> EquilibriumState:
    """Random state straddling the stability boundary.

    Components uniform in [-2, 2], eps fixed at 1e-2, and E1 uniform in
    [0, 1.5*sqrt(F_min + 1)] so that both verdicts occur with comparable
    frequency.
    """
    v = rng.uniform(-2.0, 2.0, 2)
    H = rng.uniform(-2.0, 2.0, 2)
    Hv = rng.uniform(-2.0, 2.0, 2)
    st = EquilibriumState(v_hat_t=(float(v[0]), float(v[1])),
                          H_hat_t=(float(H[0]), float(H[1])),
                          Hv_hat_t=(float(Hv[0]), float(Hv[1])),
                          E1_hat=0.0, eps=1e-2)
    f_min = criterion.critical_e1_squared(st)
    e1 = float(rng.uniform(0.0, 1.5 * math.sqrt(f_min + 1.0)))
    return dataclasses.replace(st, E1_hat=e1)
