"""Command-line front end: scenario files, reports, sweeps, validation.

Usage:

    pvstab classify|roots|modes|sweep|validate <scenario-file>
           [--out PATH] [--seed N] [--jobs N]      (--jobs is ignored)

A scenario file is a flat key-value document with block headers:

    [state]            one or more equilibrium blocks (keys v2 v3 H2 H3
                       Hv2 Hv3 E1 eps sigma; eps defaults to 1e-2)
    [sweep]            optional, up to two axes: parameter in
                       {E1, angle_alpha, H_mag, Hv_mag, v2, v3, eps}
                       (a different one per axis), min, max (finite),
                       steps; the grid has at most MAX_GRID_POINTS points
    [analysis]         optional numerics overrides: tol_eq (relative
                       equality-band coefficient), n_dirs (MIN_N_DIRS to
                       MAX_N_DIRS), delta (counting region Re s >= delta;
                       its radius is always proven at that delta), decay_p,
                       cross_check, sample (at most MAX_GRID_POINTS)

The grid is generated as it is read, in blocks of at most BLOCK_POINTS
points, each a row of plain floats (`Scenario.grid`).  Every point is
validated and classified once (`_checked`), and one that fails becomes one
error row; rows are written in index order.  Each block is validated as
one (`state.check_block`): in a sweep, the record cells its inner
parameter does not set once, the swept cells per point, and a rejected
point's full record for its message; without a sweep, every cell of every
point (`state.check_values`).  The
criterion's field-only threshold (`criterion.threshold_values`) is
evaluated once per block when the inner sweep parameter leaves H' and Hv'
fixed (E1, v2, v3, eps: `_fields_fixed`), else once per valid point; its
E1 part (`criterion.verdict_values`) once per valid point.  ``classify``,
and ``sweep`` without ``cross_check``, write the rows of a block as one
string before they build the next, so they hold at most one block.  CSV
cells are spelled as ``csv.writer`` does (`_csv_rows`).  ``sweep`` spells a
block's valid rows from one template, in which only the cells a row does
not share with its block are left open (`_SWEPT_COLUMNS` names the record
cells each parameter sets); ``roots`` joins its rows from a segment per
direction and a tail per half-disk into one string.
``roots``, ``modes`` and ``sweep`` with ``cross_check`` run the valid points
as one batch (``dispersion.scan_states``, and ``locate_roots`` on one
(state, direction) pair per unstable point), which they give a delta and
never a region, and read the counts by position from the lists of a
``StateCounts``.  ``validate`` draws its states in rounds and sends each
round through `_checked` too, as a scenario of states without a sweep.
``sweep`` with ``cross_check`` and ``validate`` judge the closed-form
verdict against a root scan by one rule (`judge_verdicts`): undecided
inside `margin_band`, an error when any scanned direction failed.  A state
with a component or E1 beyond ``state.MAX_MAGNITUDE`` in magnitude is
invalid.

Outputs are JSON lines (classify, modes, validate) or versioned CSV
(roots, sweep); identical scenarios produce byte-identical files.  Exit
codes: 0 success, 1 usage, I/O or parse failure, 2 validation-gate failure,
3 internal numerical failure (for a grid command: every point failed).
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator, TextIO

import numpy as np

from . import criterion
from .criterion import threshold_values, verdict_values
from .dispersion import MAX_N_DIRS, MIN_N_DIRS, default_delta, locate_roots, scan_states
from .errors import PvstabError, ScenarioParseError, StateValidationError
from .modes import mode_records
from .state import (MAX_MAGNITUDE, EquilibriumState, check_block, frequency_bundle,
                    validate_state)

# the record columns (of `EquilibriumState.RECORD_KEYS`) each sweep parameter
# sets: the swept value itself for a single column, else a field's two
# components
_SWEPT_COLUMNS = {"E1": (6,), "angle_alpha": (4, 5), "H_mag": (2, 3), "Hv_mag": (4, 5),
                  "v2": (0,), "v3": (1,), "eps": (7,)}
SWEEP_PARAMETERS = tuple(_SWEPT_COLUMNS)

BLOCK_POINTS = 1024             # grid points validated, classified and written at a time
# Largest number of points a grid may have, and of states validate may
# judge: the output is held until the run succeeds, about 230 bytes a sweep
# row.
MAX_GRID_POINTS = 10 ** 7

_MODE_N = (1, 10, 100)
_MODE_T = (0.01, 0.1, 1.0)


@dataclass(frozen=True)
class SweepAxis:
    parameter: str
    min: float
    max: float
    steps: int

    def values(self) -> list[float]:
        """``steps`` (at least 2) equispaced floats from min to max, with the
        bits of ``numpy.linspace``: i step + min, step = (max - min) / (steps
        - 1), or i / (steps - 1) (max - min) + min when step is 0, and the
        last value max."""
        div, delta = self.steps - 1, self.max - self.min
        step = delta / div
        if step == 0.0:
            return [i / div * delta + self.min for i in range(div)] + [self.max]
        return [i * step + self.min for i in range(div)] + [self.max]


@dataclass
class AnalysisOptions:
    tol_eq: float = 1e-9        # relative coefficient, scaled per state
    n_dirs: int = 32
    delta: float | None = None  # counting-region delta override (absolute)
    decay_p: float = 3.0
    cross_check: bool = False
    sample: int = 200


@dataclass
class Scenario:
    states: list[EquilibriumState]
    sweeps: list[SweepAxis] = field(default_factory=list)
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    warnings: list[str] = field(default_factory=list)

    def grid(self) -> Iterator[list[tuple[int, tuple, tuple]]]:
        """States crossed with the sweep grid (identity when no sweep), in
        blocks of at most BLOCK_POINTS points: lists of (index, swept values,
        record values) rows of plain floats.

        A generator, in index order: the last axis varies fastest, and each
        axis level applies its parameter to every point of the level above.
        A block is a run of the innermost axis, or of consecutive states
        when there is no sweep.
        """
        if not self.sweeps:
            for lo in range(0, len(self.states), BLOCK_POINTS):
                yield [(index, (), st.record_values()) for index, st in
                       enumerate(self.states[lo:lo + BLOCK_POINTS], lo)]
            return
        *outer, inner = self.sweeps
        inner_values = inner.values()
        start = 0
        for st in self.states:
            base = st.record_values()
            bases = [((), base)]
            if outer:       # one record per point of the outer axis
                name = outer[0].parameter
                bases = (((v,), _swept(base, name, [v])[0]) for v in outer[0].values())
            for coords, record in bases:
                for lo in range(0, len(inner_values), BLOCK_POINTS):
                    values = inner_values[lo:lo + BLOCK_POINTS]
                    yield list(zip(range(start, start + len(values)),
                                   zip(*map(repeat, coords), values),
                                   _swept(record, inner.parameter, values)))
                    start += len(values)


def _swept(record: tuple, name: str, values: list[float]) -> list[tuple]:
    """The `EquilibriumState.RECORD_KEYS` values, one tuple per value of
    ``values``, of the state with record values ``record`` and swept
    parameter ``name`` set to that value, for both axis levels of a grid.

    ``H_mag``/``Hv_mag`` rescale the field keeping its direction (a zero
    field is given direction (1, 0)); ``angle_alpha`` rotates Hv' to the
    angle alpha measured from H', keeping |Hv'|.
    """
    columns = [repeat(x) for x in record]
    i, *pair = _SWEPT_COLUMNS[name]
    if not pair:
        columns[i] = values
    elif name == "angle_alpha":
        _, _, H2, H3, Hv2, Hv3, *_ = record
        angle, mag = math.atan2(H3, H2), math.sqrt(Hv2 ** 2 + Hv3 ** 2)
        thetas = [angle + v for v in values]
        columns[4] = [mag * math.cos(theta) for theta in thetas]
        columns[5] = [mag * math.sin(theta) for theta in thetas]
    else:               # H_mag, Hv_mag
        a, b = record[i], record[i + 1]
        h = math.sqrt(a ** 2 + b ** 2)
        u = (a / h, b / h) if h > 0 else (1.0, 0.0)
        columns[i] = [v * u[0] for v in values]
        columns[i + 1] = [v * u[1] for v in values]
    return list(zip(*columns))


def _fields_fixed(name: str) -> bool:
    """Whether sweeping ``name`` leaves H' and Hv', and so the criterion's
    threshold (`criterion.threshold_values`), unchanged."""
    return not {2, 3, 4, 5} & set(_SWEPT_COLUMNS[name])


# ---------------------------------------------------------------------------
# scenario parsing


# The typed keys: each maps to its type and the conditions on its value, each
# with its words, checked in order.  A value that fails a condition is
# rejected as "<words>, got <value>".  n_dirs is bounded as a scan accepts
# it, sample like the points of a grid, delta like the magnitudes of a state
# (state.MAX_MAGNITUDE), and decay_p so that n**-decay_p stays within
# [1e-200, 1e200] for the n of _MODE_N.
_SWEEP_KEYS = {
    "parameter": (str, (SWEEP_PARAMETERS.__contains__,
                        f"sweep parameter must be one of {SWEEP_PARAMETERS}")),
    "steps": (int,),
    "min": (float, (math.isfinite, "min must be finite")),
    "max": (float, (math.isfinite, "max must be finite")),
}
_MAX_DECAY_P = 100.0
_ANALYSIS_KEYS = {
    "tol_eq": (float, (lambda x: 0.0 <= x < math.inf,
                       "tol_eq must be non-negative and finite")),
    "n_dirs": (int, (lambda n: n >= MIN_N_DIRS, f"n_dirs must be at least {MIN_N_DIRS}"),
               (lambda n: n <= MAX_N_DIRS, f"n_dirs must be at most {MAX_N_DIRS}")),
    "delta": (float, (lambda x: 0.0 < x < math.inf, "delta must be positive and finite"),
              (lambda x: x <= MAX_MAGNITUDE, f"delta must be at most {MAX_MAGNITUDE:g}")),
    "decay_p": (float, (math.isfinite, "decay_p must be finite"),
                (lambda p: abs(p) <= _MAX_DECAY_P,
                 f"decay_p must be at most {_MAX_DECAY_P:g} in magnitude")),
    "cross_check": (bool,),
    "sample": (int, (lambda n: n >= 1, "sample must be at least 1"),
               (lambda n: n <= MAX_GRID_POINTS, f"sample must be at most {MAX_GRID_POINTS}")),
}
_BOOLEANS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
             **dict.fromkeys(("false", "0", "no", "off"), False)}
_NOT_A = {bool: "expected a boolean, got {text!r}",
          int: "bad integer for {key!r}: {text!r}",
          float: "bad number for {key!r}: {text!r}"}


def _typed(table: dict, key: str, text: str, line: int):
    """``text``, the value of ``key`` on ``line``, typed and checked by ``table``."""
    kind, *checks = table[key]
    try:
        value = _BOOLEANS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ScenarioParseError(_NOT_A[kind].format(key=key, text=text), line) from None
    for ok, words in checks:
        if not ok(value):
            raise ScenarioParseError(f"{words}, got {text!r}", line)
    return value


def parse_scenario(path) -> Scenario:
    """Parse and validate a scenario file (see module docstring for format)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    state_blocks: list[tuple[int, dict]] = []
    sweep_blocks: list[tuple[int, dict]] = []
    analysis_block: dict = {}
    analysis_line = 0               # the line of the [analysis] header, once read
    current: dict | None = None
    current_kind = ""

    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("["):
            kind = text.strip("[]").strip().lower()
            if kind == "state":
                current = {}
                state_blocks.append((lineno, current))
            elif kind == "sweep":
                current = {}
                sweep_blocks.append((lineno, current))
            elif kind == "analysis":
                if analysis_line:
                    raise ScenarioParseError(
                        f"repeated [analysis] block (first at line {analysis_line})", lineno)
                current, analysis_line = analysis_block, lineno
            else:
                raise ScenarioParseError(f"unknown block [{kind}]", lineno)
            current_kind = kind
            continue
        if "=" not in text:
            raise ScenarioParseError(f"expected 'key = value', got {text!r}", lineno)
        if current is None:
            raise ScenarioParseError("key outside of any [state]/[sweep]/[analysis] block",
                                     lineno)
        key, value = (part.strip() for part in text.split("=", 1))
        allowed = {"state": EquilibriumState.RECORD_KEYS, "sweep": _SWEEP_KEYS,
                   "analysis": _ANALYSIS_KEYS}[current_kind]
        if key not in allowed:
            raise ScenarioParseError(f"unknown key {key!r} in [{current_kind}] block",
                                     lineno)
        if key in current:
            raise ScenarioParseError(f"repeated key {key!r} in [{current_kind}] block "
                                     f"(first at line {current[key][1]})", lineno)
        current[key] = (value, lineno)

    if not state_blocks:
        raise ScenarioParseError("scenario contains no [state] block")
    if len(sweep_blocks) > 2:
        raise ScenarioParseError("at most 2 swept axes are supported",
                                 sweep_blocks[2][0])

    scenario_warnings = []
    states = []
    for lineno, block in state_blocks:
        try:
            st = EquilibriumState.from_record({k: v for k, (v, _) in block.items()})
        except ValueError as err:
            raise ScenarioParseError(f"bad [state] block: {err}", lineno) from None
        try:
            st, warns = validate_state(st)
        except StateValidationError as err:
            raise ScenarioParseError(f"invalid [state] block: {err}", lineno) from None
        scenario_warnings.extend(f"state at line {lineno}: {w}" for w in warns)
        states.append(st)

    sweeps = []
    n_points = len(states)
    for lineno, block in sweep_blocks:
        def value(key, missing=None):
            if key not in block:
                raise ScenarioParseError(missing or f"missing required key {key!r}", lineno)
            return _typed(_SWEEP_KEYS, key, *block[key])

        parameter = value("parameter", "sweep block needs a 'parameter' key")
        if sweeps and parameter == sweeps[0].parameter:
            first = sweep_blocks[0][1]["parameter"][1]
            raise ScenarioParseError(f"repeated sweep parameter {parameter!r} "
                                     f"(first at line {first})", block["parameter"][1])
        steps = value("steps", "sweep block needs a 'steps' key")
        if steps < 2:
            raise ScenarioParseError("sweep needs steps >= 2", lineno)
        n_points *= steps
        if n_points > MAX_GRID_POINTS:
            raise ScenarioParseError(f"the grid would have {n_points} points; at most "
                                     f"{MAX_GRID_POINTS} are supported", lineno)
        lo, hi = value("min"), value("max")
        if not math.isfinite(hi - lo):
            raise ScenarioParseError("sweep range max - min must be finite", lineno)
        sweeps.append(SweepAxis(parameter, lo, hi, steps))

    analysis = AnalysisOptions()
    for key, (text, line) in analysis_block.items():
        setattr(analysis, key, _typed(_ANALYSIS_KEYS, key, text, line))

    return Scenario(states=states, sweeps=sweeps, analysis=analysis,
                    warnings=scenario_warnings)


# ---------------------------------------------------------------------------
# output helpers


def _json_line(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, separators=(", ", ": ")) + "\n"


def _params(values) -> dict:
    """The record of a state's ``record_values()``."""
    return dict(zip(EquilibriumState.RECORD_KEYS, map(float, values)))


class _Memo(dict):
    """The value of ``of`` at each key looked up, computed on the first lookup."""

    def __init__(self, of):
        self.of = of

    def __missing__(self, key):
        value = self[key] = self.of(key)
        return value


def _cell(c) -> str:
    """A cell other than None as ``csv.writer`` writes it: a string as it is
    and anything else as its str, quoted when it holds a comma, quote or
    newline."""
    text = c if isinstance(c, str) else str(c)
    if '"' in text or "," in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


_OPEN = "\0"    # a cell left open in a row template: no cell of a template is one


def _csv_rows(out: TextIO, columns):
    """Write the versioned CSV header of ``columns``; return the function
    that spells a row, a list of cells in column order, as one line.

    The line reads as ``csv.writer`` writes it (`_cell`; a row of one empty
    cell is ``""``), but the repr of each distinct float is computed once per
    table.  Zeros and NaN are spelled each time (-0.0 == 0.0 would share a
    key, and NaN never matches one).
    """
    out.write("# pvstab-csv v1\n")
    reprs = _Memo(repr)

    def line(row, cell=_cell):
        return (",".join([reprs[c] if type(c) is float and c and c == c
                          else "" if c is None else cell(c) for c in row])
                or ('""' if row else "")) + "\n"

    out.write(line(columns))
    return line


def _checked(scenario: Scenario):
    """Validate and classify the grid block by block, in index order.

    Yields a list per block of (index, swept values, record values, outcome):
    the outcome is the point's `criterion.verdict_values` row, the
    `criterion.threshold_values` row it was decided on and its validation
    warnings, or the PvstabError that rejected the point.  Each block is
    validated as one (`state.check_block`): in a sweep, the record cells
    its inner parameter does not set (`_SWEPT_COLUMNS`) once, the swept
    cells per point, and a rejected point's full record for its message;
    without a sweep, every cell of every point.  When the inner sweep
    parameter leaves the fields fixed (`_fields_fixed`), the valid points
    of a block share one threshold row, evaluated once; otherwise each
    valid point has its own.  A generator, so that a command can write a
    block before the next is built.
    """
    coeff = scenario.analysis.tol_eq
    swept = _SWEPT_COLUMNS[scenario.sweeps[-1].parameter] if scenario.sweeps else None
    shared = swept is not None and _fields_fixed(scenario.sweeps[-1].parameter)
    for block in scenario.grid():
        points, threshold = [], None
        for (index, coords, values), checked in zip(
                block, check_block([values for _, _, values in block], swept)):
            if isinstance(checked, str):
                points.append((index, coords, values, StateValidationError(checked)))
                continue
            if threshold is None or not shared:
                threshold = threshold_values(*values[2:6], coeff)
                f_min, _, _, degenerate, tol_eq = threshold
            points.append((index, coords, values, (
                verdict_values(*values[:7], f_min, degenerate, tol_eq), threshold, checked)))
        yield points


def _valid_states(points) -> list[EquilibriumState]:
    return [EquilibriumState.from_values(*values) for _, _, values, outcome in points
            if not isinstance(outcome, PvstabError)]


def _status(n_points: int, n_failed: int) -> int:
    """Exit code of a grid command: 3 when every point failed, else 0."""
    return 3 if n_points and n_failed == n_points else 0


# ---------------------------------------------------------------------------
# commands


def cmd_classify(scenario: Scenario, out: TextIO) -> int:
    names = [axis.parameter for axis in scenario.sweeps]
    n_points = n_failed = 0
    for points in _checked(scenario):
        lines = []
        for index, coords, values, outcome in points:
            if isinstance(outcome, PvstabError):
                rec = {"index": index, "error": str(outcome)}
                n_failed += 1
            else:
                part, threshold, warns = outcome
                rec = {"index": index, **dict(zip(names, coords)), **_params(values),
                       **criterion.Classification.from_parts(part, threshold).to_record(),
                       "warnings": warns}
            lines.append(_json_line(rec))
        out.write("".join(lines))
        n_points += len(points)
    return _status(n_points, n_failed)


def cmd_roots(scenario: Scenario, out: TextIO) -> int:
    # per direction a row per located root, or one without: the cells of
    # `_csv_rows`, from a segment per direction and a tail per half-disk
    analysis = scenario.analysis
    _csv_rows(out, ["index", "omega2", "omega3", "winding", "re_s", "im_s", "abs_L", "delta",
                    "R", "contour_points", "error", "flags", "certificate"])
    points = [point for block in _checked(scenario) for point in block]
    valid = _valid_states(points)
    scans = scan_states(valid, analysis.n_dirs, analysis.delta)
    tails = _Memo(lambda region: f"{region[0]!r},{region[1]!r},,,,inclusion\n")
    rows: list[str] = []
    segments: list[str] = []    # "omega2,omega3," of the equispaced directions
    for index, _, _, outcome in points:
        if isinstance(outcome, PvstabError):
            rows.append(f"{index},,,,,,,,,,{_cell(str(outcome))},,\n")
            continue
        scan = next(scans)
        segments = segments or [f"{d.omega2!r},{d.omega3!r}," for d in scan.directions[:-2]]
        for seg, (p, flip) in zip(segments + [f"{d.omega2!r},{d.omega3!r},"
                                              for d in scan.directions[-2:]], scan.fold):
            head, count = f"{index},{seg}", scan.count[p]
            if count is None:
                rows.append(f"{head},,,,,,,{_cell(scan.error[p])},,\n")
            elif scan.located[p] is None:
                rows.append(f"{head}{count},,,,{tails[scan.delta[p], scan.radius[p]]}")
            else:
                roots, residuals, flags = scan.found(p, flip)
                tail = (f"{scan.delta[p]!r},{scan.radius[p]!r},,,{_cell('; '.join(flags))},"
                        "inclusion\n")
                rows += [f"{head}{count},{z.real!r},{z.imag!r},{res!r},{tail}"
                         for z, res in zip(roots, residuals)] or [f"{head}{count},,,,{tail}"]
    out.write("".join(rows))
    return _status(len(points), len(points) - len(valid))


def _expected_growth(state: EquilibriumState, cls):
    """Leading-order growth rate and the direction carrying it.

    Above the threshold the growing root sits at sqrt(margin) along the
    F-minimizer.  On the critical set it opens at sqrt(2 eps P), where
    P = E1 w_perp (v'.omega') > 0 is the sign product at the F-minimizer or,
    when F is constant and every direction minimizes it, the largest P over
    all directions (`criterion.degenerate_transitional`).
    """
    if cls.margin > cls.tol_eq:
        return math.sqrt(cls.margin), cls.minimizer
    if cls.degenerate:
        g, direction = criterion.degenerate_transitional(state)
        product = 2.0 * g
    else:
        direction = cls.minimizer
        bundle = frequency_bundle(state, direction)
        product = 2.0 * state.E1_hat * bundle.w_perp * bundle.v_dot
    return math.sqrt(max(product, 0.0) * state.eps), direction


def cmd_modes(scenario: Scenario, out: TextIO) -> int:
    analysis = scenario.analysis
    # per point to report, in index order: the error that rejected it, or the
    # state, classification and delta, and the position of the direction to
    # locate among the located pairs (None where no growth is expected)
    jobs: list[tuple[int, PvstabError | tuple]] = []
    states, directions, deltas = [], [], []     # the pairs to locate
    n_points = 0
    for points in _checked(scenario):
        n_points += len(points)
        for index, _, values, outcome in points:
            if isinstance(outcome, PvstabError):
                jobs.append((index, outcome))
                continue
            part, threshold, _ = outcome
            if not part[0].is_unstable:
                continue
            state = EquilibriumState.from_values(*values)
            cls = criterion.Classification.from_parts(part, threshold)
            expected, direction = _expected_growth(state, cls)
            delta = default_delta(state, analysis.delta)
            p = None
            if expected > 0.0:
                delta, p = min(delta, 0.3 * expected), len(states)
                states.append(state)
                directions.append(direction)
                deltas.append(delta)
            jobs.append((index, (state, cls, delta, p)))
    counts = locate_roots(states, directions, deltas)
    # per job: an error, a note, or the flags of the root whose modes to build
    outcomes, found = [], []
    for index, job in jobs:
        if isinstance(job, PvstabError):
            outcomes.append((index, job))
            continue
        state, cls, delta, p = job
        located = None if p is None else counts.located[p]
        if p is not None and counts.count[p] is None:
            outcomes.append((index, PvstabError(counts.error[p])))
        elif located and located[0]:
            roots, _, flags = located
            found.append((state, max(roots, key=lambda z: z.real), counts.directions[p]))
            outcomes.append((index, flags))
        else:
            # no root in the direction of growth: undecidable inside the band
            band = margin_band(state, cls.tol_eq, delta)
            text = (f"no root located in the direction of growth; margin "
                    f"{cls.margin:.6g}, band {band:.6g}")
            outcomes.append((index, text if abs(cls.margin) <= band else PvstabError(text)))
    built = mode_records(found, _MODE_N, _MODE_T, analysis.decay_p)
    n_failed = n_written = 0     # error rows; mode records and notes
    for index, outcome in outcomes:
        if isinstance(outcome, tuple):      # the flags of a root
            flags, outcome = outcome, next(built)
            if not isinstance(outcome, PvstabError):
                extra = {"flags": list(flags)} if flags else {}
                out.writelines(_json_line({"index": index, **rec, **extra}) for rec in outcome)
                n_written += len(outcome)
                continue
        if isinstance(outcome, PvstabError):
            out.write(_json_line({"index": index, "error": str(outcome)}))
            n_failed += 1
        else:
            out.write(_json_line({"index": index, "note": outcome}))
            n_written += 1
    if not n_written:
        out.write(_json_line({"note": "no unstable state/direction found; "
                                      "no modes to dump"}))
    return _status(n_points, n_failed)


def cmd_sweep(scenario: Scenario, out: TextIO) -> int:
    if not scenario.sweeps:
        raise ScenarioParseError("sweep command requires a [sweep] block")
    columns = (["index"] + [f"sweep_{ax.parameter}" for ax in scenario.sweeps]
               + list(EquilibriumState.RECORD_KEYS) + list(criterion.RECORD_KEYS)
               + ["numeric_unstable", "max_re_s", "agreement", "error"])
    line = _csv_rows(out, columns)
    cross_check = scenario.analysis.cross_check
    blocks = _checked(scenario)
    if cross_check:
        blocks = list(blocks)
        points = [point for block in blocks for point in block]
        verdicts = judge_verdicts(_valid_states(points), [
            criterion.Classification.from_parts(*outcome[:2]) for _, _, _, outcome in points
            if not isinstance(outcome, PvstabError)], scenario.analysis)
    # A block's valid rows are spelled from one template: its first valid
    # row with the cells below left open.  Each row fills in its index, the
    # inner coordinate, the record cells the inner parameter sets, verdict,
    # margin and G, the other criterion cells when the fields move, and the
    # cross_check/error tail; every other cell is the block's.
    inner = scenario.sweeps[-1].parameter
    n = len(scenario.sweeps)
    crit = n + 10                   # the column of the verdict
    i = _SWEPT_COLUMNS[inner][0]
    own = {0, n, *(n + 1 + c for c in _SWEPT_COLUMNS[inner]), crit, crit + 1, crit + 5}
    fixed = _fields_fixed(inner)
    if not fixed:
        own |= {crit + 2, crit + 3, crit + 4, crit + 6}
    tail = [_OPEN] if cross_check else [None] * 4
    reprs = _Memo(repr)
    n_points = n_failed = 0
    for points in blocks:
        rows, template = [], None
        for index, coords, values, outcome in points:
            if isinstance(outcome, PvstabError):
                rows.append(line([index, *coords, *values, *[None] * 10, str(outcome)]))
                n_failed += 1
                continue
            (verdict, margin, G), threshold, _ = outcome
            if template is None:
                cells = [index, *coords, *values, verdict, margin, *threshold[:3], G,
                         threshold[3]]
                template = line([_OPEN if k in own else c for k, c in enumerate(cells)]
                                + tail).replace("%", "%%").replace(_OPEN, "%s")
            x = coords[-1]
            x = reprs[x] if x and x == x else repr(x)
            g = "" if G is None else repr(G)
            if fixed:       # the inner record cell is the coordinate
                cells = (index, x, x, verdict._value_, repr(margin), g)
            else:
                f_min, w2, w3, degenerate, _ = threshold
                cells = (index, x, repr(values[i]), repr(values[i + 1]), verdict._value_,
                         repr(margin), repr(f_min), repr(w2), repr(w3), g, str(degenerate))
            if cross_check:
                checked, error = next(verdicts), None
                if isinstance(checked, PvstabError):
                    checked, error = (None, None, None), str(checked)
                    n_failed += 1
                else:
                    summary, agree = checked    # agree None (empty cell): undecided
                    checked = summary.numerically_unstable, summary.max_re_s, agree
                cells += (line([*checked, error])[:-1],)
            rows.append(template % cells)
        out.write("".join(rows))
        n_points += len(points)
    return _status(n_points, n_failed)


def margin_band(state: EquilibriumState, tol_eq: float, delta: float) -> float:
    """Half-width of the margin interval not decidable numerically at fixed eps.

    The classification criterion is asymptotic (valid for eps below a
    state-dependent ceiling), while the root count runs at the state's
    actual eps on the scan's half-disk Re s >= delta.  Near the critical set
    the finite-eps root shifts by O(eps * E1 * |Hv'| * (1 + |v'|)) in the
    squared growth rate, and roots with Re s <= delta are undetectable, so
    agreement can only be asserted outside the band below.
    """
    e1, hv, vm = abs(state.E1_hat), math.sqrt(state.Hv_sq), math.sqrt(state.v_sq)
    a = 2.0 * state.eps * e1 * hv * vm + (state.eps * e1 * hv) ** 2
    smax = e1 + vm
    b = (state.eps * smax) ** 2 * (state.Hv_sq + 0.5 * (smax ** 2 + state.H_sq))
    return 10.0 * tol_eq + 2.5 * (a + b) + 9.0 * delta ** 2


def judge_verdicts(states: list[EquilibriumState],
                   classes: list[criterion.Classification],
                   analysis: AnalysisOptions):
    """Scan the states as one batch and judge each closed-form verdict.

    Yields, per state in order, the scan and the agreement: whether the
    verdict ``classes[j]`` is unstable exactly when some direction has a
    right-half-plane root, or None inside `margin_band`, where the numerics
    cannot decide.  A scan in which any direction failed yields, in place of
    the pair, a PvstabError naming how many failed and the first failure.
    """
    for st, cls, scan in zip(states, classes,
                             scan_states(states, analysis.n_dirs, analysis.delta)):
        errors = scan.errors
        if errors:
            yield PvstabError(f"{len(errors)} direction(s) failed: {errors[0]}")
        elif abs(cls.margin) <= margin_band(st, cls.tol_eq, default_delta(st, analysis.delta)):
            yield scan, None
        else:
            yield scan, cls.verdict.is_unstable == scan.numerically_unstable


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


def cmd_validate(scenario: Scenario, out: TextIO, seed: int = 0) -> int:
    """Criterion-versus-numerics gate on random margin-filtered states.

    Draws states until ``analysis.sample`` of them fall outside the margin
    band, scans each for right-half-plane roots, and requires the numeric
    verdict (a root counted in some direction) to agree with the closed-form
    verdict on every one.  The draws are validated and classified as the
    points of every other command are (`_checked`), in rounds of the
    shortfall, so that no state is drawn past the last one accepted.  Band
    states are counted but not judged; a drawn state that validation
    rejects, and a root-finder failure, is an error record, reported
    separately and excluded from the denominator.
    """
    analysis = scenario.analysis
    rng = np.random.default_rng(seed)
    target = analysis.sample
    # per accepted state: (state, classification, band), or (state, the error
    # that rejected it, None)
    accepted = []
    n_band = attempts = 0
    max_attempts = 1000 * max(target, 1)
    while len(accepted) < target and attempts < max_attempts:
        drawn = [sample_validation_state(rng)
                 for _ in range(min(target - len(accepted), max_attempts - attempts))]
        attempts += len(drawn)
        for points in _checked(Scenario(drawn, analysis=analysis)):
            for index, _, _, outcome in points:
                st = drawn[index]
                if isinstance(outcome, PvstabError):
                    accepted.append((st, outcome, None))
                    continue
                cls = criterion.Classification.from_parts(*outcome[:2])
                band = margin_band(st, cls.tol_eq, default_delta(st, analysis.delta))
                if abs(cls.margin) <= band:
                    n_band += 1
                else:
                    accepted.append((st, cls, band))

    def record_of(index, st, cls, band, verdict):
        rec = {"index": index, **_params(st.record_values())}
        if band is not None:    # else validation rejected the state: verdict is cls
            rec.update(verdict=cls.verdict._value_, margin=cls.margin, band=band)
        if isinstance(verdict, PvstabError):
            rec["error"] = str(verdict)
            return rec
        summary, agree = verdict
        rec["numeric_unstable"] = summary.numerically_unstable
        rec["max_re_s"] = summary.max_re_s
        rec["agree"] = agree    # never None: band states were set aside
        flags = [f"({d.omega2:.6g}, {d.omega3:.6g}): {flag}"
                 for d, (p, _) in zip(summary.directions, summary.fold) if summary.located[p]
                 for flag in summary.located[p][2]]
        if flags:
            rec["flags"] = flags
        return rec

    valid = [(st, cls) for st, cls, band in accepted if band is not None]
    verdicts = judge_verdicts([st for st, _ in valid], [cls for _, cls in valid], analysis)
    records = [record_of(index, st, cls, band, cls if band is None else next(verdicts))
               for index, (st, cls, band) in enumerate(accepted)]
    n_failed = sum(1 for r in records if "error" in r)
    judged = [r for r in records if "agree" in r]
    n_disagree = sum(1 for r in records if r.get("agree") is False)
    agreement = 1.0 if not judged else 1.0 - n_disagree / len(judged)
    for rec in records:
        out.write(_json_line(rec))
    out.write(_json_line({"summary": {
        "sampled": attempts, "band": n_band, "checked": len(judged),
        "root_finder_failures": n_failed, "disagreements": n_disagree,
        "agreement": agreement, "seed": seed}}))
    return 0 if n_disagree == 0 and judged else (2 if n_disagree else 3)


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # exit 1, not argparse's 2: that is the gate's code
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_COMMANDS = {"classify": cmd_classify, "roots": cmd_roots, "modes": cmd_modes,
             "sweep": cmd_sweep, "validate": cmd_validate}
_PARSER = _Parser(prog="pvstab",
                  description="Stability analysis of planar plasma-vacuum interfaces "
                              "with a nonzero vacuum displacement current.")
_PARSER.add_argument("command", choices=_COMMANDS)
_PARSER.add_argument("scenario", help="scenario file path")
_PARSER.add_argument("--out", default="-",
                     help="output path ('-' for stdout, the default)")
_PARSER.add_argument("--seed", type=int, default=0,
                     help="RNG seed for validate sampling")
_PARSER.add_argument("--jobs", type=int, default=1,
                     help="accepted for compatibility and ignored; "
                          "every command runs serially")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.seed < 0:
        _PARSER.error(f"argument --seed: must be non-negative, got {args.seed}")

    out = io.StringIO()     # written out once the command has succeeded
    try:
        scenario = parse_scenario(args.scenario)
        for warning in scenario.warnings:
            print(f"pvstab: warning: {warning}", file=sys.stderr)
        code = (cmd_validate(scenario, out, args.seed) if args.command == "validate"
                else _COMMANDS[args.command](scenario, out))
        if args.out == "-":
            sys.stdout.write(out.getvalue())
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out.getvalue())
    except (OSError, ScenarioParseError) as err:
        print(f"pvstab: {err}", file=sys.stderr)
        return 1
    except PvstabError as err:    # the numerical errors derive from it
        print(f"pvstab: numerical failure: {err}", file=sys.stderr)
        return 3
    return code
