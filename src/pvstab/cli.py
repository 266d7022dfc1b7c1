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

A header of any kind opens a block of that kind, and `_BLOCK_KEYS` names
the keys each kind takes.  The grid is generated as it is read, in blocks
of at most BLOCK_POINTS points (`Scenario.grid`).  A block is columns, not
rows: the record its points share and a list of plain floats per record
cell its inner parameter sets (`_SWEPT_COLUMNS`; every cell in a run of
states).  Each block is validated and classified a column at a pass
(`_checked`), and a point that fails becomes one error row; rows are
written in index order.  A point's full record is built only where it is
read: an error row, a ``classify`` record, a state to scan.  ``classify``
and ``sweep`` write the rows of a block as one string before they build
the next, so they hold at most one block; ``sweep`` with ``cross_check``
judges its valid points as one stream, which the scan reads a batch at a
time, and a block takes its judgements as it is written, so it holds at
most a batch and a block of points (the blocks a batch reads ahead).  CSV
cells are spelled as ``csv.writer`` does (`_csv_rows`).  ``sweep`` spells
a block's valid rows from one template, the cells they share, named by
column, split into literal pieces at the cells a row has of its own: each
row joins those pieces with its own cells, spelled from the block's
columns.
``roots`` spells its rows from a segment per direction and a tail per
half-disk.  A command writes strings to any object with ``write`` and
``writelines``; `main` holds them as written, one copy of the output
(about 230 bytes a sweep row), and writes them out with one ``writelines``
once the command has succeeded, so that a failed run writes nothing.
``roots`` and ``modes`` run the valid points as one batch
(``dispersion.scan_states``, and ``locate_roots`` on one (state,
direction) pair per unstable point), and ``sweep`` with ``cross_check``
its stream of valid points; each gives a scan a delta and never a region,
and reads the lists of a ``StateCounts``, an item per direction, side by
side.  ``validate`` sends its draws through `_checked` too and classifies,
bands and records each one once as it is drawn.  Which answers can be
compared, and how they are judged, is `agreement`'s.
A state with a component or E1 beyond ``state.MAX_MAGNITUDE`` in magnitude
is invalid.

Outputs are JSON lines (classify, modes, validate) or versioned CSV
(roots, sweep); identical scenarios produce byte-identical files.  Exit
codes: 0 success, 1 usage, I/O or parse failure, 2 validation-gate failure,
3 internal numerical failure (for a grid command: every point failed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, repeat, tee
from typing import Iterator, TextIO

from . import agreement, criterion, dispersion, modes
from ._lazy import numpy as np
from .criterion import TOL_EQ_COEFF, threshold_values, verdict_values
from .errors import PvstabError, ScenarioParseError, StateValidationError
from .state import (DECAY_P, MAX_MAGNITUDE, MAX_N_DIRS, MIN_N_DIRS, N_DIRS, EquilibriumState,
                    block_values, check_block, validate_state)

# the record columns (of `EquilibriumState.RECORD_KEYS`) each sweep parameter
# sets: the swept value itself for a single column, else a field's two
# components
_SWEPT_COLUMNS = {"E1": (6,), "angle_alpha": (4, 5), "H_mag": (2, 3), "Hv_mag": (4, 5),
                  "v2": (0,), "v3": (1,), "eps": (7,)}
SWEEP_PARAMETERS = tuple(_SWEPT_COLUMNS)

BLOCK_POINTS = 1024             # grid points validated, classified and written at a time
# Largest number of points a grid may have, and of states validate may
# judge: the output is held, once, as the chunks a command writes, until the
# run succeeds; about 230 bytes a sweep row, so 2.3 GB for a grid this size.
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
    tol_eq: float = TOL_EQ_COEFF    # relative coefficient, scaled per state
    n_dirs: int = N_DIRS
    delta: float | None = None      # counting-region delta override (absolute)
    decay_p: float = DECAY_P
    cross_check: bool = False
    sample: int = 200


@dataclass(slots=True)
class Block:
    """A run of grid points that differ only in the record columns ``swept``
    (`_SWEPT_COLUMNS` of the inner sweep parameter; all nine for a run of
    states): the record values ``record`` they share (its swept cells are no
    point's), and the cells of each swept column, a list per column of
    ``swept`` in its order.  A point's record is built where it is read."""
    start: int                  # the index of the first point
    outer: tuple                # the outer axis coordinate the points share, if any
    inner: list | None          # each point's inner axis coordinate (None: no sweep)
    record: tuple
    swept: tuple[int, ...]
    columns: list[list]

    def __len__(self) -> int:
        return len(self.columns[0])

    def column(self, c: int) -> list:
        """The cells of record column ``c``, one per point."""
        return (self.columns[self.swept.index(c)] if c in self.swept
                else [self.record[c]] * len(self))

    def values(self, k: int) -> tuple:
        """The record values of the k-th point."""
        return block_values(self.record, self.swept, self.columns, k)

    def points(self, *lists) -> Iterator[tuple]:
        """Per point: its index, sweep coordinates and record values, then its
        item of each of ``lists``."""
        coords = (repeat((), len(self)) if self.inner is None
                  else ((*self.outer, x) for x in self.inner))
        return zip(count(self.start), coords, zip(*map(self.column, range(9))), *lists)


@dataclass
class Scenario:
    states: list[EquilibriumState]
    sweeps: list[SweepAxis] = field(default_factory=list)
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    warnings: list[str] = field(default_factory=list)

    def grid(self) -> Iterator[Block]:
        """States crossed with the sweep grid (identity when no sweep), as
        `Block`s of at most BLOCK_POINTS points of plain floats.

        A generator, in index order: the last axis varies fastest, and each
        axis level applies its parameter to every point of the level above.
        A block is a run of the innermost axis, with a column per record
        cell its parameter sets (`_swept`), or of consecutive states when
        there is no sweep, with all nine columns.
        """
        if not self.sweeps:
            for lo in range(0, len(self.states), BLOCK_POINTS):
                records = [st.record_values() for st in self.states[lo:lo + BLOCK_POINTS]]
                yield Block(lo, (), None, records[0], tuple(range(9)),
                            [list(map(float, column)) for column in zip(*records)])
            return
        *outer, inner = self.sweeps
        inner_values = inner.values()
        swept = _SWEPT_COLUMNS[inner.parameter]
        start = 0
        for st in self.states:
            base = st.record_values()
            bases = [((), base)]
            if outer:       # one record per point of the outer axis
                name = outer[0].parameter
                bases = (((v,), block_values(base, _SWEPT_COLUMNS[name],
                                             _swept(base, name, [v]), 0))
                         for v in outer[0].values())
            for coords, record in bases:
                for lo in range(0, len(inner_values), BLOCK_POINTS):
                    values = inner_values[lo:lo + BLOCK_POINTS]
                    yield Block(start, coords, values, record, swept,
                                _swept(record, inner.parameter, values))
                    start += len(values)


def _swept(record: tuple, name: str, values: list[float]) -> list[list[float]]:
    """The record columns `_SWEPT_COLUMNS[name]`, in that order, of the
    states with record values ``record`` and swept parameter ``name`` set to
    each value of ``values``, for both axis levels of a grid.

    ``H_mag``/``Hv_mag`` rescale the field keeping its direction (a zero
    field is given direction (1, 0)); ``angle_alpha`` rotates Hv' to the
    angle alpha measured from H', keeping |Hv'|.
    """
    i, *pair = _SWEPT_COLUMNS[name]
    if not pair:
        return [values]
    if name == "angle_alpha":
        _, _, H2, H3, Hv2, Hv3, *_ = record
        angle, mag = math.atan2(H3, H2), math.sqrt(Hv2 ** 2 + Hv3 ** 2)
        thetas = [angle + v for v in values]
        return [[mag * math.cos(theta) for theta in thetas],
                [mag * math.sin(theta) for theta in thetas]]
    a, b = record[i], record[i + 1]     # H_mag, Hv_mag
    h = math.sqrt(a ** 2 + b ** 2)
    u = (a / h, b / h) if h > 0 else (1.0, 0.0)
    return [[v * u[0] for v in values], [v * u[1] for v in values]]


def _fields_fixed(swept: tuple[int, ...]) -> bool:
    """Whether points that differ only in the record columns ``swept`` share
    H' and Hv', and so the criterion's threshold (`criterion.threshold_values`)."""
    return not {2, 3, 4, 5} & set(swept)


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
# the keys each kind of block takes
_BLOCK_KEYS = {"state": EquilibriumState.RECORD_KEYS, "sweep": _SWEEP_KEYS,
               "analysis": _ANALYSIS_KEYS}
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

    # per kind, (header line, {key: (text, line)}) per block
    blocks: dict[str, list[tuple[int, dict]]] = {kind: [] for kind in _BLOCK_KEYS}
    current: dict | None = None

    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("["):
            # "[", a name without brackets, "]"; the name's case and
            # surrounding spaces are free
            name = text[1:-1]
            if not text.endswith("]") or "[" in name or "]" in name:
                raise ScenarioParseError(f"malformed block header {text!r}", lineno)
            kind = name.strip().lower()
            if kind not in _BLOCK_KEYS:
                raise ScenarioParseError(f"unknown block [{kind}]", lineno)
            if kind == "analysis" and blocks[kind]:
                raise ScenarioParseError(f"repeated [analysis] block (first at line "
                                         f"{blocks[kind][0][0]})", lineno)
            current = {}
            blocks[kind].append((lineno, current))
            continue
        if "=" not in text:
            raise ScenarioParseError(f"expected 'key = value', got {text!r}", lineno)
        if current is None:
            raise ScenarioParseError("key outside of any [state]/[sweep]/[analysis] block",
                                     lineno)
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _BLOCK_KEYS[kind]:
            raise ScenarioParseError(f"unknown key {key!r} in [{kind}] block", lineno)
        if key in current:
            raise ScenarioParseError(f"repeated key {key!r} in [{kind}] block "
                                     f"(first at line {current[key][1]})", lineno)
        current[key] = (value, lineno)

    state_blocks, sweep_blocks = blocks["state"], blocks["sweep"]
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
    for _, block in blocks["analysis"]:
        for key, (text, line) in block.items():
            setattr(analysis, key, _typed(_ANALYSIS_KEYS, key, text, line))

    return Scenario(states=states, sweeps=sweeps, analysis=analysis,
                    warnings=scenario_warnings)


# ---------------------------------------------------------------------------
# output helpers


def _json_line(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, separators=(", ", ": ")) + "\n"


_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
_SLOT, _FLOAT = "\0", "\1"     # cells of a template record (`_template`)


def _json_float(x: float) -> str:
    """``x`` as `_json_line` spells it."""
    r = float.__repr__(x)
    return _JSON_NONFINITE.get(r, r)


class _JsonFloat(float):
    """A float that ``%r`` spells as `_json_line` does, NaN and infinities too."""

    __repr__ = _json_float


def _template(record: dict) -> str:
    """``_json_line(record)`` as a ``%``-template: a ``%s`` slot per _SLOT
    cell, a ``%r`` slot (a finite float) per _FLOAT cell."""
    return (_json_line(record).replace("%", "%%").replace('"\\u0000"', "%s")
            .replace('"\\u0001"', "%r"))


def _mode_templates(ns, t_list, decay_p) -> list[str]:
    """Per n of ``ns``, the template of a `modes` record: the index, the
    keys of `ModeSolution.to_record`, "residuals", "growth" and, if any, the
    flags.  Its slots take the index, the s, lambda_minus and omega parts,
    the 26 amplitude parts, the warnings, the residuals, the scale, per time
    of ``t_list`` the initial norm, ratio and log_ratio, and the flags piece."""
    pair = (_SLOT, _SLOT)
    residuals = {**dict.fromkeys(modes.RESIDUAL_KEYS, _FLOAT), "scale": _SLOT}
    growth = [dict(t=t, initial_norm=_SLOT, ratio=_FLOAT, log_ratio=_FLOAT) for t in t_list]
    return [_template({"index": _SLOT, "n": n, "s": pair, "lambda_plus": -1.0,
                       "lambda_minus": pair, "omega": pair, "phi_bar": (phi, 0.0),
                       "plasma_amp": [(_FLOAT, _FLOAT)] * 7,
                       "vacuum_amp": [(_FLOAT, _FLOAT)] * 6, "warnings": _SLOT,
                       "residuals": residuals, "growth": growth}
                      ).removesuffix("}\n") + "%s}\n"
            for n, phi in zip(ns, modes.phi_bars(ns, decay_p))]


def _mode_lines(templates, index, job, rows, flags) -> str:
    """The `modes` records of one job of `modes.mode_records`, each float
    spelled once: the job's s, lambda_minus and omega once for its records,
    and a record's initial norm once for its times and its scale."""
    s, lam, direction, warnings = job
    head = (index, *map(_json_float, (s.real, s.imag, lam.real, lam.imag,
                                      direction.omega2, direction.omega3)))
    warned = json.dumps(list(warnings), ensure_ascii=False)
    flagged = f', "flags": {json.dumps(list(flags), ensure_ascii=False)}' if flags else ""
    lines = []
    for template, (amps, res, amp, growth) in zip(templates, rows):
        if not math.isfinite(sum(amps) + sum(res) + sum(growth)):
            amps, res, growth = ([x if math.isfinite(x) else _JsonFloat(x) for x in row]
                                 for row in (amps, res, growth))
        norm = _json_float(amp)
        lines.append(template % (
            *head, *amps, warned, *res[:7], norm if res[7] == amp else _json_float(res[7]),
            *[c for ratio, log in zip(growth[::2], growth[1::2]) for c in (norm, ratio, log)],
            flagged))
    return "".join(lines)


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
    cell is ``""``).
    """
    out.write("# pvstab-csv v1\n")

    def line(row, cell=_cell):
        return (",".join(["" if c is None else cell(c) for c in row])
                or ('""' if row else "")) + "\n"

    out.write(line(columns))
    return line


def _checked(scenario: Scenario):
    """Validate and classify the grid block by block, in index order.

    Yields per `Block` the block and five lists, an item per point: the
    message that rejects the point or its warnings (`state.check_block`:
    the block's shared cells once, then each swept column in one pass), and,
    None for a rejected point, its verdict, margin and G and the
    `criterion.threshold_values` row they were decided on.  When the swept
    columns leave the fields fixed (`_fields_fixed`), the valid points of a
    block share one threshold row, evaluated once; otherwise each has its
    own.  Their verdicts take one pass over the E1^2 values that
    `check_block` squared (`criterion.verdict_values`).  A generator, so
    that a command can write a block before the next is built.
    """
    coeff = scenario.analysis.tol_eq
    for block in scenario.grid():
        checks, rejected, e1sq = check_block(block.record, block.swept, block.columns)
        n = len(checks)
        valid = [k for k, c in enumerate(checks) if type(c) is list] if rejected else range(n)
        if _fields_fixed(block.swept):
            thresholds = [threshold_values(*block.record[2:6], coeff)] * len(valid) if valid else []
        else:
            fields = list(zip(*map(block.column, (2, 3, 4, 5))))
            thresholds = [threshold_values(*fields[k], coeff) for k in valid]
        parts = (*verdict_values(
            [e1sq[k] for k in valid] if rejected else e1sq, thresholds,
            lambda j: EquilibriumState.from_values(*block.values(valid[j]))), thresholds)
        if rejected:    # None at the rejected points
            at = dict(zip(valid, range(n)))
            parts = [[part[at[k]] if k in at else None for k in range(n)] for part in parts]
        yield block, checks, *parts


def _status(n_points: int, n_failed: int) -> int:
    """Exit code of a grid command: 3 when every point failed, else 0."""
    return 3 if n_points and n_failed == n_points else 0


# ---------------------------------------------------------------------------
# commands


def cmd_classify(scenario: Scenario, out: TextIO) -> int:
    names = [axis.parameter for axis in scenario.sweeps]
    n_points = n_failed = 0
    for block, *lists in _checked(scenario):
        lines = []
        for index, coords, values, check, *part in block.points(*lists):
            if part[0] is None:
                rec = {"index": index, "error": check}
                n_failed += 1
            else:
                rec = {"index": index, **dict(zip(names, coords)), **_params(values),
                       **criterion.Classification.from_parts(*part).to_record(),
                       "warnings": check}
            lines.append(_json_line(rec))
        out.write("".join(lines))
        n_points += len(block)
    return _status(n_points, n_failed)


def cmd_roots(scenario: Scenario, out: TextIO) -> int:
    # per direction a row per located root, or one without: the cells of
    # `_csv_rows`, from a segment per direction and a tail per half-disk
    analysis = scenario.analysis
    _csv_rows(out, ["index", "omega2", "omega3", "winding", "re_s", "im_s", "abs_L", "delta",
                    "R", "contour_points", "error", "flags", "certificate"])
    # per point, the message that rejects it or its state
    points = [(index, check if verdict is None else EquilibriumState.from_values(*values))
              for block, *lists in _checked(scenario)
              for index, _, values, check, verdict, *_ in block.points(*lists)]
    valid = [st for _, st in points if not isinstance(st, str)]
    scans = dispersion.scan_states(valid, analysis.n_dirs, analysis.delta)
    tails = _Memo(lambda region: f"{region[0]!r},{region[1]!r},,,,inclusion\n")
    rows: list[str] = []
    segments: list[str] = []    # "omega2,omega3," of the equispaced directions
    for index, point in points:
        if isinstance(point, str):
            rows.append(f"{index},,,,,,,,,,{_cell(point)},,\n")
            continue
        scan = next(scans)
        segments = segments or [f"{d.omega2!r},{d.omega3!r}," for d in scan.directions[:-2]]
        for seg, count, delta, radius, error, located in zip(
                segments + [f"{d.omega2!r},{d.omega3!r}," for d in scan.directions[-2:]],
                scan.count, scan.delta, scan.radius, scan.error, scan.located):
            head = f"{index},{seg}"
            if count is None:
                rows.append(f"{head},,,,,,,{_cell(error)},,\n")
            elif located is None:
                rows.append(f"{head}{count},,,,{tails[delta, radius]}")
            else:
                roots, residuals, flags = located
                tail = f"{delta!r},{radius!r},,,{_cell('; '.join(flags))},inclusion\n"
                rows += [f"{head}{count},{z.real!r},{z.imag!r},{res!r},{tail}"
                         for z, res in zip(roots, residuals)] or [f"{head}{count},,,,{tail}"]
    out.writelines(rows)
    return _status(len(points), len(points) - len(valid))


def cmd_modes(scenario: Scenario, out: TextIO) -> int:
    analysis = scenario.analysis
    # per point to report, in index order: its JSON lines, None while its
    # mode job is routed (`agreement.mode_jobs`)
    rows: list[str | None] = []
    waiting, unstable = [], []      # per unstable point: its row and index, and (state, cls)
    n_points = n_failed = 0

    def error(index, text):
        nonlocal n_failed
        n_failed += 1
        return _json_line({"index": index, "error": text})

    for block, *lists in _checked(scenario):
        n_points += len(block)
        for index, _, values, check, *part in block.points(*lists):
            if part[0] is None:
                rows.append(error(index, check))
            elif part[0].is_unstable:
                waiting.append((len(rows), index))
                rows.append(None)
                unstable.append((EquilibriumState.from_values(*values),
                                 criterion.Classification.from_parts(*part)))
    jobs, growing = [], []      # per located root: its job, and its row and flags
    for (k, index), route in zip(waiting, agreement.mode_jobs(unstable, analysis.delta)):
        if isinstance(route, PvstabError):
            rows[k] = error(index, str(route))
        elif isinstance(route, str):    # no root located, inside the band
            rows[k] = _json_line({"index": index, "note": route})
        else:
            job, flags = route
            jobs.append(job)
            growing.append((k, index, flags))
    templates = _mode_templates(_MODE_N, _MODE_T, analysis.decay_p)
    for (k, index, flags), built in zip(growing, modes.mode_records(
            jobs, _MODE_N, _MODE_T, analysis.decay_p)):
        rows[k] = (error(index, str(built)) if isinstance(built, PvstabError) else
                   _mode_lines(templates, index, *built, flags))
    out.writelines(rows)
    if n_failed == len(rows):
        out.write(_json_line({"note": "no unstable state/direction found; "
                                      "no modes to dump"}))
    return _status(n_points, n_failed)


def cmd_sweep(scenario: Scenario, out: TextIO) -> int:
    if not scenario.sweeps:
        raise ScenarioParseError("sweep command requires a [sweep] block")
    analysis, inner = scenario.analysis, scenario.sweeps[-1]
    record_keys, coordinate = EquilibriumState.RECORD_KEYS, f"sweep_{inner.parameter}"
    outer = [f"sweep_{ax.parameter}" for ax in scenario.sweeps[:-1]]
    tail = ["numeric_unstable", "max_re_s", "agreement", "error"]
    columns = ["index", *outer, coordinate, *record_keys, *criterion.RECORD_KEYS, *tail]
    line = _csv_rows(out, columns)
    # A block's valid rows are spelled from one template: a row of the cells
    # they share, named by column, split into its literal pieces at the cells
    # each row has of its own (`own`, in column order).  Each row joins those
    # pieces with its own cells, spelled a column at a time from the block's
    # columns.
    swept = _SWEPT_COLUMNS[inner.parameter]
    fixed = _fields_fixed(swept)    # else the criterion cells of the fields move too
    keys = [record_keys[c] for c in swept]
    moving = ("f_min", "omega_star_2", "omega_star_3", "degenerate_flag")  # of a threshold row
    own = {"index", coordinate, *keys, "verdict", "margin", "G",
           *(() if fixed else moving), *(tail if analysis.cross_check else ())}
    own, opening = [name for name in columns if name in own], dict.fromkeys(own, _OPEN)
    named = [*outer, *record_keys, *moving]     # the shared cells, as a block gives them
    # the inner axis, spelled once: a block is a run of it, which starts at
    # the block's index modulo the axis length
    axis = list(map(repr, inner.values()))
    n_points = n_failed = 0

    def rows(block, checks, verdicts, margins, Gs, thresholds) -> str:
        nonlocal n_failed
        start, size = block.start, len(block)
        lo = start % len(axis)
        xs = axis[lo:lo + size]
        keep = [v is not None for v in verdicts] if None in verdicts else None
        # the columns of the valid points
        valid = [range(start, start + size), xs, verdicts, margins, Gs, thresholds]
        if not fixed:
            valid += map(block.column, swept)
        if keep:
            valid = [list(compress(column, keep)) for column in valid]
        indices, coords, vs, ms, gs, ts, *fields = valid
        rows = []
        if vs:
            spelled = {"index": map(str, indices), coordinate: coords,
                       "verdict": [v._value_ for v in vs], "margin": map(repr, ms),
                       "G": ["" if G is None else repr(G) for G in gs]}
            if fixed:   # the one record cell the inner parameter sets: its coordinate
                spelled[keys[0]] = coords
            else:
                spelled.update(zip(keys, [map(repr, column) for column in fields]))
                f_min, w2, w3, degenerate, _ = zip(*ts)
                spelled.update(f_min=map(repr, f_min), omega_star_2=map(repr, w2),
                               omega_star_3=map(repr, w3), degenerate_flag=map(str, degenerate))
            if analysis.cross_check:    # the block's judgements are the next in line
                tails = []
                for judgement in islice(judgements, len(vs)):
                    if isinstance(judgement, PvstabError):
                        tails.append((None, None, None, str(judgement)))
                        n_failed += 1
                    else:
                        summary, agree = judgement  # agree None (empty cell): in the band
                        tails.append((summary.numerically_unstable, summary.max_re_s, agree, None))
                spelled.update(zip(tail, (["" if c is None else _cell(c) for c in column]
                                          for column in zip(*tails))))
            # the cells the block's rows share, by column: those a row owns are opened
            shared = dict(zip(named, (*block.outer, *block.record, *ts[0])))
            shared.update(opening)
            pieces = line(list(map(shared.get, columns))).split(_OPEN)
            spelled = [spelled[name] for name in own]
            rows = list(map("".join, zip(*chain.from_iterable(zip(map(repeat, pieces), spelled)),
                                         repeat(pieces[-1]))))
        if keep:        # an error row at each rejected point, its cells named by column
            valid_rows, cells = iter(rows), dict(zip(outer, block.outer))
            rows = []
            for k, good in enumerate(keep):
                if not good:
                    cells.update(zip(record_keys, block.values(k)))
                    cells.update({"index": start + k, coordinate: xs[k], "error": checks[k]})
                rows.append(next(valid_rows) if good else line(list(map(cells.get, columns))))
            n_failed += keep.count(False)
        return "".join(rows)

    def pairs(blocks):
        # (state, expected verdict) of each valid point, None inside the band
        for block, *lists in blocks:
            for _, _, values, _, *part in block.points(*lists):
                if part[0] is not None:
                    st = EquilibriumState.from_values(*values)
                    cls = criterion.Classification.from_parts(*part)
                    yield st, agreement.expected(st, cls, analysis.delta)[1]

    blocks = _checked(scenario)
    if analysis.cross_check:
        # The valid points are judged as one stream, a scan batch at a time
        # (`dispersion.scan_states`), and each block's rows take theirs as it
        # is written: the blocks a filling batch reads ahead wait in the tee,
        # so at most a batch and a block of points are held.
        blocks, ahead = tee(blocks)
        judgements = agreement.judge_verdicts(pairs(ahead), analysis.n_dirs, analysis.delta)
    for block, *lists in blocks:
        n_points += len(block)
        out.write(rows(block, *lists))
    return _status(n_points, n_failed)


def cmd_validate(scenario: Scenario, out: TextIO, seed: int = 0) -> int:
    """Criterion-versus-numerics gate on random margin-filtered states.

    Draws states until ``analysis.sample`` of them fall outside the margin
    band, scans each for right-half-plane roots, and requires the numeric
    verdict (a root counted in some direction) to agree with the closed-form
    verdict on every one.  The draws are validated and classified as the
    points of every other command are (`_checked`), in rounds of the
    shortfall, so that no state is drawn past the last one accepted.  Each
    draw is banded once (`agreement.expected`) and its record begun as it
    is drawn.  Band states are counted but not judged; a drawn state that
    validation rejects, and a root-finder failure, is an error record,
    reported separately and excluded from the denominator.
    """
    analysis = scenario.analysis
    rng = np.random.default_rng(seed)
    target = analysis.sample
    accepted = []   # per accepted draw: its record, and the message that rejected it or None
    pairs = []      # per valid accepted draw: (state, whether its verdict is unstable)
    n_band = attempts = 0
    max_attempts = 1000 * target
    while len(accepted) < target and attempts < max_attempts:
        drawn = [agreement.sample_validation_state(rng)
                 for _ in range(min(target - len(accepted), max_attempts - attempts))]
        attempts += len(drawn)
        for block, *lists in _checked(Scenario(drawn, analysis=analysis)):
            for index, _, values, check, *part in block.points(*lists):
                if part[0] is None:
                    accepted.append(({"index": len(accepted), **_params(values)}, check))
                    continue
                st = drawn[index]
                cls = criterion.Classification.from_parts(*part)
                band, expected = agreement.expected(st, cls, analysis.delta)
                if expected is None:
                    n_band += 1
                    continue
                accepted.append(({"index": len(accepted), **_params(values),
                                  "verdict": cls.verdict._value_, "margin": cls.margin,
                                  "band": band, "warnings": check}, None))
                pairs.append((st, expected))

    verdicts = agreement.judge_verdicts(pairs, analysis.n_dirs, analysis.delta)
    n_failed = n_checked = n_disagree = 0
    for rec, error in accepted:
        verdict = next(verdicts) if error is None else error
        if isinstance(verdict, (str, PvstabError)):     # rejected, or a scan failed
            rec["error"] = str(verdict)
            n_failed += 1
        else:
            summary, agree = verdict    # agree never None: band states were set aside
            rec.update(numeric_unstable=summary.numerically_unstable,
                       max_re_s=summary.max_re_s, agree=agree)
            flags = [f"({d.omega2:.6g}, {d.omega3:.6g}): {flag}"
                     for d, located in zip(summary.directions, summary.located)
                     if located for flag in located[2]]
            if flags:
                rec["flags"] = flags
            n_checked += 1
            n_disagree += not agree
        out.write(_json_line(rec))
    share = 1.0 if not n_checked else 1.0 - n_disagree / n_checked
    out.write(_json_line({"summary": {
        "sampled": attempts, "band": n_band, "checked": n_checked,
        "root_finder_failures": n_failed, "disagreements": n_disagree,
        "agreement": share, "seed": seed}}))
    return 0 if n_disagree == 0 and n_checked else (2 if n_disagree else 3)


# ---------------------------------------------------------------------------
# entry point


class _Held(list):
    """The strings a command writes, held in order, each as it was written,
    until the command has succeeded: the one copy of its output."""
    write = list.append
    writelines = list.extend


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

    out = _Held()
    try:
        scenario = parse_scenario(args.scenario)
        for warning in scenario.warnings:
            print(f"pvstab: warning: {warning}", file=sys.stderr)
        code = (cmd_validate(scenario, out, args.seed) if args.command == "validate"
                else _COMMANDS[args.command](scenario, out))
        if args.out == "-":
            sys.stdout.writelines(out)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(out)
    except (OSError, ScenarioParseError) as err:
        print(f"pvstab: {err}", file=sys.stderr)
        return 1
    except PvstabError as err:    # the numerical errors derive from it
        print(f"pvstab: numerical failure: {err}", file=sys.stderr)
        return 3
    return code
