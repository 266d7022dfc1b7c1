"""Spans around the public functions of each pvstab layer, from outside.

``Tracer.install`` replaces every binding of each traced function (the
defining module, ``pvstab.cli``, ``pvstab.modes``, the package namespace and
so on) with a wrapper that records a span: name, start, end, parent span,
the state it works on and, for the L evaluators, how many ``s`` values it
took.  Spans stay in memory; ``layer_metrics`` turns one pass of them into
per-layer times and counts, and ``write_spans`` saves them when the run ends.
Certificates (windings, located roots, contour points, flags) are read from
the ``ScanSummary``/``RootReport`` values the public calls return.
"""

from __future__ import annotations

import csv
import sys
from time import perf_counter

import numpy as np

# (span name, module, attribute); a dotted attribute is a method on a class
TARGETS = (
    ("cli.main", "pvstab.cli", "main"),
    ("cli.parse_scenario", "pvstab.cli", "parse_scenario"),
    ("cli.grid", "pvstab.cli", "Scenario.grid"),
    ("state.validate_state", "pvstab.state", "validate_state"),
    ("criterion.classify", "pvstab.criterion", "classify"),
    ("criterion.minimize_f", "pvstab.criterion", "minimize_f"),
    ("oracle.eigen_fmin", "pvstab.oracle", "eigen_fmin"),
    ("dispersion.scan_directions", "pvstab.dispersion", "scan_directions"),
    ("dispersion.find_unstable_roots", "pvstab.dispersion", "find_unstable_roots"),
    ("dispersion.lopatinski", "pvstab.dispersion", "lopatinski"),
    ("dispersion.lopatinski_scale", "pvstab.dispersion", "lopatinski_scale"),
    ("dispersion.newton_refine", "pvstab.dispersion", "newton_refine"),
    ("modes.build_mode", "pvstab.modes", "build_mode"),
    ("modes.residuals", "pvstab.modes", "residuals"),
    ("modes.growth_table", "pvstab.modes", "growth_table"),
)
# called with (ctx, s): the number of s values is the work they do
POINT_COUNTED = {"dispersion.lopatinski", "dispersion.lopatinski_scale"}
# leaves inherit the state of their caller instead of looking it up
LEAVES = POINT_COUNTED | {"dispersion.newton_refine"}

# self time of a span goes to the outermost of these groups above it;
# find_unstable_roots always opens its own group
GROUPS = {
    "cli.main": "cli", "cli.parse_scenario": "parse", "cli.grid": "grid",
    "state.validate_state": "state", "criterion.classify": "criterion",
    "criterion.minimize_f": "criterion", "oracle.eigen_fmin": "oracle",
    "dispersion.scan_directions": "count", "dispersion.find_unstable_roots": "locate",
    "modes.build_mode": "modes", "modes.residuals": "modes",
    "modes.growth_table": "modes",
}

CERTIFICATES = ("directions", "directions_failed", "contour_points",
                "winding_total", "roots_located", "report_flags")

NAME, PARENT, STATE, START, END, POINTS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.certificates = dict.fromkeys(CERTIFICATES, 0)
        self.residual_worst = 0.0
        self._stack: list[int] = []
        self._state_ids: dict = {}
        self._restore: list[tuple[object, str, object]] = []

    def reset(self):
        """Start a new pass: drop spans, counters and state ids."""
        self.spans.clear()
        self._stack.clear()
        self._state_ids.clear()
        self.certificates = dict.fromkeys(CERTIFICATES, 0)
        self.residual_worst = 0.0

    # -- installation -------------------------------------------------------

    def install(self):
        from pvstab.dispersion import LopatinskiContext
        from pvstab.state import EquilibriumState

        def state_of(args):
            for a in args[:2]:
                if isinstance(a, EquilibriumState):
                    return a
                if isinstance(a, LopatinskiContext):
                    return a.state
            return None

        modules = [m for n, m in sys.modules.items()
                   if n == "pvstab" or n.startswith("pvstab.")]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._bind(owner, attr, self._wrap(name, original, state_of))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, state_of)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _bind(self, owner, key, wrapper):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, state_of):
        spans, stack, ids = self.spans, self._stack, self._state_ids
        counts_points = name in POINT_COUNTED
        leaf = name in LEAVES
        on_return = {"dispersion.scan_directions": self._on_scan,
                   "dispersion.find_unstable_roots": self._on_report,
                   "modes.residuals": self._on_residuals}.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            state = None if leaf else state_of(args)
            if state is None:
                sid = spans[parent][STATE] if parent >= 0 else -1
            else:
                sid = ids.setdefault(state, len(ids))
            points = np.size(args[1]) if counts_points else 0
            rec = [name, parent, sid, 0.0, 0.0, points]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- certificates from return values -------------------------------------

    def _on_scan(self, summary):
        c = self.certificates
        c["directions"] += len(summary.records)
        c["directions_failed"] += summary.n_errors
        c["contour_points"] += sum(r.contour_points or 0 for r in summary.records)

    def _on_report(self, report):
        c = self.certificates
        c["contour_points"] += report.contour_points
        c["winding_total"] += report.winding_count
        c["roots_located"] += len(report.roots)
        c["report_flags"] += len(report.flags)

    def _on_residuals(self, report):
        self.residual_worst = max(self.residual_worst, report.worst)


# ---------------------------------------------------------------------------
# from spans to metrics


def tail_percentile(durations):
    """(value, percentile, samples beyond) of the highest percentile that
    leaves at least ten samples beyond it; the maximum when there are fewer
    than eleven samples."""
    xs = sorted(durations)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def layer_metrics(spans, certificates, residual_worst, output_bytes):
    """Per-layer metrics of one traced pass.

    Returns (metrics, beside, notes, counters): metrics maps name ->
    (value, unit); beside maps a metric to the base or sample size printed
    next to it; notes are extra report lines; counters are the values that
    must repeat exactly between passes over the same inputs.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    group = [None] * n
    under_scan = [False] * n
    under_locate = [False] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        name = s[NAME]
        if p >= 0:
            child[p] += dur[i]
            under_scan[i] = under_scan[p]
            under_locate[i] = under_locate[p]
        under_scan[i] |= name == "dispersion.scan_directions"
        under_locate[i] |= name == "dispersion.find_unstable_roots"
        parent_group = group[p] if p >= 0 else None
        if name == "dispersion.find_unstable_roots":
            group[i] = "locate"
        elif parent_group in (None, "cli"):
            group[i] = GROUPS.get(name, "cli")
        else:
            group[i] = parent_group

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    points: dict[str, int] = {}
    per_call: dict[str, list] = {}
    shares: dict[str, float] = {}
    count_points = locate_points = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        own = dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        total_s[name] = total_s.get(name, 0.0) + dur[i]
        points[name] = points.get(name, 0) + s[POINTS]
        per_call.setdefault(name, []).append(dur[i])
        shares[group[i]] = shares.get(group[i], 0.0) + own
        if name == "dispersion.lopatinski":
            if under_locate[i]:
                locate_points += s[POINTS]
            elif under_scan[i]:
                count_points += s[POINTS]

    def calls_self(name):
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")

    def per_call_ms(name):
        ds = per_call.get(name, [])
        metrics[f"{name}.ms_p50"] = (1e3 * float(np.median(ds)) if ds else 0.0, "ms")
        value, pct, beyond = tail_percentile(ds)
        metrics[f"{name}.ms_tail"] = (1e3 * value, "ms")
        beside[f"{name}.ms_tail"] = f"p{pct:.1f} of {len(ds)} calls, {beyond} beyond it"

    metrics = {
        "cli.parse_scenario.s": (total_s.get("cli.parse_scenario", 0.0), "s"),
        "cli.grid.s": (total_s.get("cli.grid", 0.0), "s"),
        "cli.self_s": (self_s.get("cli.main", 0.0), "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
    }
    beside: dict[str, str] = {}
    calls_self("state.validate_state")
    calls_self("criterion.classify")
    calls_self("criterion.minimize_f")
    metrics["oracle.eigen_fmin.calls"] = (calls.get("oracle.eigen_fmin", 0), "count")
    calls_self("dispersion.scan_directions")
    per_call_ms("dispersion.scan_directions")
    calls_self("dispersion.find_unstable_roots")
    per_call_ms("dispersion.find_unstable_roots")
    calls_self("dispersion.lopatinski")
    metrics["dispersion.lopatinski.points"] = (points.get("dispersion.lopatinski", 0), "count")
    metrics["dispersion.lopatinski_scale.points"] = (
        points.get("dispersion.lopatinski_scale", 0), "count")
    metrics["dispersion.lopatinski_scale.self_s"] = (
        self_s.get("dispersion.lopatinski_scale", 0.0), "s")
    metrics["dispersion.count.L_points"] = (count_points, "count")
    metrics["dispersion.locate.L_points"] = (locate_points, "count")
    calls_self("dispersion.newton_refine")
    for key in CERTIFICATES:
        metrics[f"dispersion.{key}"] = (certificates[key], "count")
    located, winding = certificates["roots_located"], certificates["winding_total"]
    metrics["dispersion.located_per_winding"] = (
        located / winding if winding else 0.0, "ratio")
    metrics["dispersion.locate.L_points_per_root"] = (
        locate_points / located if located else 0.0, "points/root")
    beside["dispersion.located_per_winding"] = f"{located} located of {winding} counted"
    beside["dispersion.locate.L_points_per_root"] = (
        f"{locate_points} points for {located} roots")
    calls_self("modes.build_mode")
    calls_self("modes.residuals")
    metrics["modes.growth_table.self_s"] = (self_s.get("modes.growth_table", 0.0), "s")
    metrics["modes.residual_worst"] = (residual_worst, "ratio")

    notes = []
    traced = total_s.get("cli.main", 0.0)
    if traced > 0:
        notes.append("self-time shares of cli.main: " + ", ".join(
            f"{g} {v / traced:.3f}" for g, v in
            sorted(shares.items(), key=lambda kv: -kv[1])))

    counters = {k: v for k, (v, unit) in metrics.items()
                if unit == "count" or k == "cli.output_bytes"}
    return metrics, beside, notes, counters


def write_spans(path, passes):
    """Write every span of every pass as CSV (times in seconds from pass start)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pass", "span", "parent", "name", "state", "start_s",
                    "end_s", "points"])
        for k, spans in enumerate(passes):
            t0 = spans[0][START] if spans else 0.0
            for i, s in enumerate(spans):
                w.writerow([k, i, s[PARENT], s[NAME], s[STATE],
                            f"{s[START] - t0:.9f}", f"{s[END] - t0:.9f}", s[POINTS]])
