"""Seeded inputs, CLI invocations and output checks for the four workloads.

Each workload cuts its traffic into batches.  Batch ``k`` of seed ``s`` is
one scenario file (plus a ``--seed`` for ``validate``) generated from
``SeedSequence([s, tag, k])``, so the same seed always gives the same
inputs.  The program only ever sees the generated files.

The checks use the benchmark's own closed forms (a 2x2 eigenvalue for the
threshold, a frozen copy of the margin band) so that they do not move when
the program's versions of those formulas change.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPS = 1e-2
COMPONENT_RANGE = 2.0
NEUTRAL_FRACTION = 0.9      # neutral states: E1^2 <= 0.9 F_min
UNSTABLE_OFFSET = 0.05      # unstable states: E1^2 >= F_min + 0.05
RESIDUAL_LIMIT = 1e-10      # modes: worst relative residual per mode
MODE_NS = (1, 10, 100)
STATE_KEYS = ("v2", "v3", "H2", "H3", "Hv2", "Hv3", "E1", "eps")


# ---------------------------------------------------------------------------
# closed forms owned by the benchmark


def f_min(h2, h3, hv2, hv3):
    """Smaller eigenvalue of M = H'H'^T + Hv'Hv'^T (numpy arrays or floats)."""
    m = np.empty(np.shape(h2) + (2, 2))
    m[..., 0, 0] = np.square(h2) + np.square(hv2)
    m[..., 1, 1] = np.square(h3) + np.square(hv3)
    m[..., 0, 1] = m[..., 1, 0] = np.multiply(h2, h3) + np.multiply(hv2, hv3)
    return np.linalg.eigvalsh(m)[..., 0]


def tol_eq(h2, h3, hv2, hv3):
    """The CLI's default equality band, 1e-9 (1 + |H'|^2 + |Hv'|^2)."""
    return 1e-9 * (1.0 + h2 ** 2 + h3 ** 2 + hv2 ** 2 + hv3 ** 2)


def margin_band(st: dict) -> float:
    """Half-width of the margin band the numerics cannot decide at fixed eps.

    Frozen copy of ``pvstab.cli.margin_band`` with the default region and
    equality band, so that which states the checks exempt stays fixed.
    """
    e1 = abs(st["E1"])
    h = math.hypot(st["H2"], st["H3"])
    hv = math.hypot(st["Hv2"], st["Hv3"])
    vm = math.hypot(st["v2"], st["v3"])
    eps = st["eps"]
    a = 2.0 * eps * e1 * hv * vm + (eps * e1 * hv) ** 2
    smax = e1 + vm
    b = (eps * smax) ** 2 * (hv * hv + 0.5 * (smax ** 2 + h * h))
    delta = 1e-2 * (1.0 + vm + h + hv + e1)
    tol = tol_eq(st["H2"], st["H3"], st["Hv2"], st["Hv3"])
    return 10.0 * tol + 2.5 * (a + b) + 9.0 * delta ** 2


def in_band(st: dict) -> bool:
    margin = st["E1"] ** 2 - float(f_min(st["H2"], st["H3"], st["Hv2"], st["Hv3"]))
    return abs(margin) <= margin_band(st)


# ---------------------------------------------------------------------------
# input generation


def _rng(seed: int, tag: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag, k]))


def random_fields(rng: np.random.Generator) -> dict:
    """v', H' and Hv' with components uniform in [-2, 2], and eps = 1e-2."""
    values = (float(x) for x in rng.uniform(-COMPONENT_RANGE, COMPONENT_RANGE, 6))
    return {**dict(zip(("v2", "v3", "H2", "H3", "Hv2", "Hv3"), values)), "eps": EPS}


def random_state(rng: np.random.Generator, unstable: bool) -> dict:
    """Random fields and E1 in [0, 2], rejected until on the wanted side.

    Neutral states keep E1^2 <= 0.9 F_min, unstable ones E1^2 >= F_min + 0.05.
    States inside the margin band are kept: they are real traffic.
    """
    while True:
        st = random_fields(rng)
        e1 = float(rng.uniform(0.0, COMPONENT_RANGE))
        fm = float(f_min(st["H2"], st["H3"], st["Hv2"], st["Hv3"]))
        if (e1 * e1 >= fm + UNSTABLE_OFFSET) if unstable \
                else (e1 * e1 <= NEUTRAL_FRACTION * fm):
            return {**st, "E1": e1}


def state_block(st: dict) -> str:
    # float(x)!r: the CLI parses Python float literals, not numpy reprs
    return "[state]\n" + "".join(f"{k} = {float(st[k])!r}\n" for k in STATE_KEYS
                                 if k in st) + "\n"


@dataclass(frozen=True)
class Batch:
    argv: tuple[str, ...]      # CLI arguments, without --out
    states: int                # states the batch must complete
    expect: object             # what the check needs


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    tag = 0
    batch_states = 1           # states per batch at scale 1
    trace_batches = 1          # batches in one traced pass at scale 1

    def size(self, scale: float) -> int:
        return max(1, round(self.batch_states * scale))

    def make_batch(self, workdir: Path, seed: int, k: int, scale: float) -> Batch:
        raise NotImplementedError

    def check(self, batch: Batch, code: int, out: Path) -> int:
        """Number of the batch's states whose output is wrong."""
        raise NotImplementedError


class ValidateGate(Workload):
    """`validate` at the acceptance gate's settings (n_dirs = 16).

    Loads scan_directions counting plus bisection localization on a mix of
    stable and unstable states drawn by the program's own sampler.
    """

    name = "validate-gate"
    tag = 1
    batch_states = 3
    trace_batches = 8

    def make_batch(self, workdir, seed, k, scale):
        n = self.size(scale)
        path = workdir / f"validate-{n}.scn"
        if not path.exists():
            # only [analysis] matters to validate; the state block is required
            path.write_text("[state]\nH2 = 1.0\nHv2 = 2.0\nE1 = 0.3\n\n"
                            f"[analysis]\nsample = {n}\nn_dirs = 16\n")
        program_seed = int(np.random.SeedSequence([seed, self.tag, k])
                           .generate_state(1)[0])
        return Batch(("validate", str(path), "--seed", str(program_seed),
                      "--jobs", "1"), n, None)

    def check(self, batch, code, out):
        if code != 0:
            return batch.states
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        summary = records[-1].get("summary", {}) if records else {}
        if (summary.get("agreement") != 1.0 or summary.get("disagreements") != 0
                or summary.get("root_finder_failures") != 0
                or summary.get("checked") != batch.states
                or len(records) - 1 != batch.states):
            return batch.states
        return sum(1 for r in records[:-1] if "error" in r or r.get("agree") is not True)


class RootsNeutral(Workload):
    """`roots` on neutrally stable states: counting with no localization.

    Every direction must show winding 0; states inside the margin band may
    legitimately have roots and are only checked for error rows.
    """

    name = "roots-neutral"
    tag = 2
    batch_states = 8
    trace_batches = 4

    def make_batch(self, workdir, seed, k, scale):
        rng = _rng(seed, self.tag, k)
        states = [random_state(rng, unstable=False) for _ in range(self.size(scale))]
        path = workdir / f"roots-{k}.scn"
        path.write_text("".join(state_block(st) for st in states), encoding="utf-8")
        return Batch(("roots", str(path), "--jobs", "1"), len(states),
                     [in_band(st) for st in states])

    def check(self, batch, code, out):
        if code != 0:
            return batch.states
        bad = set()
        seen = set()
        with open(out, encoding="utf-8", newline="") as fh:
            if fh.readline().strip() != "# pvstab-csv v1":
                return batch.states
            for row in csv.DictReader(fh):
                i = int(row["index"])
                seen.add(i)
                band = i < batch.states and batch.expect[i]
                if row["error"] or (not band and (
                        row["winding"] != "0" or row["re_s"] != "")):
                    bad.add(i)
        return len(bad | (set(range(batch.states)) - seen))


class ModesUnstable(Workload):
    """`modes` on violently unstable states.

    Single-direction localization plus build_mode / residuals / growth_table
    and the JSON encoding of complex amplitudes.
    """

    name = "modes-unstable"
    tag = 3
    batch_states = 30
    trace_batches = 4

    def make_batch(self, workdir, seed, k, scale):
        rng = _rng(seed, self.tag, k)
        states = [random_state(rng, unstable=True) for _ in range(self.size(scale))]
        path = workdir / f"modes-{k}.scn"
        path.write_text("".join(state_block(st) for st in states), encoding="utf-8")
        return Batch(("modes", str(path), "--jobs", "1"), len(states),
                     [in_band(st) for st in states])

    def check(self, batch, code, out):
        if code != 0:
            return batch.states
        modes: dict[int, set] = {}
        bad = set()
        with open(out, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if "index" not in rec:
                    continue
                i = rec["index"]
                band = i < batch.states and batch.expect[i]
                res = rec.get("residuals", {})
                worst = max((v for k, v in res.items() if k != "scale"), default=math.inf)
                if "error" in rec or not (band or worst <= RESIDUAL_LIMIT):
                    bad.add(i)
                modes.setdefault(i, set()).add(rec.get("n"))
        for i, band in enumerate(batch.expect):
            if not band and modes.get(i) != set(MODE_NS):
                bad.add(i)
        return len(bad)


class SweepMap(Workload):
    """2-D `sweep` over (angle_alpha, E1) without cross_check.

    classify, Scenario.grid and CSV encoding only; it never touches the root
    finder, so it is the control for every dispersion change, and the only
    workload whose output buffer is large.
    """

    name = "sweep-map"
    tag = 4
    batch_states = 10_000       # a 100 x 100 grid
    trace_batches = 2

    def make_batch(self, workdir, seed, k, scale):
        st = random_fields(_rng(seed, self.tag, k))
        e1_max = math.sqrt(st["H2"] ** 2 + st["H3"] ** 2 + st["Hv2"] ** 2 + st["Hv3"] ** 2)
        steps = max(2, round(math.sqrt(self.size(scale))))
        path = workdir / f"sweep-{k}.scn"
        path.write_text(
            state_block(st)
            + f"[sweep]\nparameter = angle_alpha\nmin = 0.0\nmax = {math.pi!r}\n"
              f"steps = {steps}\n\n"
            + f"[sweep]\nparameter = E1\nmin = 0.0\nmax = {e1_max!r}\nsteps = {steps}\n",
            encoding="utf-8")
        return Batch(("sweep", str(path), "--jobs", "1"), steps * steps, None)

    def check(self, batch, code, out):
        if code != 0:
            return batch.states
        # streamed into flat arrays: the check must not raise the peak memory
        # that the workload process reports
        index, wrong, verdict = array("q"), 0, array("b")
        fields = {k: array("d") for k in ("H2", "H3", "Hv2", "Hv3", "E1")}
        codes = {"ViolentlyUnstable": 1, "NeutrallyStable": -1}
        with open(out, encoding="utf-8", newline="") as fh:
            if fh.readline().strip() != "# pvstab-csv v1":
                return batch.states
            for row in csv.DictReader(fh):
                index.append(int(row["index"]))
                wrong += row["error"] != ""
                verdict.append(codes.get(row["verdict"], 0))
                for k, col in fields.items():
                    col.append(float(row[k]))
        h2, h3, hv2, hv3, e1 = (np.frombuffer(fields[k]) for k in fields)
        margin = e1 * e1 - f_min(h2, h3, hv2, hv3)
        tol = tol_eq(h2, h3, hv2, hv3)
        # twice the band: the program's threshold formula differs in roundoff
        expected = np.where(margin > 2.0 * tol, 1, np.where(margin < -2.0 * tol, -1, 0))
        wrong += int(((expected != 0) & (expected != np.frombuffer(verdict, np.int8))).sum())
        missing = batch.states - len(set(index) & set(range(batch.states)))
        return wrong + missing


WORKLOADS = {w.name: w for w in (ValidateGate(), RootsNeutral(), ModesUnstable(),
                                 SweepMap())}
