"""The column path of every count: the columns built from a state table and
a direction table equal the fields of ``frequency_bundle``, bit for bit, and
the ``roots`` rows equal rows spelled from the reports of
``scan_directions``."""

import csv
import io
import math

import numpy as np
import pytest

from pvstab import agreement, cli, dispersion
from pvstab.criterion import classify, minimize_f
from pvstab.dispersion import _table_columns, find_unstable_roots, make_context, scan_directions
from pvstab.errors import PvstabError
from pvstab.state import EquilibriumState, WaveDirection, frequency_bundle
from test_dispersion import COLLINEAR, PERP
from test_inclusion import CORPUS

HEADER = ["index", "omega2", "omega3", "winding", "re_s", "im_s", "abs_L", "delta", "R",
          "contour_points", "error", "flags", "certificate"]
STATES = [*CORPUS.values(), COLLINEAR]
# the delta at which the chord Re s = delta of COLLINEAR runs through its
# roots along (0, +-1): those directions are counted on jittered half-disks
CHORD = find_unstable_roots(make_context(COLLINEAR, PERP)).roots[0].real


def _bundle_columns(pairs) -> np.ndarray:
    # the reference: eps, E1, |Hv'|^2 and frequency_bundle of each (state,
    # direction), the direction normalized as make_context does
    bundles = [frequency_bundle(st, d if d.is_unit else d.unit()) for st, d in pairs]
    return np.array([(st.eps, st.E1_hat, st.Hv_sq, b.w_plus, b.w_minus, b.w_perp, b.v_dot)
                     for (st, _), b in zip(pairs, bundles)]).T


@pytest.mark.parametrize("n_dirs", [8, 9, 16, 32])
def test_table_columns_equal_context_columns(n_dirs):
    # the counted directions of a scan (the first half of an even set) and
    # each state's F-minimizer; one minimizer off unit by more than 1e-12,
    # which both normalize, and one within it, which both keep as it is.
    # With no shared directions (as locate_roots counts) the columns are
    # those of the pairs (state, minimizer)
    states = list(CORPUS.values())
    half = n_dirs // 2 if n_dirs % 2 == 0 else n_dirs
    directions = [WaveDirection.from_angle(2.0 * math.pi * k / n_dirs) for k in range(half)]
    stars = [minimize_f(st).omega_star for st in states]
    stars[0] = WaveDirection(stars[0].omega2 * (1.0 + 1e-9), stars[0].omega3 * (1.0 + 1e-9))
    stars[1] = WaveDirection(stars[1].omega2 * (1.0 + 4e-13), stars[1].omega3 * (1.0 + 4e-13))
    assert not stars[0].is_unit and stars[1].is_unit and stars[1].norm != 1.0
    for shared, pairs in (
            (directions, [(st, d) for st, star in zip(states, stars)
                          for d in directions + [star]]),
            ((), list(zip(states, stars)))):
        want = _bundle_columns(pairs)
        got = _table_columns(states, shared, stars)
        assert got.shape == want.shape == (7, len(pairs))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _spelled(states, n_dirs, delta) -> str:
    """The rows of ``roots`` spelled by csv.writer from the reports of
    ``scan_directions``, one state at a time."""
    buf = io.StringIO()
    buf.write("# pvstab-csv v1\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    for index, st in enumerate(states):
        scan = scan_directions(st, n_dirs, delta)
        for k, d in enumerate(scan.directions):
            rep = scan.report(k)
            if isinstance(rep, PvstabError):
                writer.writerow([index, d.omega2, d.omega3, *[None] * 7, str(rep), None, None])
                continue
            head = [index, d.omega2, d.omega3, rep.winding_count]
            tail = [rep.region.delta, rep.region.radius, None, None, "; ".join(rep.flags),
                    "inclusion"]
            writer.writerows([*head, z.real, z.imag, res, *tail]
                             for z, res in zip(rep.roots, rep.residuals))
            if not rep.roots:
                writer.writerow([*head, None, None, None, *tail])
    return buf.getvalue()


def _command(tmp_path, states, n_dirs, delta) -> str:
    text = "".join("[state]\n" + "".join(f"{k} = {float(v)!r}\n" for k, v in zip(
        EquilibriumState.RECORD_KEYS, st.record_values())) for st in states)
    text += f"[analysis]\nn_dirs = {n_dirs}\n" + (f"delta = {delta!r}\n" if delta else "")
    path, out = tmp_path / "roots.scn", tmp_path / "roots.csv"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["roots", str(path), "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("case, n_dirs", [
    ("plain", 9), ("plain", 32), ("jittered", 32), ("jittered_empty", 32), ("failed", 32),
    ("flagged", 9), ("flagged", 32)])
def test_roots_rows_equal_library_view(tmp_path, monkeypatch, case, n_dirs):
    # n_dirs 9 is odd: the F-minimizer and its antipode are the only pair
    # counted once.  At delta = CHORD the directions (0, +-1) of COLLINEAR
    # are decided on jittered half-disks (on one that excludes the root when
    # it is the only retry), or with no jittered retry are error rows; with
    # no residual certifiable every located root is flagged, and so is its
    # antipode's
    delta = CHORD if case in ("jittered", "jittered_empty", "failed") else None
    if case == "failed":
        monkeypatch.setattr(dispersion, "_JITTERS", dispersion._JITTERS[:1])
    if case == "jittered_empty":
        monkeypatch.setattr(dispersion, "_JITTERS", ((1.0, 1.0), (1.1, 0.9)))
    if case == "flagged":
        monkeypatch.setattr(dispersion, "_ROOT_RESIDUAL", 0.0)
    got = _command(tmp_path, STATES, n_dirs, delta)
    assert got == _spelled(STATES, n_dirs, delta)
    rows = list(csv.DictReader(io.StringIO(got.split("\n", 1)[1])))
    mine = [r for r in rows if r["index"] == str(len(STATES) - 1)]     # COLLINEAR
    assert len(mine) >= n_dirs + 2
    if case.startswith("jittered"):
        moved = [r for r in mine if r["delta"] != repr(CHORD)]
        assert len(moved) == 4 and {r["omega3"] for r in moved} == {"1.0", "-1.0"}
        assert {r["winding"] for r in moved} == {"0" if case == "jittered_empty" else "1"}
    if case == "failed":
        failed = [r for r in mine if r["error"]]
        # (0, +-1), among the 32 directions and as the F-minimizer pair
        assert len(failed) == 4 and {r["omega3"] for r in failed} == {"1.0", "-1.0"}
        assert all("cannot decide" in r["error"] and r["winding"] == "" for r in failed)
    if case == "flagged":
        flagged = [r for r in rows if r["flags"]]
        assert flagged and all(r["re_s"] for r in flagged)
        assert all("above certification" in r["flags"] for r in flagged)
        # the rows of the F-minimizer pair of COLLINEAR: the same flags
        pair = [r for r in mine[-2:] if r["flags"]]
        assert len(pair) == 2 and pair[0]["flags"] == pair[1]["flags"]


def test_first_failure_of_judge_verdicts_is_the_library_view(monkeypatch):
    # the error of a scan with failed directions, (0, +-1) twice (see above),
    # names how many failed and the first failure, as the errors of
    # scan_directions give them
    judged = [(COLLINEAR, agreement.expected(COLLINEAR, classify(COLLINEAR), CHORD)[1])]
    [verdict] = agreement.judge_verdicts(judged, 32, CHORD)
    assert not isinstance(verdict, PvstabError) and verdict[0].numerically_unstable
    monkeypatch.setattr(dispersion, "_JITTERS", dispersion._JITTERS[:1])
    summary = scan_directions(COLLINEAR, 32, CHORD)
    [verdict] = agreement.judge_verdicts(judged, 32, CHORD)
    first = next(str(r) for r in map(summary.report, range(len(summary.directions)))
                 if isinstance(r, PvstabError))
    assert len(summary.errors) == 4 and isinstance(verdict, PvstabError)
    assert str(verdict) == f"4 direction(s) failed: {first}"
