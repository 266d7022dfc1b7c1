import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as hst

from pvstab.cli import (MAX_GRID_POINTS, SWEEP_PARAMETERS, SweepAxis, _swept, cmd_classify,
                        cmd_sweep, main, margin_band, parse_scenario, sample_validation_state)
from pvstab.dispersion import default_delta, default_region, root_radius_bound
from pvstab.errors import ScenarioParseError
from pvstab.oracle import eigen_fmin
from pvstab.state import EquilibriumState

MINIMAL = """
[state]
H2 = 1.0
Hv2 = 2.0
E1 = 0.3
"""

EPS_SWEEP = """
[state]
H2 = 1.0
Hv3 = 2.0
E1 = 0.5

[sweep]
parameter = eps
min = 0
max = 1.5
steps = 4
"""

SWEEP = """
[state]
H2 = 1.0
Hv3 = 2.0

[sweep]
parameter = E1
min = 0
max = 2
steps = 41
"""


def _write(tmp_path, text, name="scenario.scn"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(args):
    return main(args)


def _csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# pvstab-csv v1"
    return list(csv.DictReader(lines[1:]))


_AXIS = "[state]\nH2 = 1\n[sweep]\n"           # the axis keys start on line 4
_ANALYSIS = "[state]\nH2 = 1\n[analysis]\n"    # the analysis keys start on line 4
_PARAMETER_ERROR = "sweep parameter must be one of ('E1', 'angle_alpha', 'H_mag', " \
    "'Hv_mag', 'v2', 'v3', 'eps'), got 'H2'"

# one scenario per message a scenario can be rejected with, and the line it names
PARSE_ERRORS = {
    "unknown_block": ("[foo]\n", "line 1: unknown block [foo]"),
    "no_equals": ("[state]\nH2 1\n", "line 2: expected 'key = value', got 'H2 1'"),
    "key_outside_block": (
        "H2 = 1\n", "line 1: key outside of any [state]/[sweep]/[analysis] block"),
    "unknown_key": ("[state]\nH2 = 1\nbogus = 2\n",
                    "line 3: unknown key 'bogus' in [state] block"),
    "bad_state_number": ("[state]\nH2 = abc\n",
                         "line 1: bad [state] block: could not convert string to float: 'abc'"),
    "invalid_state": ("[state]\nH2 = 1\neps = 0\n",
                      "line 1: invalid [state] block: eps must be positive, got 0.0"),
    "bad_axis_number": (_AXIS + "parameter = E1\nmin = x\nmax = 1\nsteps = 3\n",
                        "line 5: bad number for 'min': 'x'"),
    "bad_analysis_number": (_ANALYSIS + "delta = x\n", "line 4: bad number for 'delta': 'x'"),
    "bad_integer": (_ANALYSIS + "n_dirs = 8.5\n", "line 4: bad integer for 'n_dirs': '8.5'"),
    "bad_steps": (_AXIS + "parameter = E1\nmin = 0\nmax = 1\nsteps = 2.5\n",
                  "line 7: bad integer for 'steps': '2.5'"),
    "not_boolean": (_ANALYSIS + "cross_check = maybe\n",
                    "line 4: expected a boolean, got 'maybe'"),
    "missing_parameter": (_AXIS + "min = 0\nmax = 1\nsteps = 3\n",
                          "line 3: sweep block needs a 'parameter' key"),
    "missing_steps": (_AXIS + "parameter = E1\nmin = 0\nmax = 1\n",
                      "line 3: sweep block needs a 'steps' key"),
    "missing_min": (_AXIS + "parameter = E1\nmax = 1\nsteps = 3\n",
                    "line 3: missing required key 'min'"),
    "missing_max": (_AXIS + "parameter = E1\nmin = 0\nsteps = 3\n",
                    "line 3: missing required key 'max'"),
    "steps_below_2": (_AXIS + "parameter = E1\nmin = 0\nmax = 1\nsteps = 1\n",
                      "line 3: sweep needs steps >= 2"),
    "bad_sweep_parameter": (_AXIS + "parameter = H2\nmin = 0\nmax = 1\nsteps = 3\n",
                            "line 4: " + _PARAMETER_ERROR),
    # an axis is checked in the order parameter, steps, min, max
    "axis_check_order": (_AXIS + "min = x\nsteps = x\nparameter = H2\n",
                         "line 6: " + _PARAMETER_ERROR),
    "axis_steps_before_min": (_AXIS + "min = x\nsteps = 1\nparameter = E1\n",
                              "line 3: sweep needs steps >= 2"),
    # max = inf once wrote sweep_E1 = nan and leaked a numpy warning
    "min_not_finite": (_AXIS + "parameter = E1\nmin = -inf\nmax = 1\nsteps = 3\n",
                       "line 5: min must be finite, got '-inf'"),
    "max_not_finite": (_AXIS + "parameter = E1\nmin = 0\nmax = inf\nsteps = 3\n",
                       "line 6: max must be finite, got 'inf'"),
    "max_nan": (_AXIS + "parameter = E1\nmin = 0\nmax = nan\nsteps = 3\n",
                "line 6: max must be finite, got 'nan'"),
    "range_overflows": (
        _AXIS + "parameter = E1\nmin = -1e308\nmax = 1e308\nsteps = 3\n",
        "line 3: sweep range max - min must be finite"),
    # the output is held until the run ends; steps = 1e12 once died with a
    # MemoryError traceback
    "grid_too_large": (
        _AXIS + "parameter = E1\nmin = 0\nmax = 1\nsteps = 1000000000000\n",
        "line 3: the grid would have 1000000000000 points; at most 10000000 are supported"),
    "grid_too_large_two_axes": (
        "[state]\nH2 = 1\n[state]\nH2 = 2\n"
        + "".join(f"[sweep]\nparameter = {name}\nmin = 0\nmax = 1\nsteps = 2500\n"
                  for name in ("E1", "v2")),
        "line 10: the grid would have 12500000 points; at most 10000000 are supported"),
    "three_axes": ("[state]\nH2 = 1\n"
                   + "[sweep]\nparameter = E1\nmin = 0\nmax = 1\nsteps = 2\n" * 3,
                   "line 13: at most 2 swept axes are supported"),
    "no_state": ("[analysis]\nn_dirs = 8\n", "scenario contains no [state] block"),
    "n_dirs_range": (_ANALYSIS + "n_dirs = 7\n", "line 4: n_dirs must be at least 8, got '7'"),
    "delta_range": (_ANALYSIS + "delta = 0\n",
                    "line 4: delta must be positive and finite, got '0'"),
    "radius_removed": (_ANALYSIS + "radius = 50\n",
                       "line 4: unknown key 'radius' in [analysis] block"),
    "tol_eq_range": (_ANALYSIS + "tol_eq = -1\n",
                     "line 4: tol_eq must be non-negative and finite, got '-1'"),
    "decay_p_range": (_ANALYSIS + "decay_p = nan\n", "line 4: decay_p must be finite, got 'nan'"),
    # decay_p = -400 used to end in an OverflowError while building a mode
    "delta_bound": (_ANALYSIS + "delta = 1e51\n", "line 4: delta must be at most 1e+50, got '1e51'"),
    "decay_p_bound": (_ANALYSIS + "decay_p = -400\n",
                      "line 4: decay_p must be at most 100 in magnitude, got '-400'"),
    "sample_range": (_ANALYSIS + "sample = 0\n", "line 4: sample must be at least 1, got '0'"),
    # a scan of n_dirs = 1e9 built 1e9 directions for one state, and validate
    # holds every sampled record until the run ends
    "n_dirs_bound": (_ANALYSIS + "n_dirs = 1025\n",
                     "line 4: n_dirs must be at most 1024, got '1025'"),
    "sample_bound": (_ANALYSIS + "sample = 10000001\n",
                     "line 4: sample must be at most 10000000, got '10000001'"),
    # a repeat used to replace the first value, or merge into the first block
    "repeated_key": ("[state]\nE1 = 0.3\nH2 = 1\nE1 = 5.0\n",
                     "line 4: repeated key 'E1' in [state] block (first at line 2)"),
    "repeated_analysis": (_ANALYSIS + "n_dirs = 8\n[analysis]\nsample = 3\n",
                          "line 5: repeated [analysis] block (first at line 3)"),
}


class TestParseScenario:
    @pytest.mark.parametrize("text, message", PARSE_ERRORS.values(), ids=PARSE_ERRORS.keys())
    def test_error_message(self, tmp_path, capsys, text, message):
        assert _run(["classify", _write(tmp_path, text)]) == 1
        assert capsys.readouterr() == ("", f"pvstab: {message}\n")

    def test_minimal(self, tmp_path):
        sc = parse_scenario(_write(tmp_path, MINIMAL))
        assert len(sc.states) == 1 and not sc.sweeps
        st = sc.states[0]
        assert st.H_hat_t == (1.0, 0.0) and st.E1_hat == 0.3
        assert st.eps == 1e-2 and st.sigma == 0.0     # defaults

    def test_sweep_grid(self, tmp_path):
        # one axis of 41 points is one block of rows, each E1 its swept value
        sc = parse_scenario(_write(tmp_path, SWEEP))
        (block,) = sc.grid()
        assert [index for index, _, _ in block] == list(range(41))
        values = [v for _, (v,), _ in block]
        assert values[0] == 0.0 and values[-1] == 2.0
        assert all(len(record) == 9 and record[6] == v for _, (v,), record in block)

    def test_two_axes(self, tmp_path):
        # a block per point of the outer axis, a run of the inner axis
        text = SWEEP + "\n[sweep]\nparameter = v2\nmin = -1\nmax = 1\nsteps = 3\n"
        blocks = list(parse_scenario(_write(tmp_path, text)).grid())
        assert [b[0][0] for b in blocks] == list(range(0, 41 * 3, 3))
        assert all([c[1] for _, c, _ in b] == [-1.0, 0.0, 1.0] == [r[0] for _, _, r in b]
                   for b in blocks)
        assert [[c[0] for _, c, _ in b] for b in blocks[:2]] == [[0.0] * 3, [0.05] * 3]

    @pytest.mark.parametrize("name", SWEEP_PARAMETERS)
    def test_repeated_sweep_parameter(self, tmp_path, capsys, name):
        # the inner axis used to overwrite what the outer one set, so the
        # outer axis did nothing; a repeat names the lines of both parameters
        axis = "[sweep]\nmin = 0\nmax = 1\nsteps = 2\n"
        text = ("[state]\nH2 = 1\n" + axis + f"parameter = {name}\n" + axis
                + f"parameter = {name}\n")
        assert _run(["sweep", _write(tmp_path, text)]) == 1
        assert capsys.readouterr() == (
            "", f"pvstab: line 12: repeated sweep parameter {name!r} (first at line 7)\n")

    def test_three_axes_rejected(self, tmp_path):
        text = SWEEP + (
            "\n[sweep]\nparameter = v2\nmin = -1\nmax = 1\nsteps = 3\n"
            "\n[sweep]\nparameter = v3\nmin = -1\nmax = 1\nsteps = 3\n")
        with pytest.raises(ScenarioParseError, match="at most 2"):
            parse_scenario(_write(tmp_path, text))

    def test_unknown_key_reports_line(self, tmp_path):
        with pytest.raises(ScenarioParseError, match="line 3"):
            parse_scenario(_write(tmp_path, "[state]\nH2 = 1\nbogus = 2\n"))

    def test_key_outside_block(self, tmp_path):
        with pytest.raises(ScenarioParseError, match="outside"):
            parse_scenario(_write(tmp_path, "H2 = 1\n"))

    def test_bad_number(self, tmp_path):
        with pytest.raises(ScenarioParseError):
            parse_scenario(_write(tmp_path, "[state]\nH2 = abc\n"))

    def test_invalid_state_rejected(self, tmp_path):
        with pytest.raises(ScenarioParseError, match="eps"):
            parse_scenario(_write(tmp_path, "[state]\nH2 = 1\neps = 0\n"))

    def test_steps_minimum(self, tmp_path):
        text = "[state]\nH2 = 1\n[sweep]\nparameter = E1\nmin = 0\nmax = 1\nsteps = 1\n"
        with pytest.raises(ScenarioParseError, match="steps"):
            parse_scenario(_write(tmp_path, text))

    def test_bad_sweep_parameter(self, tmp_path):
        text = "[state]\nH2 = 1\n[sweep]\nparameter = H2\nmin = 0\nmax = 1\nsteps = 2\n"
        with pytest.raises(ScenarioParseError, match="parameter"):
            parse_scenario(_write(tmp_path, text))

    def test_analysis_block(self, tmp_path):
        text = MINIMAL + "\n[analysis]\nn_dirs = 16\ncross_check = true\ntol_eq = 1e-6\n"
        sc = parse_scenario(_write(tmp_path, text))
        assert sc.analysis.n_dirs == 16 and sc.analysis.cross_check
        assert sc.analysis.tol_eq == 1e-6

    def test_n_dirs_below_scan_minimum(self, tmp_path, capsys):
        path = _write(tmp_path, MINIMAL + "\n[analysis]\nn_dirs = 7\n")
        with pytest.raises(ScenarioParseError, match="line 8: n_dirs must be at least 8"):
            parse_scenario(path)
        assert _run(["roots", path]) == 1
        assert capsys.readouterr().err == "pvstab: line 8: n_dirs must be at least 8, got '7'\n"

    def test_delta_out_of_range(self, tmp_path):
        for value in ("0", "-0.5", "nan", "inf"):
            path = _write(tmp_path, MINIMAL + f"\n[analysis]\ndelta = {value}\n")
            with pytest.raises(ScenarioParseError, match="line 8: delta must be positive"):
                parse_scenario(path)

    def test_tol_eq_out_of_range(self, tmp_path):
        for value in ("-1", "nan", "inf"):
            path = _write(tmp_path, MINIMAL + f"\n[analysis]\ntol_eq = {value}\n")
            with pytest.raises(ScenarioParseError,
                               match="line 8: tol_eq must be non-negative and finite"):
                parse_scenario(path)
        path = _write(tmp_path, MINIMAL + "\n[analysis]\ntol_eq = 0\n")
        assert parse_scenario(path).analysis.tol_eq == 0.0

    def test_decay_p_not_finite(self, tmp_path):
        for value in ("nan", "inf", "-inf"):
            path = _write(tmp_path, MINIMAL + f"\n[analysis]\ndecay_p = {value}\n")
            with pytest.raises(ScenarioParseError, match="line 8: decay_p must be finite"):
                parse_scenario(path)

    def test_sample_below_one(self, tmp_path):
        for value in ("0", "-3"):
            path = _write(tmp_path, MINIMAL + f"\n[analysis]\nsample = {value}\n")
            with pytest.raises(ScenarioParseError, match="line 8: sample must be at least 1"):
                parse_scenario(path)

    def test_n_dirs_and_sample_at_their_bounds(self, tmp_path):
        # parsed only: no scan or validate runs at these values here
        from pvstab.dispersion import MAX_N_DIRS

        text = MINIMAL + f"\n[analysis]\nn_dirs = {MAX_N_DIRS}\nsample = {MAX_GRID_POINTS}\n"
        analysis = parse_scenario(_write(tmp_path, text)).analysis
        assert (analysis.n_dirs, analysis.sample) == (1024, 10 ** 7)

    def test_comments_ignored(self, tmp_path):
        sc = parse_scenario(_write(tmp_path, "# top\n[state]\nH2 = 1 # inline\n"))
        assert sc.states[0].H_hat_t == (1.0, 0.0)

    def test_fractional_steps_rejected(self, tmp_path):
        text = "[state]\nH2 = 1\n[sweep]\nparameter = E1\nmin = 0\nmax = 1\nsteps = 2.5\n"
        with pytest.raises(ScenarioParseError, match="steps"):
            parse_scenario(_write(tmp_path, text))

    def test_moving_interface_accepted(self, tmp_path, capsys):
        # sigma enters through validation and the frame reduction only;
        # the classification operates on the rest-frame parameters
        text = "[state]\nH2 = 1.0\nHv2 = 2.0\nE1 = 0.3\nsigma = 0.8\n"
        assert _run(["classify", _write(tmp_path, text)]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["sigma"] == 0.8
        assert rec["verdict"] == "ViolentlyUnstable"

    def test_relativistic_sigma_rejected(self, tmp_path):
        text = "[state]\nH2 = 1.0\nsigma = 200.0\n"
        assert _run(["classify", _write(tmp_path, text)]) == 1


def _swept_state(state: EquilibriumState, name: str, value: float) -> EquilibriumState:
    """``state`` with the swept parameter ``name`` set to ``value``, as a grid
    row of one point (`cli._swept`)."""
    (record,) = _swept(state.record_values(), name, [value])
    return EquilibriumState.from_values(*record)


class TestSweepParameters:
    BASE = EquilibriumState(H_hat_t=(3.0, 4.0), Hv_hat_t=(1.0, 0.0), eps=1e-2)

    def test_magnitude_keeps_direction(self):
        st = _swept_state(self.BASE, "H_mag", 10.0)
        assert st.H_hat_t == pytest.approx((6.0, 8.0))

    def test_angle_alpha_rotates_from_plasma_field(self):
        st = _swept_state(self.BASE, "angle_alpha", math.pi / 2)
        theta_h = math.atan2(4, 3)
        assert st.Hv_hat_t == pytest.approx(
            (math.cos(theta_h + math.pi / 2), math.sin(theta_h + math.pi / 2)))

    def test_eps_and_components(self):
        assert _swept_state(self.BASE, "eps", 0.05).eps == 0.05
        assert _swept_state(self.BASE, "v3", 2.0).v_hat_t == (0.0, 2.0)

    def test_magnitudes_keep_signed_zeros(self):
        # a negative magnitude scales the zero component of the direction to
        # -0.0, which the rows spell; a zero field takes direction (1, 0)
        assert repr(_swept_state(self.BASE, "Hv_mag", -2.0).Hv_hat_t) == "(-2.0, -0.0)"
        assert repr(_swept_state(EquilibriumState(), "H_mag", -1.0).H_hat_t) == "(-1.0, -0.0)"

    def test_grid_rows_are_swept_records(self, tmp_path):
        # each grid row is its state's record with the outer and then the
        # inner swept value applied: direction kept, rotation from H', a zero
        # field along (1, 0), signed zeros
        text = ("[state]\nH2 = 3\nH3 = 4\nHv2 = 1\n[state]\nE1 = 0.5\n"
                "[sweep]\nparameter = H_mag\nmin = -2\nmax = 2\nsteps = 3\n"
                "[sweep]\nparameter = angle_alpha\nmin = 0\nmax = 1.5\nsteps = 4\n")
        sc = parse_scenario(_write(tmp_path, text))
        rows = [row for block in sc.grid() for row in block]
        points = [(st, a, b) for st in sc.states for a in (-2.0, 0.0, 2.0)
                  for b in (0.0, 0.5, 1.0, 1.5)]
        want = [(index, (a, b), _swept_state(_swept_state(st, "H_mag", a), "angle_alpha",
                                             b).record_values())
                for index, (st, a, b) in enumerate(points)]
        assert repr(rows) == repr(want)
        theta = math.atan2(4.0, 3.0)
        _, _, (_, _, *fields, _, _, _) = rows[9]        # H_mag = 2, angle_alpha = 0.5
        assert fields == pytest.approx([1.2, 1.6, math.cos(theta + 0.5), math.sin(theta + 0.5)])
        assert repr(rows[12][2][2:4]) == "(-2.0, -0.0)"   # zero field, H_mag = -2


@given(lo=hst.floats(allow_nan=False, allow_infinity=False),
       hi=hst.floats(allow_nan=False, allow_infinity=False),
       steps=hst.integers(2, 2000))
@settings(max_examples=300, deadline=None)
@example(lo=1.0, hi=1.0, steps=3)
@example(lo=-0.0, hi=-0.0, steps=4)
@example(lo=5e-324, hi=1e-323, steps=7)
@example(lo=-1e300, hi=1e300, steps=11)
@example(lo=2.0, hi=-3.0, steps=2000)
def test_sweep_values_are_linspace(lo, hi, steps):
    # the axis values on plain floats have the bits of numpy.linspace
    if not math.isfinite(hi - lo):
        reject()
    got = SweepAxis("E1", lo, hi, steps).values()
    with np.errstate(over="ignore"):    # numpy's last point may overflow before it is set
        want = np.linspace(lo, hi, steps)
    assert np.array(got).tobytes() == want.tobytes()


class TestClassifyCommand:
    def test_verdicts_and_roundtrip(self, tmp_path, capsys):
        path = _write(tmp_path, MINIMAL)
        assert _run(["classify", path]) == 0
        line = capsys.readouterr().out.strip()
        rec = json.loads(line)
        assert rec["verdict"] == "ViolentlyUnstable"
        assert rec["margin"] == 0.3 ** 2 - 0.0      # exact round-trip
        assert rec["f_min"] == 0.0

    def test_output_file(self, tmp_path):
        path = _write(tmp_path, MINIMAL)
        out = tmp_path / "out.jsonl"
        assert _run(["classify", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "ViolentlyUnstable"

    def test_orthogonal_fields_neutral(self, tmp_path, capsys):
        text = "[state]\nH2 = 1.0\nHv3 = 1.0\nE1 = 0.5\n"
        assert _run(["classify", _write(tmp_path, text)]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["verdict"] == "NeutrallyStable"
        assert rec["f_min"] == 1.0
        assert rec["margin"] == 0.25 - 1.0

    def test_large_eps_warned_but_reported(self, tmp_path, capsys):
        text = "[state]\nH2 = 1.0\nHv2 = 2.0\nE1 = 0.3\neps = 0.5\n"
        assert _run(["classify", _write(tmp_path, text)]) == 0
        captured = capsys.readouterr()
        assert "small-eps" in captured.err
        assert json.loads(captured.out.strip())["verdict"] == "ViolentlyUnstable"


class TestSweepCommand:
    def test_collinear_ray_unstable(self, tmp_path):
        text = """
[state]
H2 = 1.0
Hv2 = 2.0

[sweep]
parameter = E1
min = 0
max = 2
steps = 41
"""
        out = tmp_path / "sweep.csv"
        assert _run(["sweep", _write(tmp_path, text), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# pvstab-csv v1"
        rows = [dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:]]
        assert rows[0]["verdict"] != "ViolentlyUnstable"    # E1 = 0
        assert all(r["verdict"] == "ViolentlyUnstable" for r in rows[1:])

    def test_orthogonal_flip_at_threshold(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert _run(["sweep", _write(tmp_path, SWEEP), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
        for r in rows:
            e1 = float(r["E1"])
            if e1 < 1.0:
                assert r["verdict"] == "NeutrallyStable"
            elif e1 > 1.0:
                assert r["verdict"] == "ViolentlyUnstable"
            else:
                assert r["verdict"].startswith("Transitional")

    def test_angle_sweep_matches_eigen_oracle(self, tmp_path):
        text = """
[state]
H2 = 1.0
Hv2 = 1.0
E1 = 0.6

[sweep]
parameter = angle_alpha
min = 0
max = 3.141592653589793
steps = 25
"""
        out = tmp_path / "sweep.csv"
        assert _run(["sweep", _write(tmp_path, text), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        for ln in lines[2:]:
            r = dict(zip(header, ln.split(",")))
            st = EquilibriumState(
                H_hat_t=(float(r["H2"]), float(r["H3"])),
                Hv_hat_t=(float(r["Hv2"]), float(r["Hv3"])),
                E1_hat=0.6, eps=1e-2)
            unstable = 0.36 > eigen_fmin(st) + 1e-12
            assert (r["verdict"] == "ViolentlyUnstable") == unstable

    def test_determinism_byte_identical(self, tmp_path):
        path = _write(tmp_path, SWEEP)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert _run(["sweep", path, "--out", str(out1)]) == 0
        assert _run(["sweep", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path):
        path = _write(tmp_path, SWEEP)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert _run(["sweep", path, "--out", str(out1)]) == 0
        assert _run(["sweep", path, "--out", str(out2), "--jobs", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_swept_points_are_validated(self, tmp_path):
        # eps = 0, 1.0 and 1.5 are rejected by validation, as classify does
        out = tmp_path / "sweep.csv"
        assert _run(["sweep", _write(tmp_path, EPS_SWEEP), "--out", str(out)]) == 0
        rows = _csv_rows(out)
        assert [r["error"] for r in rows] == [
            "eps must be positive, got 0.0", "", "eps must be below 1, got 1.0",
            "eps must be below 1, got 1.5"]
        assert [r["verdict"] for r in rows] == ["", "NeutrallyStable", "", ""]

    def test_missing_sweep_block_is_usage_error(self, tmp_path):
        assert _run(["sweep", _write(tmp_path, MINIMAL)]) == 1


CROSS_CHECK = """
[state]
H2 = 1.0
Hv2 = 2.0
E1 = 0.3

[sweep]
parameter = E1
min = 0
max = 0.4
steps = 3

[analysis]
cross_check = true
n_dirs = 16
"""


class TestSweepCrossCheck:
    def test_agreement_decided_outside_band_only(self, tmp_path):
        # collinear fields: E1 = 0 sits on the critical set, inside the
        # margin band; E1 = 0.2 and 0.4 are violently unstable outside it
        out = tmp_path / "sweep.csv"
        assert _run(["sweep", _write(tmp_path, CROSS_CHECK), "--out", str(out)]) == 0
        rows = _csv_rows(out)
        assert [r["agreement"] for r in rows] == ["", "True", "True"]
        assert [r["numeric_unstable"] for r in rows] == ["False", "True", "True"]
        assert all(r["error"] == "" for r in rows)

    def test_band_states_are_not_judged(self, tmp_path):
        # at eps = 0.3 the margin band is 8.6-10.4 wide while |margin| stays
        # below 0.21: no row can be judged, whatever the scan finds
        text = ("[state]\nH2 = 1.0\nHv3 = 2.0\nv2 = 1.0\neps = 0.3\nE1 = 1.0\n"
                "[sweep]\nparameter = E1\nmin = 0.9\nmax = 1.1\nsteps = 9\n"
                "[analysis]\ncross_check = true\nn_dirs = 16\n")
        out = tmp_path / "sweep.csv"
        assert _run(["sweep", _write(tmp_path, text), "--out", str(out)]) == 0
        rows = _csv_rows(out)
        assert len(rows) == 9
        for r in rows:
            assert r["agreement"] == "" and r["error"] == ""
            assert r["numeric_unstable"] in ("True", "False")

    def test_band_follows_region_override(self, tmp_path):
        # roots at Re s = 0.3 and 0.5 lie below the overridden delta = 1, so
        # the scan cannot see them; the band is taken with that delta, and
        # neither row is judged
        text = ("[state]\nH2 = 1\nHv2 = 2\n"
                "[sweep]\nparameter = E1\nmin = 0.3\nmax = 0.5\nsteps = 2\n"
                "[analysis]\ndelta = 1.0\ncross_check = true\n")
        out = tmp_path / "sweep.csv"
        assert _run(["sweep", _write(tmp_path, text), "--out", str(out)]) == 0
        rows = _csv_rows(out)
        assert [r["verdict"] for r in rows] == ["ViolentlyUnstable"] * 2
        assert [r["numeric_unstable"] for r in rows] == ["False"] * 2
        assert [r["agreement"] for r in rows] == ["", ""]

    def test_failed_direction_is_an_error_row(self, tmp_path, monkeypatch):
        import pvstab.cli as cli_mod
        from pvstab.dispersion import StateCounts
        from pvstab.state import WaveDirection

        def fake_counts(states, n_dirs=32, delta=None):
            # two directions, each counted: the first failed, the second has no root
            for _ in states:
                yield StateCounts([WaveDirection(1, 0), WaveDirection(0, 1)],
                                  [(0, False), (1, False)], [None, 0], [None, 0.1],
                                  [None, 10.0], [None, 0.0], ["boom", None], [None, None])

        monkeypatch.setattr(cli_mod, "scan_states", fake_counts)
        out = tmp_path / "sweep.csv"
        assert _run(["sweep", _write(tmp_path, CROSS_CHECK), "--out", str(out)]) == 3
        for r in _csv_rows(out):
            assert r["error"] == "1 direction(s) failed: boom"
            assert r["verdict"] and r["agreement"] == "" and r["numeric_unstable"] == ""


class TestRootsCommand:
    def test_csv_structure(self, tmp_path):
        text = MINIMAL + "\n[analysis]\nn_dirs = 8\n"
        out = tmp_path / "roots.csv"
        assert _run(["roots", _write(tmp_path, text), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# pvstab-csv v1"
        assert lines[1].split(",") == [
            "index", "omega2", "omega3", "winding", "re_s", "im_s", "abs_L",
            "delta", "R", "contour_points", "error", "flags", "certificate"]
        rows = [dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:]]
        assert len(rows) == 10          # 8 + the two antipodal minimizers
        located = [r for r in rows if r["re_s"]]
        assert located, "expected at least one located root"
        for r in located:
            assert float(r["re_s"]) == pytest.approx(0.3, abs=5e-3)


    def test_invalid_point_is_one_error_row(self, tmp_path):
        text = EPS_SWEEP.replace("steps = 4", "steps = 4\n[analysis]\nn_dirs = 8")
        out = tmp_path / "roots.csv"
        assert _run(["roots", _write(tmp_path, text), "--out", str(out)]) == 0
        rows = _csv_rows(out)
        by_index = {i: [r for r in rows if r["index"] == str(i)] for i in range(4)}
        assert [len(by_index[i]) for i in range(4)] == [1, 10, 1, 1]
        assert by_index[0][0]["error"] == "eps must be positive, got 0.0"
        assert by_index[0][0]["winding"] == ""
        assert all(r["winding"] == "0" and not r["error"] for r in by_index[1])

    def test_flags_column(self, tmp_path, monkeypatch):
        # a flagged report shows its flags on each of its root rows, and the
        # mirror image of its direction carries the same flags
        from pvstab import dispersion

        locate = dispersion._located

        def flagged(*args):
            return [(*found[:2], ("first", "second")) if found and found[0] else found
                    for found in locate(*args)]

        monkeypatch.setattr(dispersion, "_located", flagged)
        text = MINIMAL + "\n[analysis]\nn_dirs = 8\n"
        out = tmp_path / "roots.csv"
        assert _run(["roots", _write(tmp_path, text), "--out", str(out)]) == 0
        rows = _csv_rows(out)
        located = [r for r in rows if r["re_s"]]
        # omega' = (0, +-1) among the 8 directions, and the two minimizers
        assert len(located) == 4
        assert {r["omega3"][0] for r in located} == {"1", "-"}
        assert all(r["flags"] == "first; second" for r in located)
        assert all(r["flags"] == "" for r in rows if not r["re_s"])


class TestRootsRegionOverride:
    def test_analysis_region_excludes_root(self, tmp_path):
        # the known root sits near 0.3; a region starting at Re s = 1 must
        # report zero windings everywhere
        text = MINIMAL + "\n[analysis]\nn_dirs = 8\ndelta = 1.0\n"
        out = tmp_path / "roots.csv"
        assert _run(["roots", _write(tmp_path, text), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        rows = [dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:]]
        assert all(r["winding"] == "0" for r in rows)
        assert all(float(r["delta"]) == pytest.approx(1.0, rel=0.11) for r in rows)

    def test_radius_is_proven_at_overridden_delta(self, tmp_path):
        # a small delta needs a larger radius than the default delta: the
        # dip of |1 + eps^2 s^2| at |s| = 1/eps must be cleared by the
        # radius proven at the least jittered delta, 0.9e-6
        text = MINIMAL + "\n[analysis]\nn_dirs = 8\ndelta = 1e-6\n"
        out = tmp_path / "roots.csv"
        assert _run(["roots", _write(tmp_path, text), "--out", str(out)]) == 0
        st = parse_scenario(_write(tmp_path, MINIMAL, "state.scn")).states[0]
        radius = default_region(st, 1e-6).radius
        assert radius >= root_radius_bound(st, 0.9e-6) / 0.9 > 118.0
        rows = _csv_rows(out)
        assert len(rows) >= 10 and all(float(r["R"]) == radius for r in rows)


class TestModesCommand:
    def test_neutral_scenario_writes_note(self, tmp_path):
        text = "[state]\nH2 = 1.0\nHv3 = 1.0\nE1 = 0.5\n"
        out = tmp_path / "modes.jsonl"
        assert _run(["modes", _write(tmp_path, text), "--out", str(out)]) == 0
        recs = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert len(recs) == 1 and "note" in recs[0]

    def test_transitional_state_gets_sqrt_eps_modes(self, tmp_path):
        # exactly on the critical set with flow: the growing root is at
        # sqrt(eps) scale and must still produce a mode dump
        text = "[state]\nH2 = 1.0\nHv3 = 2.0\nE1 = 1.0\nv2 = 1.0\n"
        out = tmp_path / "modes.jsonl"
        assert _run(["modes", _write(tmp_path, text), "--out", str(out)]) == 0
        recs = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert [r.get("n") for r in recs] == [1, 10, 100]
        assert recs[0]["s"][0] == pytest.approx(2 * math.sqrt(1e-2), rel=0.1)

    def test_degenerate_transitional_searches_directions(self, tmp_path):
        # constant-F state: the representative direction carries no growth,
        # but the 45-degree one does; the dump must not come back empty
        text = "[state]\nH2 = 1.0\nHv3 = 1.0\nE1 = 1.0\nv3 = 1.0\n"
        out = tmp_path / "modes.jsonl"
        assert _run(["modes", _write(tmp_path, text), "--out", str(out)]) == 0
        recs = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert [r.get("n") for r in recs] == [1, 10, 100]
        for r in recs:
            assert r["s"][0] > 0
            assert max(r["residuals"]["pressure"],
                       r["residuals"]["constraints"]) <= 1e-10

    def test_each_mode_is_built_once(self, tmp_path, monkeypatch):
        # n = 1, 10, 100 per unstable state, for its record and its growth
        # rows alike: the rows that reach the mode kernel, in one call
        import pvstab.modes as modes_mod

        built = []

        def counting(cols, n, phi):
            built.append(n.tolist())
            return original(cols, n, phi)

        original = modes_mod._build
        monkeypatch.setattr(modes_mod, "_build", counting)
        text = MINIMAL + "\n[sweep]\nparameter = E1\nmin = 0.3\nmax = 0.4\nsteps = 2\n"
        out = tmp_path / "modes.jsonl"
        assert _run(["modes", _write(tmp_path, text), "--out", str(out)]) == 0
        assert built == [[1, 10, 100, 1, 10, 100]]
        assert [json.loads(ln)["n"] for ln in out.read_text().splitlines()] == built[0]

    def test_unlocated_root_is_a_note_inside_the_band(self, tmp_path):
        # unstable states whose direction of growth shows no root once wrote
        # nothing; inside the margin band they get one note each, never an
        # error row (a state of seed 7 of the modes benchmark, and a collinear
        # state at the magnitude bound)
        text = ("[state]\nv2 = 1.751402964502863\nv3 = -1.298559817601137\n"
                "H2 = 1.2399446229916897\nH3 = 1.4598076194403267\n"
                "Hv2 = -0.029741616383380354\nHv3 = -1.5719853038172515\n"
                "E1 = 0.8474865056754226\n"
                "[state]\nH2 = 1e50\nHv2 = 1e50\nE1 = 1e50\nv2 = 1e50\n" + MINIMAL)
        out = tmp_path / "modes.jsonl"
        assert _run(["modes", _write(tmp_path, text), "--out", str(out)]) == 0
        recs = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert [sorted(r) for r in recs[:2]] == [["index", "note"]] * 2
        assert [r["index"] for r in recs[:2]] == [0, 1]
        assert recs[0]["note"] == ("no root located in the direction of growth; "
                                   "margin 0.0551681, band 0.210764")
        assert [(r["index"], r["n"]) for r in recs[2:]] == [(2, 1), (2, 10), (2, 100)]
        # a note stands for its state: no "nothing unstable" note after it
        alone = text.split("[state]\nH2 = 1e50")[0]
        assert _run(["modes", _write(tmp_path, alone), "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [json.dumps(recs[0])]

    def test_unlocated_root_outside_the_band_is_an_error(self, tmp_path, monkeypatch):
        import pvstab.cli as cli_mod
        from pvstab.dispersion import StateCounts

        def no_roots(states, directions, deltas):
            regions = [default_region(st, delta) for st, delta in zip(states, deltas)]
            n = len(regions)
            return StateCounts(list(directions), [(j, False) for j in range(n)], [0] * n,
                               [r.delta for r in regions], [r.radius for r in regions],
                               [0.0] * n, [None] * n, [None] * n)

        monkeypatch.setattr(cli_mod, "locate_roots", no_roots)
        out = tmp_path / "modes.jsonl"
        assert _run(["modes", _write(tmp_path, MINIMAL), "--out", str(out)]) == 3
        recs = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert recs[0] == {"index": 0, "error": "no root located in the direction of "
                                                "growth; margin 0.09, band 0.0168333"}
        assert recs[1:] == [{"note": "no unstable state/direction found; no modes to dump"}]

    def test_bad_point_does_not_lose_the_run(self, tmp_path):
        text = MINIMAL + "\n[sweep]\nparameter = eps\nmin = 0\nmax = 0.02\nsteps = 3\n"
        out = tmp_path / "modes.jsonl"
        assert _run(["modes", _write(tmp_path, text), "--out", str(out)]) == 0
        recs = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert recs[0] == {"index": 0, "error": "eps must be positive, got 0.0"}
        for index in (1, 2):
            assert [r["n"] for r in recs if r["index"] == index] == [1, 10, 100]

    def test_unstable_scenario_mode_records(self, tmp_path):
        out = tmp_path / "modes.jsonl"
        assert _run(["modes", _write(tmp_path, MINIMAL), "--out", str(out)]) == 0
        recs = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert [r["n"] for r in recs] == [1, 10, 100]
        for r in recs:
            assert max(r["residuals"]["pressure"],
                       r["residuals"]["constraints"]) <= 1e-10
            assert len(r["growth"]) == 3
            n, re_s = r["n"], r["s"][0]
            for g in r["growth"]:
                assert g["log_ratio"] == pytest.approx(n * re_s * g["t"])


class TestValidateCommand:
    def test_small_sample_full_agreement(self, tmp_path):
        text = "[state]\nH2 = 1.0\nHv2 = 2.0\nE1 = 0.3\n" \
               "[analysis]\nsample = 25\nn_dirs = 16\n"
        out = tmp_path / "val.jsonl"
        assert _run(["validate", _write(tmp_path, text), "--out", str(out),
                     "--seed", "2"]) == 0
        recs = [json.loads(ln) for ln in out.read_text().splitlines()]
        summary = recs[-1]["summary"]
        assert summary["checked"] == 25
        assert summary["agreement"] == 1.0
        assert summary["disagreements"] == 0

    def test_band_states_are_counted_not_judged(self):
        import numpy as np
        rng = np.random.default_rng(0)
        n_band = 0
        for _ in range(200):
            st = sample_validation_state(rng)
            from pvstab.criterion import classify
            cls = classify(st)
            if abs(cls.margin) <= margin_band(st, cls.tol_eq, default_delta(st)):
                n_band += 1
        assert 0 < n_band < 100     # the filter trims a minority of draws


    def test_band_uses_overridden_delta(self, tmp_path):
        from pvstab.criterion import classify

        text = "[state]\nH2 = 1.0\n[analysis]\nsample = 3\nn_dirs = 8\ndelta = 0.2\n"
        out = tmp_path / "val.jsonl"
        assert _run(["validate", _write(tmp_path, text), "--out", str(out)]) == 0
        recs = [json.loads(ln) for ln in out.read_text().splitlines()[:-1]]
        assert len(recs) == 3
        for r in recs:
            st = EquilibriumState.from_record(
                {k: r[k] for k in EquilibriumState.RECORD_KEYS})
            cls = classify(st)
            assert r["band"] == margin_band(st, cls.tol_eq, 0.2)
            assert abs(r["margin"]) > r["band"] and r["agree"] is True

    def test_disagreement_exits_with_gate_code(self, tmp_path, monkeypatch):
        # force the scan to contradict the classifier: the gate must exit 2
        import pvstab.cli as cli_mod
        from pvstab.dispersion import StateCounts

        def fake_counts(states, n_dirs=32, delta=None):
            for _ in states:            # no direction, so no root anywhere
                yield StateCounts(*[[]] * 8)

        monkeypatch.setattr(cli_mod, "scan_states", fake_counts)
        text = "[state]\nH2 = 1.0\nHv2 = 2.0\nE1 = 0.3\n" \
               "[analysis]\nsample = 5\nn_dirs = 16\n"
        out = tmp_path / "val.jsonl"
        code = _run(["validate", _write(tmp_path, text), "--out", str(out)])
        recs = [json.loads(ln) for ln in out.read_text().splitlines()]
        if any(r.get("verdict", "").endswith("Unstable") for r in recs[:-1]):
            assert code == 2
        else:  # pragma: no cover - seed dependent, all-neutral draw
            assert code == 0

    def test_draws_are_checked_and_classified_once(self, tmp_path, monkeypatch):
        # every drawn state, band states included, goes through _checked:
        # validated by check_values (through check_block) and given one
        # threshold row
        import io

        import pvstab.cli as cli_mod
        import pvstab.state as state_mod

        def spy(calls, function):
            return lambda *args: calls.append(args) or function(*args)

        scenario = parse_scenario(_write(tmp_path, MINIMAL + "[analysis]\nsample = 25\n"
                                                            "n_dirs = 8\n"))
        checks, thresholds = [], []
        monkeypatch.setattr(state_mod, "check_values", spy(checks, state_mod.check_values))
        monkeypatch.setattr(cli_mod, "threshold_values",
                            spy(thresholds, cli_mod.threshold_values))
        out = io.StringIO()
        assert cli_mod.cmd_validate(scenario, out, seed=3) == 0
        summary = json.loads(out.getvalue().splitlines()[-1])["summary"]
        assert summary["band"] > 0 and summary["checked"] == 25
        assert len(checks) == len(thresholds) == summary["sampled"]

    def test_rejected_draw_is_an_error_record(self, tmp_path, monkeypatch):
        # a drawn state that validation rejects is one error record, counted
        # with the failures and never judged; the other draws are judged
        import dataclasses

        import pvstab.cli as cli_mod

        draws = iter(range(10 ** 6))

        def sampler(rng):
            st = sample_validation_state(rng)
            return dataclasses.replace(st, eps=1.5) if next(draws) % 3 == 0 else st

        monkeypatch.setattr(cli_mod, "sample_validation_state", sampler)
        text = MINIMAL + "[analysis]\nsample = 6\nn_dirs = 8\n"
        out = tmp_path / "val.jsonl"
        assert _run(["validate", _write(tmp_path, text), "--out", str(out)]) == 0
        *recs, summary = (json.loads(ln) for ln in out.read_text().splitlines())
        rejected = [r for r in recs if r["eps"] == 1.5]
        assert len(recs) == 6 and rejected
        for r in rejected:
            assert r == {"index": r["index"], **{k: r[k] for k in EquilibriumState.RECORD_KEYS},
                         "error": "eps must be below 1, got 1.5"}
        assert all(r["agree"] for r in recs if r["eps"] != 1.5)
        assert summary["summary"]["root_finder_failures"] == len(rejected)
        assert summary["summary"]["checked"] == 6 - len(rejected)


EPS_INVALID = EPS_SWEEP.replace("min = 0", "min = 1.0").replace(
    "steps = 4", "steps = 3\n[analysis]\nn_dirs = 8")


@pytest.mark.parametrize("command", ["classify", "roots", "modes", "sweep"])
def test_every_point_failing_exits_3(tmp_path, command):
    # eps = 1.0, 1.25, 1.5: every grid point fails validation, so every
    # command writes only error rows and reports a numerical failure
    out = tmp_path / "out.txt"
    assert _run([command, _write(tmp_path, EPS_INVALID), "--out", str(out)]) == 3
    assert out.read_text().count("eps must be below 1") == 3


def test_flags_in_modes_and_validate_records(tmp_path, monkeypatch):
    # a record carries the flags of its reports only when there are some:
    # none at the certification threshold, one per located root once no
    # residual can be certified
    from pvstab import dispersion

    def records(command, text):
        out = tmp_path / f"{command}.jsonl"
        _run([command, _write(tmp_path, text), "--out", str(out), "--seed", "3"])
        return [json.loads(ln) for ln in out.read_text().splitlines()]

    modes_text = MINIMAL
    validate_text = MINIMAL + "\n[analysis]\nsample = 6\nn_dirs = 8\n"
    plain = records("modes", modes_text) + records("validate", validate_text)[:-1]
    assert not any("flags" in r for r in plain)
    monkeypatch.setattr(dispersion, "_ROOT_RESIDUAL", 0.0)
    modes = records("modes", modes_text)
    assert [r["n"] for r in modes] == [1, 10, 100]
    for r, base in zip(modes, plain[:3]):
        flags = r.pop("flags")
        assert flags and all("above certification" in f for f in flags)
        assert r == base
    validate = records("validate", validate_text)[:-1]
    unstable = [r for r in validate if r["numeric_unstable"]]
    assert unstable and len(unstable) < len(validate)
    for r, base in zip(validate, plain[3:]):
        flags = r.pop("flags", [])
        assert bool(flags) == r["numeric_unstable"]
        assert all("above certification" in f for f in flags)
        assert r == base


@pytest.mark.parametrize("command", ["roots", "modes"])
def test_batch_rows_equal_rows_alone(tmp_path, command):
    # three states swept in eps over 0..0.75 run as one batch: eps = 0 is
    # one error row per state, and every other point's rows are those of
    # its state run alone
    from pvstab.cli import _params

    text = ("[state]\nH2 = 1\nHv2 = 2\nE1 = 0.3\n"
            "[state]\nH2 = 1\nHv3 = 2\nE1 = 1\nv2 = 1\n"
            "[state]\nH2 = 1\nHv3 = 1\nE1 = 0.5\nv3 = 0.4\n"
            "[sweep]\nparameter = eps\nmin = 0\nmax = 0.75\nsteps = 4\n"
            "[analysis]\nn_dirs = 8\n")

    def rows(text, name):
        out = tmp_path / name
        assert _run([command, _write(tmp_path, text, name + ".scn"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        if command == "roots":
            return [ln.split(",", 1) for ln in lines[2:]]
        return [(str(r.pop("index", "")), json.dumps(r)) for r in map(json.loads, lines)]

    batch = rows(text, "batch")
    grid = [(index, values) for block in parse_scenario(_write(tmp_path, text)).grid()
            for index, _, values in block]
    for index, values in grid:
        mine = [rest for i, rest in batch if i == str(index)]
        if values[7] == 0.0:        # eps
            assert len(mine) == 1 and "eps must be positive" in mine[0]
            continue
        alone = "[state]\n" + "".join(f"{k} = {v!r}\n" for k, v in
                                       _params(values).items())
        want = [rest for i, rest in rows(alone + "[analysis]\nn_dirs = 8\n", f"alone{index}")
                if i == "0"]
        assert mine == want, index
    assert len(batch) > len(grid)


def _rows_by_index(path):
    # the output lines of each grid index, CSV or JSON lines
    lines = path.read_text().splitlines()
    rows: dict = {}
    if lines[0] == "# pvstab-csv v1":
        for ln in lines[2:]:
            rows.setdefault(int(ln.split(",", 1)[0]), []).append(ln)
    else:
        for ln in lines:
            rows.setdefault(json.loads(ln).get("index"), []).append(ln)
    return rows


def _assert_finite(path):
    # every number written is finite, but the growth ratio exp(n Re(s) t),
    # which overflows by design once n Re(s) t >= 700
    lines = path.read_text().splitlines()
    if lines[0] == "# pvstab-csv v1":
        for row in csv.DictReader(lines[1:]):
            for key, cell in row.items():
                if cell and key not in ("error", "flags", "certificate"):
                    assert math.isfinite(float(cell)), (key, cell)
        return

    def walk(x, key=None):
        if isinstance(x, dict):
            if "log_ratio" in x and x["log_ratio"] >= 700.0:
                x = {k: v for k, v in x.items() if k != "ratio"}
            for k, v in x.items():
                walk(v, k)
        elif isinstance(x, list):
            for v in x:
                walk(v, key)
        elif isinstance(x, float):
            assert math.isfinite(x), key

    for ln in lines:
        walk(json.loads(ln))


class TestMagnitudeBound:
    # components and E1 are bounded by state.MAX_MAGNITUDE = 1e50

    @pytest.mark.parametrize("command", ["classify", "roots", "modes", "sweep"])
    @pytest.mark.parametrize("text, name, value", [
        ("[state]\nH2 = 1e308\nHv2 = 1e308\n", "H2", "1e+308"),
        ("[state]\nH2 = 1e100\nHv2 = 2e100\nE1 = 3e99\n", "H2", "1e+100"),
        ("[state]\nv2 = 1\nv3 = -2e50\n", "v3", "2e+50"),
    ])
    def test_huge_state_is_a_parse_error(self, tmp_path, capsys, command, text, name, value):
        # once a traceback at parse time, or -Infinity in classify and a
        # traceback from the winding count in roots and modes
        assert _run([command, _write(tmp_path, text)]) == 1
        assert capsys.readouterr() == ("", (
            f"pvstab: line 1: invalid [state] block: |{name}| = {value} exceeds "
            "1e+50, the largest magnitude the analysis represents\n"))

    @pytest.mark.parametrize("command", ["classify", "roots", "modes", "sweep"])
    def test_points_past_the_bound_are_error_rows(self, tmp_path, command):
        # H_mag = 1, 5e199, 1e200: the run used to die on the second point
        text = ("[state]\nH2 = 1\nHv2 = 0.5\nE1 = 0.3\n"
                "[sweep]\nparameter = H_mag\nmin = 1\nmax = {}\nsteps = 3\n"
                "[analysis]\nn_dirs = 8\n")
        out, near = tmp_path / "out.txt", tmp_path / "near.txt"
        assert _run([command, _write(tmp_path, text.format("1e200")), "--out", str(out)]) == 0
        assert _run([command, _write(tmp_path, text.format("2"), "near.scn"),
                     "--out", str(near)]) == 0
        rows = _rows_by_index(out)
        assert rows[0] == _rows_by_index(near)[0]
        for index, value in ((1, "5e+199"), (2, "1e+200")):
            assert len(rows[index]) == 1
            assert f"|H2| = {value} exceeds 1e+50" in rows[index][0]

    @pytest.mark.parametrize("eps", ["1e-52", "0.5"])
    @pytest.mark.parametrize("command", ["classify", "roots", "modes"])
    def test_state_at_the_bound_stays_finite(self, tmp_path, command, eps):
        # at eps = 1e-52 the state is the image, under the scaling of the
        # analysis, of a unit state at eps = 1e-2: it has a root to locate
        # and modes to build; at eps = 0.5 the counting radius reaches 1.6e100
        text = ("[state]\nv2 = 1e50\nv3 = -1e50\nH2 = 1e50\nH3 = -1e50\n"
                f"Hv2 = -1e50\nHv3 = 1e50\nE1 = 1e50\neps = {eps}\n"
                "[analysis]\nn_dirs = 8\n")
        out = tmp_path / "out.txt"
        assert _run([command, _write(tmp_path, text), "--out", str(out)]) == 0
        _assert_finite(out)
        if eps == "1e-52" and command != "classify":
            assert "e+49" in out.read_text()        # a root at Re s ~ 1e50


class TestUsage:
    # exit code 2 is the validation gate's: a usage error exits 1

    @pytest.mark.parametrize("argv, message", [
        (["bogus", "x.scn"], "argument command: invalid choice: 'bogus'"),
        (["validate", "x.scn", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["validate", "x.scn", "--seed", "-1"],
         "argument --seed: must be non-negative, got -1"),
        ([], "the following arguments are required: command, scenario"),
    ])
    def test_usage_error_exits_1(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: pvstab ")
        assert f"pvstab: error: {message}" in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pvstab ")


@pytest.mark.parametrize("command", [cmd_classify, cmd_sweep])
def test_rows_are_written_as_they_go(tmp_path, monkeypatch, command):
    # classify and sweep without cross_check write the rows of a block, one
    # string, before they build the next block: they hold at most one block
    # of at most BLOCK_POINTS points
    import io

    import pvstab.cli as cli_mod

    monkeypatch.setattr(cli_mod, "BLOCK_POINTS", 8)
    scenario = parse_scenario(_write(tmp_path, SWEEP))
    out, blocks = io.StringIO(), scenario.grid
    lines, sizes, writes = [], [], []

    def grid():
        for block in blocks():
            lines.append(out.getvalue().count("\n"))
            sizes.append(len(block))
            yield block

    def write(text):
        writes.append(text.count("\n"))
        return io.StringIO.write(out, text)

    scenario.grid = grid
    monkeypatch.setattr(out, "write", write)
    assert command(scenario, out) == 0
    assert sizes == [8] * 5 + [1]
    header = 2 if command is cmd_sweep else 0
    assert lines == [header + 8 * k for k in range(6)]
    assert writes[-6:] == sizes and sum(writes) == header + 41


_SWEEP_RANGES = {"E1": (-2.0, 3.0), "angle_alpha": (0.0, math.pi), "H_mag": (-1.0, 2.0),
                 "Hv_mag": (0.0, 2.5), "v2": (-1.0, 1.0), "v3": (-2.0, 2.0),
                 "eps": (-0.5, 1.5)}    # eps = -0.5, 0 and 1.5 are rejected points
_CORNER_STATES = (
    "[state]\nH2 = 1\nHv2 = 2\nE1 = 0.3\nv2 = 0.5\n",                  # collinear
    "[state]\nH2 = 1\nHv3 = 1\nE1 = 0.5\nv2 = 0.5\nv3 = 0.2\n",        # constant F
    "[state]\nv2 = 1\nE1 = 0.3\n",                                      # zero fields
    "[state]\nv2 = 1e49\nv3 = -1e49\nH2 = 1e49\nH3 = -2e49\nHv2 = -1e49\nHv3 = 3e49\n"
    "E1 = 1e49\n",
    "[state]\nv2 = 0.3\nv3 = -0.7\nH2 = 1.1\nH3 = 0.4\nHv2 = -0.6\nHv3 = 1.3\nE1 = 0.8\n",
)


def _axis(name, steps, lo=None, hi=None):
    lo = _SWEEP_RANGES[name][0] if lo is None else lo
    hi = _SWEEP_RANGES[name][1] if hi is None else hi
    return f"[sweep]\nparameter = {name}\nmin = {lo!r}\nmax = {hi!r}\nsteps = {steps}\n"


def _rows_point_by_point(scenario):
    """The sweep CSV and classify JSON lines of each grid point built on its
    own by `_swept_state`, validate_state and classify, and with
    ``cross_check`` judged alone (`judge_verdicts` on a batch of one)."""
    import io
    import itertools

    from pvstab.cli import judge_verdicts
    from pvstab.criterion import classify
    from pvstab.errors import PvstabError, StateValidationError
    from pvstab.state import validate_state

    axes = [(a.parameter, [float(v) for v in np.linspace(a.min, a.max, a.steps)])
            for a in scenario.sweeps]
    sweep, lines = io.StringIO(), []
    writer = csv.writer(sweep, lineterminator="\n")
    index = 0
    for st in scenario.states:
        for coords in itertools.product(*(values for _, values in axes)):
            point = st
            for (name, _), v in zip(axes, coords):
                point = _swept_state(point, name, v)
            head = [index, *coords, *point.record_values()]
            try:
                _, warns = validate_state(point)
            except StateValidationError as err:
                writer.writerow(head + [None] * 10 + [str(err)])
                lines.append(json.dumps({"index": index, "error": str(err)},
                                        separators=(", ", ": ")))
                index += 1
                continue
            cls = classify(point)
            tail = [None] * 4
            if scenario.analysis.cross_check:
                (verdict,) = judge_verdicts([point], [cls], scenario.analysis)
                if isinstance(verdict, PvstabError):
                    tail[3] = str(verdict)
                else:
                    summary, agree = verdict
                    tail[:3] = summary.numerically_unstable, summary.max_re_s, agree
            writer.writerow(head + [cls.verdict.value, cls.margin, cls.f_min,
                                    cls.minimizer.omega2, cls.minimizer.omega3,
                                    cls.transitional_G, cls.degenerate] + tail)
            rec = {"index": index, **dict(zip((name for name, _ in axes), coords)),
                   **{k: float(v) for k, v in zip(EquilibriumState.RECORD_KEYS,
                                                  point.record_values())},
                   **cls.to_record(), "warnings": warns}
            lines.append(json.dumps(rec, ensure_ascii=False, separators=(", ", ": ")))
            index += 1
    return sweep.getvalue().splitlines(), lines


def _assert_blocks_equal_points(tmp_path, text):
    scenario = parse_scenario(_write(tmp_path, text))
    want_sweep, want_classify = _rows_point_by_point(scenario)
    for command, want in (("sweep", want_sweep), ("classify", want_classify)):
        out = tmp_path / f"{command}.txt"
        assert _run([command, _write(tmp_path, text), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[2 if command == "sweep" else 0:] == want, command


@pytest.mark.parametrize("inner", SWEEP_PARAMETERS)
def test_blocks_equal_points(tmp_path, inner):
    # every row of a block-built grid is the row of its point built alone,
    # with each parameter the inner axis below each outer axis, over the
    # corner states and rejected points
    states = "".join(_CORNER_STATES)
    for outer in SWEEP_PARAMETERS:
        if outer != inner:
            _assert_blocks_equal_points(tmp_path, states + _axis(outer, 3) + _axis(inner, 5))


@pytest.mark.parametrize("inner", SWEEP_PARAMETERS)
def test_cross_checked_rows_equal_rows_alone(tmp_path, inner):
    # a cross-checked sweep scans its valid points as one batch: each row,
    # spelled from its block's template, is the row of its point classified
    # and judged alone, over the corner states and rejected points
    outer = "v2" if inner == "E1" else "E1"
    _assert_blocks_equal_points(tmp_path, "".join(_CORNER_STATES) + _axis(outer, 2)
                                + _axis(inner, 3) + "[analysis]\ncross_check = true\n"
                                "n_dirs = 8\n")


@pytest.mark.parametrize("inner", SWEEP_PARAMETERS)
def test_threshold_once_per_block(tmp_path, monkeypatch, inner):
    # the field-only threshold is evaluated once per block (one with a valid
    # point) when the inner axis leaves H' and Hv' fixed, once per valid
    # point when it moves them, never for a rejected point, and once per
    # state without a sweep
    import pvstab.cli as cli_mod
    from pvstab.criterion import threshold_values
    from pvstab.state import check_values

    calls = []

    def spy(*args):
        calls.append(args)
        return threshold_values(*args)

    monkeypatch.setattr(cli_mod, "threshold_values", spy)
    states = "".join(_CORNER_STATES)
    if inner == "eps":      # rejected points: eps = -0.5 and -0.15
        axes = _axis("v2", 3) + _axis("eps", 5, -0.5, 0.9)
    else:   # rejected points: eps = -0.5 and 1.5, and |x| = 2e50 on an inner axis
        wide = () if inner == "angle_alpha" else (-2e50, 2e50)
        axes = _axis("eps", 3) + _axis(inner, 5, *wide)
    path = _write(tmp_path, states + axes)
    valid = [[not isinstance(check_values(*values), str) for _, _, values in block]
             for block in parse_scenario(path).grid()]
    assert not all(map(all, valid))
    want = sum(map(sum, valid))
    if inner in ("E1", "v2", "v3", "eps"):
        assert any(any(v) and not all(v) for v in valid)
        want = sum(map(any, valid))
        assert want < sum(map(sum, valid))
    for command in ("sweep", "classify"):
        calls.clear()
        assert _run([command, path, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == want, command
    calls.clear()
    assert _run(["classify", _write(tmp_path, states), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == len(_CORNER_STATES)


# outer axes under which whole blocks are rejected by a cell the inner axis
# does not set: eps*|sigma| >= 1 at the upper eps levels of the sigma = 90
# state, |H2| or |Hv2| past the bound 1e50, and eps past 0 and 1
_SHARED_REJECTIONS = (_axis("eps", 5, 0.001, 0.05), _axis("H_mag", 5, -2e50, 2e50),
                      _axis("Hv_mag", 5, 0.0, 2e50), _axis("eps", 5))
_SIGMA_STATE = "[state]\nH2 = 1\nHv3 = 1.5\nE1 = 0.7\nv2 = 0.2\nsigma = 90\n"


def _shared_rejection_scenarios(tmp_path, inner):
    """The parsed scenarios of `_SHARED_REJECTIONS` over ``inner``, an inner
    magnitude axis reaching past the bound too (`_axis` for the others)."""
    wide = () if inner in ("angle_alpha", "eps") else (-2e50, 2e50)
    states = "".join(_CORNER_STATES) + _SIGMA_STATE
    return [parse_scenario(_write(tmp_path, states + outer + _axis(inner, 7, *wide)))
            for outer in _SHARED_REJECTIONS if f"parameter = {inner}\n" not in outer]


@pytest.mark.parametrize("inner", SWEEP_PARAMETERS)
def test_block_check_equals_check_alone(tmp_path, inner):
    # each point's outcome from a block checked as one (its shared cells
    # once, its swept cells alone) is check_values on the point alone: the
    # same rejection message, naming the first failure in record order, or
    # the same warnings, also in blocks whose shared cells are rejected
    from pvstab.cli import _SWEPT_COLUMNS, _checked
    from pvstab.errors import StateValidationError
    from pvstab.state import _shared_cells_hold, check_values

    swept = _SWEPT_COLUMNS[inner]
    n_shared_rejected = n_swept_rejected = 0
    for scenario in _shared_rejection_scenarios(tmp_path, inner):
        for block, points in zip(scenario.grid(), _checked(scenario)):
            assert [p[:3] for p in points] == block
            shared_ok = _shared_cells_hold(block[0][2], swept)
            n_shared_rejected += not shared_ok
            for _, _, values, outcome in points:
                want = check_values(*values)
                if isinstance(want, str):
                    assert isinstance(outcome, StateValidationError), values
                    assert str(outcome) == want, values
                    n_swept_rejected += shared_ok
                else:
                    assert outcome[2] == want, values
    assert n_shared_rejected and n_swept_rejected


@pytest.mark.parametrize("inner", SWEEP_PARAMETERS)
def test_shared_cells_checked_once_per_block(monkeypatch, tmp_path, inner):
    # a swept block checks its shared cells once, and checks the full record
    # of a point only when that point is rejected; without a sweep every
    # point's full record is checked
    import pvstab.state as state_mod
    from pvstab.cli import _checked
    from pvstab.errors import StateValidationError

    shared, full = [], []

    def spy(calls, check):
        return lambda *args: calls.append(args) or check(*args)

    monkeypatch.setattr(state_mod, "_shared_cells_hold",
                        spy(shared, state_mod._shared_cells_hold))
    monkeypatch.setattr(state_mod, "check_values", spy(full, state_mod.check_values))
    for scenario in _shared_rejection_scenarios(tmp_path, inner):
        shared.clear()
        full.clear()
        blocks = list(_checked(scenario))
        assert len(shared) == len(blocks)
        rejected = [values for points in blocks for _, _, values, outcome in points
                    if isinstance(outcome, StateValidationError)]
        assert rejected and len(rejected) < sum(map(len, blocks))
        assert full == rejected
    scenario = parse_scenario(_write(tmp_path, "".join(_CORNER_STATES) + _SIGMA_STATE))
    shared.clear()
    full.clear()
    blocks = list(_checked(scenario))
    assert not shared
    assert full == [values for points in blocks for _, _, values, _ in points]


@pytest.mark.parametrize("text", [
    # magnitudes past the bound 1e50 on both axes
    _CORNER_STATES[3] + _axis("H_mag", 4, 1.0, 1e60) + _axis("E1", 3, 0.0, 2e50),
    # an inner axis longer than a block, and a run of states without a sweep
    _CORNER_STATES[0] + _axis("angle_alpha", 2) + _axis("E1", 2100, -3.0, 3.0),
    "".join(_CORNER_STATES[k % 5] + f"sigma = {0.01 * k!r}\n" for k in range(1100)),
], ids=["past_bound", "long_inner_axis", "long_state_run"])
def test_long_and_rejected_blocks_equal_points(tmp_path, text):
    if "[sweep]" in text:
        _assert_blocks_equal_points(tmp_path, text)
        return
    # no sweep: classify only, one block per BLOCK_POINTS states
    from pvstab.cli import BLOCK_POINTS

    scenario = parse_scenario(_write(tmp_path, text))
    assert [b[0][0] for b in scenario.grid()] == [0, BLOCK_POINTS]
    scenario.sweeps = []
    want = _rows_point_by_point(scenario)[1]
    out = tmp_path / "classify.txt"
    assert _run(["classify", _write(tmp_path, text), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == want


def test_margin_squares_e1_by_pow(tmp_path):
    # E1**2 and E1*E1 can differ in the last bit (pow need not round
    # correctly): with E1*E1 this margin reads 0.022377115653071905
    text = "[state]\nH2 = 1\nHv2 = 2\nE1 = 0.14958982469764415\n"
    out = tmp_path / "out.txt"
    assert _run(["classify", _write(tmp_path, text), "--out", str(out)]) == 0
    assert '"margin": 0.02237711565307191,' in out.read_text()
    sweep = text + _axis("eps", 2, 0.01, 0.02)
    assert _run(["sweep", _write(tmp_path, sweep), "--out", str(out)]) == 0
    rows = _csv_rows(out)
    assert [r["margin"] for r in rows] == ["0.02237711565307191"] * 2


_CELLS = hst.one_of(
    hst.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 0.1,
                      1e300, True, False, 1, 0, 1.0, None, "", np.float64(0.1),
                      np.float64(-0.0), np.int64(7), np.bool_(True), "a,b", 'say "x"',
                      "two\nlines", "; ", " padded "]),
    hst.floats(), hst.integers(-10**20, 10**20), hst.text(max_size=8))


@settings(max_examples=300, deadline=None)
@given(hst.lists(hst.lists(_CELLS, min_size=3, max_size=3), max_size=12))
def test_csv_rows_writes_what_csv_writer_writes(rows):
    import io

    from pvstab.cli import _csv_rows

    columns = ["a", "b", "c"]
    rows = rows + rows[:3]          # repeated values come back from the cache
    got, want = io.StringIO(), io.StringIO()
    line = _csv_rows(got, columns)
    got.write("".join(map(line, rows)))
    want.write("# pvstab-csv v1\n")
    csv.writer(want, lineterminator="\n").writerows([columns] + rows)
    assert got.getvalue() == want.getvalue()


def test_pinned_rows(tmp_path):
    # the spellings of -0.0, empty cells and quoted errors in a sweep row, and
    # of a roots row without roots and one of a rejected point
    text = ("[state]\nv2 = -0.0\nH2 = -0.0\nH3 = 1\nHv2 = 2\nHv3 = -0.0\nE1 = -0.0\n"
            "[sweep]\nparameter = eps\nmin = 0\nmax = 0.02\nsteps = 3\n"
            "[analysis]\nn_dirs = 8\n")
    path = _write(tmp_path, text)
    sweep, roots = tmp_path / "sweep.csv", tmp_path / "roots.csv"
    assert _run(["sweep", path, "--out", str(sweep)]) == 0
    assert _run(["roots", path, "--out", str(roots)]) == 0
    lines = sweep.read_text().splitlines()
    assert lines[2] == ('0,0.0,-0.0,0.0,-0.0,1.0,2.0,-0.0,-0.0,0.0,0.0,,,,,,,,,,,'
                        '"eps must be positive, got 0.0"')
    assert lines[3] == ("1,0.01,-0.0,0.0,-0.0,1.0,2.0,-0.0,-0.0,0.01,0.0,NeutrallyStable,"
                        "-1.0,1.0,6.123233995736766e-17,1.0,,False,,,,")
    lines = roots.read_text().splitlines()
    assert lines[2] == '0,,,,,,,,,,"eps must be positive, got 0.0",,'
    assert lines[3] == "1,1.0,0.0,0,,,,0.04,40.0,,,,inclusion"


@pytest.mark.parametrize("command", ["roots", "modes"])
def test_tiny_eps_state_is_located(tmp_path, command):
    # at eps = 1e-160 the companion matrix of the root polynomial is not
    # finite, and its reverse is solved instead: that state's roots are
    # located (their values are checked at 50 digits in test_inclusion), and
    # the other state's rows are those it has alone
    healthy = "[state]\nH2 = 1\nHv2 = 2\nE1 = 0.3\n"
    text = healthy + "eps = 1e-160\n" + healthy
    both, alone = tmp_path / "both.txt", tmp_path / "alone.txt"
    assert _run([command, _write(tmp_path, text), "--out", str(both)]) == 0
    assert _run([command, _write(tmp_path, healthy, "alone.scn"), "--out", str(alone)]) == 0
    rows, want = _rows_by_index(both), _rows_by_index(alone)
    assert rows[1] == [ln.replace("0", "1", 1) if command == "roots" else
                       ln.replace('"index": 0', '"index": 1', 1) for ln in want[0]]
    assert not [ln for ln in rows[0] if "error" in ln or "cannot" in ln]
    if command == "roots":
        located = [r for r in csv.DictReader(both.read_text().splitlines()[1:])
                   if r["index"] == "0" and r["re_s"]]
        assert len(located) == 4
        assert all(float(r["re_s"]) == pytest.approx(0.3, abs=1e-12) for r in located)
    else:
        assert len(rows[0]) == len(want[0]) > 0


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        import pvstab

        path = _write(tmp_path, MINIMAL)
        # the child imports the package this test imported
        env = {**os.environ,
               "PYTHONPATH": str(Path(pvstab.__file__).resolve().parent.parent)}
        proc = subprocess.run([sys.executable, "-m", "pvstab", "classify", path],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout.splitlines()[0])["verdict"] == \
            "ViolentlyUnstable"

    def test_missing_file_exit_code(self):
        assert _run(["classify", "/no/such/file.scn"]) == 1
