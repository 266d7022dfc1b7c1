"""Compare the command-line output of this tree with that of a git revision.

    python tools/compare_cli.py REF

Exports REF with ``git archive`` into a temporary directory and builds a
corpus of scenario files:

* the benchmark's workload batches for seeds 0-2 (``benchmarks/workloads.py``),
  each run with its own command line;
* the states of ``corner_corpus`` (``tests/test_inclusion.py``), one by one
  with a cross-checked E1 sweep, and all together with the default numerics
  and with an odd ``n_dirs`` and a small ``delta``;
* two-axis sweeps of H_mag, Hv_mag, eps and angle_alpha over three states;
* every other sweep parameter as the inner axis below an E1 axis, over the
  three states and, cross-checked, over the constant-F one alone;
* sweeps whose outer axis rejects whole blocks by a cell the inner axis does
  not set (eps*|sigma| >= 1, |H2| or |Hv2| past the bound 1e50, eps past 0
  and 1), with inner points past the bound too;
* E1 axes across sqrt(F_min) inside the transitional band, on the constant-F
  and the generic state, below a v2 axis, cross-checked and not, so that the
  block's one-pass verdict reaches its transitional branch;
* a cross-checked E1 axis BLOCK_POINTS + 6 points long on the generic state,
  so that its second block starts mid-axis, and a scan batch holds the last
  points of the first block and the points of the second.
* a cross-checked 300 x 5 (E1, v2) grid on the generic state, whose scan
  batches end mid-block;
* a state whose growth ratio exp(n Re(s) t) overflows, so that ``modes``
  writes ``Infinity``, with the default ``decay_p`` and with 100.

Every corpus scenario is run through ``classify``, ``roots``, ``modes`` and
``sweep``; ``validate`` runs at each of the seeds 0, 1, 5 and 17 once per
distinct ``[analysis]`` block (the only part of a scenario it reads).  Each
run uses the ``src/`` of each tree, as ``python -m pvstab`` subprocesses,
twice: once writing to stdout and once with ``--out FILE``, as the
benchmark runs it.  Each script of this tree's ``demos/`` (the users of the
library API) is run too, that of each tree on its ``src/``, from an empty
working directory.  Each run has a working directory of its own per tree.
Each difference in stdout, stderr, exit code, the bytes of the ``--out``
file (or its absence) or of a file a demo leaves in its working directory
(``stability_map.csv``) is printed, with the first differing line of each
side (cut to SHOWN characters) and, when both are JSON records, the keys
whose values differ; the exit code is 1 if there is any difference, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
import time
import shutil
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("classify", "roots", "modes", "sweep")
VALIDATE_SEEDS = (0, 1, 5, 17)
SEEDS = (0, 1, 2)
BATCHES = 6                 # workload batches per seed
WORKERS = 2                 # subprocesses at a time
SHOWN = 200                 # characters shown of a differing line


def _state_text(st) -> str:
    return "[state]\n" + "".join(f"{k} = {v}\n" for k, v in st.to_record().items())


def _axis(name: str, lo: float, hi: float, steps: int) -> str:
    return f"[sweep]\nparameter = {name}\nmin = {lo!r}\nmax = {hi!r}\nsteps = {steps}\n"


def corpus_texts() -> dict[str, str]:
    """Named scenario texts: the corner states and the sweeps."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_inclusion import corner_corpus

    corners = corner_corpus()
    checked = "[analysis]\ncross_check = true\nn_dirs = 12\n"
    texts = {f"corner_{name}": _state_text(st) + _axis("E1", 0.0, 1.5, 3) + checked
             for name, st in corners.items()}
    together = "".join(_state_text(st) for st in corners.values())
    texts["corners"] = together
    texts["corners_odd"] = together + "[analysis]\nn_dirs = 9\ndelta = 0.001\n"
    bases = ("[state]\nH2 = 1\nHv2 = 2\nE1 = 0.3\nv2 = 0.5\n",             # collinear
             "[state]\nH2 = 1\nHv3 = 1\nE1 = 0.5\nv2 = 0.5\nv3 = 0.2\n",   # constant F
             "[state]\nv2 = 0.3\nv3 = -0.7\nH2 = 1.1\nH3 = 0.4\nHv2 = -0.6\nHv3 = 1.3\n"
             "E1 = 0.8\n")
    ranges = (("H_mag", -1.0, 2.0), ("Hv_mag", 0.0, 2.5), ("eps", -0.5, 1.5),
              ("angle_alpha", 0.0, 3.14159), ("v2", -1.0, 1.0), ("v3", -2.0, 2.0))
    e1 = _axis("E1", -1.0, 2.0, 4)
    for name, lo, hi in ranges[:4]:
        texts[f"sweep_{name}"] = "".join(bases) + _axis(name, lo, hi, 5) + e1
    for name, lo, hi in ranges:
        axes = e1 + _axis(name, lo, hi, 5)
        texts[f"sweep_E1_{name}"] = "".join(bases) + axes
        texts[f"sweep_E1_{name}_checked"] = bases[1] + axes + checked
    # blocks rejected by a cell the inner axis does not set, with inner
    # points past the bound 1e50 too: eps*|sigma| >= 1 at the upper eps
    # levels of a sigma = 90 state (whose last row names |E1| = 2e+50 first),
    # |H2| or |Hv2| past the bound, and eps past 0 and 1
    sigma = "[state]\nH2 = 1\nHv3 = 1.5\nE1 = 0.7\nv2 = 0.2\nsigma = 90\n"
    wide = ("E1", -2e50, 2e50, 5)
    for name, outer, inner in (("eps_sigma", ("eps", 0.001, 0.05, 5), ("E1", 0.0, 2e50, 5)),
                               ("H_mag", ("H_mag", -2e50, 2e50, 5), ("v2", -2e50, 2e50, 5)),
                               ("Hv_mag", ("Hv_mag", 0.0, 2e50, 5), wide),
                               ("eps", ("eps", -0.5, 1.5, 5), wide)):
        texts[f"shared_rejected_{name}"] = (bases[0] + sigma + _axis(*outer)
                                            + _axis(*inner))
    # margins from -2 tol_eq to 2 tol_eq: the middle points are transitional
    from pvstab.criterion import threshold_values

    for name, base, fields in (("constant_F", bases[1], (1.0, 0.0, 0.0, 1.0)),
                               ("generic", bases[2], (1.1, 0.4, -0.6, 1.3))):
        f_min, _, _, _, tol_eq = threshold_values(*fields)
        band = _axis("E1", math.sqrt(f_min - 2 * tol_eq), math.sqrt(f_min + 2 * tol_eq), 9)
        texts[f"band_{name}"] = base + _axis("v2", -1.0, 1.0, 3) + band
        texts[f"band_{name}_checked"] = texts[f"band_{name}"] + checked
    from pvstab.cli import BLOCK_POINTS

    texts["long_axis_checked"] = bases[2] + _axis("E1", 0.0, 1.5, BLOCK_POINTS + 6) + checked
    # 5-point blocks below 300 E1 levels: scan batches of 146 states end
    # mid-block, so a block's judgements come from two batches
    texts["short_axis_checked"] = (bases[2] + _axis("E1", 0.0, 1.5, 300)
                                   + _axis("v2", -1.0, 1.0, 5) + checked)
    # Re s ~ 29.4: n Re(s) t >= 700 at n = 100, t = 1
    overflow = "[state]\nH2 = 1\nHv2 = 2\nE1 = 30\nv2 = 0.5\n"
    texts["modes_overflow"] = overflow
    texts["modes_overflow_decay_p"] = overflow + "[analysis]\ndecay_p = 100\n"
    return texts


def workload_runs(workdir: Path) -> list[tuple[str, tuple[str, ...]]]:
    """(name, argv) of the workload batches of each seed."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import WORKLOADS

    runs = []
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            where = workdir / name / str(seed)
            where.mkdir(parents=True)
            for k in range(BATCHES):
                batch = workload.make_batch(where, seed, k, 1.0)
                runs.append((f"{name} seed {seed} batch {k}", batch.argv))
    return runs


def corpus_runs(workdir: Path) -> list[tuple[str, tuple[str, ...]]]:
    """(name, argv) of every command on every corpus scenario."""
    runs, analyses = [], set()
    for name, text in corpus_texts().items():
        path = workdir / f"{name}.scn"
        path.write_text(text, encoding="utf-8")
        runs += [(f"{name} {command}", (command, str(path))) for command in COMMANDS]
        analysis = text.partition("[analysis]")[2]
        if analysis not in analyses:
            analyses.add(analysis)
            runs += [(f"{name} validate --seed {seed}",
                      ("validate", str(path), "--seed", str(seed))) for seed in VALIDATE_SEEDS]
    return runs


def _ran(proc, label: str = "") -> dict:
    return {f"{label}stdout": proc.stdout, f"{label}stderr": proc.stderr,
            f"{label}exit code": proc.returncode}


def run(tree: Path, cwd: Path, argv) -> dict:
    """What the run ``argv`` of ``tree`` from the empty directory ``cwd``
    gives: its stdout, stderr and exit code, and those of the same run with
    ``--out FILE`` and the bytes of that file (None when the run wrote none)."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out = cwd / "out"
    got = {}
    for label, extra in (("", ()), ("--out ", ("--out", str(out)))):
        got.update(_ran(subprocess.run([sys.executable, "-m", "pvstab", *argv, *extra],
                                       cwd=cwd, env=env, capture_output=True), label))
    got["--out file"] = out.read_bytes() if out.exists() else None
    return got


def run_demo(tree: Path, cwd: Path, script: str) -> dict:
    """What the demo ``script`` of ``tree`` run from the empty directory
    ``cwd`` gives: its stdout, stderr and exit code, and the bytes of each
    file it leaves there (e.g. ``stability_map.csv``)."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    got = _ran(subprocess.run([sys.executable, str(tree / "demos" / script)], cwd=cwd,
                              env=env, capture_output=True))
    got.update({f"file {p.name}": p.read_bytes() for p in sorted(cwd.iterdir())})
    return got


def _shown(lines: list[str], at: int) -> str:
    if at >= len(lines):
        return "(no line)"
    line = lines[at]
    return line if len(line) <= SHOWN else line[:SHOWN] + " ..."


def _differing_keys(a: str, b: str) -> list[str] | None:
    """The keys whose values differ between the JSON records ``a`` and ``b``
    (a key on one side only included), or None unless both are records."""
    try:
        x, y = json.loads(a), json.loads(b)
    except ValueError:
        return None
    if not (isinstance(x, dict) and isinstance(y, dict)):
        return None
    # compared as spelled, so that NaN equals NaN
    return sorted(k for k in x.keys() | y.keys()
                  if k not in x or k not in y or json.dumps(x[k]) != json.dumps(y[k]))


def differences(ours: dict, theirs: dict) -> list[str]:
    out = []
    for label in {**ours, **theirs}:
        a, b = ours.get(label), theirs.get(label)
        if a == b:
            continue
        if not (isinstance(a, bytes) and isinstance(b, bytes)):
            out.append(f"{label} {'no file' if a is None else a} here, "
                       f"{'no file' if b is None else b} at the reference")
            continue
        lines_a = a.decode("utf-8", "replace").splitlines()
        lines_b = b.decode("utf-8", "replace").splitlines()
        at = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
                  min(len(lines_a), len(lines_b)))
        text = (f"{label} differs from line {at + 1} "
                f"({len(lines_a)} lines here, {len(lines_b)} at the reference)\n"
                f"    here:      {_shown(lines_a, at)}\n"
                f"    reference: {_shown(lines_b, at)}")
        if at < min(len(lines_a), len(lines_b)):
            keys = _differing_keys(lines_a[at], lines_b[at])
            if keys is not None:
                text += f"\n    keys that differ: {', '.join(keys) or 'none'}"
        out.append(text)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare against")
    ref = parser.parse_args(argv).ref
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             capture_output=True)
    if archive.returncode:
        print(archive.stderr.decode(), end="", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare_cli_") as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "ref", filter="data")
        (tmp / "corpus").mkdir()
        runs = [(name, partial(run, argv=argv)) for name, argv in
                workload_runs(tmp / "corpus") + corpus_runs(tmp / "corpus")]
        runs += [(f"demo {p.name}", partial(run_demo, script=p.name))
                 for p in sorted((ROOT / "demos").glob("*.py"))]
        start = time.perf_counter()

        def compare(item):
            k, (_, job) = item
            sides = []
            for tree, side in ((ROOT, "here"), (tmp / "ref", "ref")):
                cwd = tmp / f"{side}_{k}"
                cwd.mkdir()
                sides.append(job(tree, cwd))
                shutil.rmtree(cwd)
            return differences(*sides)

        n_diff = 0
        with ThreadPoolExecutor(WORKERS) as pool:
            for (name, _), lines in zip(runs, pool.map(compare, enumerate(runs))):
                for line in lines:
                    print(f"{name}: {line}")
                n_diff += bool(lines)
    print(f"{len(runs)} runs against {ref}, {n_diff} with differences "
          f"({time.perf_counter() - start:.0f} s)")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
