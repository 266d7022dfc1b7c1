"""pvstab benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json
(states per second, set-up time, peak memory), ``--trace 1`` the per-layer
metrics of a separate traced run.  Rates and per-layer times are normalized
to a reference host speed measured during the run (see reference.py); the
raw rate is printed as a note.  Both print provenance, every metric on
its own line with its unit, the failed fraction, and as the last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Every run
checks the program's outputs; the exit code is 0 only when they are correct.

Scratch files go to ``.bench_work/`` under the checkout and are removed at
exit, except the spans of a traced run, which are kept there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import IMPORT_PROBE, IMPORT_SECONDS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 7                # timed set-up probes per run, after one warm-up
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150
# String hashing is randomized per process; over five identical sweep-map
# runs the quartile range of the rate was 12% with random hash seeds and 5%
# with a fixed one, so every process the benchmark starts uses the same seed.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def provenance(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "scale": args.scale, "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(),
            "commit": git_commit(), "src_sha256": src.hexdigest()[:16],
            "loadavg": os.getloadavg()[0]}


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(scenario: str) -> tuple[list[float], list[float]]:
    """Seconds from spawning a workload process until it could run the command,
    each sample preceded by one of the numpy-import reference."""
    def spawn(args) -> float:
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT, env=CHILD_ENV)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        return float(done.stdout.split()[-1]) - t0

    program, reference = [], []
    for i in range(SETUP_PROBES + 1):
        ref = spawn(IMPORT_PROBE)
        setup = spawn([str(WORKER), "probe", scenario])
        if i > 0:                   # the first pair warms the file cache
            program.append(setup)
            reference.append(ref)
    return program, reference


def run_worker(args, workdir: Path) -> dict:
    log = workdir.parent / f"{workdir.name}.stderr"
    try:
        with open(log, "w", encoding="utf-8") as err:
            done = subprocess.run(
                [sys.executable, str(WORKER), "run", args.workload, str(args.seed),
                 str(args.seconds), str(args.trace), str(args.scale), str(workdir)],
                stdout=subprocess.PIPE, stderr=err, text=True,
                timeout=WORKER_TIMEOUT_S, cwd=ROOT, env=CHILD_ENV)
        if done.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise RuntimeError(f"workload process exited with {done.returncode}:\n{tail}")
        return json.loads(done.stdout.strip().splitlines()[-1])
    finally:
        log.unlink(missing_ok=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every batch size (the smoke test uses 0.1)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        parser.error("--seed must be >= 0, --seconds and --scale > 0")
    if not (ROOT / "src" / "pvstab" / "cli.py").is_file():
        print(f"pvstab benchmark: no program at {ROOT / 'src' / 'pvstab'}",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload]
        if args.trace == 0:
            scenario = workload.make_batch(workdir, args.seed, 0, args.scale).argv[1]
            setup, setup_ref = measure_setup(scenario)
        raw = run_worker(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print(f"pvstab benchmark: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = provenance(args)
    info.update(numpy=raw["numpy"], batches=raw["batches"], states=raw["states"],
                host_factor=raw["host_factor"])
    print("provenance " + json.dumps(info))
    if args.trace == 0:
        metrics = {"states_per_s": (raw["states_per_s"], "1/s"),
                   "setup_s": (statistics.median(setup) * IMPORT_SECONDS
                               / statistics.median(setup_ref), "s"),
                   "peak_rss_mb": (raw["peak_rss_mb"], "MB")}
        notes = [f"raw states_per_s {raw['raw_states_per_s']!r} at host factor "
                 f"{raw['host_factor']:.4f}",
                 f"setup_s is the median of {len(setup)} probes, raw "
                 + " ".join(f"{s:.4f}" for s in setup) + ", reference "
                 + " ".join(f"{s:.4f}" for s in setup_ref)]
    else:
        metrics = {k: tuple(v) for k, v in raw["metrics"].items()}
        notes = raw["notes"]
    beside = raw.get("beside", {})
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}" + (f"  ({beside[name]})" if name in beside else ""))
    for note in notes:
        print(f"note: {note}")
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"failed_frac {failed / attempted!r} ratio ({failed} of {attempted} "
          "state runs failed their output check)")
    correct = failed == 0 and raw.get("repeat_ok", True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
