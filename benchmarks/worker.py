"""The workload process: runs ``pvstab.cli.main`` in-process on generated input.

    python3 benchmarks/worker.py probe SCENARIO
        import the program, parse SCENARIO, print the monotonic clock, exit:
        one set-up measurement.
    python3 benchmarks/worker.py run WORKLOAD SEED SECONDS TRACE SCALE WORKDIR
        run the workload and print one JSON line of raw results.

After every timed batch the process runs the host-speed reference for a
tenth of the batch's time (see reference.py); rates are computed from the
normalized time of all batches.  Untraced runs take fresh batches until
SECONDS have passed.  Traced runs repeat a fixed set of batches untraced and
then twice traced; every repeat must reproduce the first output byte for
byte, and the two traced passes must give identical counters.

Modules a probe does not need are imported where they are used, so that a
probe measures only the program's own set-up.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_SHARE = 0.1       # reference time run after each batch, per batch second


def import_cli():
    sys.path.insert(0, str(SRC))
    import pvstab.cli

    if Path(pvstab.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"pvstab imported from {pvstab.cli.__file__}, not {SRC}")
    return pvstab.cli


def probe(scenario: str):
    cli = import_cli()
    cli.parse_scenario(scenario)
    print(repr(time.monotonic()), flush=True)


class Runner:
    """Runs, checks and times batches of one workload."""

    def __init__(self, cli, workload, seed, scale, workdir: Path):
        from reference import Meter

        self.cli, self.workload = cli, workload
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.out = workdir / "out"
        self.batches: list = []
        self.first: list[tuple[str, int, int]] = []   # (digest, failed, bytes)
        self.attempted = self.failed = 0
        self.meter = Meter()

    def add_batch(self) -> int:
        k = len(self.batches)
        self.batches.append(self.workload.make_batch(self.workdir, self.seed, k,
                                                     self.scale))
        return k

    def run(self, k) -> float:
        """Run batch k once, check its output, and return its time."""
        import hashlib

        batch = self.batches[k]
        argv = [*batch.argv, "--out", str(self.out)]
        t0 = time.perf_counter()
        code = self.cli.main(argv)
        dt = time.perf_counter() - t0
        size, digest = 0, f"none:{code}"
        if self.out.exists():
            size = self.out.stat().st_size
            with open(self.out, "rb") as fh:
                digest = hashlib.file_digest(fh, "sha256").hexdigest() + f":{code}"
        if len(self.first) <= k:
            failed = self.workload.check(batch, code, self.out)
            self.first.append((digest, failed, size))
        elif digest != self.first[k][0]:
            failed = batch.states            # the output is not deterministic
        else:
            failed = self.first[k][1]
        self.out.unlink(missing_ok=True)
        self.attempted += batch.states
        self.failed += failed
        return dt

    def timed(self, k) -> float:
        """Run batch k, then the reference for a share of its time."""
        dt = self.run(k)
        self.meter.measure(REFERENCE_SHARE * dt)
        return dt

    def states(self, ks) -> int:
        return sum(self.batches[k].states for k in ks)


def run_untraced(runner: Runner, seconds: float) -> dict:
    runner.add_batch()
    runner.run(0)                                     # warm-up
    ks, raw = [], 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        k = runner.add_batch() if ks else 0
        raw += runner.timed(k)
        ks.append(k)
    import resource

    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    states, factor = runner.states(ks), runner.meter.factor
    return {"states_per_s": states * factor / raw, "raw_states_per_s": states / raw,
            "host_factor": factor, "peak_rss_mb": rss_kib * 1024 / 1e6,
            "batches": len(ks), "states": states}


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    from reference import Meter

    import tracing

    ks = [runner.add_batch() for _ in range(
        max(1, round(runner.workload.trace_batches * runner.scale)))]
    runner.run(0)                                     # warm-up
    start, rounds, raw = time.perf_counter(), 0, 0.0
    while rounds < 2 or time.perf_counter() - start < seconds / 2:
        raw += sum(runner.timed(k) for k in ks)
        rounds += 1
    untraced_rate = rounds * runner.states(ks) * runner.meter.factor / raw

    runner.meter = Meter()
    tracer = tracing.Tracer()
    tracer.install()
    passes = []
    try:
        for _ in range(2):
            tracer.reset()
            t = sum(runner.timed(k) for k in ks)
            size = sum(runner.first[k][2] for k in ks)
            passes.append((t, list(tracer.spans), dict(tracer.certificates),
                           tracer.residual_worst, size))
    finally:
        tracer.uninstall()
    factor = runner.meter.factor
    traced_rate = 2 * runner.states(ks) * factor / sum(p[0] for p in passes)
    results = [tracing.layer_metrics(spans, cert, worst, size)
               for _, spans, cert, worst, size in passes]
    counters = [r[3] for r in results]
    repeat_ok = counters[0] == counters[1]
    metrics, beside, notes, _ = results[0]
    for name, (value, unit) in metrics.items():
        if unit in ("s", "ms"):                       # mean of both passes, normalized
            metrics[name] = ((value + results[1][0][name][0]) / 2 / factor, unit)
    metrics["trace.overhead_frac"] = (1.0 - traced_rate / untraced_rate, "ratio")
    if not repeat_ok:
        diff = sorted(k for k, v in counters[0].items() if counters[1].get(k) != v)
        notes.append(f"counters differ between identical traced passes: {diff}")
    tracing.write_spans(spans_path, [p[1] for p in passes])
    notes.append(f"spans of both traced passes written to {spans_path.relative_to(ROOT)}")
    return {"metrics": metrics, "beside": beside, "notes": notes, "repeat_ok": repeat_ok,
            "host_factor": factor, "batches": len(ks), "states": runner.states(ks)}


def main(argv):
    if argv[0] == "probe":
        probe(argv[1])
        return 0
    _, name, seed, seconds, trace, scale, workdir = argv
    import json

    import numpy as np

    cli = import_cli()
    from workloads import WORKLOADS

    workdir = Path(workdir)
    runner = Runner(cli, WORKLOADS[name], int(seed), float(scale), workdir)
    if trace == "1":
        spans_path = workdir.parent / f"spans-{name}-seed{seed}.csv"
        result = run_traced(runner, float(seconds), spans_path)
    else:
        result = run_untraced(runner, float(seconds))
    result.update(attempted=runner.attempted, failed=runner.failed,
                  numpy=np.__version__)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
