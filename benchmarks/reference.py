"""Host-speed references: fixed work timed beside the program.

The benchmark runs on shared hosts whose speed drifts by half or more for
minutes at a time, and that drift moves the program's wall time and CPU time
alike.  Every run therefore interleaves a reference with the program's work
and reports each time scaled to a host on which the reference takes its
nominal time:

    normalized seconds = raw seconds * nominal / (measured reference time)

Compute time is scaled by ``unit``, timed in the workload process after
every batch.  Set-up time is scaled by ``IMPORT_PROBE``, a fresh interpreter
that imports numpy, timed before every set-up probe: set-up is process
creation, loading and page faults, which ``unit`` does not track.  Over
150 s on a busy host, 15-second windows of set-up time varied by 3.8% and
their ratio to this probe by 0.5%.

The unit resembles the program's own mix (mostly complex numpy arithmetic
on contour-sized arrays, some Python-level float and string work) and never
calls the program, so no change to the program can move it.  Over 150 s
of ``validate`` batches on a busy host, 15-second windows of program time
varied by 10%, their ratio to numpy-heavy units like this one by 2 to 3%,
and their ratio to a Python-only unit by 6%.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

UNIT_SECONDS = 0.003    # about one unit on an idle 2-core Intel Xeon host
IMPORT_SECONDS = 0.15   # about one IMPORT_PROBE on the same host
IMPORT_PROBE = ("-c", "import time, numpy; print(repr(time.monotonic()))")
_Z = np.linspace(0.0, 40.0, 513) * (1.0 + 1.0j) + 0.01


def unit() -> float:
    acc = 0.0
    for _ in range(70):
        g = np.sqrt(1.0 + (0.01 * _Z) ** 2)
        v = (_Z * _Z + 0.5) * g - 0.3 + 0.02j * _Z
        acc += float(np.abs(np.diff(np.angle(v))).sum())
    row: dict[str, str] = {}
    for x in range(600):
        row[f"k{x % 97}"] = repr(x * 1.5)
        acc += len(row)
    return acc + len(",".join(row.values()))


class Meter:
    """Accumulates reference time; ``factor`` is the host's slowdown."""

    def __init__(self):
        self.seconds = 0.0
        self.units = 0

    def measure(self, at_least: float) -> None:
        """Run whole units until at least ``at_least`` seconds have passed."""
        start = now = perf_counter()
        while True:
            unit()
            self.units += 1
            now = perf_counter()
            if now - start >= at_least:
                break
        self.seconds += now - start

    @property
    def factor(self) -> float:
        return self.seconds / self.units / UNIT_SECONDS
