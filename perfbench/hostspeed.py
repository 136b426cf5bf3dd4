"""The host's speed, gauged by a fixed loop timed between the workload's
operations.

The benchmark runs on a small share of a busy host.  For minutes at a time
the host runs everything up to half again slower, so the same pass takes a
different time in two runs whatever statistic a run takes of its own
samples.  The loop below is timed in the same runs, in the gaps between the
workload's operations; dividing the workload's time by the loop's cancels
most of that drift.  The loop does not touch capsid, so no change to the
program can move it.
"""

from __future__ import annotations

import statistics
import time

SHARE = 0.1        # seconds of loop per second of workload


def reference_loop() -> int:
    """About 10 ms of plain integer work in the interpreter."""
    total = 0
    for i in range(100_000):
        total += i * i
    return total


def reference_time(busy: float) -> float:
    """Time :func:`reference_loop` again and again for ``SHARE`` of the
    ``busy`` seconds the workload just took (at least once); return the
    median loop time."""
    clock = time.perf_counter
    end = clock() + SHARE * busy
    times = []
    while True:
        start = clock()
        reference_loop()
        times.append(clock() - start)
        if clock() >= end:
            return statistics.median(times)
