"""Host-pace probe, run as a helper process of ``run.py``.

It reads one line from standard input per probe and answers with one line:
the host's pace against the reference pace (1.0 at the reference, larger when
slower). It exits at the end of its input. Keeping it in its own process keeps
the benchmark process small: a child's peak RSS as ``os.wait4`` reports it is
at least the high-water mark of the process that forked it.

The probe is a fixed scalar Python loop, since the program's time is mostly
the interpreter's. Its median slice time over ``SLICES`` slices is divided by
``PACE_REF_MS``. A kernel that also streamed an array larger than the cache
tracked the host's slowest phases no better in ten-seed runs, and overshot in
some of them.
"""

from __future__ import annotations

import statistics
import sys
import time

# Median slice time at the reference pace: the fast state of a 2-core x86-64
# VM (Python 3.11).
PACE_REF_MS = 1.1
SLICES = 300


def pace() -> float:
    times = []
    for _ in range(SLICES):
        start = time.perf_counter()
        acc = 0
        for j in range(20000):
            acc += j * j
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times) / PACE_REF_MS


def main() -> int:
    for _ in sys.stdin:
        print(repr(pace()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
