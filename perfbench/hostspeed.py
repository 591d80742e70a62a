"""Host-speed calibration of the benchmark's timings.

The benchmark runs on shared hosts whose speed moves under it: a fixed
pure-Python loop timed in 10 s windows of one minute varied by ±15%, in
single 20 ms blocks by a factor of three, and over an hour by 70%.  That
is the speed of the whole host (processor time moved the same way as
wall time, so it is not descheduling), and no run length averages it
out.

So every time the benchmark reports is *calibrated*: it is divided by
the host's speed factor at the moment it was measured.  The factor is
the time of a fixed reference block (pure interpreter work, no
allocation of tracked objects, nothing from ``repro``) over
:data:`REF_NOMINAL_S`, and it is measured right before and right after
the timed work, never during it.  A calibrated time reads as seconds on
a host where the reference block takes exactly ``REF_NOMINAL_S``.

The program's own speed does not enter the factor: the reference block
is the benchmark's code and runs while no operation is in flight, so a
change that makes the program 10% slower makes every calibrated time
10% longer.  (In ``tenant-churn`` half of each probe runs in the daemon
child's process, idle at the time; ``README.md`` says what that lets
through.)  In a two-minute probe that alternated blocks of reference
work with a mixed interpreter, hashing and big-integer operation, the
raw median of the operation moved 47-66 ms across 30 s windows while
the calibrated one stayed within 6.44-6.49 reference units.
"""

from __future__ import annotations

import statistics
import time

perf = time.perf_counter

#: loop iterations of one reference block
REF_ITERATIONS = 100_000
#: what one reference block takes on the reference host: a round figure
#: near its time on the 2-core host the benchmark was tuned on, when
#: that host ran quiet (busy, it took 8-11 ms)
REF_NOMINAL_S = 0.007


def reference_block() -> float:
    """Run one reference block; its wall time in seconds."""
    t0 = perf()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return perf() - t0


def factor(blocks: int = 1) -> float:
    """How many times slower than the reference host this host runs now:
    the median of *blocks* reference blocks over ``REF_NOMINAL_S``."""
    return statistics.median(reference_block() for _ in range(blocks)) / REF_NOMINAL_S


class Bracket:
    """Factors measured between consecutive pieces of timed work.

    ``Bracket.around()`` gives the factor for the work just finished:
    the mean of the factor *probe* measured before it and the one it
    measures now, which is then the *before* of the next piece.
    """

    def __init__(self, probe=factor) -> None:
        self.probe = probe
        self.last = probe()

    def around(self) -> float:
        now = self.probe()
        speed = (self.last + now) / 2.0
        self.last = now
        return speed
