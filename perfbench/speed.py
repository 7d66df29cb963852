"""Host-speed probe: the benchmark's times, scaled to a reference speed.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over minutes: a fixed pure-Python loop timed back to back for
90 s on the 2-vCPU reference VM had 10 s means varying with an
interquartile range of a fifth of their median, and a fixed join moved
1.1-1.8 s in the same stretch.  That drift is the host, not the program, so
every run times a fixed loop between its operations, outside the timed
regions, and scales each measured time by ``REFERENCE_SPIN_S`` over the
loop's mean time in the same stretch of the run: the round of operations
it belongs to, or its set-up.  Over 80 repetitions of the same 24 queries,
timed between loop samples, query time and loop time correlated at 0.77,
and scaling cut the interquartile range of 18-second means from 0.115 to
0.033 of their median.

The loop uses only builtins and nothing of the library, so no change to the
library can speed it up or slow it down.  It runs with the garbage
collector paused and with any trace or profile hook removed, so neither
the library's heap nor an instrumentation hook it installs is charged to
the host.
"""

from __future__ import annotations

import gc
import statistics
import sys
from time import perf_counter, process_time
from typing import List

#: Seconds one ``spin()`` takes at the reference speed.  Scaled times read
#: as they would on a host where the loop takes this long on average.
REFERENCE_SPIN_S = 0.013
SPIN_STEPS = 100_000
#: Loop time the probe spends per second of measured work.
SHARE = 0.1


def spin() -> int:
    """A fixed interpreter-bound loop: dict lookups, integer arithmetic, branches."""
    table = {key: key * 7 % 13 for key in range(64)}
    total = 0
    for step in range(SPIN_STEPS):
        total += table[step & 63] * (step % 5)
        if total > 1_000_000:
            total -= 999_983
    return total


class SpeedProbe:
    """Loop timings interleaved with a run's work, and the scale they give.

    :meth:`follow` is called after each timed operation, outside its timed
    region; it runs the loop until the loop has taken ``SHARE`` of the
    measured time so far, so the samples spread over the run as the work
    does.  :meth:`scale` over the samples of one stretch of the run (a round
    of operations, one set-up) gives the host's mean speed during it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []  # wall seconds per loop
        self.cpu_samples: List[float] = []  # CPU seconds per loop
        self.owed = 0.0
        spin()  # let the interpreter specialise the loop before it counts

    def follow(self, seconds: float) -> None:
        self.owed += SHARE * seconds
        while self.owed > 0.0:
            self.sample()
            self.owed -= self.samples[-1]

    def sample(self) -> None:
        trace, profile = sys.gettrace(), sys.getprofile()
        collecting = gc.isenabled()
        gc.disable()
        sys.settrace(None)
        sys.setprofile(None)
        try:
            cpu = process_time()
            start = perf_counter()
            spin()
            self.samples.append(perf_counter() - start)
            self.cpu_samples.append(process_time() - cpu)
        finally:
            sys.settrace(trace)
            sys.setprofile(profile)
            if collecting:
                gc.enable()

    def mark(self) -> int:
        """Where a stretch starts or ends, for :meth:`scale`."""
        return len(self.samples)

    def scale(self, since: int, until: int, cpu: bool = False) -> float:
        """Reference over the mean loop time of the samples ``since:until``.

        Multiply a wall time measured in that stretch by it, or with
        ``cpu`` a CPU time: a host that takes the CPU away stretches wall
        times, the program's and the loop's, but no CPU times.  A stretch
        without samples (an operation that failed before :meth:`follow`)
        takes one.
        """
        if until <= since:
            self.sample()
            since, until = len(self.samples) - 1, len(self.samples)
        samples = self.cpu_samples if cpu else self.samples
        return REFERENCE_SPIN_S / statistics.mean(samples[since:until])

    def describe(self, scales) -> str:
        return (
            f"host speed: loop mean {1000 * statistics.mean(self.samples):.2f} ms "
            f"(n={len(self.samples)}, reference {1000 * REFERENCE_SPIN_S:g} ms); "
            f"times scaled by {min(scales):.4f}-{max(scales):.4f}"
        )
