"""Host-speed probe, so that timings do not follow the host's drift.

On a shared host the CPUs of a virtual machine run slower at times, by
up to a third for tens of seconds, and a command of ten seconds cannot
dodge that by repetition.  So a thread of run.py wakes every
INTERVAL_S, moves to the next CPU in turn and times PROBE_LOOPS
iterations of a fixed Python loop there: about 2 ms of work, so it takes
about 1% of each of two CPUs.  While a command runs on a CPU, the
probe's median time on that CPU tracks how slow the CPU is just then.  A
timing is then rescaled to the nominal host, on which the probe takes
NOMINAL_S:

    timing * NOMINAL_S / median probe time on those CPUs during it

The probe runs no code of the program, so a change to the program moves
the rescaled timing as it moves the raw one.
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time

PROBE_LOOPS = 20_000
NOMINAL_S = 0.002
INTERVAL_S = 0.1
# Fewest probe samples a scale rests on; a short interval borrows the
# samples nearest to it in time.
MIN_SAMPLES = 5


def probe_loop() -> int:
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return s


class SpeedProbe:
    """Samples (cpu, start, seconds) of the probe loop, round-robin over cpus,
    from a background thread between __enter__ and __exit__."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.samples: list[tuple[int, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        for cpu in itertools.cycle(self.cpus):
            os.sched_setaffinity(0, {cpu})  # this thread only
            if self._stop.wait(INTERVAL_S):
                return
            t0 = time.perf_counter()
            probe_loop()
            self.samples.append((cpu, t0, time.perf_counter() - t0))

    def scale(self, start: float, end: float, cpus=None) -> float:
        """NOMINAL_S over the median probe time on cpus (default: all)
        from start to end."""
        return scale(self.samples, start, end, self.cpus if cpus is None else cpus)


def scale(samples, start: float, end: float, cpus) -> float:
    """NOMINAL_S over the median duration of the samples on cpus within
    [start, end], or of the MIN_SAMPLES nearest to it when fewer lie within."""
    cpus = set(cpus)
    mine = [(max(start - t, t - end, 0.0), d) for c, t, d in list(samples) if c in cpus]
    inside = sum(1 for gap, _ in mine if gap == 0.0)
    if not mine:
        raise RuntimeError("the host-speed probe took no sample")
    mine.sort(key=lambda x: x[0])
    return NOMINAL_S / statistics.median(d for _, d in mine[: max(inside, MIN_SAMPLES)])
