"""The host's speed, probed, and times scaled to a reference speed.

The benchmark runs on shared virtual machines whose effective speed
changes under it: on the 2-vCPU x86-64 host it was written on, a fixed
interpreter loop ran 1.5-2x slower in stretches that come and go every
0.1-0.5 s, and the share of slow time moved between about a third and
nearly all of it from one minute to the next. Wall-clock medians and
capacities of one program then spread by up to 35 % (interquartile
distance over median) over ten runs.

:func:`host_probe` times a fixed loop that does not depend on the
program. A time measured between two probes is scaled by
``PROBE_REF_S / mean(probes)``: the time the same work would have taken
had the host run at the reference speed, where the probe takes
:data:`PROBE_REF_S`. A change to the program moves the scaled figure as
it moves the wall-clock one; a change in the host's speed largely
cancels. The unscaled wall-clock figures are reported beside them.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

#: iterations of the probe loop.
PROBE_ITERS = 15000
#: the probe's time at the reference host speed (s), close to what it
#: reads on the host above while that runs at full speed (1.0-1.15 ms).
PROBE_REF_S = 1.0e-3
#: probe period inside a :class:`SampledClock` block (s).
SAMPLE_PERIOD_S = 0.05


def host_probe() -> float:
    """Seconds a fixed interpreter loop takes now: the host's current
    speed, apart from the program."""
    table = list(range(256))
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERS):
        acc = table[(acc + i) & 255] ^ (i & 255)
    return time.perf_counter() - t0


def scale(probe_before: float, probe_after: float) -> float:
    """Factor from wall-clock between two probes to reference time."""
    return 2 * PROBE_REF_S / (probe_before + probe_after)


class SampledClock:
    """Times a block at reference speed, probing the host as it runs.

    An interval timer interrupts the block every
    :data:`SAMPLE_PERIOD_S` and runs the probe; each stretch of the
    block between two probes is scaled by the mean of those probes. The
    probes' own time is left out of both results. Usable only in the
    main thread, and not around code that sets its own ``SIGALRM``.
    """

    def __enter__(self) -> "SampledClock":
        #: ``(start, end, seconds)`` of every probe.
        self.marks: List[Tuple[float, float, float]] = []
        self._mark()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        return self

    def _mark(self) -> None:
        start = time.perf_counter()
        seconds = host_probe()
        self.marks.append((start, time.perf_counter(), seconds))

    def _tick(self, _signum, _frame) -> None:
        self._mark()

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._mark()
        self.wall_s = 0.0
        self.scaled_s = 0.0
        for (_s0, end, before), (start, _e1, after) in zip(
                self.marks, self.marks[1:]):
            self.wall_s += start - end
            self.scaled_s += (start - end) * scale(before, after)


__all__ = ["PROBE_ITERS", "PROBE_REF_S", "SAMPLE_PERIOD_S", "host_probe",
           "scale", "SampledClock"]
