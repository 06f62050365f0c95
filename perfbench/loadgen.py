"""Seeded arrival schedules and the single-threaded open-loop generator.

The generator is open-loop: arrivals follow a schedule drawn before the
run, at a fixed absolute rate, and never wait for the system. Each
operation's latency runs from its *scheduled* arrival, so a stall is
charged to every operation that arrived during it. Because one thread
both generates and serves, an arrival that falls due while the system
is busy is submitted late; that lateness is reported as the generator
lag, so a run whose generator fell behind is visible as such.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Sequence

import numpy as np


def poisson_arrivals(rate_per_s: float, duration_s: float,
                     rng: np.random.Generator) -> List[float]:
    """Sorted arrival offsets (s) of a Poisson process."""
    expected = rate_per_s * duration_s
    n_draws = int(expected + 6 * math.sqrt(expected) + 16)
    times = np.cumsum(rng.exponential(1.0 / rate_per_s, size=n_draws))
    while times[-1] < duration_s:
        more = rng.exponential(1.0 / rate_per_s, size=n_draws)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    return [float(t) for t in times[times < duration_s]]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100); 0 when empty."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def drive_open_loop(arrivals: Sequence[float],
                    submit: Callable[[int], None],
                    service: Callable[[], None],
                    backlog: Callable[[], int]) -> Dict[str, object]:
    """Replay ``arrivals`` open-loop until every operation is served.

    ``submit(i)`` hands operation ``i`` to the system, ``service()``
    lets the system work once, and ``backlog()`` counts operations
    submitted but not yet served. Returns the phase's start time on the
    ``perf_counter`` clock (completion stamps are taken by the caller on
    the same clock), the per-arrival generator lag in seconds and the
    backlog seen at each submission.
    """
    n = len(arrivals)
    lag = [0.0] * n
    depth = [0] * n
    clock = time.perf_counter
    start = clock()
    index = 0
    while index < n or backlog():
        now = clock() - start
        while index < n and arrivals[index] <= now:
            lag[index] = now - arrivals[index]
            depth[index] = backlog()
            submit(index)
            index += 1
        if backlog():
            service()
        elif index < n:
            wait = arrivals[index] - (clock() - start)
            if wait > 0.0005:
                time.sleep(wait - 0.0003)
    return {"start": start, "lag": lag, "depth": depth}


def backlog_growing(depth: Sequence[int]) -> bool:
    """True when the queue seen by arrivals grew across the run.

    Compares the mean backlog met by the last fifth of arrivals with
    the first fifth. At a sustainable rate both are a few operations;
    above it the queue grows with every arrival, so the last fifth sees
    several times the first fifth's backlog.
    """
    n = len(depth)
    if n < 50:
        return False
    fifth = n // 5
    head = sum(depth[:fifth]) / fifth
    tail = sum(depth[-fifth:]) / fifth
    return tail > 3.0 * head + 8.0


__all__ = ["poisson_arrivals", "percentile", "drive_open_loop",
           "backlog_growing"]
