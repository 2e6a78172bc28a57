"""The host-speed probe and the probe-normalised clock.

The benchmark host's speed drifts: by up to 1.5x between minutes, by
about 15% within one, with a correlation time near 0.3 s, and each
vCPU independently of the other.  A timing taken on its own therefore
says as much about the host as about the program.  :class:`Normaliser`
runs a fixed probe in the same process after every timed call and
divides each call's duration by the median of the probes around it
(the one after it and up to :data:`PROBE_WINDOW` - 1 before it), then
multiplies by :data:`REFERENCE_PROBE_S`, so a normalised time reads
as seconds on a host where one probe run takes that long.

This module imports nothing from the program under test (numpy is
its only dependency): a change to the program must never change the
probe.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import numpy as np

__all__ = [
    "PROBE_ARRAY_ROUNDS",
    "PROBE_LOOPS",
    "PROBE_REPEATS",
    "PROBE_WINDOW",
    "REFERENCE_PROBE_S",
    "Normaliser",
    "probe_body",
    "thread_count",
]

#: Loop iterations and small-array rounds of :func:`probe_body`;
#: fixed, never calibrated at run time, so the probe is the same
#: amount of work on every host.
PROBE_LOOPS = 300
PROBE_ARRAY_ROUNDS = 30

#: Runs of :func:`probe_body` per probe; the probe's duration is
#: their median, which drops a run hit by an interrupt.
PROBE_REPEATS = 3

#: Probes a timed call is normalised by: the one after it and those
#: before it, up to this many in all, through their median.  The two
#: adjacent probes alone add their own jitter to every interval: in
#: calibration they tracked the drains' sub-second swings no better
#: than no probe at all, while over 10 s blocks any probe tracked to
#: 3-6%; a median over ~0.1-1 s of probes keeps the drift tracking
#: and drops most of the jitter.
PROBE_WINDOW = 9

#: A typical duration of one :func:`probe_body` run on the 2-vCPU
#: x86-64 guest the benchmark was built on (CPython 3.11.7, numpy
#: 2.4.6; 0.4 ms in its fast phases, 0.7 ms in its slow ones).
#: Normalised times are expressed in seconds of a host where one run
#: takes this long; the constant only scales, it never changes a ratio.
REFERENCE_PROBE_S = 5.0e-4

_ARRAY = np.linspace(0.0, 1.0, 512) ** 2


def probe_body() -> float:
    """A fixed mix of the work the program does most: a pure-Python
    loop of float arithmetic, list indexing and dict stores, then
    small-array numpy rounds shaped like a k-nearest lookup (the
    numpy quality backend's kernel).  Calibrated against stream and
    journaled drains, this mix tracked their speed over 10 s blocks
    to 3-4% where the pure-Python loop alone tracked to 5-6%."""
    table: dict[int, float] = {}
    values = [float(i) for i in range(64)]
    acc = 0.0
    for i in range(PROBE_LOOPS):
        j = i & 63
        x = values[j] * 1.000001 + acc * 0.5
        table[j] = x
        acc = max(x, acc) % 997.0
        values[j] = abs(x - acc)
    for i in range(PROBE_ARRAY_ROUNDS):
        d = np.abs(_ARRAY - _ARRAY[i])
        acc += float(d[np.argpartition(d, 3)[:3]].sum())
    return acc + len(table)


def thread_count() -> int:
    """OS threads in this process (native ones too), for auditing that
    nothing keeps running between timed calls."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


class Normaliser:
    """Times calls between probes and keeps raw and normalised seconds.

    Call :meth:`start` once, then :meth:`call` for each timed public
    call; each call is followed by a probe, so every interval has a
    probe on either side (with two probes, their median is their mean).
    ``probe`` and ``clock`` are replaced only by the self-tests, which
    simulate a host.
    """

    def __init__(self, probe=probe_body, clock=time.perf_counter):
        self._probe_fn = probe
        self._clock = clock
        self.probes: list[float] = []
        self.max_threads = 0
        #: (start, end, raw seconds, normalised seconds) per timed call.
        self.intervals: list[tuple[float, float, float, float]] = []

    def probe(self) -> float:
        """Run the probe once and return its duration in seconds."""
        self.max_threads = max(self.max_threads, thread_count())
        runs = []
        for _ in range(PROBE_REPEATS):
            t0 = self._clock()
            self._probe_fn()
            runs.append(self._clock() - t0)
        duration = sorted(runs)[len(runs) // 2]
        self.probes.append(duration)
        return duration

    def start(self) -> None:
        """Take a probe right before the next timed call."""
        self.probe()

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` timed, probe, and return ``(result, raw_s, norm_s)``."""
        if not self.probes:
            self.start()
        t0 = self._clock()
        result = fn(*args, **kwargs)
        t1 = self._clock()
        self.probe()
        raw = t1 - t0
        norm = raw * REFERENCE_PROBE_S / statistics.median(self.probes[-PROBE_WINDOW:])
        self.intervals.append((t0, t1, raw, norm))
        return result, raw, norm

    def factor_at(self, t: float) -> float:
        """Normalisation factor of the timed call that contains ``t``
        (1.0 outside every call); spans recorded by the tracer inside
        a call are scaled by it."""
        index = bisect.bisect_right(self.intervals, (t, float("inf"))) - 1
        if index >= 0:
            start, end, raw, norm = self.intervals[index]
            if start <= t <= end and raw > 0.0:
                return norm / raw
        return 1.0
