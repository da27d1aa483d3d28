"""Host-speed calibration: wall seconds restated at a fixed reference speed.

The benchmark's host is a few cores of a shared machine, and the speed
of one core drifts by up to 1.8x within seconds and by 20% or more
between batches of runs (the same pure-Python loop takes 48 ms, then
87 ms; process CPU time tracks the wall, so this is not scheduling).
Medians over a run cannot remove a drift that lasts longer than the run.

:class:`HostSpeed` measures the drift as it happens. While probing is
on, ``SIGALRM`` fires every :data:`INTERVAL_S` and the handler runs a
fixed pure-Python probe in the main thread, between two bytecodes of
whatever the program is doing. The probe's duration is the core's
speed at that moment. :meth:`HostSpeed.ref_seconds` then restates a
span of wall time as the seconds it would have taken on a host where
one probe takes :data:`REF_PROBE_S`: each stretch of program time
between two probes is scaled by ``REF_PROBE_S`` over the mean duration
of those two probes, and the probes' own time is left out.

On a 2-vCPU VM, the rep-to-rep spread (IQR over the median) of the
``seq_single_as`` run fell from 0.20 in wall seconds to 0.04 in
reference seconds, and that of ``plan_single_as`` from 0.26 to 0.04.

Probing suits work that runs in this process only. A multi-process run
is not probed: a probe in the controller would compete with its own
workers for the cores and measure them, not the host.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time
from contextlib import contextmanager

#: Seconds between two probes while probing is on.
INTERVAL_S = 0.02
#: Duration of one probe on the reference host (about 0.65-0.9 ms on a
#: 2.1 GHz Xeon vCPU under CPython 3.11).
REF_PROBE_S = 1e-3


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def probe() -> int:
    """A fixed slice of interpreter work: objects, dict updates, a heap."""
    table: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    total = 0
    for i in range(600):
        item = _Item(i * 7 % 13, i)
        table[item.key] = table.get(item.key, 0) + item.value
        heapq.heappush(heap, (item.key, i))
        if len(heap) > 32:
            total += heapq.heappop(heap)[1]
    return total


class HostSpeed:
    """Probes of the host's speed, and spans restated at reference speed."""

    def __init__(self) -> None:
        #: perf_counter stamps and durations of every probe, in order.
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def _probe(self, *_args) -> None:
        # A signal that arrives during a probe (the process was descheduled
        # for a whole interval) is dropped, so the stamps stay in order.
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self._busy = False

    @contextmanager
    def probing(self):
        """Probe every :data:`INTERVAL_S` inside the block, and once at each end."""
        previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._probe()

    def probe_ms(self) -> float:
        """Median probe duration so far, in ms."""
        return 1e3 * statistics.median(self.durations)

    def ref_seconds(self, a: float, b: float) -> float:
        """Program time in ``[a, b]`` at reference speed, probes left out.

        ``a`` and ``b`` are ``time.perf_counter`` stamps taken while
        probing was on, or between two probing blocks.
        """
        starts, ends, dur = self.starts, self.ends, self.durations
        if not starts:
            raise RuntimeError("no probe has run")
        total = 0.0
        # Gap k is the program time between the end of probe k-1 and the
        # start of probe k (gap 0 before the first probe, gap n after the
        # last); its speed is the mean of the probes around it.
        k = bisect.bisect_right(ends, a)
        t = a
        while t < b:
            gap_end = starts[k] if k < len(starts) else float("inf")
            stop = min(b, gap_end)
            if stop > t:
                around = dur[max(k - 1, 0) : k + 1]
                total += (stop - t) * REF_PROBE_S * len(around) / sum(around)
            if k >= len(starts):
                break
            t = max(t, ends[k])
            k += 1
        return total
