"""Host time at reference speed, for measuring on a shared machine.

On a machine shared with other tenants, the same pure-Python work takes
up to twice as long in bursts lasting up to a few seconds, and a few
percent longer or shorter over minutes.  :class:`Clock` cancels most of
that.  While it runs, a timer signal runs two fixed probe loops every
``PROBE_PERIOD_S`` and records how long each took.  The probes do not
depend on any ``repro`` code.  :meth:`Clock.seconds` turns a measured
interval into seconds at reference speed:

- it subtracts the probes that ran inside the interval;
- it scales the rest by ``nominal / median probe time`` over the probes
  within ``WINDOW_S`` of the interval, taking the geometric mean of the
  two probes' factors.

The two probes stress different work (integer arithmetic into a small
dict; list indexing, attribute reads and a heap).  Under some kinds of
contention one probe slows more than the simulator does, and under
others the other one does.  Their geometric mean tracked recorded
simulator passes best, against either probe alone and against other
estimators (mean or harmonic mean; margins of 50 ms to 1 s).

A change that makes the measured code slower still reads slower by the
same factor.  The probes' speed only tracks the machine.
"""

import bisect
import heapq
import math
import signal
import statistics
import time

PROBE_PERIOD_S = 0.02
#: Probes this close to an interval also count, so that an interval
#: shorter than the probe period still has several.
WINDOW_S = 0.05


def probe_arith():
    total = 0
    table = {}
    for i in range(2000):
        total += i * 3 % 7
        table[i & 255] = total
    return total


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key):
        self.key = key
        self.value = key + 1


_CELLS = [_Cell(i) for i in range(512)]
_COLUMN = list(range(4096))


def probe_mixed():
    heap = []
    table = {}
    total = 0
    for i in range(300):
        cell = _CELLS[(i * 7) & 511]
        total += _COLUMN[(i * 13) & 4095] + cell.key - cell.value
        table[cell.key] = total
        heapq.heappush(heap, (total & 1023, i))
        if len(heap) > 32:
            heapq.heappop(heap)
    return total


#: (probe, nominal seconds): each probe's fastest time in a tight loop
#: on the 2-vCPU x86-64 VM the bounds in BENCHMARK.json were measured
#: on.  They fix the unit of every time the benchmark reports: seconds
#: on that machine when nothing else contends for it.
PROBES = ((probe_arith, 1.66e-4), (probe_mixed, 1.57e-4))


class Clock:
    """A running probe sampler; call :meth:`stop` before exiting."""

    def __init__(self):
        self.starts = []        # perf_counter at each probe round's start
        self.rounds = []        # per round: each probe's seconds
        self.busy = []          # per round: all probes' seconds

    def _sample(self, signum, frame):
        begin = time.perf_counter()
        seconds = []
        for probe, _ in PROBES:
            started = time.perf_counter()
            probe()
            seconds.append(time.perf_counter() - started)
        self.starts.append(begin)
        self.rounds.append(seconds)
        self.busy.append(time.perf_counter() - begin)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def seconds(self, begin, end):
        """Seconds at reference speed between two ``time.perf_counter()``
        readings; call it after probes past ``end`` had time to run."""
        starts = self.starts
        lo = bisect.bisect_left(starts, begin)
        hi = bisect.bisect_left(starts, end)
        busy = end - begin - sum(self.busy[lo:hi])
        near = self.rounds[bisect.bisect_left(starts, begin - WINDOW_S):
                           bisect.bisect_left(starts, end + WINDOW_S)]
        if not near:
            near = self.rounds
        if not near:
            return busy
        log_speed = sum(
            math.log(nominal / statistics.median(r[i] for r in near))
            for i, (_, nominal) in enumerate(PROBES))
        return busy * math.exp(log_speed / len(PROBES))
