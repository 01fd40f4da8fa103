"""Host-speed probe: times measured against a fixed unit of CPU work.

The benchmark shares a host whose speed swings by up to 1.8x within
seconds (a fixed pure-Python loop took 14 ms in one second and 27 ms in
the next), so raw seconds mostly measure the neighbours.  A pass
therefore carries a probe: an interval timer interrupts the pass every
PERIOD_S and times one fixed unit of pure-Python work.  The
probes land inside every interval the pass measures, so their mean
duration is the host's speed during that interval.  An interval's
normalised time is its raw time less the probe time inside it, scaled to
the reference speed at which one probe unit takes REFERENCE_UNIT_S:

    normalised = (raw - probe_s) * REFERENCE_UNIT_S / (probe_s / probes)

The probe work uses no code of the program, so a change to the program
moves the work time and leaves the unit alone.  The probes cost about 5%
of a pass, which the subtraction removes.  See README.md for how much
steadier the normalised times are.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.005
REFERENCE_UNIT_S = 2.5e-4   # one probe unit on a nominal host, in seconds
_TABLE = tuple(range(256))
_SLOTS = dict.fromkeys(range(256), 0)
_MODULUS = 7 ** 45


def probe_unit():
    """One unit of pure-Python work, about 0.25 ms: word-sized integer
    arithmetic, tuple indexing, dict stores and ~126-bit integer products,
    the mix the program's exact arithmetic spends its time on.  It
    allocates no container, so it never triggers the cyclic garbage
    collector."""
    x, big, table, slots = 1, 3 ** 40, _TABLE, _SLOTS
    for _ in range(600):
        k = x & 255
        slots[k] = x
        x = (x * 1103515245 + table[k]) % 2147483647
        big = big * (x | 1) % _MODULUS
    return x, big


class Probe:
    """Times one probe unit every PERIOD_S from `start` until `stop`."""

    def __init__(self):
        self.count = 0
        self.seconds = 0.0

    def _fire(self, signum, frame):
        start = time.perf_counter()
        probe_unit()
        self.seconds += time.perf_counter() - start
        self.count += 1

    def start(self):
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """Cumulative [probes, probe seconds]; subtract two marks to get
        the probes inside an interval."""
        return [self.count, self.seconds]


def between(later, earlier):
    return [later[0] - earlier[0], later[1] - earlier[1]]


def normalise(raw_s, probes):
    """raw_s seconds with `probes` = [count, seconds] inside them, as
    seconds at the reference speed."""
    count, probe_s = probes
    if not count:
        raise ValueError("no probe fired in a timed interval")
    return (raw_s - probe_s) * REFERENCE_UNIT_S * count / probe_s
