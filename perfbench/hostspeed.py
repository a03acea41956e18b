"""Host-speed normalization: timed intervals rescaled to a reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed moves by up
to 2x from one second to the next: one fixed small-batch round took 2.7 s
to 5.1 s within a minute, with no steal time and CPU time equal to wall
time, and a 40 s stretch ran 1.8x slower throughout.  Raw wall times of
runs minutes apart therefore measure the host more than the program.

A Sampler runs a fixed probe (exact Fraction sums and big-integer products,
standard library only, no champbribe code) in the measured process itself:
once when started, every PERIOD_S seconds from a SIGALRM handler, and once
when stopped.  `reference_s` splits a timed interval at the probes that ran
inside it, drops the probes' own time, and scales each stretch by
REF_PROBE_S over the mean time of the two probes around it, which gives the
interval's length at the reference speed.  A change to champbribe cannot
change the probe.  In a trial over three minutes per workload of
back-to-back rounds (probes every 50 ms), the quartile distance over the
median of round totals fell from 0.19 to 0.07 (small-batch), 0.17 to 0.04
(dp-scale) and 0.19 to 0.09 (dp-denoms); the probe's time correlated
0.95-0.97 with the round's.  The rescaling is incomplete (about 0.3 of a
swing, in log scale, remained in that trial), and the probe shares the
process's caches with the solver; README.md gives the figures.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.1
# Median probe time on the 2-vCPU VM the bounds were set on, so that reference
# seconds read close to the wall seconds of a typical moment there.
REF_PROBE_S = 1.2e-3
_BIG = 3**4000
_MOD = 7 * _BIG + 1


def probe() -> None:
    """About a millisecond of interpreter, allocation and big-integer work."""
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(1, k)
    x = _BIG
    for _ in range(4):
        x = x * _BIG % _MOD


class Sampler:
    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, probe s)

    def sample(self, *_signal) -> None:
        # A collection of the solver's heap would be charged to the probe.
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        probe()
        end = perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((start, end, end - start))

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def reference_s(self, t0: float, t1: float) -> tuple[float, float]:
        """(measured, reference) seconds of [t0, t1] without the probes inside it.

        The interval must lie between start() and stop().  A probe runs
        between two bytecodes, so it lies wholly inside or outside [t0, t1].
        """
        s = self.samples
        j = bisect_left(s, (t0,))
        measured = reference = 0.0
        cur = t0
        while True:
            end = s[j][0] if j < len(s) and s[j][0] < t1 else t1
            around = [s[k][2] for k in (j - 1, j) if 0 <= k < len(s)]
            measured += end - cur
            reference += (end - cur) * REF_PROBE_S * len(around) / sum(around)
            if end == t1:
                return measured, reference
            cur = s[j][1]
            j += 1
