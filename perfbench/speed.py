"""Timing at a reference CPU speed, for hosts shared with other tenants.

On a shared host the speed of a virtual CPU drifts by tens of percent within
seconds, and the same job can take 3 s in one minute and 4.5 s in the next;
no number of repetitions in a 30-second run averages that out.  While a pass
runs, SpeedProbe interrupts it every INTERVAL seconds of wall time and times
a fixed pure-Python probe of dict and integer work, the kind symprod does.
A pass's time is then rescaled to the reference speed: every stretch of
wall time counts in proportion to the speed the probes measured in it, so
a time t of the pass is t * scale() at the reference speed, with
scale() = mean(REFERENCE / probe time).  The caller keeps the probes' own
time out of its timings through `spent`, and `on_probe` tells a tracer
about each probe so that it can charge the time to the harness.
"""

import signal
import statistics
import time

INTERVAL = 0.05  # seconds between probes
PROBE_LOOPS = 1000
# Probe time that defines the reference speed: about its time on an idle
# 2-vCPU x86-64 VM, so normalized times read close to seconds there.
REFERENCE = 1.7e-4


def _probe():
    """Seconds taken by one run of the probe."""
    t0 = time.perf_counter()
    d = {}
    for i in range(PROBE_LOOPS):
        k = (i & 15, i & 7)
        d[k] = d.get(k, 0) + i * i
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager that probes CPU speed on a SIGALRM interval timer."""

    def __init__(self, on_probe=None):
        self.durations = []
        self.spent = 0.0  # seconds inside the signal handler
        self.on_probe = on_probe  # called with each probe's seconds
        self._previous = None

    def _handler(self, signum, frame):
        seconds = _probe()
        self.durations.append(seconds)
        self.spent += seconds
        if self.on_probe is not None:
            self.on_probe(seconds)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self):
        """Factor from seconds of this pass to seconds at the reference
        speed.  A pass shorter than INTERVAL is probed now, after one
        warm-up run."""
        durations = self.durations or [_probe() for _ in range(3)][1:]
        return statistics.mean(REFERENCE / d for d in durations)
