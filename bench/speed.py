"""Machine-speed sampling, so that timings on a shared host can be compared.

On a shared virtual machine the same single-threaded code runs up to ~1.7x
slower for seconds to minutes at a time, while other tenants load the host's
cores; process CPU time slows down with it.  A SpeedSampler times a fixed
reference job every INTERVAL_S, inside the measured process itself (through
SIGALRM), and converts a raw duration into reference seconds: the time the
same work takes while the reference job takes REFERENCE_S.  The reference
job uses no doubleint code, so changes to the program move the measured
work and never the yardstick.  The sampling time is excluded from every
duration.
"""

import math
import signal
import statistics
import time
from typing import NamedTuple

INTERVAL_S = 0.05
# Typical duration of one reference_job() sample, taken between the
# workloads' own instructions, on a 2-vCPU KVM guest (Intel Xeon, family 6
# model 143, Python 3.11): reference seconds are about real seconds there.
REFERENCE_S = 6.5e-4


def _power_sign(x: float, a: float) -> float:
    if x > 0.0:
        return x**a
    return -((-x) ** a)


def reference_job() -> float:
    """The mix the workloads spend their time on: float arithmetic, Python
    calls into small functions, math.sin, and number formatting."""
    sin = math.sin
    x1 = x2 = 0.1
    h = 1e-3
    for i in range(800):
        a = 0.5 * sin(3.0 * i * h)
        d = -(0.1 * _power_sign(x1, 0.6) + 0.2 * _power_sign(x2, 0.7) + _power_sign(x2 - a, 0.3))
        x1 += h * x2
        x2 += h * d
    cells = [f"{x1 * k:.8e}" for k in range(240)]
    return x2 + len(",".join(cells))


class Timing(NamedTuple):
    reference_s: float  # raw_s at the reference speed
    raw_s: float  # elapsed seconds minus sampled_s
    sampled_s: float  # seconds spent sampling inside the call


class SpeedSampler:
    """Context manager that samples the machine's speed at 1 / INTERVAL_S Hz."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        reference_job()
        self.samples.append((start, time.perf_counter() - start))

    def time(self, fn) -> Timing:
        """Run fn() and time it, sampling excluded.

        A call too short to contain a sample is scaled by one sample taken
        right after it.
        """
        mark = len(self.samples)
        start = time.perf_counter()
        fn()
        end = time.perf_counter()
        inside = [dt for t, dt in self.samples[mark:] if start <= t and t + dt <= end]
        sampled = sum(inside)
        raw = end - start - sampled
        if not inside:
            self._sample()
            inside = [self.samples[-1][1]]
        return Timing(raw * statistics.fmean(REFERENCE_S / dt for dt in inside), raw, sampled)
