"""Scaling of measured times to a fixed CPU speed.

The reference machine (a 2-vCPU KVM guest on an Intel Xeon, family 6
model 143, Python 3.11) changes speed by up to 1.7x over seconds to
minutes, on each vCPU independently, so raw times of the same work spread
by 15-30% (quartile distance over median) from run to run.  A pass
therefore measures the speed of its own CPU while it runs: a fixed
pure-Python kernel is timed ``CAL_SAMPLES`` times between ops, and once
every ``SAMPLE_INTERVAL_S`` from a ``SIGALRM`` handler while an op runs.
An op's time, less the time spent in the handler, is multiplied by
``KERNEL_REF_S`` over the median kernel time seen during the op and next
to it: its seconds at the speed where the kernel takes ``KERNEL_REF_S``.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

KERNEL_REF_S = 250e-6
SAMPLE_INTERVAL_S = 0.02
CAL_SAMPLES = 8


def _kernel() -> int:
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


def _time_kernel() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class Speedometer:
    """Kernel times of one process, and the time spent taking them in ops."""

    def __init__(self) -> None:
        self.samples: list = []
        self.in_handler_s = 0.0

    def calibrate(self) -> None:
        self.samples.extend(_time_kernel() for _ in range(CAL_SAMPLES))

    def _handler(self, signum, frame) -> None:
        took = _time_kernel()
        self.samples.append(took)
        self.in_handler_s += took

    @contextmanager
    def sampling(self):
        """Take a kernel sample every SAMPLE_INTERVAL_S inside the block."""
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, first: int = 0) -> float:
        """KERNEL_REF_S over the median of the samples from index ``first``."""
        return KERNEL_REF_S / statistics.median(self.samples[first:])
