"""Host-speed calibration of the in-process query timings.

On the 2-vCPU KVM guest this benchmark was built on, the same code runs up to
about twice as slow for minutes at a time, because of load outside the guest.
CPU time rises with wall time, so no clock inside the guest filters it out.
``point-queries`` therefore times a fixed pure-Python kernel between blocks of
queries in the same thread, and reports each query's time as

    seconds * REFERENCE_S / (mean kernel time before and after its block)

that is, in seconds on a host where the kernel takes REFERENCE_S.  The kernel
is not klein336 code, so a change to the program moves the scaled figures as
much as the raw ones.

A cold CLI process runs for seconds, and the host's speed changes within that
time, so kernel timings taken around it in the parent do not track its speed.
A ``Sampler`` in the cold process itself times the kernel every INTERVAL_S
from a SIGALRM handler, which runs in the main thread between bytecodes, and
scales each interval between two kernel timings the same way.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.004  # the kernel's time on the reference host when it is not slowed
SAMPLES = 3
INTERVAL_S = 0.25  # wall time between two kernel timings in a Sampler


def _kernel() -> int:
    # Fraction arithmetic and small-object churn, as in klein336's exact layers
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i % 97, 1 + i % 13)
    table = {(i, i % 7): i * i % 11 for i in range(3000)}
    return acc.denominator + len(table)


def kernel_seconds() -> float:
    """Median of SAMPLES timings of the kernel."""
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from raw seconds to seconds at reference speed."""
    return 2 * REFERENCE_S / (before + after)


class Sampler:
    """Scaled wall time of the code run between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float, float]] = []  # (start, end, kernel seconds)

    def _sample(self, *_signal) -> None:
        start = time.monotonic()
        seconds = kernel_seconds()
        self.marks.append((start, time.monotonic(), seconds))

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> dict:
        """Times of the code alone, the kernel timings left out: raw and scaled."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        raw = scaled = 0.0
        for (_, end, before), (start, _, after) in zip(self.marks, self.marks[1:]):
            raw += start - end
            scaled += (start - end) * scale(before, after)
        return {"t0": self.marks[0][0], "raw_s": raw, "scaled_s": scaled}
