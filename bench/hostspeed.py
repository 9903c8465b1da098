"""Host speed, sampled while the workload runs.

The shared host's speed drifts by up to 1.8x over minutes: the same
pure-Python loop took 0.066 s in one minute and 0.13 s a few minutes later,
and framekit's timings moved with it.  A daemon thread therefore times a
short fixed kernel, which does not touch framekit, every INTERVAL_S seconds
while the benchmark runs.  ``at_nominal_speed`` rescales a measured interval
by the kernel's median time over that interval, to the nominal speed at
which the kernel takes its NOMINAL_S.

The kernel builds float tuples element by element in pure Python.  It
calls nothing that releases the interpreter lock and is shorter than the
interpreter's thread switch interval, so no other Python thread runs while
it is timed.  Its working set is a few KiB.  numpy code that the workload
runs meanwhile with the lock released still shares the host with it: beside
a 2048 x 2048 matrix-vector loop the kernel read 2-4 % slower than beside a
sleeping thread, so a change that removes such work is understated by up to
that share (see README.md).  The kernel costs the workload about 1 % of its
time.
"""

from __future__ import annotations

import statistics
import threading
import time

INTERVAL_S = 0.1
# Nominal kernel time: about its median while a workload runs on this host
# in a typical minute, so reported times stay close to wall times.
NOMINAL_S = 0.0009


def python_kernel() -> None:
    a = tuple(float(i) for i in range(200))
    for _ in range(50):
        a = tuple(x * 0.5 + 1.0 for x in a)


class HostSpeed:
    """Samples the kernel on a daemon thread between ``with`` entry and exit."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="hostspeed", daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        t0 = time.perf_counter()
        python_kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time over [start, end], or over the nearest samples."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if len(inside) < 5:
            nearest = sorted(self.samples, key=lambda ts: abs(ts[0] - (start + end) / 2))
            inside = [s for _, s in nearest[:5]]
        return statistics.median(inside)

    def at_nominal_speed(self, seconds: float, start: float, end: float) -> float:
        return seconds * NOMINAL_S / self.kernel_s(start, end)
