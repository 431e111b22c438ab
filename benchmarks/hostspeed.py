"""Host-speed sampling for timed passes.

On a shared host the speed of one CPU swings by up to ~1.8x within seconds
(contention from other work on the same machine), which a handful of passes
does not average away.  While a pass runs, a SIGALRM handler runs a fixed kernel
every SAMPLE_INTERVAL_S of wall time, in the pass's own process and thread,
and records how long it took.  The kernel mixes small LAPACK calls and
interpreter work, like the package does, so it slows down with it.

A cold kernel runs up to 2x slower right after interpreter-heavy work than
after LAPACK-heavy work, and a garbage collection inside it would time the
package's heap; either would make the sample depend on what the package was
doing.  So the garbage collector is paused for the sample, and one untimed
run warms the kernel: the timed run then takes the same time after either
kind of work.

``relative_speed`` of the samples of an interval is the mean of
REFERENCE_KERNEL_S / sample, and wall time times relative speed is the
interval's time at the reference speed.  REFERENCE_KERNEL_S is the warm
kernel's time on an uncontended core of the reference host (2-vCPU Xeon VM
at 2.1 GHz, OpenBLAS 0.3.31, one thread), so there a pass that meets no
contention reads its wall time.  Sampling costs about 0.4% of a pass.  The
kernel calls the LAPACK ``qr`` bound at import, so the tracer, which wraps
``numpy.linalg.qr`` later, never counts it.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy

SAMPLE_INTERVAL_S = 0.1
REFERENCE_KERNEL_S = 180e-6

_QR = numpy.linalg.qr
_MATRIX = numpy.array([[1.0, 0.2, 0.1], [0.0, 1.0, 0.3], [0.2, 0.0, 1.0]], dtype=complex)

def kernel() -> float:
    t0 = time.perf_counter()
    m = _MATRIX
    acc = 0.0
    for _ in range(5):
        q, r = _QR(m)
        m = q @ r
        for j in range(60):
            acc += (j * 0.5) ** 2 % 7.0
    return time.perf_counter() - t0


class Sampler:
    """Kernel times taken every SAMPLE_INTERVAL_S between start() and stop()."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            kernel()
            self.samples.append(kernel())
        finally:
            if enabled:
                gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def relative_speed(self, first: int = 0) -> float:
        """Mean speed of samples[first:], relative to the reference host."""
        window = self.samples[first:]
        if not window:
            return 1.0
        return sum(REFERENCE_KERNEL_S / s for s in window) / len(window)
