"""Speed calibration: a fixed kernel timed next to the work it calibrates.

The benchmark's host is a shared VM whose CPU speed drifts by up to about
1.6x over seconds to minutes (other tenants on the same cores).  Raw times
of the same code therefore differ between runs by far more than any bound a
comparison could use.  A kernel that does a fixed amount of the kinds of
work the package does (interpreted Python, string formatting, vectorised
numpy math) is timed at both ends of every command and every
``interval`` seconds inside it (``SpeedClock``).  Each stretch of work
between two kernel samples is divided by the mean of their two times and
multiplied by the kernel's nominal time: that is its time in seconds at a
fixed reference speed, from which the host's speed has largely cancelled.

``python_kernel`` uses only the standard library, so that it can scale the
start-up of an interpreter before numpy is imported; ``mixed_kernel`` adds
numpy, for the passes.  Each nominal time is close to the kernel's median on
the host the baseline was measured on (2-vCPU Intel Xeon VM, Python 3.11,
numpy 2.4) in its fast state, so scaled times are close to raw times there.
"""

from __future__ import annotations

import signal
import time

_FORMAT_VALUES = [i * 0.001 for i in range(900)]


def python_kernel() -> float:
    """Interpreter-bound work of about 4 ms; returns a checksum."""
    acc = 0.0
    for i in range(36000):
        acc += (i % 7) * 0.5
    text = ",".join(f"{x:.12g}" for x in _FORMAT_VALUES)
    return acc + len(text)


def mixed_kernel() -> float:
    """``python_kernel`` plus numpy math on a small array, about 7 ms;
    returns a checksum.  numpy is imported here, not with this module, so
    that start-up can be scaled before numpy is loaded."""
    import numpy as np

    grid = np.linspace(0.0, 10.0, 20000)
    for _ in range(8):
        grid = np.exp(-0.01 * grid) * np.cos(grid) + grid
    return python_kernel() + float(grid[-1])


# name -> (kernel, nominal seconds)
KERNELS = {
    "python": (python_kernel, 0.004),
    "mixed": (mixed_kernel, 0.006),
}


class SpeedClock:
    """Times work in segments, each scaled by the kernel timed at its ends.

    ``mark()`` times the kernel and closes the segment since the previous
    mark.  With ``interval`` > 0 a SIGALRM timer also marks every
    ``interval`` seconds in the middle of the work, so that the speed is
    sampled throughout a long command and not only at its ends.  The
    handler runs between bytecodes of the main thread, after the C call in
    progress returns.  The kernel's own time is in neither total.
    """

    def __init__(self, kernel_name: str, interval: float = 0.0):
        self.kernel, self.nominal = KERNELS[kernel_name]
        self.interval = interval
        self.raw_s = self.scaled_s = 0.0
        self.samples: list[float] = []
        self._end = None

    def mark(self) -> None:
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        k = end - start
        if self._end is not None:
            self.raw_s += start - self._end
            self.scaled_s += scaled(start - self._end, self.samples[-1], k, self.nominal)
        self.samples.append(k)
        self._end = end

    def _on_alarm(self, signum, frame) -> None:
        self.mark()
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self):
        self.mark()
        if self.interval > 0:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval > 0:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.mark()


def scaled(seconds: float, kernel_before: float, kernel_after: float, nominal: float) -> float:
    """``seconds`` of work, at the speed where the kernel takes ``nominal``,
    given the kernel's times right before and after the work."""
    return seconds * nominal / (0.5 * (kernel_before + kernel_after))
