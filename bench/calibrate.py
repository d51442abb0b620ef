"""Host-speed calibration of the end-to-end timings.

On a shared host the speed of the same code changes by up to 2x within a
tenth of a second, and the share of slow stretches differs from run to run,
so raw step times of two runs of the same code can differ by more than any
useful bound. A fixed kernel, independent of the library and of ``--seed``,
runs before every timed step and after the last; a step's time is reported
as measured times ``REF_S`` over the mean time of the kernels run around it,
which is the time the step would take on a host where the kernel takes
``REF_S``. A short step is scaled by the two kernels beside it, as a kernel
a tenth of a second away already tracks the host much worse; a step of
seconds averages the host's speed over its length, so the kernels run
within one step length before and after it scale it too. A change to the
library moves a step's time and leaves the kernel's alone, so it moves the
reported time in full.

The kernel mixes the two kinds of work the library does: a dict-and-tuple
loop in the interpreter, like the per-label loops, and a complex SVD, like
the dense kernels.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median kernel time on the host the benchmark was written on, in its fast
# stretches: 2 vCPUs of a shared Intel Xeon host, Python 3.11.7, numpy 2.4.6,
# OpenBLAS 0.3.31 on one thread. It fixes the scale of the reported seconds
# only.
REF_S = 0.012

_MATRIX = None


def _python_work() -> float:
    totals: dict = {}
    for i in range(30000):
        key = (i % 97, i % 13)
        totals[key] = totals.get(key, 0.0) + i * 0.5
    return sum(totals.values())


def kernel_s() -> float:
    """Wall time of one kernel run."""
    global _MATRIX
    if _MATRIX is None:
        rng = np.random.default_rng(0)
        _MATRIX = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
    start = time.perf_counter()
    _python_work()
    np.linalg.svd(_MATRIX, compute_uv=False)
    return time.perf_counter() - start


class Calibrator:
    """Kernel runs and timed steps of one run, in the order they ran."""

    def __init__(self):
        self.kernels: list[tuple[float, float]] = []  # (start, end)
        self.steps: list[tuple[str, float, float]] = []  # (step, start, seconds)

    def measure(self) -> None:
        start = time.perf_counter()
        seconds = kernel_s()
        self.kernels.append((start, start + seconds))

    def record(self, step: str, start: float, seconds: float) -> None:
        self.steps.append((step, start, seconds))

    def to_reference(self, start: float, seconds: float) -> float:
        """``seconds`` measured for a step that began at ``start``, in
        reference seconds: scaled by the mean time of the kernels that ran
        within one step length of the step, before or after it, and of the
        kernels just before and just after it in any case."""
        ends = [e for _, e in self.kernels]
        starts = [s for s, _ in self.kernels]
        before = bisect.bisect_right(ends, start) - 1
        lo = min(bisect.bisect_left(ends, start - seconds), before)
        hi = max(bisect.bisect_right(starts, start + 2 * seconds), before + 2)
        if before < 0 or hi > len(self.kernels):
            raise RuntimeError("a timed step has no kernel run before or after it")
        return seconds * REF_S / statistics.fmean(e - s for s, e in self.kernels[lo:hi])

    def reference_samples(self) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = {}
        for step, start, seconds in self.steps:
            samples.setdefault(step, []).append(self.to_reference(start, seconds))
        return samples

    def kernel_times(self) -> list[float]:
        return [e - s for s, e in self.kernels]


def setup_kernel_s(runs: int = 7) -> float:
    """Median kernel time in a fresh process; the first run, which pays for
    first-call set-up, is left out."""
    times = [kernel_s() for _ in range(runs)]
    return statistics.median(times[1:])
