"""Host-speed sampling, so timings can be normalised for contention.

On a shared virtual machine other tenants slow this process's core by
up to 2x, in phases lasting seconds, with no steal time recorded (see
``README.md``).  The slowdown is per core: a sampler on the other vCPU
does not see it.  So a :class:`SpeedSampler` runs a fixed calibration
loop on the benchmark's own main thread, from a ``SIGALRM`` handler
every :data:`PERIOD_S`, and records the loop's CPU time.
:meth:`SpeedSampler.factor` turns the samples taken during an interval
into ``(REFERENCE_S / mean) ** EXPONENT``; multiplying a wall time by
it estimates the time the same work would take at the reference speed.  The loop runs no
program code, so no change to the program moves the factor, and it
costs about 1% of the main thread.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

#: calibration-loop CPU seconds that define factor 1.0: the loop's
#: uncontended time on a 2-vCPU Xeon KVM guest.  A constant, so that
#: normalised figures from different runs are comparable.
REFERENCE_S = 3.0e-4
#: seconds between calibration samples
PERIOD_S = 0.1
#: fewest samples an interval's factor is computed from
MIN_SAMPLES = 5
#: how strongly contention slows the measured work relative to the
#: calibration loop.  The loop is bound by the core; the campaigns mix
#: core-bound Python dispatch with memory-bound array passes, which the
#: contention slows less.  Over ten runs of each workload, 0.7 gave the
#: smallest worst-case spread of ``campaign_s`` (1.0 over-corrects the
#: memory-bound ``large_n`` and ``campaign_io``).
EXPONENT = 0.7

#: 16 x 24 stays below NumPy's 500-element threshold for releasing the
#: interpreter lock, so the loop never yields to another thread
_X = np.random.default_rng(0).normal(size=(16, 24))


def calibration_loop() -> float:
    """Fixed mixed Python/NumPy work; returns its CPU seconds."""
    t0 = time.thread_time()
    acc = 0.0
    for i in range(60):
        y = np.sin(_X) * 0.5 + _X
        acc += float(y[0, 0])
        d = {"i": i}
        acc += d["i"]
    return time.thread_time() - t0


class SpeedSampler:
    """Samples :func:`calibration_loop` from a timer signal (main thread).

    Use as a context manager around the timed work.
    """

    def __init__(self) -> None:
        self.data: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        cpu = calibration_loop()
        self.data.append((time.perf_counter(), cpu))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, t0: float, t1: float) -> float:
        """``(REFERENCE_S / mean sample in [t0, t1]) ** EXPONENT``.

        Short intervals widen symmetrically until they hold
        :data:`MIN_SAMPLES` samples.
        """
        data = list(self.data)
        if not data:
            return 1.0
        times = [t for t, _ in data]
        lo = bisect.bisect_left(times, t0)
        hi = bisect.bisect_right(times, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(times))
        window = [c for _, c in data[lo:hi]]
        return (REFERENCE_S * len(window) / sum(window)) ** EXPONENT
