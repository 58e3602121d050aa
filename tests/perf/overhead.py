"""The interleaved on/off overhead-ratio protocol the perf smokes share.

Each smoke times a feature ON against the same workload with it OFF.
On a loaded machine a single pair can be unlucky by more than a whole
5% budget, so the protocol is: one warmup pair (absorbs allocator and
bytecode cold start), then ``pairs`` interleaved pairs judged by
whichever of two fair estimators is smaller — ratio of sums (averages
slow machine drift) and ratio of minimums (quiet-window cost).  A ratio
at or over the bound gets one retry: a true regression fails both
attempts, a one-off noise spike does not.
"""

import time
from typing import Callable


def cpu_seconds(run: Callable[[], object]) -> Callable[[], float]:
    """A measurement that reports the CPU time ``run`` takes."""

    def measure() -> float:
        start = time.process_time()
        run()
        return time.process_time() - start

    return measure


def _estimate(on: Callable[[], float], off: Callable[[], float],
              pairs: int) -> float:
    samples = [(on(), off()) for _ in range(pairs)]
    sum_on = sum(s for s, _ in samples)
    sum_off = sum(s for _, s in samples)
    min_on = min(s for s, _ in samples)
    min_off = min(s for _, s in samples)
    if sum_off <= 0 or min_off <= 0:
        return 1.0
    return min(sum_on / sum_off, min_on / min_off)


def overhead_ratio(on: Callable[[], float], off: Callable[[], float],
                   bound: float, pairs: int = 4) -> float:
    """Cost of ``on`` relative to ``off``; each callable runs the
    workload once and returns the seconds it took."""
    on()
    off()
    ratio = _estimate(on, off, pairs)
    if ratio >= bound:
        ratio = min(ratio, _estimate(on, off, pairs))
    return ratio
