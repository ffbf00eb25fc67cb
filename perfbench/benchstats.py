"""The benchmark's own arithmetic: percentiles, quartiles, open-loop timing.

Kept free of any ``repro`` import so the tests in ``test_benchstats.py``
pin it without the simulator, and so ``run.py`` can aggregate results
before (or without) importing the program under test.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: Percentiles the benchmark may report for a latency, highest first.
REPORTABLE_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Iterable[float], p: float) -> float:
    """Linearly interpolated percentile ``p`` in [0, 100] of ``values``.

    The same definition as numpy's default (``linear``): position
    ``p/100 * (n-1)`` in the sorted sample, interpolated between the two
    neighbouring order statistics.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    position = p / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)


def quartiles(values: Iterable[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``.

    The quartiles of ``statistics.quantiles(values, n=4)`` (its default,
    exclusive method): the definition the benchmark's spread is judged
    by, so ``run.py`` prints the same quartiles ``spread.py`` checks.
    """
    sample = list(values)
    if len(sample) < 2:
        return (sample[0],) * 3
    q1, q2, q3 = statistics.quantiles(sample, n=4)
    return q1, q2, q3


def samples_beyond(count: int, p: float) -> float:
    """How many of ``count`` samples lie above percentile ``p``."""
    return round(count * (100.0 - p) / 100.0, 9)


def highest_supported_percentile(
        count: int,
        candidates: Sequence[float] = REPORTABLE_PERCENTILES,
        beyond: int = 10) -> float:
    """The highest candidate percentile with ``beyond`` samples above it.

    A tail percentile read off too few samples is a single outlier, not
    a tail: p99 needs 1000 samples before ten of them lie beyond it.
    Returns 0.0 when not even the lowest candidate is supported.
    """
    for p in sorted(candidates, reverse=True):
        if samples_beyond(count, p) >= beyond:
            return p
    return 0.0


def open_loop_timings(due: Sequence[float], sent: Sequence[float],
                      done: Sequence[float]) -> Dict[str, List[float]]:
    """Per-request latency and generator lateness of an open-loop run.

    An open-loop generator sends each request at its due time whatever
    happened to the previous ones.  When it falls behind (its own
    connection still busy, a stalled thread), the request goes out late,
    and the wait it suffered is part of what a user at that arrival time
    sees.  So latency runs from *due* to *done* — never from *sent* —
    and lateness (``sent - due``) is reported beside it to show how far
    the generator drifted from its schedule.
    """
    if not len(due) == len(sent) == len(done):
        raise ValueError("due, sent and done must be the same length")
    latency, lateness = [], []
    for d, s, f in zip(due, sent, done):
        if s < d or f < s:
            raise ValueError("need due <= sent <= done for every request")
        latency.append(f - d)
        lateness.append(s - d)
    return {"latency": latency, "lateness": lateness}


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range over the median, by :func:`quartiles`."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")
