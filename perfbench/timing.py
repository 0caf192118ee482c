"""Per-call timing samples and their summary: median, tail and count.

The tail is the highest percentile that still has at least ten samples
beyond it: with n sorted samples it is the value at rank n - 11, so
exactly ten samples lie above it. With ten samples or fewer there is no
such percentile and the maximum is reported instead.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

TAIL_MARGIN = 10


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_MARGIN:
        return ordered[-1], 100.0
    rank = n - TAIL_MARGIN - 1
    return ordered[rank], 100.0 * (rank + 1) / n


class Spans:
    """Durations of timed calls, grouped by layer name, kept in memory."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.samples.setdefault(name, []).append(time.perf_counter() - t0)

    def summary(self, name: str, scale: float = 1e3) -> dict[str, float]:
        """Median and tail of one layer's calls (milliseconds by default) and the count."""
        values = self.samples[name]
        value, pct = tail(values)
        return {
            "median": statistics.median(values) * scale,
            "tail": value * scale,
            "tail_pct": pct,
            "n": len(values),
        }
