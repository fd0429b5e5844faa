"""Small statistics helpers for experiment suites.

Implemented by hand (mean, stdev, exact percentiles by linear
interpolation) so results are stable and dependency-free.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """q-th percentile (0–100) with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q={q} out of [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


class Summary:
    """Five-number-plus summary of one metric across runs.

    A run without a value (``None``: say, a hijack nobody detected) is left
    out of the statistics but not out of :attr:`runs`, so ``count`` of
    ``runs`` says how many runs the numbers speak for.
    """

    __slots__ = (
        "runs", "count", "mean", "stdev", "minimum", "p25", "median", "p75", "p95",
        "maximum",
    )

    def __init__(self, values: Iterable[Optional[float]]):
        values = list(values)
        cleaned = [float(v) for v in values if v is not None]
        self.runs = len(values)
        self.count = len(cleaned)
        if not cleaned:
            self.mean = self.stdev = self.minimum = self.maximum = float("nan")
            self.p25 = self.median = self.p75 = self.p95 = float("nan")
            return
        self.mean = sum(cleaned) / len(cleaned)
        if len(cleaned) > 1:
            variance = sum((v - self.mean) ** 2 for v in cleaned) / (len(cleaned) - 1)
            self.stdev = math.sqrt(variance)
        else:
            self.stdev = 0.0
        self.minimum = min(cleaned)
        self.maximum = max(cleaned)
        self.p25 = percentile(cleaned, 25)
        self.median = percentile(cleaned, 50)
        self.p75 = percentile(cleaned, 75)
        self.p95 = percentile(cleaned, 95)

    def to_dict(self) -> Dict[str, float]:
        return {
            "runs": self.runs,
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.minimum,
            "p25": self.p25,
            "median": self.median,
            "p75": self.p75,
            "p95": self.p95,
            "max": self.maximum,
        }

    def __repr__(self) -> str:
        if self.count == 0:
            return "Summary(empty)"
        return (
            f"Summary(n={self.count} mean={self.mean:.2f} "
            f"median={self.median:.2f} p95={self.p95:.2f})"
        )


def summarize(values: Iterable[Optional[float]]) -> Summary:
    """Summary of ``values``, a ``None`` counting as a run without one."""
    return Summary(values)
