"""Empirical hijack-duration model.

Experiment E5 needs the distribution of how long real hijack events last.
The paper anchors on two statistics from Argus (Shi et al., IMC 2012):
"more than 20% of hijacks last < 10 mins" and ARTEMIS' ≈6-minute cycle
"is smaller than the duration of > 80% of the hijacking cases observed".

:class:`HijackDurationModel` is a piecewise log-linear CDF through anchor
points consistent with both statements (many short events, a heavy tail up
to weeks).  It supports exact CDF evaluation and inverse-CDF sampling.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.errors import ExperimentError
from repro.sim.rng import SeededRNG

#: (duration seconds, cumulative probability) anchors, log-linear between.
DEFAULT_ANCHORS: List[Tuple[float, float]] = [
    (60.0, 0.02),            # a minute
    (5 * 60.0, 0.12),        # five minutes: ARTEMIS beats ~88 %
    (10 * 60.0, 0.22),       # ">20 % last < 10 min"
    (3600.0, 0.45),          # an hour
    (6 * 3600.0, 0.62),
    (24 * 3600.0, 0.80),     # a day
    (7 * 24 * 3600.0, 0.95), # a week
    (30 * 24 * 3600.0, 1.0), # a month: practical maximum
]


class HijackDurationModel:
    """Piecewise log-linear CDF over hijack event durations."""

    def __init__(self, anchors: Sequence[Tuple[float, float]] = DEFAULT_ANCHORS):
        anchors = [(float(d), float(p)) for d, p in anchors]
        if len(anchors) < 2:
            raise ExperimentError("duration model needs at least two anchors")
        last_d, last_p = 0.0, -1.0
        for duration, prob in anchors:
            if duration <= last_d:
                raise ExperimentError("duration anchors must strictly increase")
            if prob <= last_p:
                raise ExperimentError("CDF anchors must strictly increase")
            if not 0.0 <= prob <= 1.0:
                raise ExperimentError(f"anchor probability {prob} out of range")
            last_d, last_p = duration, prob
        if anchors[-1][1] != 1.0:
            raise ExperimentError("last anchor must reach probability 1.0")
        self.anchors = anchors

    # --------------------------------------------------------------------- cdf

    def cdf(self, duration: float) -> float:
        """P(event duration ≤ ``duration``)."""
        if duration <= 0:
            return 0.0
        first_d, first_p = self.anchors[0]
        if duration <= first_d:
            # Log-linear from (epsilon, 0) to the first anchor.
            low_d = 1.0
            if duration <= low_d:
                return 0.0
            span = math.log(first_d) - math.log(low_d)
            return first_p * (math.log(duration) - math.log(low_d)) / span
        for (d0, p0), (d1, p1) in zip(self.anchors, self.anchors[1:]):
            if duration <= d1:
                span = math.log(d1) - math.log(d0)
                fraction = (math.log(duration) - math.log(d0)) / span
                return p0 + (p1 - p0) * fraction
        return 1.0

    def fraction_outlived_by(self, response_time: float) -> float:
        """Fraction of hijack events that last *longer* than ``response_time``.

        This is the coverage metric of E5: the share of real incidents a
        defence completing in ``response_time`` would actually mitigate
        while they are still ongoing.
        """
        return 1.0 - self.cdf(response_time)

    # ------------------------------------------------------------------ sample

    def sample(self, rng: SeededRNG) -> float:
        """Inverse-CDF sample of one event duration (seconds)."""
        u = rng.random()
        previous_d, previous_p = 1.0, 0.0
        for duration, prob in self.anchors:
            if u <= prob:
                span = prob - previous_p
                fraction = 0.0 if span <= 0 else (u - previous_p) / span
                log_d = (
                    math.log(previous_d)
                    + (math.log(duration) - math.log(previous_d)) * fraction
                )
                return math.exp(log_d)
            previous_d, previous_p = duration, prob
        return self.anchors[-1][0]

    def sample_many(self, rng: SeededRNG, count: int) -> List[float]:
        return [self.sample(rng) for _ in range(count)]

    def __repr__(self) -> str:
        return f"HijackDurationModel({len(self.anchors)} anchors)"
