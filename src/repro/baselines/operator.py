"""Human-operator reaction model.

The paper's motivation (§1) is that third-party alerting leaves two manual
steps in the loop:

* **verification** — "a network administrator that receives a notification
  from a third-party alert system needs to manually process it to verify if
  the notification corresponds to a hijacking or is a false alarm";
* **manual mitigation** — "administrators often need to manually reconfigure
  routers or contact administrators of other ASes".

Both are modelled as heavy-tailed log-normal delays.  The defaults are
calibrated so the end-to-end reaction lands in the tens-of-minutes regime
the paper cites (YouTube: ≈80 min after the hijack started).
"""

from __future__ import annotations

from repro.sim.latency import Delay, LogNormal, make_delay
from repro.sim.rng import SeededRNG


class OperatorModel:
    """Samples the two human delays of a manual response."""

    def __init__(
        self,
        verification_delay: Delay = None,
        reconfiguration_delay: Delay = None,
        stream: str = "operator",
    ):
        #: Notice the alert, investigate, decide it is real (mean 25 min).
        self.verification_delay = (
            make_delay(verification_delay)
            if verification_delay is not None
            else LogNormal(mean=25 * 60.0, sigma=0.8)
        )
        #: Log into routers / call the NOC, push the config (mean 15 min).
        self.reconfiguration_delay = (
            make_delay(reconfiguration_delay)
            if reconfiguration_delay is not None
            else LogNormal(mean=15 * 60.0, sigma=0.7)
        )
        #: Label of this human's RNG substream: defenders compared on one
        #: seed each draw their own delays.
        self.stream = stream

    def rng(self, seed: int) -> SeededRNG:
        """The stream one run's two draws come from."""
        return SeededRNG(seed).substream("baseline", self.stream)

    def sample_verification(self, rng: SeededRNG) -> float:
        return self.verification_delay.sample(rng)

    def sample_reconfiguration(self, rng: SeededRNG) -> float:
        return self.reconfiguration_delay.sample(rng)

    @property
    def mean_reaction(self) -> float:
        """Expected alert→mitigation-start time."""
        return self.verification_delay.mean + self.reconfiguration_delay.mean

    @classmethod
    def prompt(cls, stream: str = "operator") -> "OperatorModel":
        """An unusually fast operator (on-call, minutes not tens of minutes)."""
        return cls(
            verification_delay=LogNormal(mean=5 * 60.0, sigma=0.6),
            reconfiguration_delay=LogNormal(mean=4 * 60.0, sigma=0.6),
            stream=stream,
        )

    def __repr__(self) -> str:
        return (
            f"OperatorModel(verify≈{self.verification_delay.mean / 60:.0f}min, "
            f"reconfig≈{self.reconfiguration_delay.mean / 60:.0f}min)"
        )
