"""A from-scratch BGP model: messages, RIBs, decision process, policy, speakers.

The model is control-plane faithful where it matters for ARTEMIS:

* per-prefix route propagation with per-session delays, per-router update
  processing time, and per-peer MRAI batching — these produce the
  seconds-to-minutes Internet convergence the paper's timings are made of;
* Gao-Rexford (valley-free) import preference and export filtering — these
  produce *partial* hijack adoption ("ASes closer to the hijacker flip");
* one import rule at every speaker: no prefix longer than /24 (/48 for
  IPv6), plus RPKI route-origin validation at adopting ASes — this is why
  de-aggregating a hijacked /24 cannot win its traffic back;
* longest-prefix-match data-plane resolution — this is why announcing the
  de-aggregated /24s steals traffic back from the hijacked /23.
"""

from repro.bgp.messages import Announcement, UpdateMessage, Withdrawal
from repro.bgp.policy import Relationship
from repro.bgp.rib import AdjRibIn, LocRib
from repro.bgp.route import Route
from repro.bgp.rpki import ROA, RPKIRegistry, Validity
from repro.bgp.session import ActivityTracker, Session
from repro.bgp.speaker import BGPSpeaker

__all__ = [
    "ActivityTracker",
    "AdjRibIn",
    "Announcement",
    "BGPSpeaker",
    "LocRib",
    "ROA",
    "RPKIRegistry",
    "Relationship",
    "Route",
    "Validity",
    "Session",
    "UpdateMessage",
    "Withdrawal",
]
