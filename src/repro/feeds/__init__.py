"""BGP monitoring data sources.

The paper's detection speed comes from combining three kinds of
control-plane visibility, all modelled here:

* **streaming collectors** — the RIS live and BGPmon streams, each a
  :class:`~repro.feeds.stream.StreamingService` that
  :func:`~repro.feeds.deploy.deploy_monitors` builds from its name,
  latency and collector names: route collectors peered with vantage ASes,
  publishing each update after a service-specific latency;
* **looking glasses** — :class:`~repro.feeds.periscope.PeriscopeAPI`:
  poll-based queries against operational routers (no collector in the path,
  but bounded by the poll interval and per-LG rate limits);
* **batch archives** — :class:`~repro.feeds.batch.BatchArchive`:
  RouteViews-style 15-minute update files and 2-hour RIB dumps, the slow
  path that third-party alert systems (the baselines) consume.

All sources emit the same :class:`~repro.feeds.events.FeedEvent`, so the
detection service is source-agnostic.
"""

from repro.feeds.batch import BatchArchive
from repro.feeds.collector import RouteCollector
from repro.feeds.deploy import MonitorDeployment, deploy_monitors
from repro.feeds.events import FeedEvent
from repro.feeds.interest import InterestIndex, Subscription
from repro.feeds.periscope import LookingGlass, PeriscopeAPI
from repro.feeds.replay import (
    ReplaySession,
    ReplayTap,
    Trace,
    TraceError,
    TraceRecorder,
    TraceWriter,
    load_trace,
)
from repro.feeds.stream import StreamingService

__all__ = [
    "BatchArchive",
    "FeedEvent",
    "InterestIndex",
    "LookingGlass",
    "MonitorDeployment",
    "PeriscopeAPI",
    "ReplaySession",
    "ReplayTap",
    "RouteCollector",
    "StreamingService",
    "Subscription",
    "Trace",
    "TraceError",
    "TraceRecorder",
    "TraceWriter",
    "deploy_monitors",
    "load_trace",
]
