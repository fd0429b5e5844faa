"""ARTEMIS: the paper's contribution.

Automatic and Real-Time dEtection and MItigation System for BGP prefix
hijacking, run by the prefix owner itself:

* :class:`~repro.core.config.ArtemisConfig` — which prefixes we own, who may
  originate them, which sources to watch, how to mitigate;
* :mod:`repro.core.rules` — the detection rules; the one-tenant plane
  (:func:`repro.tenants.pipeline.one_tenant_plane`) runs them over feed
  events from all sources and raises a :class:`~repro.core.alerts.HijackAlert`
  on the first evidence of an illegitimate announcement (delay = min over
  sources);
* :class:`~repro.core.mitigation.MitigationService` — answers an alert by
  announcing de-aggregated sub-prefixes through the SDN controller;
* :class:`~repro.core.monitoring.MonitoringService` — tracks which origin
  every vantage point currently selects, before/during/after mitigation;
* :class:`~repro.core.artemis.Artemis` — subscribes detection and
  monitoring to every source and wires alerts to mitigation.
"""

from repro.core.alerts import AlertManager, AlertStatus, AlertType, HijackAlert
from repro.core.artemis import Artemis
from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.core.log import IncidentLog
from repro.core.mitigation import HelperFleet, MitigationAction, MitigationService
from repro.core.monitoring import MonitoringService, VantageState

__all__ = [
    "AlertManager",
    "AlertStatus",
    "AlertType",
    "Artemis",
    "ArtemisConfig",
    "HelperFleet",
    "HijackAlert",
    "IncidentLog",
    "MitigationAction",
    "MitigationService",
    "MonitoringService",
    "OwnedPrefix",
    "VantageState",
]
