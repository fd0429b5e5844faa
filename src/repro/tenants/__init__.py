"""The detection plane: the one detection engine, for 1 to N operators.

One ARTEMIS deployment protecting N operators ("tenants") from a single
shared feed; the paper's single operator is the N=1 case of the same code
(:func:`~repro.tenants.pipeline.one_tenant_plane`).  The package splits
into:

* :mod:`repro.tenants.registry` — compiled per-tenant rule bundles over
  interned policy sets (:class:`TenantRegistry`, :class:`TenantRule`),
  linked once into the registry's one prefix table;
* :mod:`repro.tenants.flattree` — the shared prefix table answering
  "whose rules match this announcement?" in one covering lookup
  (:class:`FlatPrefixTree`, an ``ikey`` dict of every tenant's rules);
* :mod:`repro.tenants.pipeline` — the batched ingest → classify → alert →
  notify pipeline (:class:`DetectionPlane`) and its one-tenant
  constructor, its bounded cross-batch verdict cache, and the canonical
  merged alert digest;
* :mod:`repro.tenants.frames` — the zero-pickle binary frame transport
  between the parent router and detection workers;
* :mod:`repro.tenants.workers` — the ``--detect-workers N`` prefix-space
  partitioning across forked worker processes
  (:class:`ParallelDetectionPlane`);
* :mod:`repro.tenants.synth` — deterministic synthetic tenant populations
  for the at-scale benches.
"""

from repro.tenants.flattree import FlatPrefixTree
from repro.tenants.pipeline import (
    DetectionPlane,
    incident_rows,
    merged_alert_digest,
)
from repro.tenants.registry import TenantRegistry, TenantRule
from repro.tenants.workers import ParallelDetectionPlane, TenantWorkerError

__all__ = [
    "DetectionPlane",
    "FlatPrefixTree",
    "ParallelDetectionPlane",
    "TenantRegistry",
    "TenantRule",
    "TenantWorkerError",
    "incident_rows",
    "merged_alert_digest",
]
