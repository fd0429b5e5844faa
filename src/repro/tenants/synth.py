"""Synthetic tenant populations for benchmarks and smoke tests.

The tenants-at-scale benches need a registry with *thousands* of tenants
and *hundreds of thousands* of monitored prefixes, grounded in a real
recorded trace so a known subset of the rules actually fires.  This module
builds one deterministically:

* :func:`observed_origin_map` — scan a trace's announcements and take each
  prefix's **first observed origin** as its legitimate owner (in the
  recorded scenarios the victim announces before the hijacker, so the
  later forged origin classifies as a hijack).
* :func:`build_synth_registry` — every tenant monitors a few *live*
  prefixes from the trace (spread round-robin, so each live prefix is
  watched by many tenants) plus a block of dense *padding* /24s carved
  from otherwise-unused space (11.0.0.0/8 onward).  Dense padding keeps
  the shared prefix table at deployment size, one entry per padding /24,
  and the interned origin sets keep a row down to its slots.

Everything is a pure function of its inputs: same trace + same counts →
the same registry, rules, and partition, which is what the digest-identity
assertions in the benches rely on.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, List, Optional

from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.errors import ConfigError
from repro.feeds.events import FeedEvent
from repro.net.prefix import Prefix
from repro.perf import collector_handed_off
from repro.tenants.pipeline import one_tenant_plane
from repro.tenants.registry import TenantRegistry

#: First /24 of the dense padding pool (11.0.0.0/8, then 12.0.0.0/8, ...).
_PAD_BASE = 11 << 24
#: Keep padding clear of the simulator's live ranges (10/8 owned space,
#: 172.16/12 churn pool): 11.0.0.0 through 171.255.255.0 is plenty.
_PAD_LIMIT = (172 << 24) - _PAD_BASE >> 8


def observed_origin_map(events: Iterable[FeedEvent]) -> Dict[Prefix, int]:
    """Each announced prefix's first observed origin AS, in event order."""
    origins: Dict[Prefix, int] = {}
    for event in events:
        if event.is_announcement and event.prefix not in origins:
            origins[event.prefix] = event.as_path[-1]
    return origins


def pad_prefix(index: int) -> Prefix:
    """The ``index``-th dense padding /24 (deterministic, collision-free)."""
    if not 0 <= index < _PAD_LIMIT:
        raise ConfigError(f"padding prefix index {index} out of range")
    return Prefix(_PAD_BASE + (index << 8), 24, 4)


@collector_handed_off()  # rows and policies: nothing cyclic, all long-lived
def build_synth_registry(
    origin_map: Dict[Prefix, int],
    num_tenants: int,
    num_prefixes: int,
    live_per_tenant: int = 2,
    cooldown: float = 0.0,
    autoignore_visibility: int = 0,
    detect_subprefix: bool = True,
) -> TenantRegistry:
    """A deterministic registry of ``num_tenants`` tenants.

    ``num_prefixes`` is the total monitored-prefix row count across all
    tenants; each tenant gets ``live_per_tenant`` prefixes from
    ``origin_map`` (round-robin, so every live prefix is watched by
    roughly ``num_tenants * live_per_tenant / len(origin_map)`` tenants)
    and the rest as dense padding /24s unique to that tenant.  Legit
    origins for live prefixes come from the origin map — so replaying the
    trace raises alerts exactly where the recorded run's detection did —
    and padding origins cycle through a small private-ASN pool to give
    the interner realistic sharing.
    """
    if num_tenants < 1:
        raise ConfigError("need at least one tenant")
    per_tenant = num_prefixes // num_tenants
    if per_tenant < 1:
        raise ConfigError("fewer prefixes than tenants")
    live = sorted(origin_map, key=attrgetter("ikey"))
    live_per_tenant = min(live_per_tenant, len(live), per_tenant)
    pad_per_tenant = per_tenant - live_per_tenant
    registry = TenantRegistry()
    pad_cursor = 0
    live_cursor = 0
    for index in range(num_tenants):
        owned: List[OwnedPrefix] = []
        for _ in range(live_per_tenant):
            prefix = live[live_cursor % len(live)]
            live_cursor += 1
            owned.append(OwnedPrefix(prefix, [origin_map[prefix]]))
        pad_origin = 64512 + (index % 64)
        for _ in range(pad_per_tenant):
            owned.append(OwnedPrefix(pad_prefix(pad_cursor), [pad_origin]))
            pad_cursor += 1
        registry.add_tenant(
            f"tenant-{index:04d}",
            ArtemisConfig(
                owned,
                detect_subprefix=detect_subprefix,
                # The synthetic rules carry no upstream ground truth, so
                # the type-1 check is off — identically for the batched
                # plane and the per-tenant baseline it is compared against.
                detect_path=False,
                alert_cooldown=cooldown,
            ),
            autoignore_visibility=autoignore_visibility,
        )
    return registry


def baseline_services(registry: TenantRegistry):
    """One one-tenant plane per tenant (the comparator).

    This is the pre-pipeline architecture the benches measure against:
    every event is offered to every tenant's own one-tenant plane
    independently, with no shared tree and no batching.
    Returns ``{tenant: DetectionPlane}``; each plane's one tenant is
    :data:`~repro.tenants.pipeline.OPERATOR`.
    """
    planes = {}
    for name in registry.tenant_names():
        rules = registry.rules_for(name)
        policy = rules[0].policy
        config = ArtemisConfig(
            [
                OwnedPrefix(
                    rule.prefix, rule.legit_origins, rule.legit_upstreams
                )
                for rule in rules
            ],
            detect_subprefix=policy.detect_subprefix,
            detect_path=policy.detect_path,
            alert_cooldown=policy.cooldown,
        )
        planes[name] = one_tenant_plane(config)
    return planes
