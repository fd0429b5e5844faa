"""The multi-tenant detection plane (repro.tenants).

Contracts under test (see DESIGN.md "Detection plane"):

* the registry compiles ArtemisConfig ground truth into interned rows and
  dumps them as canonical plain-tuple rows;
* the shared prefix tree resolves one covering walk into per-tenant
  matches — most specific rule per tenant, deterministic tenant order,
  incremental add/remove with epoch bumps;
* the batched pipeline produces byte-identical incidents to a fan-out
  over one-tenant planes (tenant isolation), for any batch
  size, with the memo/backpressure/notifier/autoignore counters visible
  in repro.perf;
* incidents are keyed per tenant: cooldown, resurrection, and the
  duplicate-delivery founding gate apply independently per tenant even
  when the same (prefix, origin) pattern fires under two tenants;
* resolved-incident bookkeeping is pruned after cooldown + retention —
  one sweep, the plane's, at any tenant count (bounded soaks);
* the registry owns the one prefix table: each row is linked once, and
  every plane, every worker and the router read that table;
* the --detect-workers partitioning merges to a digest bit-identical to
  the single-process plane, and routes each prefix field to the worker
  the old root → worker dict would; workers are forked with the registry
  and its whole table (no registry bytes on the pipes); a stale/reordered
  batch epoch, or a registry edited after the fork, is a loud error,
  never a silent wrong answer.
"""

from __future__ import annotations

import gc
import multiprocessing
import threading
import time
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kill_worker
from repro.core.alerts import AlertStatus, AlertType
from repro.core.config import ArtemisConfig, OwnedPrefix, OwnedSpace
from repro.feeds.dumpfile import format_event
from repro.feeds.events import FeedEvent
from repro.feeds.replay import TraceError, TraceWriter, iter_trace_lines
from repro.net.prefix import Prefix, uncovered_keys
from repro.perf import COUNTERS
from repro.tenants import (
    DetectionPlane,
    FlatPrefixTree,
    ParallelDetectionPlane,
    TenantRegistry,
    TenantWorkerError,
    incident_rows,
    merged_alert_digest,
)
from repro.tenants import frames
from repro.tenants.pipeline import (
    OPERATOR,
    PRUNE_CHECK_INTERVAL,
    classify_batch_verdicts,
    one_tenant_plane,
)
from repro.tenants.synth import (
    baseline_services,
    build_synth_registry,
    observed_origin_map,
    pad_prefix,
)
from repro.tenants.workers import _MALFORMED, _ROUTE_MEMO_MAX, tenant_worker_main

from oracles import PrefixTree, PrefixTrie, RootPartition


def make_event(
    delivered,
    prefix,
    path,
    source="ris",
    collector="rrc00",
    vantage=100,
    kind="A",
    observed=None,
):
    return FeedEvent(
        source=source,
        collector=collector,
        vantage_asn=vantage,
        kind=kind,
        prefix=Prefix.parse(prefix),
        as_path=path,
        observed_at=delivered - 0.5 if observed is None else observed,
        delivered_at=delivered,
    )


def assert_cache_order_consistent(plane):
    """The eviction index names exactly the cached keys, oldest first."""
    assert list(plane._verdict_order) == list(plane._verdict_cache)


#: The live prefixes the pinned synthetic registries are built around.
SYNTH_ORIGINS = {
    Prefix.parse("10.0.0.0/24"): 65001,
    Prefix.parse("10.1.0.0/24"): 65002,
}


def two_tenant_registry(cooldown_a=5.0, cooldown_b=20.0):
    """acme owns 10.0.0.0/23 (with upstreams), beta owns 10.0.0.0/24."""
    registry = TenantRegistry()
    registry.add_tenant(
        "acme",
        ArtemisConfig(
            [OwnedPrefix("10.0.0.0/23", [65001], [64600])],
            alert_cooldown=cooldown_a,
        ),
    )
    registry.add_tenant(
        "beta",
        ArtemisConfig(
            [OwnedPrefix("10.0.0.0/24", [65002])], alert_cooldown=cooldown_b
        ),
    )
    return registry


# ---------------------------------------------------------------- registry


class TestTenantRegistry:
    def test_compiles_and_interns_rows(self):
        registry = TenantRegistry()
        config = ArtemisConfig(
            [
                OwnedPrefix("10.0.0.0/24", [65001]),
                OwnedPrefix("10.0.1.0/24", [65001]),
            ]
        )
        rows = registry.add_tenant("acme", config)
        assert len(rows) == 2
        # Identical origin sets are interned to the same object.
        assert rows[0].legit_origins is rows[1].legit_origins
        assert registry.num_rules == 2
        assert "acme" in registry and len(registry) == 1

    def test_identical_policy_rows_shared_across_tenants(self):
        registry = TenantRegistry()
        for name in ("a", "b"):
            registry.add_tenant(
                name, ArtemisConfig([OwnedPrefix("10.0.0.0/24", [65001])])
            )
        rule_a = registry.rules_for("a")[0]
        rule_b = registry.rules_for("b")[0]
        assert rule_a.legit_origins is rule_b.legit_origins

    def test_duplicate_tenant_rejected(self):
        registry = TenantRegistry()
        registry.add_tenant("acme", ArtemisConfig([OwnedPrefix("10.0.0.0/24", [1])]))
        with pytest.raises(Exception, match="already registered"):
            registry.add_tenant(
                "acme", ArtemisConfig([OwnedPrefix("10.1.0.0/24", [2])])
            )

    def test_spec_roundtrip(self):
        # The canonical row dump: equal for equal registries, plain data.
        registry = two_tenant_registry()
        assert registry.to_spec() == two_tenant_registry().to_spec()
        acme = registry.to_spec()[0]
        assert acme[:4] == ("acme", "10.0.0.0/23", (65001,), (64600,))
        assert registry.cooldown_for("acme") == 5.0

    def test_spec_bytes_pinned(self):
        """``to_spec()`` is what worker-count and reload determinism compare:
        its bytes are pinned (values read at commit 34ae900, when a row held
        its tenant's settings itself and squat rows simply had no adjacency
        map or sentinels), so moving a field between row and policy cannot
        move them."""
        import hashlib

        def spec_hash(registry):
            return hashlib.sha256(repr(registry.to_spec()).encode("utf-8")).hexdigest()

        synth = build_synth_registry(SYNTH_ORIGINS, num_tenants=10, num_prefixes=200)
        assert spec_hash(synth) == (
            "755624cd303dfb58c0e467291dc5bb3163b7b0a253b822a1e8a2be1142d56b32"
        )
        registry = TenantRegistry()
        registry.add_tenant(
            "full",
            ArtemisConfig(
                [
                    OwnedPrefix("10.0.0.0/23", [65001, 65003], [64600]),
                    OwnedPrefix("2001:db8::/32", [65001]),
                ],
                alert_cooldown=7.5,
                detect_path=False,
                owned_space=[OwnedSpace("10.8.0.0/16", [65001])],
                adjacencies={65001: [64600, 64601], 64600: [65001]},
                leak_sentinels=[64999],
                detect_unchanged_path=False,
            ),
            autoignore_visibility=3,
        )
        registry.add_tenant(
            "plain",
            ArtemisConfig([OwnedPrefix("10.0.0.0/24", [65002])], detect_subprefix=False),
        )
        assert spec_hash(registry) == (
            "0d6fd18a275f1a970b1b61dc39f939c0de3092ee53717119c6d06174c5875b20"
        )
        squat = registry.to_spec()[2]
        assert squat[1] == "10.8.0.0/16" and squat[8:10] == (None, None)
        # One policy object per tenant, shared by all of its rows.
        full = registry.rules_for("full")
        assert len({id(rule.policy) for rule in full}) == 1
        assert full[0].policy is not registry.rules_for("plain")[0].policy

    def test_bytes_per_row_ceiling(self):
        """What a monitored row costs to keep — registry rows, prefixes,
        policies and the registry's table over them — is pinned: 428.9 B at
        commit 34ae900, 260.5 B since ``Prefix`` carries one key and a
        tenant's settings are stored once.  ``tracemalloc`` repeats exactly,
        so the next slot added to ``Prefix`` or ``TenantRule`` fails here."""
        import tracemalloc

        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            registry = build_synth_registry(
                SYNTH_ORIGINS, num_tenants=100, num_prefixes=10_400
            )
            tree = registry.tree
            gc.collect()
            per_row = (tracemalloc.get_traced_memory()[0] - before) / registry.num_rules
        finally:
            tracemalloc.stop()
        assert len(tree) == 10_202
        assert per_row <= 290, f"{per_row:.1f} B per monitored row"

    def test_monitored_prefixes_distinct_and_sorted(self):
        registry = two_tenant_registry()
        registry.add_tenant(
            "gamma", ArtemisConfig([OwnedPrefix("10.0.0.0/24", [65009])])
        )
        monitored = registry.tree.monitored_prefixes()
        assert monitored == sorted(set(monitored), key=lambda p: p.ikey)
        assert len(monitored) == 2  # /23 and /24, the duplicate collapsed


class TestOneTable:
    """The registry's table is the only one: a row is linked once, however
    many planes and workers read it."""

    def test_each_row_is_linked_once(self, monkeypatch):
        linked = []
        insert_rules = FlatPrefixTree.insert_rules

        def counting(tree, rules):
            rules = list(rules)
            linked.append(len(rules))
            return insert_rules(tree, rules)

        monkeypatch.setattr(FlatPrefixTree, "insert_rules", counting)
        registry = build_synth_registry(
            SYNTH_ORIGINS, num_tenants=100, num_prefixes=10_400
        )
        assert registry.num_rules == 10_400
        assert len(linked) == 100  # one batch per tenant
        DetectionPlane(registry)
        parallel = ParallelDetectionPlane(registry, num_workers=2)
        try:
            parallel.start()
        finally:
            parallel.close()
        assert sum(linked) == 10_400

    def test_planes_read_the_registry_table(self):
        registry = two_tenant_registry()
        COUNTERS.reset()  # after the compile, as the CLI's replay does
        assert DetectionPlane(registry).tree is registry.tree
        assert COUNTERS.tree_bytes == registry.tree.nbytes() > 0
        plane = one_tenant_plane(ArtemisConfig([OwnedPrefix("10.0.0.0/23", [65001])]))
        assert plane.tree is plane.registry.tree

    def test_a_snapshot_misses_a_later_tenant(self):
        registry = two_tenant_registry()
        snapshot = FlatPrefixTree(registry)
        late = Prefix.parse("10.9.0.0/16")
        registry.add_tenant("late", ArtemisConfig([OwnedPrefix(late, [65009])]))
        assert snapshot.tenants_at(late) == []
        assert snapshot.resolve(late) == []
        assert registry.tree.tenants_at(late) == ["late"]
        assert (snapshot.epoch, registry.tree.epoch) == (1, 3)


# ------------------------------------------------------------- prefix tree


class TestPrefixTree:
    def test_resolve_exact_and_covering(self):
        tree = PrefixTree(two_tenant_registry())
        matches = tree.resolve(Prefix.parse("10.0.0.0/24"))
        assert [(r.policy.tenant, exact) for r, exact in matches] == [
            ("acme", False),
            ("beta", True),
        ]

    def test_resolve_most_specific_rule_per_tenant(self):
        registry = TenantRegistry()
        registry.add_tenant(
            "acme",
            ArtemisConfig(
                [
                    OwnedPrefix("10.0.0.0/16", [65001]),
                    OwnedPrefix("10.0.0.0/24", [65002]),
                ]
            ),
        )
        tree = PrefixTree(registry)
        matches = tree.resolve(Prefix.parse("10.0.0.128/25"))
        assert len(matches) == 1
        rule, exact = matches[0]
        assert str(rule.prefix) == "10.0.0.0/24" and not exact
        assert rule.legit_origins == frozenset([65002])

    def test_resolve_misses_outside_monitored_space(self):
        tree = PrefixTree(two_tenant_registry())
        assert tree.resolve(Prefix.parse("192.168.0.0/24")) == []
        # A covering (less specific) announcement matches nothing either —
        # sub-prefix detection is strictly more-specific, as in the engine.
        assert tree.resolve(Prefix.parse("10.0.0.0/16")) == []

    def test_incremental_add_with_epochs(self):
        """An onboarded tenant is one batch, one epoch bump, in the
        registry's table and in the oracle handed the same rows."""
        registry = two_tenant_registry()
        oracle = PrefixTree(registry)
        assert (registry.tree.epoch, oracle.epoch) == (2, 1)
        oracle.insert_rules(
            registry.add_tenant(
                "gamma", ArtemisConfig([OwnedPrefix("10.0.0.0/24", [65009])])
            )
        )
        assert (registry.tree.epoch, oracle.epoch) == (3, 2)
        for tree in (registry.tree, oracle):
            assert tree.tenants_at(Prefix.parse("10.0.0.0/24")) == ["beta", "gamma"]
            matches = tree.resolve(Prefix.parse("10.0.0.0/24"))
            assert {r.policy.tenant for r, _ in matches} == {"acme", "beta", "gamma"}


# ------------------------------------------------------------ batch verdicts


class TestClassifyBatchVerdicts:
    def test_mirrors_engine_classification(self):
        registry = two_tenant_registry()
        tree = PrefixTree(registry)
        prefix = Prefix.parse("10.0.0.0/24")
        matches = tree.resolve(prefix)
        verdicts = classify_batch_verdicts(matches, prefix, (3, 7, 666), 3)
        assert [(r.policy.tenant, t) for r, t, _ in verdicts] == [
            ("acme", AlertType.SUB_PREFIX),
            ("beta", AlertType.EXACT_ORIGIN),
        ]
        # Legit origin for beta, sub-prefix for acme; acme's path rule does
        # not apply to the covering match with a foreign origin.
        verdicts = classify_batch_verdicts(matches, prefix, (3, 7, 65002), 3)
        assert [(r.policy.tenant, t, o) for r, t, o in verdicts] == [
            ("acme", AlertType.SUB_PREFIX, 65002)
        ]

    def test_path_check_on_exact_match(self):
        registry = two_tenant_registry()
        tree = PrefixTree(registry)
        prefix = Prefix.parse("10.0.0.0/23")
        matches = tree.resolve(prefix)
        verdicts = classify_batch_verdicts(matches, prefix, (3, 9, 65001), 3)
        assert [(r.policy.tenant, t, o) for r, t, o in verdicts] == [
            ("acme", AlertType.PATH, 9)
        ]
        assert (
            classify_batch_verdicts(matches, prefix, (3, 64600, 65001), 3) == ()
        )


# ----------------------------------------------------------------- pipeline


def churny_events():
    """A deterministic stream with benign churn, hijacks, and duplicates."""
    events = []
    t = 0.0
    for round_number in range(30):
        for i, vantage in enumerate((100, 101, 102)):
            t += 0.1
            origin = 65001 if round_number % 5 else 666
            events.append(
                make_event(
                    t, "10.0.0.0/23", (64600, origin), vantage=vantage,
                    source="ris" if i % 2 else "bgpmon",
                )
            )
        if round_number % 7 == 3:
            t += 0.1
            events.append(
                make_event(t, "10.0.0.64/26", (5, 777), vantage=103)
            )
        if round_number == 10:
            events.append(events[-1])  # byte-identical duplicate delivery
    return events


class TestDetectionPlane:
    def test_matches_per_tenant_service_baseline(self):
        registry = two_tenant_registry()
        plane = DetectionPlane(registry, batch_size=16)
        events = churny_events()
        for event in events:
            plane.ingest(event)
        plane.flush()

        planes = baseline_services(registry)
        for event in events:
            for solo in planes.values():
                solo.ingest(event)
        baseline_rows = incident_rows(
            {name: solo.tenant_state(OPERATOR).alerts for name, solo in planes.items()}
        )
        assert plane.incident_rows() == baseline_rows
        assert plane.digest() == merged_alert_digest(baseline_rows)
        assert plane.total_alerts() > 0

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 10_000])
    def test_digest_invariant_under_batch_size(self, batch_size):
        registry = two_tenant_registry()
        reference = DetectionPlane(registry, batch_size=16)
        plane = DetectionPlane(registry, batch_size=batch_size)
        for event in churny_events():
            reference.ingest(event)
            plane.ingest(event)
        reference.flush()
        plane.flush()
        assert plane.digest() == reference.digest()

    def test_memo_amortizes_trie_walks(self):
        COUNTERS.reset()
        plane = DetectionPlane(two_tenant_registry(), batch_size=64)
        prefix = "10.0.0.0/23"
        for i in range(64):
            plane.ingest(make_event(float(i), prefix, (64600, 666), vantage=i))
        plane.flush()
        # One walk for the unique prefix; every other event is a memo hit.
        assert COUNTERS.pipeline_trie_walks == 1
        assert COUNTERS.verdict_cache_hits == 63
        assert COUNTERS.pipeline_batches == 1
        assert COUNTERS.pipeline_events_ingested == 64

    def test_verdict_cache_survives_across_batches(self):
        COUNTERS.reset()
        plane = DetectionPlane(two_tenant_registry(), batch_size=8)
        for i in range(32):
            plane.ingest(
                make_event(float(i), "10.0.0.0/23", (64600, 666), vantage=i)
            )
        plane.flush()
        assert COUNTERS.pipeline_batches == 4
        # One walk and one ladder run EVER; later batches hit the
        # cross-batch cache, not just the per-batch memo.
        assert COUNTERS.pipeline_trie_walks == 1
        assert COUNTERS.verdict_cache_hits == 31
        assert COUNTERS.verdict_cache_evictions == 0

    def test_verdict_cache_bounded_fifo_eviction(self):
        COUNTERS.reset()
        plane = DetectionPlane(
            two_tenant_registry(), batch_size=4, verdict_cache_size=2
        )

        def announce(i):
            plane.ingest(
                make_event(float(i), "10.0.0.0/23", (64600, 700 + i))
            )
            plane.flush()
            return COUNTERS.verdict_cache_hits, COUNTERS.verdict_cache_misses

        # Four distinct keys through a 2-entry cache: the two oldest go,
        # in insertion order, and the plane still answers correctly.
        for i in range(4):
            announce(i)
        assert COUNTERS.verdict_cache_evictions == 2
        assert plane.total_alerts() > 0
        assert_cache_order_consistent(plane)
        # The newest key survived (a hit); the oldest did not (a miss,
        # which in turn evicts key 2 — so key 3 still hits, key 2 misses).
        assert announce(3) == (1, 4)
        assert announce(0) == (1, 5)
        assert announce(3) == (2, 5)
        assert announce(2) == (2, 6)
        assert COUNTERS.verdict_cache_evictions == 4
        assert_cache_order_consistent(plane)

    def test_verdict_cache_survives_corroborator_toggling(self):
        COUNTERS.reset()
        plane = DetectionPlane(
            two_tenant_registry(), batch_size=100, verdict_cache_size=2
        )
        serial = iter(range(700, 800))

        def drain(keys):
            for _ in range(keys):
                plane.ingest(
                    make_event(1.0, "10.0.0.0/23", (64600, next(serial)))
                )
            plane.flush()
            assert_cache_order_consistent(plane)

        drain(2)  # a full cross-batch cache ...
        plane.corroborator = lambda prefix: True
        drain(3)  # ... then a probed batch: unbounded, dropped at its end
        assert len(plane._verdict_cache) == 0
        assert COUNTERS.verdict_cache_evictions == 0
        plane.corroborator = None
        drain(3)  # eviction resumes on a consistent order index
        assert COUNTERS.verdict_cache_evictions == 1
        plane.corroborator = lambda prefix: True
        drain(1)
        plane.corroborator = None
        drain(4)
        assert COUNTERS.verdict_cache_evictions == 3
        assert len(plane._verdict_cache) == 2

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_probe_attached_to_warm_cache_is_never_served_stale(self, batch_size):
        # Repeated keys (the toggling test above only uses fresh ones): a
        # clean exact announcement is cached un-probed, then an unhealthy
        # probe is attached — the hijack instant of a type-U incident.
        config = ArtemisConfig([OwnedPrefix("10.0.0.0/23", [65001], [64600])])
        registry = TenantRegistry()
        registry.add_tenant("acme", config)
        plane = DetectionPlane(registry, batch_size=batch_size)
        solo = one_tenant_plane(config)
        clean = [
            make_event(float(t), "10.0.0.0/23", (64600, 65001), vantage=100 + t)
            for t in range(5)
        ]
        for sink in (plane.ingest, solo.ingest):
            sink(clean[0])
            sink(clean[1])
        plane.flush()
        assert plane.total_alerts() == 0 and len(plane._verdict_cache) == 1
        plane.corroborator = unhealthy = lambda prefix: False
        solo.corroborator = unhealthy
        for event in clean[2:]:
            plane.ingest(event)
            solo.ingest(event)
        plane.flush()
        alerts = plane.alert_managers()["acme"].alerts
        assert [(a.type, a.detected_at) for a in alerts] == [
            (AlertType.UNCHANGED_PATH, 2.0)
        ]
        assert len(alerts[0].evidence) == 3
        assert plane.incident_rows() == incident_rows(
            {"acme": solo.tenant_state(OPERATOR).alerts}
        )

    def test_verdict_cache_epoch_bump_with_full_cache(self):
        COUNTERS.reset()
        registry = two_tenant_registry()
        plane = DetectionPlane(registry, batch_size=100, verdict_cache_size=2)
        for i in range(3):
            plane.ingest(make_event(1.0, "10.0.0.0/23", (64600, 700 + i)))
        plane.flush()
        assert COUNTERS.verdict_cache_evictions == 1
        registry.add_tenant(
            "late", ArtemisConfig([OwnedPrefix("10.9.0.0/16", [65009])])
        )
        # The epoch bump empties cache and order index together: the next
        # three keys evict exactly once, and never a pre-bump key.
        for i in range(3):
            plane.ingest(make_event(2.0, "10.0.0.0/23", (64600, 710 + i)))
        plane.flush()
        assert COUNTERS.verdict_cache_evictions == 2
        assert_cache_order_consistent(plane)
        assert [key[1] for key in plane._verdict_order] == [
            (64600, 711),
            (64600, 712),
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=11), max_size=60),
        bound=st.integers(min_value=1, max_value=8),
        batch_size=st.integers(min_value=1, max_value=16),
    )
    def test_verdict_cache_matches_fifo_reference_model(
        self, keys, bound, batch_size
    ):
        # The reference: an insertion-ordered bounded map, hits do not
        # refresh an entry's age (FIFO, not LRU).
        model: OrderedDict = OrderedDict()
        hits = evictions = 0
        for key in keys:
            if key in model:
                hits += 1
                continue
            model[key] = True
            if len(model) > bound:
                model.popitem(last=False)
                evictions += 1

        COUNTERS.reset()
        plane = DetectionPlane(
            two_tenant_registry(),
            batch_size=batch_size,
            verdict_cache_size=bound,
        )
        for key in keys:
            plane.ingest(make_event(1.0, "10.0.0.0/23", (64600, 700 + key)))
        plane.flush()
        assert COUNTERS.verdict_cache_hits == hits
        assert COUNTERS.verdict_cache_misses == len(keys) - hits
        assert COUNTERS.verdict_cache_evictions == evictions
        assert_cache_order_consistent(plane)
        assert [key[1][1] - 700 for key in plane._verdict_order] == list(model)

    def test_verdict_cache_invalidated_on_rule_change(self):
        COUNTERS.reset()
        registry = two_tenant_registry()
        plane = DetectionPlane(registry, batch_size=4)
        event = make_event(1.0, "10.0.0.0/23", (64600, 666))
        for i in range(4):
            plane.ingest(event)
        hits_before = COUNTERS.verdict_cache_hits
        assert hits_before == 3
        # A tenant change bumps the tree epoch: every cached verdict dies.
        registry.add_tenant(
            "late", ArtemisConfig([OwnedPrefix("10.9.0.0/16", [65009])])
        )
        assert plane.tree.epoch == plane._cache_epoch + 1
        for i in range(4):
            plane.ingest(event)
        # The first post-change event recomputes (a fresh walk), the rest
        # re-hit the rebuilt cache.
        assert COUNTERS.pipeline_trie_walks == 2
        assert COUNTERS.verdict_cache_hits == hits_before + 3

    def test_verdict_cache_per_batch_with_corroborator(self):
        COUNTERS.reset()
        probes = []

        def probe(prefix):
            probes.append(prefix)
            return True

        plane = DetectionPlane(
            two_tenant_registry(), batch_size=4, corroborator=probe
        )
        event = make_event(1.0, "10.0.0.0/23", (64600, 666))
        for _ in range(8):
            plane.ingest(event)
        plane.flush()
        # Two batches: the probe must be consulted once per batch (its
        # answer is time-dependent), so the cache cannot span batches.
        assert len(probes) == 2
        assert COUNTERS.pipeline_trie_walks == 2

    def test_backpressure_stall_counter(self):
        COUNTERS.reset()
        plane = DetectionPlane(
            two_tenant_registry(), batch_size=100, queue_capacity=8
        )
        for i in range(40):
            plane.ingest(make_event(float(i), "10.0.0.0/23", (64600, 65001)))
        assert COUNTERS.pipeline_backpressure_stalls == 5
        assert COUNTERS.pipeline_queue_depth_peak == 8

    def test_notifier_bounded_drop_oldest(self):
        COUNTERS.reset()
        registry = TenantRegistry()
        for i in range(6):
            registry.add_tenant(
                f"t{i}", ArtemisConfig([OwnedPrefix(f"10.{i}.0.0/16", [65001])])
            )
        plane = DetectionPlane(registry, batch_size=16, notifier_capacity=4)
        for i in range(6):
            plane.ingest(make_event(float(i), f"10.{i}.0.0/16", (1, 666)))
        plane.flush()
        pending = plane.drain_notifications()
        assert [tenant for tenant, _ in pending] == ["t2", "t3", "t4", "t5"]
        assert COUNTERS.notifier_alerts_dropped == 2
        assert COUNTERS.notifier_queue_depth_peak == 4
        assert COUNTERS.notifier_alerts_emitted == 4
        # Alert *state* was never dropped, only notification delivery.
        assert plane.total_alerts() == 6

    def test_notifier_callback_mode_emits_per_batch(self):
        COUNTERS.reset()
        delivered = []
        plane = DetectionPlane(
            two_tenant_registry(),
            batch_size=4,
            notify=lambda tenant, alert: delivered.append((tenant, alert.type)),
        )
        for i in range(4):
            plane.ingest(make_event(float(i), "10.0.0.0/24", (1, 666), vantage=i))
        assert ("acme", AlertType.SUB_PREFIX) in delivered
        assert ("beta", AlertType.EXACT_ORIGIN) in delivered
        assert COUNTERS.notifier_alerts_emitted == 2

    def test_autoignore_holds_until_visibility(self):
        COUNTERS.reset()
        registry = TenantRegistry()
        registry.add_tenant(
            "acme",
            ArtemisConfig([OwnedPrefix("10.0.0.0/24", [65001])]),
            autoignore_visibility=3,
        )
        plane = DetectionPlane(registry, batch_size=1)
        plane.ingest(make_event(1.0, "10.0.0.0/24", (1, 666), vantage=100))
        plane.ingest(make_event(2.0, "10.0.0.0/24", (1, 666), vantage=100))
        assert plane.drain_notifications() == []
        assert COUNTERS.autoignore_suppressed == 1
        plane.ingest(make_event(3.0, "10.0.0.0/24", (1, 666), vantage=101))
        assert plane.drain_notifications() == []
        plane.ingest(make_event(4.0, "10.0.0.0/24", (1, 666), vantage=102))
        released = plane.drain_notifications()
        assert [(t, a.type) for t, a in released] == [
            ("acme", AlertType.EXACT_ORIGIN)
        ]
        # The incident itself was on the books the whole time.
        assert plane.total_alerts() == 1

    def test_withdrawals_ignored(self):
        plane = DetectionPlane(two_tenant_registry(), batch_size=2)
        plane.ingest(make_event(1.0, "10.0.0.0/23", (), kind="W"))
        plane.ingest(make_event(2.0, "10.0.0.0/23", (), kind="W"))
        assert plane.total_alerts() == 0


# ----------------------------------------- per-tenant incident edges (c)


class TestPerTenantIncidents:
    def test_same_pattern_separate_incidents_per_tenant(self):
        registry = TenantRegistry()
        for name in ("acme", "beta"):
            registry.add_tenant(
                name, ArtemisConfig([OwnedPrefix("10.0.0.0/24", [65001])])
            )
        plane = DetectionPlane(registry, batch_size=1)
        plane.ingest(make_event(1.0, "10.0.0.0/24", (1, 666)))
        managers = plane.alert_managers()
        assert len(managers["acme"]) == 1 and len(managers["beta"]) == 1
        assert managers["acme"].alerts[0] is not managers["beta"].alerts[0]

    def test_cooldown_and_resurrection_independent_per_tenant(self):
        registry = two_tenant_registry(cooldown_a=5.0, cooldown_b=50.0)
        plane = DetectionPlane(registry, batch_size=1)
        # Hits both tenants: exact for beta, sub-prefix for acme.
        plane.ingest(make_event(1.0, "10.0.0.0/24", (1, 666)))
        acme = plane.alert_managers()["acme"].alerts[0]
        beta = plane.alert_managers()["beta"].alerts[0]
        acme.resolve(2.0)
        beta.resolve(2.0)
        # 10s later: past acme's 5s cooldown, inside beta's 50s cooldown.
        plane.ingest(make_event(12.0, "10.0.0.0/24", (1, 666), vantage=101))
        assert len(plane.alert_managers()["acme"]) == 2
        assert len(plane.alert_managers()["beta"]) == 1
        # Beta's resolved incident re-accepted it as evidence instead.
        assert len(beta.evidence) == 2
        fresh = plane.alert_managers()["acme"].alerts[1]
        assert fresh.detected_at == 12.0
        assert fresh.status is AlertStatus.ACTIVE

    def test_duplicate_delivery_never_resurrects_either_tenant(self):
        registry = two_tenant_registry(cooldown_a=5.0, cooldown_b=5.0)
        plane = DetectionPlane(registry, batch_size=1)
        original = make_event(1.0, "10.0.0.0/24", (1, 666))
        plane.ingest(original)
        for manager in plane.alert_managers().values():
            manager.alerts[0].resolve(2.0)
        # The byte-identical copy surfaces long past both cooldowns.
        plane.ingest(original)
        for manager in plane.alert_managers().values():
            assert len(manager) == 1
        # A genuinely new delivery (its own delivery time) does re-fire.
        plane.ingest(make_event(30.0, "10.0.0.0/24", (1, 666)))
        for manager in plane.alert_managers().values():
            assert len(manager) == 2


# --------------------------------------------------------- state bounding (a)


class TestStateBounding:
    def run_plane_incident(self, retention):
        registry = two_tenant_registry(cooldown_a=5.0, cooldown_b=5.0)
        plane = DetectionPlane(registry, batch_size=1)
        plane.state_retention = retention
        plane.ingest(make_event(1.0, "10.0.0.0/24", (1, 666)))
        return plane

    def test_plane_prunes_resolved_incidents(self):
        plane = self.run_plane_incident(retention=100.0)
        assert plane.detection_state_entries() == 4  # 2 tenants × 2 tables
        for manager in plane.alert_managers().values():
            manager.alerts[0].resolve(2.0)
        # Inside cooldown + retention: nothing prunes.
        assert plane.prune_state(now=50.0) == 0
        assert plane.detection_state_entries() == 4
        # Past resolve + cooldown + retention: everything prunes.
        assert plane.prune_state(now=200.0) == 4
        assert plane.detection_state_entries() == 0
        assert plane.entries_pruned == 4

    def test_plane_active_incidents_never_pruned(self):
        plane = self.run_plane_incident(retention=100.0)
        assert plane.prune_state(now=1e9) == 0
        assert plane.detection_state_entries() == 4

    def test_gauge_tracks_peak_entries(self):
        COUNTERS.reset()
        plane = self.run_plane_incident(retention=100.0)
        plane.prune_state(now=2.0)
        assert COUNTERS.detection_state_entries == 4

    def test_plane_prune_cadence_counts_drained_events(self):
        # queue_capacity < batch_size: every drain is 64 events deep, and
        # the sweep interval is in events, not in drains.
        plane = DetectionPlane(
            two_tenant_registry(), batch_size=100_000, queue_capacity=64
        )
        sweeps = []
        prune_state = plane.prune_state

        def counting_prune_state(now):
            sweeps.append(now)
            return prune_state(now)

        plane.prune_state = counting_prune_state
        benign = make_event(1.0, "10.0.0.0/23", (64600, 65001))
        for _ in range(8192):
            plane.ingest(benign)
        assert plane.batches_drained == 8192 // 64
        assert len(sweeps) == 8192 // PRUNE_CHECK_INTERVAL == 2
        # A partial flush counts its own depth, not a whole batch.
        plane.ingest(benign)
        plane.flush()
        assert len(sweeps) == 2

    def test_detection_service_prunes_resolved_incidents(self):
        solo = one_tenant_plane(
            ArtemisConfig([OwnedPrefix("10.0.0.0/24", [65001])], alert_cooldown=5.0)
        )
        solo.state_retention = 100.0
        solo.ingest(make_event(1.0, "10.0.0.0/24", (1, 666)))
        assert solo.detection_state_entries() == 2
        state = solo.tenant_state(OPERATOR)
        alert = state.alerts.alerts[0]
        alert.resolve(2.0)
        assert solo.prune_state(now=50.0) == 0
        # Late re-reads still work inside the retention window.
        assert state.per_source_delay(alert, 0.5) == {"ris": 0.5}
        assert solo.prune_state(now=200.0) == 2
        assert solo.detection_state_entries() == 0
        assert solo.entries_pruned == 2

    def test_detection_service_prune_hook_fires_periodically(self):
        solo = one_tenant_plane(
            ArtemisConfig([OwnedPrefix("10.0.0.0/24", [65001])], alert_cooldown=0.0)
        )
        solo.state_retention = 10.0
        solo.ingest(make_event(1.0, "10.0.0.0/24", (1, 666)))
        solo.tenant_state(OPERATOR).alerts.alerts[0].resolve(2.0)
        benign = make_event(10_000.0, "10.0.0.0/24", (1, 65001))
        for _ in range(PRUNE_CHECK_INTERVAL):
            solo.ingest(benign)
        assert solo.detection_state_entries() == 0


# ------------------------------------------------------------------ workers


def write_mini_trace(path, rounds=40, tenants=8):
    """A small multi-prefix trace with periodic hijacks; returns the path."""
    writer = TraceWriter(str(path))
    t = 0.0
    for round_number in range(rounds):
        for i in range(tenants):
            t += 0.01
            origin = 65000 + i if round_number % 6 else 666
            writer.append(
                make_event(
                    t + 0.2,
                    f"10.{i}.0.0/16",
                    (1, origin),
                    vantage=100 + round_number % 4,
                    observed=t,
                )
            )
    writer.close()
    return str(path)


def worker_registry(tenants=8):
    registry = TenantRegistry()
    for i in range(tenants):
        registry.add_tenant(
            f"t{i:02d}",
            ArtemisConfig(
                [
                    OwnedPrefix(f"10.{i}.0.0/16", [65000 + i]),
                    OwnedPrefix(f"10.{i}.1.0/24", [65000 + i]),
                ],
                alert_cooldown=2.0,
            ),
        )
    return registry


def trie_roots(prefixes):
    """The oracle partition: prefixes covered by nothing but themselves in
    a trie, in bit order."""
    trie = PrefixTrie()
    for prefix in prefixes:
        trie.insert(prefix, prefix)
    return [prefix for prefix in trie.keys() if len(list(trie.covering(prefix))) == 1]


#: Few distinct high bits and short lengths: nesting and duplicates are the
#: common case, not the rare one.  Each family's /0 covers the whole family.
_NESTED_PREFIXES = st.one_of(
    st.builds(
        lambda value, length: Prefix(value << 24, length, 4),
        st.integers(0, 255),
        st.integers(0, 12),
    ),
    st.builds(
        lambda value, length: Prefix(value << 120, length, 6),
        st.integers(0, 255),
        st.integers(0, 12),
    ),
    st.sampled_from([Prefix(0, 0, 4), Prefix(0, 0, 6)]),
)

#: Prefix fields no router may parse.
_MALFORMED_FIELDS = [
    b"", b"garbage", b"10.0.0.0/33", b"10.0.0/8", b"2001:db8::/129",
    b"10.0.0.0/-1", b"\xff\xfe", b"10.0.0.\xc3\xa9/24",
]


def started_router(registry, num_workers):
    """A :class:`ParallelDetectionPlane` whose ``start()`` partitioned the
    registry but forked nothing: its router alone, for routing tests."""
    plane = ParallelDetectionPlane(registry, num_workers=num_workers)
    plane._group.fork = lambda *args: None
    plane.start()
    return plane


class TestPartitioning:
    def test_uncovered_keys_keeps_only_maximal_prefixes(self):
        prefixes = [
            Prefix.parse("10.0.0.0/16"),
            Prefix.parse("10.0.1.0/24"),  # nested: not a root
            Prefix.parse("10.1.0.0/16"),
            Prefix.parse("192.168.0.0/24"),
        ]
        roots = uncovered_keys(prefix.ikey for prefix in prefixes)
        assert roots == [prefixes[0].ikey, prefixes[2].ikey, prefixes[3].ikey]

    def test_uncovered_keys_at_the_ends_of_both_families(self):
        """Host prefixes at the top of each space, each family's /0, and a
        prefix right after a cover's range: the spans are exact."""
        texts = [
            "0.0.0.0/1", "127.255.255.255/32", "128.0.0.0/32",
            "255.255.255.254/32", "255.255.255.255/32",
            "::/1", "7fff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128",
            "8000::/128", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128",
        ]
        prefixes = [Prefix.parse(text) for text in texts]
        keys = uncovered_keys(prefix.ikey for prefix in prefixes)
        assert keys == [prefix.ikey for prefix in trie_roots(prefixes)]
        assert [str(p) for p in prefixes if p.ikey in keys] == [
            "0.0.0.0/1", "128.0.0.0/32", "255.255.255.254/32",
            "255.255.255.255/32", "::/1", "8000::/128",
            "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128",
        ]
        zeros = [Prefix.parse("0.0.0.0/0"), Prefix.parse("::/0")]
        assert uncovered_keys(p.ikey for p in prefixes + zeros) == [
            zeros[0].ikey, zeros[1].ikey,
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_NESTED_PREFIXES, max_size=40))
    def test_uncovered_keys_matches_trie_oracle(self, prefixes):
        """The sorted sweep ≡ "covered by nothing but itself" in a trie."""
        roots = uncovered_keys(prefix.ikey for prefix in prefixes)
        assert roots == [prefix.ikey for prefix in trie_roots(prefixes)]
        assert len(set(roots)) == len(roots)

    def test_plane_partitions_nested_and_duplicate_rows(self):
        """The same prefix under several tenants, nested covers, both
        families: the plane's roots are the trie oracle's maximal prefixes,
        in bit order, and each field goes where the old root dict sent it."""
        registry = two_tenant_registry()  # 10.0.0.0/23 ⊃ 10.0.0.0/24
        for name, owned in (
            ("gamma", ["10.0.0.0/24", "10.0.0.0/23", "2001:db8::/32"]),
            ("delta", ["10.0.1.0/24", "192.168.0.0/24", "2001:db8::/64"]),
            ("omega", ["192.168.0.0/24", "11.0.0.0/8"]),
        ):
            registry.add_tenant(
                name, ArtemisConfig([OwnedPrefix(text, [65009]) for text in owned])
            )
        oracle = trie_roots(rule.prefix for rule in registry.all_rules())
        assert [str(root) for root in oracle] == [
            "10.0.0.0/23", "11.0.0.0/8", "192.168.0.0/24", "2001:db8::/32",
        ]
        plane = started_router(registry, 3)
        assert plane._roots == [root.ikey for root in oracle]
        routed = {
            text: plane._route_prefix(text.encode())
            for text in (
                "10.0.0.0/23", "10.0.1.0/24", "10.0.1.128/25", "11.2.0.0/16",
                "192.168.0.0/24", "2001:db8::/64", "2001:db8:1::/48",
                "10.0.0.0/22", "2001:db9::/32",
            )
        }
        assert routed == {
            "10.0.0.0/23": 0, "10.0.1.0/24": 0, "10.0.1.128/25": 0,
            "11.2.0.0/16": 1, "192.168.0.0/24": 2, "2001:db8::/64": 0,
            "2001:db8:1::/48": 0, "10.0.0.0/22": None, "2001:db9::/32": None,
        }
        partition = RootPartition(oracle, 3, _MALFORMED)
        assert routed == {text: partition.worker(text.encode()) for text in routed}

    def test_roots_round_robin_deterministic(self):
        registry = TenantRegistry()
        for i in reversed(range(5)):
            registry.add_tenant(
                f"t{i}", ArtemisConfig([OwnedPrefix(f"10.{i}.0.0/16", [65000 + i])])
            )
        plane = started_router(registry, 2)
        roots = [Prefix.parse(f"10.{i}.0.0/16") for i in range(5)]
        assert plane._roots == [root.ikey for root in roots]
        assert [plane._route_prefix(f"10.{i}.7.0/24".encode()) for i in range(5)] == [
            0, 1, 0, 1, 0,
        ]

    @settings(max_examples=150, deadline=None)
    @given(
        tenants=st.lists(
            # A tenant owns a prefix once; tenants share them freely.
            st.lists(_NESTED_PREFIXES, min_size=1, max_size=8, unique_by=lambda p: p.ikey),
            min_size=1,
            max_size=5,
        ),
        probes=st.lists(
            st.one_of(
                _NESTED_PREFIXES.map(lambda prefix: str(prefix).encode()),
                st.builds(
                    lambda prefix, extra: str(
                        Prefix(prefix.value, min(prefix.length + extra, prefix.bits), prefix.version)
                    ).encode(),
                    _NESTED_PREFIXES,
                    st.integers(0, 40),
                ),
                st.sampled_from(_MALFORMED_FIELDS),
            ),
            max_size=30,
        ),
        num_workers=st.integers(1, 4),
    )
    def test_router_agrees_with_the_root_dict(self, tenants, probes, num_workers):
        """Whatever the tenants' rows — both families, nesting, the same
        prefix under several tenants, each family's /0 — every prefix field,
        covered, uncovered or malformed, goes to the worker the root
        ``ikey`` → worker dict names."""
        registry = TenantRegistry()
        for index, prefixes in enumerate(tenants):
            registry.add_tenant(
                f"t{index}", ArtemisConfig([OwnedPrefix(p, [65001]) for p in prefixes])
            )
        plane = started_router(registry, num_workers)
        partition = RootPartition(
            [rule.prefix for rule in registry.all_rules()], num_workers, _MALFORMED
        )
        stored = [str(rule.prefix).encode() for rule in registry.all_rules()]
        for field in stored + probes:
            assert plane._route_prefix(field) == partition.worker(field), field

    def test_iter_trace_lines_rejects_truncation(self, tmp_path):
        trace = write_mini_trace(tmp_path / "t.trace", rounds=2)
        lines = open(trace, encoding="utf-8").read().splitlines()
        clipped = tmp_path / "clipped.trace"
        clipped.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TraceError, match="no footer"):
            list(iter_trace_lines(str(clipped)))


class TestParallelDetectionPlane:
    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    def test_merged_digest_identical_to_single_process(
        self, tmp_path, num_workers
    ):
        trace = write_mini_trace(tmp_path / "mini.trace")
        registry = worker_registry()
        plane = DetectionPlane(registry, batch_size=32)
        from repro.feeds.dumpfile import parse_event

        for line in iter_trace_lines(trace):
            plane.ingest(parse_event(line))
        plane.flush()

        parallel = ParallelDetectionPlane(
            registry, num_workers=num_workers, batch_size=32
        )
        parallel.feed_trace(trace)
        result = parallel.finish()
        assert result["digest"] == plane.digest()
        assert result["rows"] == plane.incident_rows()
        assert result["alerts"] == plane.total_alerts()
        assert len(result["cpu_seconds"]) == num_workers
        assert result["events_unrouted"] == 0

    def test_unmonitored_prefixes_skipped_at_routing(self, tmp_path):
        trace = write_mini_trace(tmp_path / "mini.trace", rounds=4)
        registry = worker_registry(tenants=2)  # only 10.0/16 and 10.1/16
        parallel = ParallelDetectionPlane(registry, num_workers=2)
        parallel.feed_trace(trace)
        result = parallel.finish()
        assert result["events_unrouted"] > 0
        assert result["events_routed"] + result["events_unrouted"] == 4 * 8

    def test_perf_counters_merged_from_workers(self, tmp_path):
        COUNTERS.reset()
        trace = write_mini_trace(tmp_path / "mini.trace")
        parallel = ParallelDetectionPlane(worker_registry(), num_workers=2)
        parallel.feed_trace(trace)
        result = parallel.finish()
        assert COUNTERS.detect_events_routed == 40 * 8
        assert COUNTERS.detect_worker_batches >= 2
        assert COUNTERS.pipeline_events_ingested == 40 * 8
        assert COUNTERS.pipeline_batches >= 2
        # The pipe waits: the router's own, and the workers' summed home.
        assert result["send_wait_ns"] == COUNTERS.pipe_send_wait_ns > 0
        assert result["recv_wait_ns"] == COUNTERS.pipe_recv_wait_ns > 0
        assert result["recv_wait_ns"] == sum(
            payload["perf"]["pipe_recv_wait_ns"] for payload in result["workers"]
        )

    def test_tenant_added_before_start_is_routed(self):
        """Routing is partitioned from the tree the workers fork with, not
        from the registry as it stood at construction."""
        registry = TenantRegistry()
        registry.add_tenant("acme", ArtemisConfig([OwnedPrefix("10.0.0.0/23", [65001])]))
        parallel = ParallelDetectionPlane(registry, num_workers=2)
        registry.add_tenant("late", ArtemisConfig([OwnedPrefix("20.0.0.0/24", [65020])]))
        events = [
            make_event(1.0 + step, prefix, (100 + step, 666), vantage=100 + step)
            for step in range(4)
            for prefix in ("10.0.0.0/23", "20.0.0.0/24")
        ]
        plane = DetectionPlane(registry)
        for event in events:
            plane.ingest(event)
        plane.flush()
        assert {row[0] for row in plane.incident_rows()} == {"acme", "late"}
        parallel.start()
        parallel.feed_lines(format_event(event) for event in events)
        result = parallel.finish()
        assert result["events_unrouted"] == 0
        assert result["events_routed"] == 8
        assert result["rows"] == plane.incident_rows()
        assert result["digest"] == plane.digest()

    def test_epoch_violation_is_loud(self, tmp_path):
        import multiprocessing

        trace = write_mini_trace(tmp_path / "mini.trace", rounds=2)
        lines = [line.encode("utf-8") for line in iter_trace_lines(trace)]
        registry = worker_registry()
        parent_conn, child_conn = multiprocessing.Pipe()
        thread = threading.Thread(
            target=tenant_worker_main,
            args=(0, registry, 32, child_conn),
            daemon=True,
        )
        thread.start()
        # Epoch 2 first: a reordered/stale shipment must be rejected.
        parent_conn.send_bytes(frames.encode_batch(2, lines))
        status, message = parent_conn.recv()
        assert status == "error"
        assert "epoch" in message
        thread.join(timeout=5.0)

    @pytest.mark.parametrize("sent, expected", [(2, 1), (1, 2)], ids=["skipped", "repeated"])
    def test_wrong_batch_epoch_fails_finish(self, tmp_path, sent, expected):
        """A forked worker handed a BATCH whose epoch skips ahead or repeats
        dies with its diagnosis, and ``finish()`` raises it."""
        trace = write_mini_trace(tmp_path / "mini.trace", rounds=2)
        lines = [line.encode("utf-8") for line in iter_trace_lines(trace)]
        parallel = ParallelDetectionPlane(worker_registry(), num_workers=1)
        parallel.start()
        try:
            if expected == 2:
                parallel.feed_line_bytes(lines)
                parallel._ship(0)  # epoch 1, in order
            parallel._group.send(0, frames.encode_batch(sent, lines))
            with pytest.raises(
                TenantWorkerError, match=f"batch epoch {sent} arrived, expected {expected}"
            ):
                parallel.finish()
        finally:
            parallel.close()
        assert multiprocessing.active_children() == []

    def test_start_ships_no_registry_bytes(self):
        COUNTERS.reset()
        parallel = ParallelDetectionPlane(worker_registry(), num_workers=2)
        try:
            parallel.start()
            # The workers were forked holding registry and tree: nothing
            # has crossed a pipe yet.
            assert COUNTERS.frames_sent == 0
            assert COUNTERS.frames_bytes == 0
        finally:
            parallel.close()

    def test_start_that_never_forked_leaves_the_registry_whole(self, monkeypatch):
        """When the first fork raises, ``start()`` has built nothing the
        registry must let go of: ``close()`` is a no-op, twice, and the
        registry keeps onboarding into its one table."""
        registry = worker_registry()
        tree, epoch = registry.tree, registry.tree.epoch
        parallel = ParallelDetectionPlane(registry, num_workers=2)

        def no_fork(*args):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(parallel._group, "fork", no_fork)
        with pytest.raises(OSError, match="fork"):
            parallel.start()
        parallel.close()
        parallel.close()  # idempotent
        assert not parallel.started
        registry.add_tenant("late", ArtemisConfig([OwnedPrefix("10.200.0.0/16", [65200])]))
        assert registry.tree is tree and tree.epoch == epoch + 1

    @pytest.mark.parametrize("batch_size", [1, 1024])
    @pytest.mark.parametrize("num_workers", [1, 2, 3, 4])
    def test_whole_tree_per_worker_is_exact(
        self, tmp_path, num_workers, batch_size
    ):
        """Every worker holds every tenant's rows, nested ones included.

        Three tenants nest /16 ⊃ /20 ⊃ /24 under one root (so one worker
        must see all three fire together), two more own disjoint roots,
        and some announcements are monitored by nobody.
        """
        registry = TenantRegistry()
        for name, prefix, origin in (
            ("wide", "10.0.0.0/16", 65001),
            ("mid", "10.0.16.0/20", 65002),
            ("narrow", "10.0.17.0/24", 65003),
            ("east", "10.1.0.0/16", 65004),
            ("v6", "2001:db8::/32", 65005),
        ):
            registry.add_tenant(
                name,
                ArtemisConfig([OwnedPrefix(prefix, [origin])], alert_cooldown=2.0),
            )
        announced = [
            ("10.0.17.0/24", 65003),  # legit for narrow, hijack for wide+mid
            ("10.0.17.0/25", 666),  # sub-prefix of all three
            ("10.0.16.0/20", 65002),
            ("10.0.32.0/24", 666),  # only under wide
            ("10.1.0.0/16", 666),
            ("2001:db8:1::/48", 666),
            ("172.16.0.0/16", 666),  # unmonitored
            ("2001:dead::/32", 666),  # unmonitored
        ]
        writer = TraceWriter(str(tmp_path / "nested.trace"))
        t = 0.0
        for round_number in range(12):
            for prefix, origin in announced:
                t += 0.01
                writer.append(
                    make_event(
                        t + 0.2,
                        prefix,
                        (1, origin),
                        vantage=100 + round_number % 3,
                        observed=t,
                    )
                )
        writer.close()
        trace = str(tmp_path / "nested.trace")

        from repro.feeds.dumpfile import parse_event

        plane = DetectionPlane(registry, batch_size=batch_size)
        for line in iter_trace_lines(trace):
            plane.ingest(parse_event(line))
        plane.flush()
        assert {row[0] for row in plane.incident_rows()} == {
            "wide", "mid", "narrow", "east", "v6",
        }

        parallel = ParallelDetectionPlane(
            registry, num_workers=num_workers, batch_size=batch_size
        )
        parallel.feed_trace(trace)
        result = parallel.finish()
        assert result["digest"] == plane.digest()
        assert result["rows"] == plane.incident_rows()
        # Float bits and tuple-vs-list survive the pipe: the digest hashes
        # repr() output, which ``==`` alone does not pin.
        assert repr(result["rows"]) == repr(plane.incident_rows())
        assert result["events_unrouted"] == 12 * 2
        assert sum(result["events_per_worker"]) == result["events_routed"]
        assert len(result["events_per_worker"]) == num_workers

    def test_registry_change_after_start_is_loud(self, tmp_path):
        trace = write_mini_trace(tmp_path / "mini.trace", rounds=2)
        registry = worker_registry()
        parallel = ParallelDetectionPlane(registry, num_workers=2)
        parallel.start()
        children = list(parallel._group.processes)
        try:
            parallel.feed_trace(trace)  # before the edit: fine
            registry.add_tenant(
                "late", ArtemisConfig([OwnedPrefix("10.200.0.0/16", [65200])])
            )
            with pytest.raises(TenantWorkerError, match=r"epoch 8\b.*epoch 9\b"):
                parallel.feed_trace(trace)
            with pytest.raises(TenantWorkerError, match="registry changed"):
                parallel.finish()
        finally:
            parallel.close()
        assert children and not any(child.is_alive() for child in children)

    @pytest.mark.parametrize("side", ["send", "receive"])
    def test_dead_worker_is_a_typed_error(self, tmp_path, side):
        """A SIGKILLed detection worker is a typed error naming it on
        whichever side of the pipe meets it first — never a bare
        ``OSError``, never a hang — and ``close()`` still reaps every child."""
        trace = write_mini_trace(tmp_path / "mini.trace", rounds=2)
        parallel = ParallelDetectionPlane(worker_registry(), num_workers=2)
        parallel.LINES_PER_SHIPMENT = 4  # so feeding 16 lines ships batches
        parallel.start()
        try:
            parallel.feed_trace(trace)
            kill_worker(parallel._group.processes[1], side)
            started = time.monotonic()
            with pytest.raises(TenantWorkerError, match="detect worker 1 died"):
                if side == "send":
                    parallel.feed_trace(trace)  # ships a BATCH frame
                else:
                    parallel.finish()  # sends FINISH, then waits for RESULT
            assert time.monotonic() - started < 5.0
        finally:
            parallel.close()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("pause", [0.0, 0.3], ids=["at-once", "after-pause"])
    @pytest.mark.parametrize("trailing", [0, 64, 4096])
    def test_worker_last_words_reach_the_caller(self, tmp_path, trailing, pause):
        """A worker that reported why it is dying is never just "died".

        The record routes (its prefix field is fine) but fails
        ``parse_event`` in the worker, which answers an error and exits.
        Whether the parent next sends (more lines, or FINISH) or receives,
        and however long the worker has been gone, the error raised is the
        worker's own diagnosis.
        """
        trace = write_mini_trace(tmp_path / "mini.trace", rounds=1)
        good = next(iter_trace_lines(trace))
        fields = good.split("|")
        fields[6] = "not-a-time"
        parallel = ParallelDetectionPlane(worker_registry(), num_workers=2)
        parallel.LINES_PER_SHIPMENT = 4
        parallel.start()
        try:
            with pytest.raises(TenantWorkerError, match="not-a-time") as caught:
                parallel.feed_lines([good, good, good, "|".join(fields)])
                time.sleep(pause)
                parallel.feed_lines([good] * trailing)
                parallel.finish()
            assert "died" not in str(caught.value)
        finally:
            parallel.close()
        assert multiprocessing.active_children() == []

    def test_malformed_lines_dropped_and_counted(self, tmp_path):
        COUNTERS.reset()
        trace = write_mini_trace(tmp_path / "mini.trace", rounds=2)
        good = list(iter_trace_lines(trace))
        damaged = [
            good[0],
            "A|rv|col1|99",  # wrong field count: no prefix field at all
            "A|rv|col1|99|not-a-prefix|99 100|1.0|1.0",  # unparsable prefix
            good[1],
            "",  # empty line
            "A|rv|col1|99|not-a-prefix|99 100|2.0|2.0",  # repeat: memo path
        ]
        parallel = ParallelDetectionPlane(worker_registry(), num_workers=2)
        parallel.feed_lines(damaged)
        parallel.feed_lines(good[2:])
        result = parallel.finish()
        assert result["events_malformed"] == 4
        assert COUNTERS.events_malformed == 4
        # The well-formed lines still route and detect normally.
        assert result["events_routed"] + result["events_unrouted"] == len(good)

    def test_route_memo_bounded_and_cleared_wholesale(self, tmp_path):
        trace = write_mini_trace(tmp_path / "mini.trace", rounds=4)
        good = [line.encode("utf-8") for line in iter_trace_lines(trace)]
        clean = ParallelDetectionPlane(worker_registry(), num_workers=1)
        clean.feed_line_bytes(good)
        expected = clean.finish()

        COUNTERS.reset()
        garbage = 70_000
        parallel = ParallelDetectionPlane(worker_registry(), num_workers=1)
        parallel.feed_line_bytes(good[:16])
        parallel.feed_line_bytes(
            b"A|rv|col1|99|junk-%d|99 100|1.0|1.0" % i for i in range(garbage)
        )
        memo = parallel._route_memo
        assert 0 < len(memo) <= _ROUTE_MEMO_MAX
        assert b"junk-0" not in memo  # cleared, not merely capped
        parallel.feed_line_bytes(good[16:])
        result = parallel.finish()
        assert result["events_malformed"] == garbage
        assert COUNTERS.events_malformed == garbage
        assert result["events_routed"] == expected["events_routed"] == len(good)
        assert result["digest"] == expected["digest"]


# ------------------------------------------------------------------ digests


class TestMergedDigest:
    def test_digest_ignores_row_order(self):
        rows = [("b", 1), ("a", 2), ("c", 0)]
        assert merged_alert_digest(rows) == merged_alert_digest(rows[::-1])

    def test_rows_exclude_alert_ids(self):
        registry = two_tenant_registry()
        plane = DetectionPlane(registry, batch_size=1)
        plane.ingest(make_event(1.0, "10.0.0.0/24", (1, 666)))
        for row in plane.incident_rows():
            assert isinstance(row[0], str)  # tenant leads
            # Nothing in the row is a per-manager alert id.
            assert plane.alert_managers()[row[0]].alerts[0].id not in row[2:5]

    @staticmethod
    def lifecycle(resolve_at):
        """Two incident patterns under cooldown 0; the first is resolved at
        ``resolve_at`` (``None``: never) between its two reports."""
        from repro.core.alerts import AlertManager

        manager = AlertManager(cooldown=0.0)
        owned = Prefix.parse("10.0.0.0/23")
        hijack = [
            make_event(1.0, "10.0.0.0/24", (1, 666), source="ris"),
            make_event(4.0, "10.0.0.0/24", (2, 666), source="bgpmon", vantage=200),
        ]
        other = make_event(3.0, "10.0.1.0/24", (1, 777), source="periscope")
        manager.ingest(AlertType.SUB_PREFIX, owned, hijack[0].prefix, 666, hijack[0])
        manager.ingest(AlertType.SUB_PREFIX, owned, other.prefix, 777, other)
        if resolve_at is not None:
            manager.alerts[0].resolve(resolve_at)
        manager.ingest(AlertType.SUB_PREFIX, owned, hijack[1].prefix, 666, hijack[1])
        return manager

    @staticmethod
    def per_object_rows(manager):
        """One row per alert object — what the rows were before grouping."""
        return sorted(
            (
                "t", a.type.value, str(a.owned_prefix), str(a.announced_prefix),
                a.offender_asn, a.detected_at, a.first_source,
                tuple(sorted(
                    (e.source, e.collector, e.vantage_asn, e.kind, str(e.prefix),
                     e.as_path, e.observed_at, e.delivered_at)
                    for e in a.evidence
                )),
            )
            for a in manager.alerts
        )

    def test_a_resolved_then_refired_pattern_is_one_row(self):
        split, whole = self.lifecycle(resolve_at=2.0), self.lifecycle(resolve_at=None)
        assert (len(split), len(whole)) == (3, 2)  # the re-fire is a new object
        assert self.per_object_rows(split) != self.per_object_rows(whole)
        rows = incident_rows({"t": split})
        assert rows == incident_rows({"t": whole}) == self.per_object_rows(whole)
        hijack_row = rows[0]
        assert hijack_row[3] == "10.0.0.0/24"
        assert hijack_row[5:7] == (1.0, "ris")  # the first object's
        assert [e[0] for e in hijack_row[7]] == ["bgpmon", "ris"]  # both objects'

    def test_rows_are_per_object_when_nothing_resolved(self):
        manager = self.lifecycle(resolve_at=None)
        assert incident_rows({"t": manager}) == self.per_object_rows(manager)


# -------------------------------------------------------------------- synth


class TestSynth:
    def test_observed_origin_map_takes_first_origin(self):
        events = [
            make_event(1.0, "10.0.0.0/24", (1, 65001)),
            make_event(2.0, "10.0.0.0/24", (1, 666)),
            make_event(3.0, "10.1.0.0/24", (2, 65002)),
        ]
        origins = observed_origin_map(events)
        assert origins[Prefix.parse("10.0.0.0/24")] == 65001
        assert origins[Prefix.parse("10.1.0.0/24")] == 65002

    def test_build_synth_registry_shape(self):
        origins = {
            Prefix.parse("10.0.0.0/24"): 65001,
            Prefix.parse("10.1.0.0/24"): 65002,
        }
        registry = build_synth_registry(origins, num_tenants=10, num_prefixes=200)
        assert len(registry) == 10
        assert registry.num_rules == 200
        # Live prefixes are spread over every tenant; padding is dense /24s.
        live_watchers = PrefixTree(registry).tenants_at(Prefix.parse("10.0.0.0/24"))
        assert len(live_watchers) == 10
        assert str(pad_prefix(0)) == "11.0.0.0/24"

    def test_synth_registry_deterministic(self):
        origins = {Prefix.parse("10.0.0.0/24"): 65001}
        one = build_synth_registry(origins, num_tenants=5, num_prefixes=50)
        two = build_synth_registry(origins, num_tenants=5, num_prefixes=50)
        assert one.to_spec() == two.to_spec()
