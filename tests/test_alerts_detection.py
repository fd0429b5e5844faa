"""Tests for alert lifecycle and the one-tenant detection plane (pure event level)."""

import pytest

from repro.core.alerts import AlertManager, AlertStatus, AlertType, HijackAlert
from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.errors import ReproError
from repro.feeds.events import FeedEvent
from repro.net.prefix import Prefix
from repro.tenants.pipeline import OPERATOR, one_tenant_plane

from conftest import classify


def P(text):
    return Prefix.parse(text)


def event(prefix="10.0.0.0/23", path=(3, 2, 666), source="ris", t=10.0, kind="A",
          vantage=3):
    return FeedEvent(
        source=source,
        collector=f"{source}-c0",
        vantage_asn=vantage,
        kind=kind,
        prefix=P(prefix),
        as_path=tuple(path),
        observed_at=t - 1.0,
        delivered_at=t,
    )


def make_config(**kw):
    defaults = dict(
        owned=[OwnedPrefix("10.0.0.0/23", {64500}, **kw.pop("owned_kw", {}))],
    )
    defaults.update(kw)
    return ArtemisConfig(**defaults)


def incidents(plane):
    return plane.tenant_state(OPERATOR)


def make_artemis(config, live_sources):
    """An unstarted Artemis whose supervisor reports ``live_sources``."""
    from repro.bgp.speaker import BGPSpeaker
    from repro.core.artemis import Artemis
    from repro.feeds.stream import StreamingService
    from repro.sdn.controller import BGPController
    from repro.sim.engine import Engine
    from repro.sim.rng import SeededRNG

    class Supervisor:
        def register_failover(self, callback, prefixes):
            pass

        def live_sources(self):
            return live_sources

    engine = Engine()
    controller = BGPController(engine, [BGPSpeaker(64500, engine, rng=SeededRNG(1))])
    stream = StreamingService(engine, 1.0, SeededRNG(2), "ris")
    return Artemis(config, controller, sources=[stream], supervisor=Supervisor())


class TestAlertManager:
    def test_new_incident(self):
        manager = AlertManager()
        alert, is_new = manager.ingest(
            AlertType.EXACT_ORIGIN, P("10.0.0.0/23"), P("10.0.0.0/23"), 666, event()
        )
        assert is_new
        assert alert.detected_at == 10.0
        assert alert.status is AlertStatus.ACTIVE

    def test_duplicate_accumulates_evidence(self):
        manager = AlertManager()
        first, _ = manager.ingest(
            AlertType.EXACT_ORIGIN, P("10.0.0.0/23"), P("10.0.0.0/23"), 666, event(t=10)
        )
        second, is_new = manager.ingest(
            AlertType.EXACT_ORIGIN, P("10.0.0.0/23"), P("10.0.0.0/23"), 666,
            event(t=20, source="bgpmon", vantage=4),
        )
        assert not is_new
        assert second is first
        assert len(first.evidence) == 2
        assert first.witness_vantages == [3, 4]
        assert first.detected_at == 10.0  # unchanged by later evidence

    def test_different_offender_is_new_incident(self):
        manager = AlertManager()
        manager.ingest(AlertType.EXACT_ORIGIN, P("10.0.0.0/23"), P("10.0.0.0/23"), 666, event())
        _alert, is_new = manager.ingest(
            AlertType.EXACT_ORIGIN, P("10.0.0.0/23"), P("10.0.0.0/23"), 777, event()
        )
        assert is_new
        assert len(manager) == 2

    def test_resolve(self):
        manager = AlertManager()
        alert, _ = manager.ingest(
            AlertType.EXACT_ORIGIN, P("10.0.0.0/23"), P("10.0.0.0/23"), 666, event()
        )
        alert.resolve(100.0)
        assert alert.status is AlertStatus.RESOLVED
        assert alert.resolved_at == 100.0
        assert manager.active == []
        with pytest.raises(ReproError):
            alert.resolve(200.0)

    def test_refire_after_cooldown(self):
        manager = AlertManager(cooldown=50.0)
        alert, _ = manager.ingest(
            AlertType.EXACT_ORIGIN, P("10.0.0.0/23"), P("10.0.0.0/23"), 666, event(t=10)
        )
        alert.resolve(20.0)
        # Within cooldown: evidence attaches to the resolved alert.
        same, is_new = manager.ingest(
            AlertType.EXACT_ORIGIN, P("10.0.0.0/23"), P("10.0.0.0/23"), 666, event(t=60)
        )
        assert not is_new and same is alert
        # Past cooldown: a new incident.
        fresh, is_new = manager.ingest(
            AlertType.EXACT_ORIGIN, P("10.0.0.0/23"), P("10.0.0.0/23"), 666, event(t=200)
        )
        assert is_new and fresh is not alert

    def test_first_source(self):
        alert = HijackAlert(
            AlertType.EXACT_ORIGIN, P("10.0.0.0/23"), P("10.0.0.0/23"), 666,
            event(source="periscope"), alert_id=1,
        )
        assert alert.first_source == "periscope"


class TestClassification:
    def test_exact_origin_hijack(self):
        verdict = classify(make_config(), event(path=(3, 2, 666)))
        assert verdict == (AlertType.EXACT_ORIGIN, P("10.0.0.0/23"), 666)

    def test_legit_exact_announcement_ignored(self):
        assert classify(make_config(), event(path=(3, 2, 64500))) is None

    def test_subprefix_hijack(self):
        verdict = classify(make_config(), event(prefix="10.0.0.0/24", path=(3, 666)))
        assert verdict == (AlertType.SUB_PREFIX, P("10.0.0.0/23"), 666)

    def test_own_mitigation_subprefix_ignored(self):
        # De-aggregated /24s announced by the legit origin must not alert.
        announcement = event(prefix="10.0.0.0/24", path=(3, 64500))
        assert classify(make_config(), announcement) is None

    def test_subprefix_detection_can_be_disabled(self):
        config = make_config(detect_subprefix=False)
        assert classify(config, event(prefix="10.0.0.0/24", path=(3, 666))) is None

    def test_unrelated_prefix_ignored(self):
        unrelated = event(prefix="99.0.0.0/16", path=(3, 666))
        assert classify(make_config(), unrelated) is None

    def test_path_hijack_detected_with_upstreams(self):
        config = make_config(owned_kw={"legit_upstreams": {10, 11}})
        verdict = classify(config, event(path=(3, 666, 64500)))
        assert verdict == (AlertType.PATH, P("10.0.0.0/23"), 666)

    def test_path_check_passes_legit_upstream(self):
        config = make_config(owned_kw={"legit_upstreams": {10, 11}})
        assert classify(config, event(path=(3, 10, 64500))) is None

    def test_path_check_disabled_flag(self):
        config = make_config(
            owned_kw={"legit_upstreams": {10}}, detect_path=False
        )
        assert classify(config, event(path=(3, 666, 64500))) is None

    def test_path_check_skipped_without_upstream_config(self):
        assert classify(make_config(), event(path=(3, 666, 64500))) is None

    def test_single_hop_forged_announcement_flags_vantage(self):
        # Regression for the len-1 bypass: a path of length 1 means the
        # reporting vantage claims direct adjacency to the origin, so the
        # vantage itself is the first hop.  Vantage 3 is not a configured
        # upstream → PATH alert with the vantage as offender.
        config = make_config(owned_kw={"legit_upstreams": {10}})
        verdict = classify(config, event(path=(64500,)))
        assert verdict == (AlertType.PATH, P("10.0.0.0/23"), 3)

    def test_single_hop_from_legit_upstream_passes(self):
        config = make_config(owned_kw={"legit_upstreams": {3, 10}})
        assert classify(config, event(path=(64500,))) is None

    def test_single_hop_from_origin_itself_passes(self):
        # The origin's own session to the collector: vantage == origin.
        config = make_config(owned_kw={"legit_upstreams": {10}})
        assert classify(config, event(vantage=64500, path=(64500,))) is None

    def test_single_hop_without_upstream_config_passes(self):
        # No legit_upstreams configured → path checking stays off.
        assert classify(make_config(), event(path=(64500,))) is None


class TestHandleEvent:
    def test_alert_callback_fires_once_per_incident(self):
        alerts = []
        plane = one_tenant_plane(
            make_config(), notify=lambda _tenant, alert: alerts.append(alert)
        )
        plane.ingest(event(t=10))
        plane.ingest(event(t=20, vantage=5))
        assert len(alerts) == 1
        assert len(alerts[0].evidence) == 2

    def test_withdrawals_ignored(self):
        plane = one_tenant_plane(make_config())
        plane.ingest(event(kind="W", path=()))
        assert len(incidents(plane).alerts) == 0

    def test_per_source_first_evidence(self):
        plane = one_tenant_plane(make_config())
        plane.ingest(event(t=10, source="ris"))
        plane.ingest(event(t=12, source="ris"))
        plane.ingest(event(t=30, source="bgpmon"))
        alert = incidents(plane).alerts.alerts[0]
        delays = incidents(plane).per_source_delay(alert, reference_time=5.0)
        assert delays == {"ris": 5.0, "bgpmon": 25.0}

    def test_events_checked_counter(self):
        plane = one_tenant_plane(make_config())
        plane.ingest(event(path=(3, 64500)))
        plane.ingest(event(path=(3, 666)))
        assert plane.events_ingested == 2


class TestIncidentLifecycleRegressions:
    def test_refire_after_cooldown_gets_fresh_evidence_times(self):
        # Regression: first_evidence used to be keyed by the alert's dedup
        # key, so a re-fired incident inherited the *old* incident's
        # per-source times and its delays came out wrong (even negative).
        config = make_config(alert_cooldown=5.0)
        plane = one_tenant_plane(config)
        plane.ingest(event(t=10, source="ris"))
        first = incidents(plane).alerts.alerts[0]
        first.resolve(20.0)
        # Past cooldown: same pattern fires again as a new incident.
        plane.ingest(event(t=100, source="ris"))
        assert len(incidents(plane).alerts) == 2
        fresh = incidents(plane).alerts.alerts[1]
        assert fresh is not first
        assert incidents(plane).per_source_delay(fresh, reference_time=90.0) == {"ris": 10.0}
        # The original incident's record is untouched.
        assert incidents(plane).per_source_delay(first, reference_time=5.0) == {"ris": 5.0}

    def test_alert_ids_deterministic_across_runs(self):
        # Regression: IDs came from a process-global counter, so a second
        # identically-seeded run in the same process saw different IDs.
        def run():
            plane = one_tenant_plane(make_config())
            plane.ingest(event(t=10, path=(3, 2, 666)))
            plane.ingest(event(t=11, path=(3, 2, 777)))
            plane.ingest(
                event(t=12, prefix="10.0.0.0/24", path=(3, 666))
            )
            return [a.id for a in incidents(plane).alerts.alerts]

        first, second = run(), run()
        assert first == second == [1, 2, 3]


class TestOneTenantPlaneByConstruction:
    """The single operator is the N=1 case of DetectionPlane, at batch size 1."""

    COOLDOWN = 5.0

    def lifecycle_stream(self):
        """hijack, byte-identical duplicate, [resolve], evidence inside
        cooldown, post-cooldown re-fire, withdrawal.  ``None`` marks the
        point where the operator resolves the open incident at t=20."""
        hijack = event(t=10, source="ris")
        return [
            hijack,
            hijack,
            event(t=12, source="bgpmon", vantage=4),
            None,
            event(t=23, source="periscope", vantage=5),
            hijack,  # the duplicate again, now against a resolved incident
            event(t=100, source="bgpmon", vantage=6),
            event(t=101, kind="W", path=()),
        ]

    def run(self, ingest, flush, manager):
        for item in self.lifecycle_stream():
            if item is None:
                flush()
                manager().alerts[0].resolve(20.0)
            else:
                ingest(item)
        flush()

    def test_same_stream_same_incidents_evidence_and_duplicates(self):
        from repro.tenants import DetectionPlane, TenantRegistry

        config = make_config(alert_cooldown=self.COOLDOWN)
        solo = one_tenant_plane(config)
        # Batch size 1: every event is judged before ingest returns.
        self.run(solo.ingest, lambda: None, lambda: incidents(solo).alerts)

        registry = TenantRegistry()
        registry.add_tenant(OPERATOR, config)
        plane = DetectionPlane(registry, batch_size=64)
        self.run(plane.ingest, plane.flush, lambda: incidents(plane).alerts)

        assert len(incidents(solo).alerts) == 2  # the incident and its re-fire
        assert [len(a.evidence) for a in incidents(solo).alerts.alerts] == [5, 1]
        assert solo.incident_rows() == plane.incident_rows()
        assert incidents(solo).first_evidence == incidents(plane).first_evidence
        assert incidents(solo).first_evidence[1] == {
            "ris": 10.0, "bgpmon": 12.0, "periscope": 23.0,
        }
        assert solo.duplicate_events_skipped == 2
        assert plane.duplicate_events_skipped == 2
        assert solo.events_ingested == plane.events_ingested == 7

    def test_alert_manager_exists_and_is_empty_before_any_event(self):
        plane = one_tenant_plane(make_config())
        state = incidents(plane)
        assert len(state.alerts) == 0
        assert state.alerts.cooldown == 0.0
        assert state.first_evidence == {} and state.live_at_alert == {}
        assert plane.detection_state_entries() == 0

    def test_callback_and_live_sources_recorded_inside_handle_event(self):
        artemis = make_artemis(make_config(), ("bgpmon", "ris"))
        seen = []
        artemis.on_alert(
            lambda alert: seen.append(
                (alert.id, dict(artemis.incidents.live_at_alert))
            )
        )
        artemis.detection.ingest(event(t=10))
        # Both happened before ingest returned, in this order: the audit
        # trail is on record by the time the operator callback runs.
        assert seen == [(1, {1: ("bgpmon", "ris")})]

    def test_prune_drops_live_at_alert_with_the_rest(self):
        artemis = make_artemis(make_config(alert_cooldown=self.COOLDOWN), ("ris",))
        plane, state = artemis.detection, artemis.incidents
        plane.state_retention = 100.0
        plane.ingest(event(t=10))
        assert plane.detection_state_entries() == 3
        state.alerts.alerts[0].resolve(20.0)
        assert plane.prune_state(now=50.0) == 0
        assert plane.prune_state(now=200.0) == 3
        assert state.live_at_alert == {} and state.first_evidence == {}
        assert plane.entries_pruned == 3
