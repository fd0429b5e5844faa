"""Chaos suite: fault injection against the monitoring plane.

The paper's robustness claim is that detection needs *some* live source,
not all of them: the incident delay is the min over live sources, and any
single slow or dead feed only degrades the minimum, never loses the alert.
These tests break feeds on purpose — source outages mid-hijack, latency
inflation, message loss/duplication/reordering, collector crash-restart,
vantage-session flapping — and assert exactly that, plus the substrate's
own contract: the same seed and the same plan reproduce the run bit for
bit (pinned by a golden digest).
"""

import hashlib
import itertools

import pytest

from conftest import fast_scenario
from repro.faults import Fault, FaultInjector, FaultPlan
from repro.faults.plan import FaultError
from repro.testbed.scenario import HijackExperiment

#: Digest of the golden chaos scenario (seed 5, RICH_PLAN below): the
#: full observable outcome of a faulted run, pinned so that any drift in
#: fault scheduling, channel coin flips, supervisor transitions, or
#: detection under degradation fails loudly.
GOLDEN_FAULT_DIGEST = (
    "010bc34d1ae3bfdd00ae88c8e9fa7654569f3c09ac2f94c557fbe63f1ba95984"
)

#: The pinned plan exercises every windowed fault kind at once: a
#: mid-hijack RIS outage, BGPmon latency inflation and message loss,
#: duplication + reordering on the recovered RIS feed, and a collector
#: crash-restart with RIB re-sync.
RICH_PLAN = FaultPlan(
    [
        Fault("outage", "ris", 5.0, duration=120.0),
        Fault("delay", "bgpmon", 0.0, duration=300.0, factor=2.0, add=10.0),
        Fault("loss", "bgpmon", 0.0, duration=300.0, probability=0.3),
        Fault("dup", "ris", 130.0, duration=100.0, probability=0.5),
        Fault("reorder", "ris", 130.0, duration=100.0, probability=0.5, jitter=3.0),
        Fault("collector_crash", "ris-rrc00", 150.0, duration=30.0),
    ],
    seed=13,
    name="rich",
)


def chaos_config(seed=5, faults=None, **overrides):
    """The golden scenario plus a sub-prefix hijack, so the more-specific
    wins everywhere and *every* source produces evidence — the setting
    where min-over-sources is actually a race."""
    return fast_scenario(
        seed=seed, hijack_prefix="10.0.0.0/24", faults=faults, **overrides
    )


def run_chaos(seed=5, faults=None, **overrides):
    experiment = HijackExperiment(chaos_config(seed=seed, faults=faults, **overrides))
    return experiment, experiment.run()


def kill_plan(sources, at=0.0, duration=3600.0):
    return FaultPlan(
        [Fault("outage", source, at, duration=duration) for source in sources],
        name="kill-" + "+".join(sources),
    )


def outcome_digest(result) -> str:
    material = repr(
        (
            result.detection_delay,
            sorted(result.per_source_delay.items()),
            sorted(result.per_source_delay_final.items()),
            sorted(result.sources_live_at_alert),
            sorted(
                (name, sorted(report.items()))
                for name, report in result.source_report.items()
            ),
            sorted(result.source_lag.items()),
            result.faults_injected,
            [tuple(entry) for entry in result.fault_log],
            result.alert_type,
            result.total_time,
        )
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


# --------------------------------------------------------------- plan layer


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            Fault("meteor", "ris", 0.0)

    def test_window_kinds_need_duration(self):
        for kind in ("delay", "loss", "dup", "reorder", "collector_crash", "flap"):
            with pytest.raises(FaultError):
                Fault(kind, "ris", 0.0, vantage=1)

    def test_negative_time_rejected(self):
        with pytest.raises(FaultError):
            Fault("outage", "ris", -1.0)

    def test_probability_bounds(self):
        with pytest.raises(FaultError):
            Fault("loss", "ris", 0.0, duration=10.0, probability=1.5)

    def test_flap_needs_vantage(self):
        with pytest.raises(FaultError):
            Fault("flap", "ris-rrc00", 0.0, duration=10.0)

    def test_json_roundtrip(self):
        rebuilt = FaultPlan.from_json(RICH_PLAN.to_json())
        assert rebuilt.to_dict() == RICH_PLAN.to_dict()
        assert rebuilt.name == "rich" and rebuilt.seed == 13

    def test_unknown_fields_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan.from_dict({"faults": [], "surprise": 1})
        with pytest.raises(FaultError):
            FaultPlan.from_dict({"faults": [{"kind": "outage", "target": "x", "at": 0, "color": "red"}]})

    def test_config_accepts_plan_dict(self):
        config = chaos_config(faults=RICH_PLAN.to_dict())
        assert config.faults.to_dict() == RICH_PLAN.to_dict()

    def test_config_loads_plan_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(RICH_PLAN.to_json(), encoding="utf-8")
        config = chaos_config(faults=str(path))
        assert config.faults.to_dict() == RICH_PLAN.to_dict()


class TestInjectorResolution:
    def test_unknown_target_fails_at_setup(self):
        experiment = HijackExperiment(
            chaos_config(faults=FaultPlan([Fault("outage", "nsa-feed", 0.0)]))
        )
        with pytest.raises(FaultError):
            experiment.setup()

    def test_flap_vantage_must_feed_collector(self):
        experiment = HijackExperiment(chaos_config())
        experiment.setup()
        bogus = FaultPlan(
            [Fault("flap", "ris-rrc00", 0.0, duration=10.0, vantage=999999)]
        )
        with pytest.raises(FaultError):
            FaultInjector(experiment.network, experiment.monitors, bogus)

    def test_outage_can_target_the_rib_archive(self):
        plan = FaultPlan([Fault("outage", "rib-only", 5.0, duration=120.0)])
        experiment, result = run_chaos(faults=plan, enabled_sources=("rib-dump",))
        assert experiment.monitors.rib_archive.name == "rib-only"
        assert [entry[1:] for entry in result.fault_log] == [
            ["outage", "rib-only"],
            ["recovery", "rib-only"],
        ]
        assert result.fault_log[0][0] == result.hijack_time + 5.0

    def test_double_arm_rejected(self):
        experiment = HijackExperiment(chaos_config())
        experiment.setup()
        injector = FaultInjector(
            experiment.network, experiment.monitors, kill_plan(["ris"])
        )
        injector.arm(0.0)
        with pytest.raises(FaultError):
            injector.arm(0.0)


# ------------------------------------------------------- the paper's claim


SOURCES = ("ris", "bgpmon", "periscope")


class TestKillKofN:
    """Killing k of n sources never loses the alert while >= 1 is live."""

    @pytest.mark.parametrize(
        "killed",
        [c for k in (1, 2) for c in itertools.combinations(SOURCES, k)],
        ids=lambda c: "+".join(c),
    )
    def test_alert_survives(self, killed):
        _exp, result = run_chaos(faults=kill_plan(killed))
        assert result.detection_delay is not None
        # Evidence never comes from a source that was dead the whole time.
        assert not set(result.per_source_delay_final) & set(killed)
        # The supervisor noticed every kill, behaviourally.
        for source in killed:
            assert result.source_report[source]["state"] == "dead"
            assert result.source_report[source]["reconnect_attempts"] > 0

    def test_live_at_alert_excludes_confirmed_dead_sources(self):
        # Tight supervision so the kill is *confirmed* before the alert
        # fires (the default 30 s staleness timeout is honest: an alert
        # arriving inside the suspicion window still believes the feed is
        # live — behavioural detection, no oracle).
        _exp, result = run_chaos(
            faults=kill_plan(["periscope"]),
            supervision=dict(check_interval=1.0, staleness_timeout=5.0),
        )
        assert result.detection_delay is not None
        assert "periscope" not in result.sources_live_at_alert
        assert set(result.sources_live_at_alert) == {"ris", "bgpmon"}

    def test_all_sources_dead_loses_detection(self):
        _exp, result = run_chaos(
            faults=kill_plan(SOURCES),
            detection_timeout=400.0,
            observation_window=60.0,
        )
        assert result.detection_delay is None
        assert result.sources_live_at_alert == []

    def test_detection_delay_is_min_over_sources(self):
        _exp, result = run_chaos()
        assert result.per_source_delay_final
        assert result.detection_delay == min(result.per_source_delay_final.values())

    def test_min_over_sources_holds_under_kill(self):
        _exp, result = run_chaos(faults=kill_plan(["periscope"]))
        assert result.detection_delay == min(result.per_source_delay_final.values())


class TestMidHijackKill:
    def test_killing_fastest_degrades_to_next_fastest(self):
        _exp, baseline = run_chaos()
        fastest = min(
            baseline.per_source_delay_final, key=baseline.per_source_delay_final.get
        )
        survivors = {
            source: delay
            for source, delay in baseline.per_source_delay_final.items()
            if source != fastest
        }
        # Kill the winner before its first evidence lands.
        kill_at = baseline.per_source_delay_final[fastest] / 2.0
        _exp2, degraded = run_chaos(
            faults=kill_plan([fastest], at=kill_at, duration=3600.0)
        )
        assert degraded.detection_delay is not None
        assert fastest not in degraded.per_source_delay_final
        assert degraded.detection_delay > baseline.detection_delay
        # Degrades to the next-fastest live source, not to nothing: the
        # surviving sources' own evidence timing is unchanged by the kill.
        assert degraded.detection_delay == pytest.approx(min(survivors.values()))

    def test_fastest_source_recovers_after_outage_window(self):
        _exp, baseline = run_chaos()
        fastest = min(
            baseline.per_source_delay_final, key=baseline.per_source_delay_final.get
        )
        _exp2, result = run_chaos(faults=kill_plan([fastest], at=1.0, duration=90.0))
        report = result.source_report[fastest]
        assert report["state"] == "live"
        assert report["outages"] == 1
        assert report["downtime"] > 0.0
        assert report["reconnect_attempts"] >= 1


# ---------------------------------------------------------- other fault kinds


class TestDelayAndChannelFaults:
    def test_delay_fault_inflates_realized_lag(self):
        _exp, baseline = run_chaos()
        plan = FaultPlan(
            [Fault("delay", "ris", 0.0, duration=3600.0, factor=3.0, add=30.0)]
        )
        _exp2, slowed = run_chaos(faults=plan)
        assert slowed.source_lag["ris"] > baseline.source_lag["ris"] * 2.0
        # The other feeds are untouched.
        assert slowed.source_lag["periscope"] == pytest.approx(
            baseline.source_lag["periscope"]
        )

    def test_total_loss_on_a_source_is_an_outage(self):
        plan = FaultPlan(
            [Fault("loss", "ris", 0.0, duration=3600.0, probability=1.0)]
        )
        exp, result = run_chaos(faults=plan)
        assert result.detection_delay is not None
        assert "ris" not in result.per_source_delay_final
        dropped = sum(
            c.fault_channel.messages_dropped
            for c in exp.monitors.ris.collectors
            if c.fault_channel is not None
        )
        assert dropped > 0

    def test_duplication_does_not_double_alert(self):
        plan = FaultPlan(
            [Fault("dup", "ris", 0.0, duration=3600.0, probability=1.0)]
        )
        exp, result = run_chaos(faults=plan)
        hijack_alerts = [
            a
            for a in exp.artemis.alerts
            if a.offender_asn == result.hijacker_asn
        ]
        assert len(hijack_alerts) == 1
        duplicated = sum(
            c.fault_channel.messages_duplicated
            for c in exp.monitors.ris.collectors
            if c.fault_channel is not None
        )
        assert duplicated > 0

    def test_collector_crash_restart_resyncs_rib(self):
        plan = FaultPlan(
            [Fault("collector_crash", "ris-rrc00", 20.0, duration=40.0)]
        )
        exp, result = run_chaos(faults=plan)
        box = next(
            c for c in exp.monitors.ris.collectors if c.name == "ris-rrc00"
        )
        assert box.crashes == 1
        assert box.up
        # The re-established monitor sessions replayed their full feeds.
        assert box.table
        assert result.detection_delay is not None
        actions = [entry[1] for entry in result.fault_log]
        assert "crash" in actions and "restart" in actions

    def test_outage_on_one_looking_glass(self):
        probe = HijackExperiment(chaos_config())
        probe.setup()
        name = probe.monitors.periscope.looking_glasses[0].name
        plan = FaultPlan([Fault("outage", name, 5.0, duration=120.0)])
        exp, result = run_chaos(faults=plan)
        start = result.hijack_time + 5.0
        assert [tuple(entry) for entry in result.fault_log] == [
            (start, "lg-fail", name),
            (start + 120.0, "lg-repair", name),
        ]
        failed, *others = exp.monitors.periscope.looking_glasses
        assert failed.failures == 1 and failed.up
        assert [lg.failures for lg in others] == [0] * len(others)
        answers = []
        failed.query(exp.config.prefix, lambda observed_at, rows: answers.append(rows))
        exp.network.engine.run_for(3600.0)
        assert answers and answers[0]

    def test_flap_cycles_one_vantage_session(self):
        exp0 = HijackExperiment(chaos_config())
        exp0.setup()
        box = next(
            c for c in exp0.monitors.ris.collectors if c.name == "ris-rrc00"
        )
        vantage = box.vantage_asns[0]
        plan = FaultPlan(
            [
                Fault(
                    "flap",
                    "ris-rrc00",
                    10.0,
                    duration=60.0,
                    period=20.0,
                    vantage=vantage,
                )
            ]
        )
        exp, result = run_chaos(faults=plan)
        downs = [e for e in result.fault_log if e[1] == "flap-down"]
        ups = [e for e in result.fault_log if e[1] == "flap-up"]
        assert len(downs) >= 2 and len(ups) >= 2
        session = exp.network._find_session(vantage, box.asn)
        assert session.up  # left restored after the window
        assert result.detection_delay is not None


class TestFailover:
    def test_batch_failover_saves_the_alert_when_all_live_sources_die(self):
        _exp, result = run_chaos(
            faults=kill_plan(("ris", "bgpmon", "periscope")),
            failover_to_batch=True,
            detection_timeout=2500.0,
            observation_window=60.0,
        )
        assert result.detection_delay is not None
        assert "batch" in result.per_source_delay_final or any(
            "routeviews" in s for s in result.per_source_delay_final
        )

    def test_backups_stay_out_of_healthy_runs(self):
        exp, result = run_chaos(failover_to_batch=True)
        assert not exp.supervisor.failover_engaged
        assert result.detection_delay is not None
        assert set(result.per_source_delay_final) <= {"ris", "bgpmon", "periscope"}


# ------------------------------------------------------------- determinism


class TestFaultDeterminism:
    def test_same_seed_same_plan_bit_identical(self):
        first_exp, first = run_chaos(faults=RICH_PLAN)
        second_exp, second = run_chaos(faults=RICH_PLAN)
        assert outcome_digest(first) == outcome_digest(second)
        assert first.fault_log == second.fault_log
        assert first_exp.supervisor.transitions == second_exp.supervisor.transitions
        assert [
            (a.id, a.type, a.detected_at) for a in first_exp.artemis.alerts
        ] == [(a.id, a.type, a.detected_at) for a in second_exp.artemis.alerts]

    def test_different_scenario_seed_changes_channel_coins(self):
        _e1, a = run_chaos(seed=5, faults=RICH_PLAN)
        _e2, b = run_chaos(seed=6, faults=RICH_PLAN)
        assert outcome_digest(a) != outcome_digest(b)

    def test_golden_fault_digest_matches_pin(self):
        _exp, result = run_chaos(faults=RICH_PLAN)
        assert outcome_digest(result) == GOLDEN_FAULT_DIGEST

    def test_plan_is_not_mutated_by_the_run(self):
        before = RICH_PLAN.to_json()
        run_chaos(faults=RICH_PLAN)
        assert RICH_PLAN.to_json() == before
