"""End-to-end incident lifecycle: hijack → mitigate → hijack ends →
rollback → repeated incident handling in one continuous world."""

import pytest

from repro.core.log import IncidentLog
from repro.net.prefix import Prefix
from repro.testbed.scenario import HijackExperiment

from conftest import fast_scenario


def P(text):
    return Prefix.parse(text)


def rollback_all(mitigation):
    for action in list(mitigation.open_actions):
        mitigation.rollback(action)


@pytest.fixture
def mitigated_world():
    """A world where one hijack has been detected and fully mitigated."""
    experiment = HijackExperiment(fast_scenario(seed=11))
    experiment.setup()
    log = IncidentLog(experiment.artemis)
    result = experiment.run()
    assert result.mitigated
    return experiment, log, result


class TestRollback:
    def test_rollback_after_hijack_ends(self, mitigated_world):
        experiment, _log, _result = mitigated_world
        network = experiment.network
        # The hijacker gives up.
        experiment.hijacker.withdraw(P("10.0.0.0/23"))
        network.run_until_converged()
        # ARTEMIS ends every open incident and withdraws the de-aggregated
        # /24s (the seed re-founds the hijack once, so two actions share
        # them).  Controller programming is not BGP activity, so advance the
        # clock past its 10-20 s delay before waiting for routing convergence.
        rollback_all(experiment.artemis.mitigation)
        network.run_for(30.0)
        network.run_until_converged()
        victim = experiment.victim
        assert not victim.speaker.originates(P("10.0.0.0/24"))
        assert not victim.speaker.originates(P("10.0.1.0/24"))
        # The covering /23 is still announced and everyone routes to it.
        assert victim.speaker.originates(P("10.0.0.0/23"))
        assert experiment.tracker.all_route_to({victim.asn})

    def test_rib_sizes_shrink_after_rollback(self, mitigated_world):
        experiment, _log, _result = mitigated_world
        network = experiment.network
        probe_asn = next(
            asn for asn in network.asns()
            if asn not in (experiment.victim.asn, experiment.hijacker.asn)
        )
        before = len(network.speaker(probe_asn).loc_rib)
        experiment.hijacker.withdraw(P("10.0.0.0/23"))
        network.run_until_converged()
        rollback_all(experiment.artemis.mitigation)
        network.run_for(30.0)
        network.run_until_converged()
        after = len(network.speaker(probe_asn).loc_rib)
        assert after < before  # the /24s (and hijacked /23) are gone


class TestRepeatedIncidents:
    def test_second_hijack_same_offender_extends_alert(self, mitigated_world):
        experiment, _log, _result = mitigated_world
        network = experiment.network
        # Same offender re-announces: the incident key matches the existing
        # (unresolved-by-manager) alert, so no duplicate incident fires.
        experiment.hijacker.withdraw(P("10.0.0.0/23"))
        network.run_until_converged()
        alerts_before = len(experiment.artemis.alerts)
        actions_before = len(experiment.artemis.actions)
        experiment.hijacker.announce(P("10.0.0.0/23"))
        network.run_for(600.0)
        assert len(experiment.artemis.alerts) == alerts_before
        assert len(experiment.artemis.actions) == actions_before

    def test_new_offender_is_new_incident(self, mitigated_world):
        experiment, log, _result = mitigated_world
        network = experiment.network
        # A different AS attacks a DIFFERENT half: because the /24s are
        # already announced by the victim, the attacker must go exact.
        second_attacker = experiment.testbed.create_virtual_as(
            experiment.testbed.pick_sites(1, exclude=experiment.victim.sites)
        )
        experiment.tracker.track_speaker(second_attacker.speaker)
        second_attacker.announce(P("10.0.0.0/24"))
        network.run_for(600.0)
        offenders = {alert.offender_asn for alert in experiment.artemis.alerts}
        assert second_attacker.asn in offenders
        assert len(experiment.artemis.alerts) >= 2
        # The log captured both incidents.
        alert_entries = [e for e in log.entries if e["event"] == "alert"]
        assert len(alert_entries) >= 2

    def test_lifecycle_log_is_ordered(self, mitigated_world):
        _experiment, log, _result = mitigated_world
        times = [e["time"] for e in log.entries if e["time"] is not None]
        assert times == sorted(times)
