"""Tests for the incident log."""

import json

import pytest

from repro.core.log import IncidentLog
from repro.testbed.scenario import HijackExperiment

from conftest import fast_scenario


class TestIncidentLog:
    @pytest.fixture(scope="class")
    def experiment_and_log(self):
        experiment = HijackExperiment(fast_scenario(seed=11))
        experiment.setup()
        log = IncidentLog(experiment.artemis)
        result = experiment.run()
        return experiment, log, result

    def test_alert_logged(self, experiment_and_log):
        _experiment, log, _result = experiment_and_log
        alerts = [e for e in log.entries if e["event"] == "alert"]
        assert len(alerts) == 1
        entry = alerts[0]
        assert entry["type"] == "exact-origin"
        assert entry["owned_prefix"] == "10.0.0.0/23"
        assert entry["first_source"] in ("ris", "bgpmon", "periscope")

    def test_mitigation_logged_after_alert(self, experiment_and_log):
        _experiment, log, _result = experiment_and_log
        kinds = [e["event"] for e in log.entries]
        assert kinds.index("alert") < kinds.index("mitigation-announced")
        action_entry = next(
            e for e in log.entries if e["event"] == "mitigation-announced"
        )
        assert action_entry["strategy"] == "deaggregate"
        assert len(action_entry["prefixes"]) == 2

    def test_resolution_recordable(self, experiment_and_log):
        experiment, log, _result = experiment_and_log
        alert = experiment.artemis.alerts[0]
        log.record_resolution(alert)
        assert log.entries[-1]["event"] == "resolved"

    def test_for_alert_filters(self, experiment_and_log):
        experiment, log, _result = experiment_and_log
        alert_id = experiment.artemis.alerts[0].id
        entries = log.for_alert(alert_id)
        assert entries and all(e["alert_id"] == alert_id for e in entries)

    def test_json_and_text_render(self, experiment_and_log):
        _experiment, log, _result = experiment_and_log
        payload = json.loads(log.to_json())
        assert isinstance(payload, list) and payload
        text = log.to_text()
        assert "ALERT" in text and "MITIGATE" in text

