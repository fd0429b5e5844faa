"""The full-taxonomy regression matrix: attacker class × detection rule.

One end-to-end :class:`~repro.testbed.scenario.HijackExperiment` per
attacker class on the pinned fast world (seed 11), shared module-wide.
Each class asserts:

* the **exact rule** that must catch it (alert type and offender);
* a **latency bound** on the detection delay;
* a **golden digest** over the cell's canonical outcome (alert type,
  offender, full-precision delay, peak adoption, mitigation) — any drift
  in the world, the rules, or the harness shows up as a digest change;
* the **rule-config matrix**: replaying the alert's founding evidence
  through one-tenant plane variants proves the verdict comes from the
  matching rule (disable it → silent) and reacts to corroboration the
  way the taxonomy says it must.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import classify, fast_scenario
from repro.core.config import ArtemisConfig
from repro.eval.taxonomy import TAXONOMY
from repro.testbed.scenario import HijackExperiment

SEED = 11

#: Per-class detection-delay ceiling (simulated seconds).  Stream feeds
#: catch most classes in under ten seconds; type-2 and route-leak need a
#: vantage whose *best path* actually shifted, which can take a poll cycle.
LATENCY_BOUND = {
    "type-0": 10.0,
    "type-1": 10.0,
    "type-2": 60.0,
    "type-U": 10.0,
    "squatting": 10.0,
    "route-leak": 60.0,
}

_CACHE = {}


def run_class(hijack_type):
    """One experiment per class per test session (cells share the run)."""
    if hijack_type not in _CACHE:
        experiment = HijackExperiment(
            fast_scenario(seed=SEED, hijack_type=hijack_type)
        )
        result = experiment.run()
        _CACHE[hijack_type] = (experiment, result)
    return _CACHE[hijack_type]


def cell_digest(hijack_type, result):
    payload = {
        "hijack_type": hijack_type,
        "alert_type": result.alert_type,
        "detection_delay": repr(result.detection_delay),
        "hijack_fraction_peak": repr(result.hijack_fraction_peak),
        "mitigated": result.mitigated,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


#: Golden digests for every matrix cell (seed 11 fast world).  On an
#: intentional behavior change, re-pin from the failing assertion message,
#: which carries the observed digest and the cell's raw outcome.
GOLDEN = {
    "type-0": "2d7994f323c34964",
    "type-1": "fe4f5ef79e0ff444",
    "type-2": "ef1e17684b0796b1",
    "type-U": "57045a7cbf279e33",
    "squatting": "2334944f17e98b2a",
    "route-leak": "64a28657443362a2",
}


@pytest.mark.parametrize("hijack_type", list(TAXONOMY))
class TestTaxonomyMatrix:
    def test_expected_rule_fires(self, hijack_type):
        _, result = run_class(hijack_type)
        assert result.alert_type == TAXONOMY[hijack_type]

    def test_latency_bound(self, hijack_type):
        _, result = run_class(hijack_type)
        assert result.detection_delay is not None
        assert 0.0 < result.detection_delay <= LATENCY_BOUND[hijack_type]

    def test_mitigated(self, hijack_type):
        experiment, result = run_class(hijack_type)
        assert result.mitigated
        assert result.hijack_fraction_peak > 0.0
        # The offender recorded on the result is the attacking AS the
        # scenario actually used (the leaker for route-leak).
        if hijack_type == "route-leak":
            assert result.hijacker_asn == experiment.leaker_asn
        else:
            assert result.hijacker_asn == experiment.hijacker.asn

    def test_golden_digest(self, hijack_type):
        _, result = run_class(hijack_type)
        digest = cell_digest(hijack_type, result)
        assert digest == GOLDEN[hijack_type], (
            f"taxonomy cell drifted: {hijack_type} digest {digest} "
            f"(alert={result.alert_type} delay={result.detection_delay!r})"
        )


# ------------------------------------------------------- rule-config matrix


def variant_config(base: ArtemisConfig, **overrides) -> ArtemisConfig:
    """Rebuild the experiment's ARTEMIS config with some rules changed."""
    params = dict(
        owned=base.owned,
        owned_space=base.owned_space,
        adjacencies=base.adjacencies,
        leak_sentinels=base.leak_sentinels,
        detect_subprefix=base.detect_subprefix,
        detect_path=base.detect_path,
        detect_squatting=base.detect_squatting,
        detect_unchanged_path=base.detect_unchanged_path,
        auto_mitigate=False,
    )
    params.update(overrides)
    return ArtemisConfig(**params)


def reclassify(experiment, probe=None, **overrides):
    """Replay the first alert's founding evidence through a rule variant."""
    config = variant_config(experiment.artemis.config, **overrides)
    return classify(config, experiment.artemis.alerts[0].evidence[0], probe)


class TestRuleConfigMatrix:
    """Disable the matching rule → the class goes undetected; the
    corroboration column behaves per the taxonomy (gated vs never-gated)."""

    def test_type0_gated_by_healthy_probe(self):
        experiment, _ = run_class("type-0")
        assert reclassify(experiment) is not None
        assert reclassify(experiment, probe=lambda p: True) is None

    def test_type1_needs_detect_path(self):
        experiment, _ = run_class("type-1")
        verdict = reclassify(experiment)
        assert verdict is not None and verdict[0].value == "path"
        assert reclassify(experiment, detect_path=False) is None
        assert reclassify(experiment, probe=lambda p: True) is None

    def test_type2_needs_adjacencies(self):
        experiment, _ = run_class("type-2")
        verdict = reclassify(experiment)
        assert verdict is not None and verdict[0].value == "path-n"
        assert reclassify(experiment, adjacencies=None) is None
        assert reclassify(experiment, probe=lambda p: True) is None

    def test_typeU_needs_probe_and_flag(self):
        experiment, _ = run_class("type-U")
        # Without a data-plane probe the control plane is clean: silent.
        assert reclassify(experiment) is None
        verdict = reclassify(experiment, probe=lambda p: False)
        assert verdict is not None and verdict[0].value == "unchanged-path"
        assert (
            reclassify(experiment, probe=lambda p: False, detect_unchanged_path=False)
            is None
        )

    def test_squatting_needs_flag_and_is_never_gated(self):
        experiment, _ = run_class("squatting")
        verdict = reclassify(experiment)
        assert verdict is not None and verdict[0].value == "squatting"
        assert reclassify(experiment, detect_squatting=False) is None
        # Never gated: a healthy probe cannot silence squatting.
        verdict = reclassify(experiment, probe=lambda p: True)
        assert verdict is not None and verdict[0].value == "squatting"

    def test_route_leak_needs_sentinels_and_is_never_gated(self):
        experiment, _ = run_class("route-leak")
        verdict = reclassify(experiment)
        assert verdict is not None and verdict[0].value == "route-leak"
        assert verdict[2] == experiment.leaker_asn
        assert reclassify(experiment, leak_sentinels=None) is None
        verdict = reclassify(experiment, probe=lambda p: True)
        assert verdict is not None and verdict[0].value == "route-leak"
