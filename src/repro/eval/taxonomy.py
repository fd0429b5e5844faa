"""Taxonomy accuracy×delay matrix: every attacker class vs its detection rule.

The paper's Table 1 pairs each hijack class with the ARTEMIS rule that
catches it; this module sweeps the full attacker taxonomy implemented by
:class:`~repro.testbed.scenario.HijackExperiment` and scores, per class:

* **TP** — runs where the first alert carries the class's expected rule;
* **misclassified** — runs alerting under a *different* rule (still
  detected, but the evidence is attributed wrong);
* **FN** — runs with no alert at all;
* **detection delay** — hijack instant → first alert, per run and mean.

False positives cannot come out of the attack runs (every run contains a
real hijack), so :func:`run_false_positive_suite` scores them separately:
benign control-plane events that *look* like hijacks — a legitimate MOAS
origin, a new peering, the operator's own de-aggregation — replayed
through a fully-armed one-tenant detection plane
(:func:`~repro.tenants.pipeline.one_tenant_plane`) with a healthy
data-plane probe.  With Oscilloscope-style corroboration
every one of them must stay silent; without it the MOAS and new-peering
cases alert, which is exactly the trade-off the matrix records.

``repro taxonomy`` (CLI) and ``benchmarks/test_taxonomy.py`` both drive
:func:`run_taxonomy_matrix`; the benchmark pins the result as
``benchmarks/BENCH_taxonomy.json``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.alerts import AlertType
from repro.core.config import ArtemisConfig, OwnedPrefix, OwnedSpace
from repro.eval.stats import summarize
from repro.feeds.events import ANNOUNCE, FeedEvent
from repro.net.prefix import Prefix
from repro.tenants.pipeline import OPERATOR, one_tenant_plane
from repro.testbed.scenario import HijackExperiment, ScenarioConfig
from repro.topology.generator import GeneratorConfig

#: Attacker class → the rule expected to catch it (alert type values).
TAXONOMY: Dict[str, str] = {
    "type-0": AlertType.EXACT_ORIGIN.value,
    "type-1": AlertType.PATH.value,
    "type-2": AlertType.PATH_N.value,
    "type-U": AlertType.UNCHANGED_PATH.value,
    "squatting": AlertType.SQUATTING.value,
    "route-leak": AlertType.ROUTE_LEAK.value,
}


def default_params() -> Dict:
    """Constructor kwargs for the small, churn-free world the matrix
    sweeps (fast, deterministic).

    Matches the test suite's ``fast_scenario`` preset so matrix cells and
    the regression tests agree on the world per seed.
    """
    return dict(
        topology=GeneratorConfig(num_tier1=3, num_tier2=10, num_stubs=25),
        churn=None,
        baseline_settle=60.0,
        churn_warmup=0.0,
        monitors=dict(
            num_ris_vantages=6,
            num_bgpmon_vantages=4,
            num_lgs=4,
            lg_poll_interval=30.0,
            num_batch_vantages=4,
        ),
    )


def run_taxonomy_cell(hijack_type: str, seed: int) -> Dict:
    """Run one (class, seed) cell and score it against the expected rule."""
    expected = TAXONOMY[hijack_type]
    config = ScenarioConfig(seed=seed, hijack_type=hijack_type, **default_params())
    result = HijackExperiment(config).run()
    detected = result.alert_type is not None
    return {
        "hijack_type": hijack_type,
        "seed": seed,
        "expected_alert": expected,
        "alert_type": result.alert_type,
        "outcome": (
            "tp"
            if result.alert_type == expected
            else ("misclassified" if detected else "fn")
        ),
        "detection_delay": result.detection_delay,
        "total_time": result.total_time,
        "mitigated": result.mitigated,
        "hijack_fraction_peak": result.hijack_fraction_peak,
        "offender_asn": result.hijacker_asn,
    }


def run_taxonomy_matrix(seeds: Sequence[int]) -> Dict:
    """Sweep every taxonomy class × ``seeds`` and aggregate TP/misclass/FN
    × delay."""
    classes = list(TAXONOMY)
    cells: List[Dict] = [
        run_taxonomy_cell(hijack_type, seed)
        for hijack_type in classes
        for seed in seeds
    ]
    per_class: Dict[str, Dict] = {}
    for hijack_type in classes:
        rows = [c for c in cells if c["hijack_type"] == hijack_type]
        delays = [
            c["detection_delay"] for c in rows if c["detection_delay"] is not None
        ]
        summary = summarize(delays) if delays else None
        per_class[hijack_type] = {
            "expected_alert": TAXONOMY[hijack_type],
            "runs": len(rows),
            "tp": sum(1 for c in rows if c["outcome"] == "tp"),
            "misclassified": sum(
                1 for c in rows if c["outcome"] == "misclassified"
            ),
            "fn": sum(1 for c in rows if c["outcome"] == "fn"),
            "mitigated": sum(1 for c in rows if c["mitigated"]),
            "detection_delay_mean": summary.mean if summary else None,
            "detection_delay_max": summary.maximum if summary else None,
        }
    total = len(cells)
    return {
        "seeds": list(seeds),
        "classes": classes,
        "cells": cells,
        "per_class": per_class,
        "accuracy": (
            sum(1 for c in cells if c["outcome"] == "tp") / total if total else None
        ),
    }


# --------------------------------------------------------- false positives


def _benign_event(prefix: str, path: Sequence[int], vantage: int) -> FeedEvent:
    return FeedEvent(
        source="ris",
        collector="rrc00",
        vantage_asn=vantage,
        kind=ANNOUNCE,
        prefix=Prefix.parse(prefix),
        as_path=path,
        observed_at=1.0,
        delivered_at=2.0,
    )


def false_positive_scenarios() -> List[Dict]:
    """The benign look-alike events (owned /23 = 10.0.0.0/23, origin 64500,
    upstream 64501, space /22 also held by 64500)."""
    return [
        {
            "name": "legit-moas",
            "events": [
                # Anycast: a second, legitimate-but-unconfigured origin
                # announces the exact owned prefix.  Control plane alone
                # calls this exact-origin; the healthy probe gates it.
                _benign_event("10.0.0.0/23", [64510, 64999], 64510),
            ],
        },
        {
            "name": "new-peering",
            "events": [
                # The real origin via a brand-new upstream (not in the
                # configured upstream set) and a link missing from the
                # learned adjacency map: path + path-n look-alikes.
                _benign_event("10.0.0.0/23", [64510, 64777, 64500], 64510),
            ],
        },
        {
            "name": "benign-deaggregation",
            "events": [
                # The operator splits their own /23 into /24s (traffic
                # engineering): more-specifics with the legit origin.
                _benign_event("10.0.0.0/24", [64510, 64501, 64500], 64510),
                _benign_event("10.0.1.0/24", [64510, 64501, 64500], 64510),
            ],
        },
    ]


def run_false_positive_suite(corroborate: bool = True) -> Dict:
    """Replay the benign scenarios through a fully-armed detector.

    With ``corroborate`` a healthy data-plane probe gates the
    low-confidence rules; the acceptance criterion is **zero** alerts.
    Without it the control-plane-only verdicts fire — recorded so the
    matrix shows what corroboration buys.
    """
    adjacencies = {
        64500: {64501},
        64501: {64500, 64510},
        64510: {64501},
    }
    config = ArtemisConfig(
        owned=[OwnedPrefix(Prefix.parse("10.0.0.0/23"), {64500}, {64501})],
        owned_space=[OwnedSpace(Prefix.parse("10.0.0.0/22"), {64500})],
        adjacencies=adjacencies,
        leak_sentinels={64999},
        auto_mitigate=False,
    )
    results = []
    for scenario in false_positive_scenarios():
        plane = one_tenant_plane(config)
        if corroborate:
            plane.corroborator = lambda prefix: True
        for event in scenario["events"]:
            plane.ingest(event)
        alerts = plane.tenant_state(OPERATOR).alerts.alerts
        results.append(
            {
                "name": scenario["name"],
                "events": len(scenario["events"]),
                "false_positives": len(alerts),
                "alert_types": sorted(alert.type.value for alert in alerts),
            }
        )
    return {
        "corroborate": corroborate,
        "scenarios": results,
        "total_false_positives": sum(r["false_positives"] for r in results),
    }
