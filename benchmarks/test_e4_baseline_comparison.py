"""E4 — §1 motivation: ARTEMIS vs the third-party + manual status quo.

The paper motivates ARTEMIS with the delays of the existing pipeline:
batch data (2 h RIBs / 15 min update files), third-party notifications,
manual verification and manual reconfiguration (YouTube: ~80 min reaction).

Regenerates the end-to-end comparison: the same hijack, defended by
(a) ARTEMIS, (b) an Argus-style live third-party service with a prompt
operator, (c) a PHAS-style batch service with a typical operator, and
(d) RIB-dump-only detection.  Shape: ARTEMIS completes in minutes; every
baseline is at least several times slower end-to-end, ordered
argus < phas < rib-dump on detection.
"""

from conftest import LIGHT_CHURN, bench_scenario, run_once

from repro.baselines import PROFILES
from repro.eval.experiments import run_artemis_suite
from repro.eval.report import format_table
from repro.eval.stats import summarize

SEEDS = range(3)


def _scenario(**defender):
    return bench_scenario(churn=LIGHT_CHURN, **defender)


def _run_all():
    artemis = run_artemis_suite(_scenario(), seeds=SEEDS)
    rows = {
        "artemis": {
            "detect": summarize(r.detection_delay for r in artemis),
            "react": summarize(r.announce_delay for r in artemis),
            "total": summarize(r.total_time for r in artemis),
        }
    }
    for name in ("argus", "phas", "rib-dump"):
        results = run_artemis_suite(_scenario(**PROFILES[name]), seeds=SEEDS)
        rows[name] = {
            "detect": summarize(r.detection_delay for r in results),
            "react": summarize(r.announce_delay for r in results),
            "total": summarize(r.total_time for r in results),
        }
    return rows


def test_e4_baseline_comparison(benchmark):
    rows = run_once(benchmark, _run_all)
    table = format_table(
        ["system", "detect mean (min)", "reaction mean (min)", "total mean (min)"],
        [
            [
                name,
                data["detect"].mean / 60.0,
                data["react"].mean / 60.0,
                data["total"].mean / 60.0,
            ]
            for name, data in rows.items()
        ],
        title="E4: end-to-end outage, ARTEMIS vs third-party+manual pipelines",
        precision=2,
    )
    print("\n" + table)
    benchmark.extra_info["table"] = table

    artemis_total = rows["artemis"]["total"].mean
    assert artemis_total < 10 * 60.0, "ARTEMIS must finish in minutes"
    for name in ("argus", "phas", "rib-dump"):
        assert rows[name]["total"].count == len(list(SEEDS)), f"{name} never finished"
        # Every baseline at least 2x slower end-to-end; batch ones much more.
        assert rows[name]["total"].mean > 2 * artemis_total, name
    assert rows["phas"]["total"].mean > 4 * artemis_total
    # Detection ordering: live stream < batch updates < RIB dumps.
    assert (
        rows["argus"]["detect"].mean
        < rows["phas"]["detect"].mean
        < rows["rib-dump"]["detect"].mean
    )
    # The human reaction dominates even the fast-detecting baseline (the
    # paper's core argument for automation).
    assert rows["argus"]["react"].mean > 3 * rows["artemis"]["react"].mean
