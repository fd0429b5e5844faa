"""E1 — §3 headline timings over a suite of experiments.

Paper (prose): "ARTEMIS needs (on average) 45secs to detect the hijacking,
15secs to announce the de-aggregated /24 prefixes (through the controller),
and, after that, the mitigation is completed within 5mins.  In total, the
hijacking is completely mitigated around 6mins after it has been launched."

Shape asserted here: detection well under 2 minutes, announcement in the
controller's 10–20 s band, mean completion within 5 minutes, total in the
minutes regime, and every run fully mitigated.
"""

from conftest import bench_scenario, run_once

from repro.eval.experiments import run_artemis_suite, summarize_results
from repro.eval.report import SUMMARY_HEADERS, format_table, summary_rows

SEEDS = range(10)


def test_e1_headline_timings(benchmark):
    results = run_once(
        benchmark,
        lambda: run_artemis_suite(bench_scenario(), seeds=SEEDS),
    )
    summaries = summarize_results(results)
    table = format_table(
        ["metric", *SUMMARY_HEADERS],
        summary_rows(summaries),
        title="E1: three-phase timings "
        "(paper: detect ~45s / announce ~15s / complete <5min / total ~6min)",
    )
    print("\n" + table)
    benchmark.extra_info["table"] = table
    for name in ("detection_delay", "announce_delay", "completion_delay", "total_time"):
        benchmark.extra_info[name + "_mean"] = summaries[name].mean

    detect = summaries["detection_delay"]
    announce = summaries["announce_delay"]
    complete = summaries["completion_delay"]
    total = summaries["total_time"]

    assert detect.count == len(list(SEEDS)), "every run must detect the hijack"
    assert all(r.mitigated for r in results), "every run must fully recover"
    # Detection: sub-minute regime (paper mean 45 s; <1 min claimed).
    assert detect.mean < 120.0
    assert detect.mean > 5.0, "detection cannot beat feed latency floors"
    # Announcement: the controller programming band (paper ~15 s).
    assert 8.0 <= announce.mean <= 25.0
    # Completion dominates and lands within the paper's 5-minute bound.
    assert complete.mean < 300.0
    assert complete.mean > 2 * detect.mean, "completion must dominate detection"
    # Total: minutes, not seconds, not hours (paper ~6 min).
    assert 60.0 < total.mean < 600.0
