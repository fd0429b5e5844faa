#!/usr/bin/env python3
"""Reproduce Section 3 of the paper: "a few dozen" hijack experiments.

Runs N seeded repetitions of the three-phase PEERING-style experiment and
prints the aggregate timing table the paper reports in prose:

    "ARTEMIS needs (on average) 45secs to detect the hijacking, 15secs to
     announce the de-aggregated /24 prefixes (through the controller), and,
     after that, the mitigation is completed within 5mins."

Run:  python examples/peering_experiments.py [num_experiments]
(Defaults to 10 so it finishes in under a minute; the paper used ~30.)
"""

import sys

from repro.eval import run_artemis_suite, summarize_results
from repro.eval.experiments import per_source_detection
from repro.eval.report import (
    SUMMARY_HEADERS,
    format_duration,
    format_table,
    summary_rows,
)
from repro.testbed import ScenarioConfig
from repro.topology import GeneratorConfig


def main() -> None:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    template = ScenarioConfig(
        prefix="10.0.0.0/23",
        topology=GeneratorConfig(num_tier1=5, num_tier2=25, num_stubs=90),
    )
    print(f"running {count} experiments ...")
    results = run_artemis_suite(
        template,
        seeds=range(count),
        on_result=lambda r: print(
            f"  seed {r.seed}: detect={format_duration(r.detection_delay)} "
            f"announce={format_duration(r.announce_delay)} "
            f"total={format_duration(r.total_time)} "
            f"peak-hijacked={r.hijack_fraction_peak:.0%}"
        ),
    )
    print()
    summaries = summarize_results(results)
    print(
        format_table(
            ["metric", *SUMMARY_HEADERS],
            summary_rows(summaries),
            title="Section 3 timings (paper: detect ~45s, announce ~15s, "
            "complete <5min, total ~6min)",
        )
    )
    print()
    print(
        format_table(
            ["source", *SUMMARY_HEADERS],
            summary_rows(per_source_detection(results)),
            title="Detection delay per source (combined = min over sources)",
        )
    )
    mitigated = sum(1 for r in results if r.mitigated)
    print(f"\nfully mitigated: {mitigated}/{len(results)}")


if __name__ == "__main__":
    main()
