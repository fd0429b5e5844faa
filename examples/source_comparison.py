#!/usr/bin/env python3
"""Compare monitoring sources: who detects first, and at what overhead?

Two experiments from §2 of the paper in one script:

* "By combining multiple sources, the delay of the detection phase is the
  min of the delays of these sources" — measured per source over a suite;
* "The system can be parametrized (e.g., selecting LGs ...) to achieve
  trade-offs between monitoring overhead and detection efficiency/speed" —
  a sweep over the number of looking glasses and their poll interval.

Run:  python examples/source_comparison.py [num_experiments]
"""

import sys

from repro.eval import run_artemis_suite, summarize_results
from repro.eval.experiments import per_source_detection
from repro.eval.report import SUMMARY_HEADERS, format_table, summary_rows
from repro.eval.stats import summarize
from repro.testbed import ScenarioConfig
from repro.topology import GeneratorConfig

TOPOLOGY = GeneratorConfig(num_tier1=5, num_tier2=25, num_stubs=90)


def per_source_table(count: int) -> None:
    template = ScenarioConfig(topology=TOPOLOGY)
    results = run_artemis_suite(template, seeds=range(count))
    print(
        format_table(
            ["source", *SUMMARY_HEADERS],
            summary_rows(per_source_detection(results)),
            title=f"Detection delay per source over {count} runs "
            "(combined = ARTEMIS = min over sources)",
        )
    )


def overhead_sweep(count: int) -> None:
    rows = []
    for num_lgs, poll in [(2, 300.0), (5, 120.0), (10, 120.0), (10, 60.0), (20, 30.0)]:
        template = ScenarioConfig(
            topology=TOPOLOGY,
            monitors=dict(num_lgs=num_lgs, lg_poll_interval=poll),
        )
        results = run_artemis_suite(template, seeds=range(100, 100 + count))
        detect = summarize(r.detection_delay for r in results)
        queries = summarize(
            r.lg_queries * 60.0 / max(1.0, r.hijack_time + (r.total_time or 0.0))
            for r in results
        )
        rows.append(
            [f"{num_lgs} LGs / {poll:.0f}s poll", detect.mean, queries.mean]
        )
    print(
        format_table(
            ["configuration", "mean detect (s)", "LG queries/min"],
            rows,
            title="Monitoring overhead vs detection speed (Periscope sweep)",
        )
    )


def main() -> None:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    per_source_table(count)
    print()
    overhead_sweep(max(3, count // 2))


if __name__ == "__main__":
    main()
