#!/usr/bin/env python3
"""Prevention vs detection: why ARTEMIS is needed even with RPKI.

The paper's opening premise is that hijack *prevention* "is not always
possible".  This example quantifies it on the simulator:

  1. sweep RPKI route-origin-validation (ROV) adoption and watch the
     exact-origin hijack's blast radius shrink — but not disappear until
     literally everyone validates;
  2. then launch a forged-origin (type-1) attack under FULL ROV: origin
     validation is structurally blind to it, while ARTEMIS' path check
     detects and de-aggregation repairs it.

Run:  python examples/rov_study.py [seeds_per_point]
"""

import sys

from repro.eval.experiments import run_artemis_suite
from repro.eval.report import format_duration, format_table
from repro.eval.stats import summarize
from repro.testbed import ScenarioConfig
from repro.topology import GeneratorConfig

TOPOLOGY = GeneratorConfig(num_tier1=5, num_tier2=25, num_stubs=90)


def sweep(seeds: int) -> None:
    rows = []
    for adoption in (0.0, 0.25, 0.5, 0.75, 1.0):
        template = ScenarioConfig(
            topology=TOPOLOGY,
            rov_adoption=adoption,
            auto_mitigate=False,
            observation_window=300.0,
            detection_timeout=600.0,
        )
        results = run_artemis_suite(template, seeds=range(seeds))
        peak = summarize(r.hijack_fraction_peak for r in results)
        detected = sum(1 for r in results if r.detection_delay is not None)
        rows.append([f"{adoption:.0%}", peak.mean * 100, detected, len(results)])
    print(
        format_table(
            ["ROV adoption", "mean peak hijacked (%)", "runs detected", "runs"],
            rows,
            title="Exact-origin hijack blast radius vs ROV adoption "
            "(mitigation disabled)",
        )
    )


def forged_under_full_rov(seeds: int) -> None:
    template = ScenarioConfig(
        topology=TOPOLOGY, rov_adoption=1.0, hijack_type="type-1"
    )
    results = run_artemis_suite(template, seeds=range(seeds))
    peak = summarize(r.hijack_fraction_peak for r in results)
    total = summarize(r.total_time for r in results)
    print("Forged-origin (type-1) attack with 100% ROV deployment:")
    print(f"  peak MitM capture : {peak.mean:.0%} of ASes (ROV saw nothing wrong)")
    print(f"  ARTEMIS detected  : {sum(1 for r in results if r.detection_delay is not None)}/{len(results)} (path alerts)")
    print(f"  fully mitigated   : {sum(1 for r in results if r.mitigated)}/{len(results)}")
    print(f"  mean total time   : {format_duration(total.mean)}")


def main() -> None:
    seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    sweep(seeds)
    print()
    forged_under_full_rov(seeds)


if __name__ == "__main__":
    main()
