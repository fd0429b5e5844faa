#!/usr/bin/env python3
"""Type-1 (forged path) hijack: origin checks pass, path validation catches it.

A smarter attacker does not claim to *be* the victim — it claims to be
*directly connected* to the victim, announcing ``[attacker, victim]`` paths.
Every origin-AS check in the world says the announcement is fine; traffic
still flows to the attacker (a man-in-the-middle position).

ARTEMIS' configuration comes from the operator, so it can go further: the
operator lists their real upstream ASNs, and any path where the hop next to
the origin is not one of them raises a ``path`` alert.  Mitigation is the
same de-aggregation as ever — the more-specifics pull traffic back through
the real upstreams.

Run:  python examples/forged_path_hijack.py [seed]
"""

import sys

from repro.eval.report import format_duration, format_series
from repro.testbed import HijackExperiment, ScenarioConfig
from repro.topology import GeneratorConfig


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    config = ScenarioConfig(
        seed=seed,
        topology=GeneratorConfig(num_tier1=5, num_tier2=25, num_stubs=90),
        hijack_type="type-1",
    )
    experiment = HijackExperiment(config)
    print(f"running forged-path hijack experiment (seed {seed}) ...")
    result = experiment.run()

    print()
    print(f"victim AS{result.victim_asn} announces {result.prefix} via sites "
          f"{experiment.victim.sites}")
    print(f"attacker AS{result.hijacker_asn} forges "
          f"[{result.hijacker_asn} {result.victim_asn}] paths")
    print()
    print(f"alert type          : {result.alert_type}  "
          "(origin checks alone would stay silent)")
    print(f"detection delay     : {format_duration(result.detection_delay)}")
    print(f"announce delay      : {format_duration(result.announce_delay)}")
    print(f"completion delay    : {format_duration(result.completion_delay)}")
    print(f"TOTAL               : {format_duration(result.total_time)}")
    print(f"peak MitM capture   : {result.hijack_fraction_peak:.0%} of ASes "
          "had the attacker on-path")
    print(f"residual capture    : {result.residual_hijack_fraction:.0%}")
    print()
    print(
        format_series(
            result.ground_truth_series,
            title="fraction of ASes with attacker-free paths",
            width=64,
        )
    )


if __name__ == "__main__":
    main()
