#!/usr/bin/env python3
"""Replay of the February 2008 YouTube hijack, with and without ARTEMIS.

Pakistan Telecom (AS17557) announced 208.65.153.0/24 — a *more specific* of
YouTube's (AS36561) 208.65.152.0/22 — and the whole Internet followed the
longer match.  YouTube's operators reacted manually after ~80 minutes; the
paper's motivation is exactly this incident.

This example builds the scenario on the simulator:

  1. the victim announces its /22;
  2. the hijacker announces the /24 more-specific → most ASes flip;
  3a. WITH ARTEMIS: the sub-prefix alert fires within seconds-to-a-minute
      and a competitive /24 counter-announcement goes out automatically
      (the /24 cannot be out-de-aggregated — ISPs filter >/24 — so recovery
      is partial: the paper's stated limitation);
  3b. WITHOUT ARTEMIS: a realistic 2008 pipeline (batch-archive third-party
      alert + manual verification + manual reconfiguration) takes the best
      part of an hour before anything changes.

Run:  python examples/youtube_hijack.py [seed]
"""

import sys

from repro.baselines import PROFILES
from repro.eval.report import format_duration
from repro.testbed import HijackExperiment, ScenarioConfig
from repro.topology import GeneratorConfig


def scenario(seed: int, **defender) -> ScenarioConfig:
    return ScenarioConfig(
        prefix="208.65.152.0/22",        # YouTube's covering prefix
        hijack_prefix="208.65.153.0/24",  # what Pakistan Telecom announced
        seed=seed,
        topology=GeneratorConfig(num_tier1=5, num_tier2=25, num_stubs=90),
        observation_window=900.0,
        **defender,
    )


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2008

    print("=== WITH ARTEMIS (automatic sub-prefix response) ===")
    result = HijackExperiment(scenario(seed)).run()
    print(f"alert type          : {result.alert_type}")
    print(f"detection delay     : {format_duration(result.detection_delay)}")
    print(f"announce delay      : {format_duration(result.announce_delay)}")
    print(f"strategy            : {result.strategy}")
    print(f"peak hijack adoption: {result.hijack_fraction_peak:.0%}")
    print(f"residual hijacked   : {result.residual_hijack_fraction:.0%}")
    if result.mitigated:
        print(f"TOTAL outage        : {format_duration(result.total_time)}")
    else:
        print(
            "NOTE: the hijacked /24 cannot be out-de-aggregated (ISPs filter "
            ">/24), so the automatic competitive announcement only recovers "
            "part of the Internet — the limitation §2 of the paper calls out."
        )

    print()
    print("=== WITHOUT ARTEMIS (2008 reality: third-party alert + manual ops) ===")
    # The same experiment, defended by a PHAS-style service and a human.
    baseline = HijackExperiment(scenario(seed, **PROFILES["phas"])).run()
    print(f"detection delay     : {format_duration(baseline.detection_delay)}")
    print(f"operator reaction   : {format_duration(baseline.announce_delay)}")
    print(f"residual hijacked   : {baseline.residual_hijack_fraction:.0%}")
    total = (
        format_duration(baseline.total_time)
        if baseline.mitigated
        else f"outage still partial after the operator acted "
        f"({format_duration(baseline.detection_delay + baseline.announce_delay)}"
        f" until any countermeasure existed)"
    )
    print(f"TOTAL outage        : {total}")
    print()
    print(
        "(YouTube's real outage lasted >2 hours; operators reacted ~80 min "
        "after the hijack began, then also needed prepending and upstream "
        "filtering to fully recover.)"
    )


if __name__ == "__main__":
    main()
