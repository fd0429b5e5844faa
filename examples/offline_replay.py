#!/usr/bin/env python3
"""Archive feeds during an incident, then re-run detection offline.

Third-party services work this way on RouteViews archives; operators do it
for post-mortems.  This example:

  1. runs a hijack experiment while recording everything the streams and
     looking glasses delivered to a sealed trace file (``bgpdump -m``-style
     record lines between a header and a count + SHA-256 footer);
  2. loads and verifies the archive and replays it through a brand-new
     detection service with the same operator configuration;
  3. shows that offline detection reaches the identical verdict (same
     offender, same first-evidence timestamp) as the live run.

Run:  python examples/offline_replay.py [seed] [dump_path]
"""

import sys
import tempfile

from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.feeds.replay import ReplaySession, TraceRecorder
from repro.testbed import HijackExperiment, ScenarioConfig
from repro.topology import GeneratorConfig


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    dump_path = (
        sys.argv[2]
        if len(sys.argv) > 2
        else tempfile.NamedTemporaryFile(suffix=".trace", delete=False).name
    )

    # --- live run, with a recorder tee'd onto the RIS stream ------------
    config = ScenarioConfig(
        seed=seed, topology=GeneratorConfig(num_tier1=5, num_tier2=25, num_stubs=90)
    )
    experiment = HijackExperiment(config)
    experiment.setup()
    recorder = TraceRecorder(dump_path, config=experiment.artemis.config)
    for source in (
        experiment.monitors.ris,
        experiment.monitors.bgpmon,
        experiment.monitors.periscope,
    ):
        recorder.attach(source, prefixes=[config.prefix])
    result = experiment.run()
    recorder.close(meta={"hijack_time": result.hijack_time})
    count = recorder.records
    live_alert = experiment.artemis.alerts[0]
    print(f"live run: detected AS{live_alert.offender_asn} at "
          f"t={live_alert.detected_at:.1f}s (hijack at t={result.hijack_time:.1f}s)")
    print(f"archived {count} events (all sources) to {dump_path}")

    # --- offline replay --------------------------------------------------
    offline_config = ArtemisConfig(
        owned=[OwnedPrefix(config.prefix, {experiment.victim.asn})],
        auto_mitigate=False,
    )
    offline = ReplaySession(dump_path, config=offline_config)
    offline.run()
    offline_alert = offline.alerts[0]
    print(f"offline replay: detected AS{offline_alert.offender_asn} at "
          f"t={offline_alert.detected_at:.1f}s from the archive alone")

    assert offline_alert.offender_asn == live_alert.offender_asn
    # The archive carries every source, so the offline verdict lands at the
    # exact same instant as the live combined (min-over-sources) detection.
    assert abs(offline_alert.detected_at - live_alert.detected_at) < 1e-9
    print("offline detection timestamp matches the live run exactly ✔")


if __name__ == "__main__":
    main()
