"""The prior-art defenders, as :class:`~repro.testbed.scenario.ScenarioConfig` values.

A defender is which sources it subscribes to, who pushes the button, and how
long it is given; the attack, the world and the three phases are the one
:class:`~repro.testbed.scenario.HijackExperiment`'s.  Each profile is a dict
of ``ScenarioConfig`` keyword arguments::

    HijackExperiment(ScenarioConfig(seed=3, **PROFILES["phas"])).run()

* ``argus`` (Shi et al., IMC 2012) — the *live* BGPmon stream, so raw
  detection is as fast as ARTEMIS'; but the service is a third party's, so a
  human still verifies and reconfigures.  A prompt operator, to be generous.
* ``phas`` (Lad et al., USENIX Security 2006) — the 15-minute update files of
  the batch archive, emailed to a typical operator.
* ``rib-dump`` — origin checks on 2-hour RIB snapshots only, the slowest path.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.operator import OperatorModel

#: Batch files and humans take hours where ARTEMIS takes minutes: how long
#: each phase of a third-party run may wait before it is scored a miss.
_PATIENCE = {"detection_timeout": 6 * 3600.0, "completion_timeout": 6 * 3600.0}

PROFILES: Dict[str, Dict] = {
    "argus": dict(
        enabled_sources=("bgpmon",),
        operator=OperatorModel.prompt(stream="argus"),
        **_PATIENCE,
    ),
    "phas": dict(
        enabled_sources=("batch",), operator=OperatorModel(stream="phas"), **_PATIENCE
    ),
    "rib-dump": dict(
        enabled_sources=("rib-dump",), operator=OperatorModel(stream="rib"), **_PATIENCE
    ),
}
