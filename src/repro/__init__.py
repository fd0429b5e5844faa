"""ARTEMIS reproduction: real-time BGP prefix-hijacking detection and
automatic mitigation, over a from-scratch discrete-event BGP Internet
simulator.

Quick tour (see ``examples/quickstart.py`` for a runnable version)::

    from repro import HijackExperiment, ScenarioConfig

    result = HijackExperiment(ScenarioConfig(seed=1)).run()
    print(result.detection_delay, result.announce_delay, result.total_time)

Layering (bottom-up): :mod:`repro.net` (prefixes, prefix tables) → :mod:`repro.sim`
(event engine) → :mod:`repro.bgp` (speakers, RIBs, policy) →
:mod:`repro.topology` / :mod:`repro.internet` (runnable Internets) →
:mod:`repro.feeds` (RIS/BGPmon/Periscope/batch) → :mod:`repro.sdn` +
:mod:`repro.core` (ARTEMIS itself) → :mod:`repro.testbed` (experiments) →
:mod:`repro.baselines` / :mod:`repro.eval` / :mod:`repro.viz`.
"""

from repro.core import Artemis, ArtemisConfig, HijackAlert, OwnedPrefix
from repro.internet import Network, NetworkConfig, OriginTracker
from repro.net import Address, Prefix
from repro.sdn import BGPController
from repro.sim import Engine, SeededRNG
from repro.testbed import ExperimentResult, HijackExperiment, ScenarioConfig
from repro.topology import ASGraph, GeneratorConfig, generate_internet

__version__ = "1.0.0"

__all__ = [
    "ASGraph",
    "Address",
    "Artemis",
    "ArtemisConfig",
    "BGPController",
    "Engine",
    "ExperimentResult",
    "GeneratorConfig",
    "HijackAlert",
    "HijackExperiment",
    "Network",
    "NetworkConfig",
    "OriginTracker",
    "OwnedPrefix",
    "Prefix",
    "ScenarioConfig",
    "SeededRNG",
    "generate_internet",
    "__version__",
]
