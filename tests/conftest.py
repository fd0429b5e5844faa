"""Shared fixtures: small, fast worlds for integration tests."""

from __future__ import annotations

import gc
import os
import signal
import threading

import pytest

from repro.feeds.deploy import wire_collectors
from repro.feeds.stream import StreamingService
from repro.internet.network import Network, NetworkConfig
from repro.sim.latency import Constant, Uniform
from repro.sim.rng import SeededRNG
from repro.testbed.scenario import ScenarioConfig
from repro.topology.generator import GeneratorConfig, generate_internet
from repro.topology.graph import ASGraph


def tiny_graph() -> ASGraph:
    """A hand-built 7-AS topology with known structure::

            1 ===== 2          (tier-1 peering clique)
           / \\     / \\
          3   4   5            (tier-2 transit; 3-4 peer laterally)
         /     \\ / \\
        6       7   (7 buys from 4 and 5)
    """
    graph = ASGraph()
    for asn, tier in [(1, 1), (2, 1), (3, 2), (4, 2), (5, 2), (6, 3), (7, 3)]:
        graph.add_as(asn, tier=tier)
    graph.add_peering(1, 2)
    graph.add_customer_provider(3, 1)
    graph.add_customer_provider(4, 1)
    graph.add_customer_provider(5, 2)
    graph.add_peering(3, 4)
    graph.add_customer_provider(6, 3)
    graph.add_customer_provider(7, 4)
    graph.add_customer_provider(7, 5)
    graph.validate()
    return graph


def fast_network_config() -> NetworkConfig:
    """Deterministic-ish fast timing: tiny processing, no MRAI batching."""
    return NetworkConfig(
        processing_delay=Constant(0.05),
        mrai=Constant(0.5),
        session_delay_override=Constant(0.02),
    )


def ris_stream(network: Network, vantage_asns) -> StreamingService:
    """A stream named ``ris`` with a 1 s latency, peered with each of
    ``vantage_asns`` through a collector of its own (``ris-rrc00``, ...)."""
    stream = StreamingService(network.engine, Constant(1.0), SeededRNG(0), "ris")
    names = [f"ris-rrc{i:02d}" for i in range(len(vantage_asns))]
    return wire_collectors(network, stream, names, vantage_asns)


def fast_scenario(seed: int = 0, **overrides) -> ScenarioConfig:
    """A small, churn-free scenario that runs in tens of milliseconds."""
    defaults = dict(
        seed=seed,
        topology=GeneratorConfig(num_tier1=3, num_tier2=10, num_stubs=25),
        churn=None,
        baseline_settle=60.0,
        churn_warmup=0.0,
        monitors=dict(
            num_ris_vantages=6,
            num_bgpmon_vantages=4,
            num_lgs=4,
            lg_poll_interval=30.0,
            num_batch_vantages=4,
        ),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


@pytest.fixture
def restore_gc():
    """Leave the cyclic collector the way the test found it, pass or fail."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def caller_gc_enabled(request, restore_gc) -> bool:
    """Run the test once with the collector enabled and once disabled."""
    (gc.enable if request.param else gc.disable)()
    return request.param


def gc_collections() -> int:
    """Collections run so far in this process, all generations."""
    return sum(generation["collections"] for generation in gc.get_stats())


def fraction_routing_to(network: Network, target, origin: int) -> float:
    """Fraction of ASes whose data-plane origin for ``target`` is ``origin``."""
    origins = network.origin_map(target)
    return sum(value == origin for value in origins.values()) / len(origins)


def classify(config, event, probe=None):
    """The shipped verdict for one announcement: ``(type, owned_prefix,
    offender)`` of the most specific monitored prefix covering it, or None.

    An exact owned entry wins, else the deeper of the covering owned prefix
    and the covering owned *space* (a /24 in an owned /23 is a sub-prefix
    incident even under a wider space block; a /24 in a deeper unannounced
    hole is a squatting one).  With ``detect_squatting=False`` owned space
    is not monitored, so the hole case is ``SUB_PREFIX``.
    """
    from repro.tenants.pipeline import classify_batch_verdicts, one_tenant_plane

    verdicts = classify_batch_verdicts(
        one_tenant_plane(config).tree.resolve(event.prefix),
        event.prefix,
        event.as_path,
        event.vantage_asn,
        probe=probe,
    )
    if not verdicts:
        return None
    rule, alert_type, offender = verdicts[0]
    return alert_type, rule.prefix, offender


def kill_worker(victim, side: str) -> None:
    """SIGKILL a forked worker so its parent meets the death on ``side``.

    ``"send"``: dead and reaped before the parent's next send.
    ``"receive"``: stopped first, so it still takes the parent's next
    message into its pipe buffer, then killed before it can answer.
    """
    if side == "send":
        victim.kill()
        victim.join(timeout=5.0)
        assert not victim.is_alive()
    else:
        os.kill(victim.pid, signal.SIGSTOP)
        threading.Timer(0.3, victim.kill).start()


@pytest.fixture
def graph7() -> ASGraph:
    return tiny_graph()


@pytest.fixture
def net7(graph7) -> Network:
    return Network(graph7, config=fast_network_config(), seed=42)


@pytest.fixture
def gen_network() -> Network:
    graph = generate_internet(
        GeneratorConfig(num_tier1=3, num_tier2=10, num_stubs=25), seed=5
    )
    return Network(graph, config=fast_network_config(), seed=5)
