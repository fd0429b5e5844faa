"""Correctness-under-load tests: bigger worlds, heavy event volumes, FIFO
guarantees — behaviours that only show up beyond toy sizes."""

import pytest

from repro.bgp.messages import single_announcement
from repro.bgp.session import ActivityTracker, Session
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.sim.latency import Exponential, Uniform
from repro.sim.rng import SeededRNG
from repro.topology.generator import GeneratorConfig, generate_internet
from repro.internet.network import Network

from conftest import fast_network_config, fraction_routing_to


def P(text):
    return Prefix.parse(text)


class TestEngineUnderLoad:
    def test_many_simultaneous_events_fire_in_creation_order(self):
        engine = Engine()
        order = []
        for index in range(2000):
            engine.schedule(1.0, order.append, index)
        engine.run()
        assert order == list(range(2000))

    def test_interleaved_cancel_under_load(self):
        engine = Engine()
        fired = []
        handles = [
            engine.schedule(1.0 + (i % 7) * 0.1, fired.append, i)
            for i in range(1000)
        ]
        for handle in handles[::2]:
            handle.cancel()
        engine.run()
        assert sorted(fired) == list(range(1, 1000, 2))

    def test_deep_nested_scheduling(self):
        engine = Engine()
        counter = [0]

        def chain():
            counter[0] += 1
            if counter[0] < 5000:
                engine.schedule(0.01, chain)

        engine.schedule(0.01, chain)
        engine.run()
        assert counter[0] == 5000


class TestSessionFifo:
    class Recorder:
        def __init__(self, asn):
            self.asn = asn
            self.received = []

        def deliver(self, sender_asn, message):
            self.received.append(message.announcements[0].prefix)

    def test_messages_never_reorder_despite_random_delays(self):
        # TCP semantics: per-direction FIFO even with wildly varying delay
        # samples per message.
        engine = Engine()
        tracker = ActivityTracker()
        sender = self.Recorder(1)
        receiver = self.Recorder(2)
        session = Session(
            engine, sender, receiver,
            delay=Exponential(1.0), rng=SeededRNG(3), tracker=tracker,
        )
        sent = []
        for index in range(200):
            prefix = P(f"10.{index // 250}.{index % 250}.0/24")
            sent.append(prefix)
            session.send(1, single_announcement(prefix, [1]))
        engine.run()
        assert receiver.received == sent

    def test_bidirectional_fifo_independent(self):
        engine = Engine()
        a = self.Recorder(1)
        b = self.Recorder(2)
        session = Session(engine, a, b, delay=Uniform(0.1, 5.0), rng=SeededRNG(4))
        forward = [P(f"10.0.{i}.0/24") for i in range(50)]
        backward = [P(f"10.1.{i}.0/24") for i in range(50)]
        for f_prefix, b_prefix in zip(forward, backward):
            session.send(1, single_announcement(f_prefix, [1]))
            session.send(2, single_announcement(b_prefix, [2]))
        engine.run()
        assert b.received == forward
        assert a.received == backward


@pytest.mark.slow
class TestLargeWorld:
    def test_800_as_internet_converges_and_mitigates(self):
        graph = generate_internet(
            GeneratorConfig(num_tier1=10, num_tier2=120, num_stubs=670), seed=1
        )
        network = Network(graph, config=fast_network_config(), seed=1)
        victim = graph.stubs()[0]
        hijacker = graph.stubs()[-1]
        network.announce(victim, "10.0.0.0/23")
        network.run_until_converged()
        assert fraction_routing_to(network, "10.0.0.1", victim) == 1.0
        network.announce(hijacker, "10.0.0.0/23")
        network.run_until_converged()
        hijacked = fraction_routing_to(network, "10.0.0.1", hijacker)
        assert 0.0 < hijacked < 1.0
        network.announce(victim, "10.0.0.0/24")
        network.announce(victim, "10.0.1.0/24")
        network.run_until_converged()
        assert fraction_routing_to(network, "10.0.0.1", victim) == 1.0
        # RIB sanity at scale: every speaker holds ≤ the 4 live prefixes.
        for asn in network.asns():
            assert len(network.speaker(asn).loc_rib) <= 4
