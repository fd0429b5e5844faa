"""Tests for the PEERING-style testbed."""

import pytest

from repro.errors import TestbedError
from repro.net.prefix import Prefix
from repro.testbed.peering import VIRTUAL_ASN_BASE, PeeringTestbed

from conftest import fraction_routing_to


def P(text):
    return Prefix.parse(text)


class TestSites:
    def test_available_sites_are_transit(self, net7):
        testbed = PeeringTestbed(net7)
        sites = testbed.available_sites()
        assert set(sites) == {1, 2, 3, 4, 5}  # tiers 1 and 2 only

    def test_pick_sites_distinct_and_deterministic(self, net7):
        a = PeeringTestbed(net7, seed=3).pick_sites(3)
        import conftest
        from repro.internet.network import Network

        net_again = Network(conftest.tiny_graph(), config=conftest.fast_network_config(), seed=42)
        b = PeeringTestbed(net_again, seed=3).pick_sites(3)
        assert a == b
        assert len(set(a)) == 3

    def test_pick_sites_exclude(self, net7):
        testbed = PeeringTestbed(net7, seed=1)
        sites = testbed.pick_sites(2, exclude=[1, 2, 3])
        assert set(sites).issubset({4, 5})

    def test_pick_too_many(self, net7):
        with pytest.raises(TestbedError):
            PeeringTestbed(net7).pick_sites(99)


class TestVirtualAS:
    def test_create_and_announce(self, net7):
        testbed = PeeringTestbed(net7, seed=1)
        virtual = testbed.create_virtual_as([3, 5])
        assert virtual.asn == VIRTUAL_ASN_BASE
        assert virtual.sites == [3, 5]
        virtual.announce("10.0.0.0/23")
        net7.run_until_converged()
        assert fraction_routing_to(net7, "10.0.0.5", virtual.asn) == 1.0
        assert virtual.announced == [P("10.0.0.0/23")]

    def test_withdraw(self, net7):
        testbed = PeeringTestbed(net7, seed=1)
        virtual = testbed.create_virtual_as([3])
        virtual.announce("10.0.0.0/23")
        net7.run_until_converged()
        virtual.withdraw("10.0.0.0/23")
        net7.run_until_converged()
        assert fraction_routing_to(net7, "10.0.0.5", virtual.asn) == 0.0

    def test_sequential_asns(self, net7):
        testbed = PeeringTestbed(net7, seed=1)
        first = testbed.create_virtual_as([3])
        second = testbed.create_virtual_as([4])
        assert second.asn == first.asn + 1
        assert len(testbed.virtual_ases) == 2

    def test_needs_sites(self, net7):
        with pytest.raises(TestbedError):
            PeeringTestbed(net7).create_virtual_as([])

    def test_two_virtual_ases_compete(self, net7):
        # The paper's experiment skeleton: same prefix from two virtual ASes.
        testbed = PeeringTestbed(net7, seed=1)
        victim = testbed.create_virtual_as([3])
        hijacker = testbed.create_virtual_as([5])
        victim.announce("10.0.0.0/23")
        net7.run_until_converged()
        hijacker.announce("10.0.0.0/23")
        net7.run_until_converged()
        origins = set(net7.origin_map("10.0.0.5").values())
        assert victim.asn in origins and hijacker.asn in origins
