"""Tests for relationships, Gao-Rexford export rules, the import rule and
LOCAL_PREF."""

import pytest

from repro.bgp.messages import Announcement, UpdateMessage
from repro.bgp.policy import (
    ABSENT_REL_INDEX,
    DEFAULT_LOCAL_PREF,
    EXPORT_GRID,
    LOCAL_PREF_BY_INDEX,
    LOCAL_REL_INDEX,
    MARK_ALL_ROW,
    MARK_GRID,
    MAX_PREFIX_LENGTH,
    REL_INDEX,
    Relationship,
    should_export,
)
from repro.bgp.rpki import ROA, RPKIRegistry
from repro.bgp.session import Session
from repro.bgp.speaker import BGPSpeaker
from repro.net.prefix import Prefix
from repro.sim.engine import Engine


def A(prefix, path=(1, 2)):
    return Announcement(Prefix.parse(prefix), path)


def imported(announcements, rov=None):
    """The prefixes a speaker keeps from one UPDATE sent by customer AS 1."""
    engine = Engine()
    speaker = BGPSpeaker(9, engine, rov=rov)
    peer = BGPSpeaker(1, engine)
    session = Session(engine, speaker, peer)
    speaker.add_peer(session, Relationship.CUSTOMER)
    peer.add_peer(session, Relationship.PROVIDER)
    speaker.deliver(1, UpdateMessage(1, list(announcements), []))
    engine.run()
    return {
        str(a.prefix)
        for a in announcements
        if speaker.adj_rib_in.candidates(a.prefix)
    }


class TestRelationship:
    def test_inverse(self):
        assert Relationship.CUSTOMER.inverse() is Relationship.PROVIDER
        assert Relationship.PROVIDER.inverse() is Relationship.CUSTOMER
        assert Relationship.PEER.inverse() is Relationship.PEER
        assert Relationship.MONITOR.inverse() is Relationship.MONITOR

    def test_default_local_pref_order(self):
        assert (
            DEFAULT_LOCAL_PREF[Relationship.CUSTOMER]
            > DEFAULT_LOCAL_PREF[Relationship.PEER]
            > DEFAULT_LOCAL_PREF[Relationship.PROVIDER]
        )


class TestExportRule:
    """The valley-free matrix: rows = learned from, cols = export to."""

    @pytest.mark.parametrize(
        "to", [Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER]
    )
    def test_self_originated_exported_everywhere(self, to):
        assert should_export(None, to)

    @pytest.mark.parametrize(
        "to", [Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER]
    )
    def test_customer_routes_exported_everywhere(self, to):
        assert should_export(Relationship.CUSTOMER, to)

    @pytest.mark.parametrize("learned", [Relationship.PEER, Relationship.PROVIDER])
    def test_peer_and_provider_routes_only_to_customers(self, learned):
        assert should_export(learned, Relationship.CUSTOMER)
        assert not should_export(learned, Relationship.PEER)
        assert not should_export(learned, Relationship.PROVIDER)

    @pytest.mark.parametrize(
        "learned",
        [None, Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER],
    )
    def test_monitors_receive_everything(self, learned):
        assert should_export(learned, Relationship.MONITOR)


#: Every row of the grids, keyed by its learned-from value; ``"absent"``
#: (no route on that side of a change) has no ``should_export`` meaning.
GRID_ROWS = {
    **{rel: REL_INDEX[rel] for rel in Relationship},
    None: LOCAL_REL_INDEX,
    "absent": ABSENT_REL_INDEX,
}


def brute_force_row(learned):
    if learned == "absent":
        return tuple(False for _ in Relationship)
    return tuple(should_export(learned, to) for to in Relationship)


class TestGrids:
    """The process-wide tables the speaker reads instead of the rule."""

    def test_export_grid_is_the_rule(self):
        assert sorted(GRID_ROWS.values()) == list(range(len(EXPORT_GRID)))
        for learned, index in GRID_ROWS.items():
            assert EXPORT_GRID[index] == brute_force_row(learned), learned

    def test_mark_grid_is_the_elementwise_or(self):
        for new, new_index in GRID_ROWS.items():
            for old, old_index in GRID_ROWS.items():
                expected = tuple(
                    a or b for a, b in zip(brute_force_row(new), brute_force_row(old))
                )
                assert MARK_GRID[new_index][old_index] == expected, (new, old)

    def test_every_all_true_row_is_the_shared_object(self):
        all_true = [row for rows in MARK_GRID for row in rows if all(row)]
        assert all_true  # a local or customer-learned side marks everyone
        assert all(row is MARK_ALL_ROW for row in all_true)
        assert not any(
            row is MARK_ALL_ROW for rows in MARK_GRID for row in rows if not all(row)
        )


class TestFilters:
    """The one import rule: the length limit, then ROV where it is held."""

    def test_max_length_v4(self):
        assert MAX_PREFIX_LENGTH[4] == 24
        assert imported([A("10.0.0.0/24"), A("10.0.0.0/25"), A("10.0.0.0/8")]) == {
            "10.0.0.0/24",
            "10.0.0.0/8",
        }

    def test_max_length_v6(self):
        assert MAX_PREFIX_LENGTH[6] == 48
        assert imported([A("2001:db8::/48"), A("2001:db8::/49")]) == {"2001:db8::/48"}

    def test_filter_chain_all_must_accept(self):
        registry = RPKIRegistry()
        registry.add_roa(ROA(Prefix.parse("11.0.0.0/16"), 2, max_length=32))
        registry.add_roa(ROA(Prefix.parse("10.0.0.0/8"), 64500, max_length=32))
        kept = imported(
            [A("11.0.0.0/24"), A("11.0.0.0/25"), A("10.0.0.0/24")], rov=registry
        )
        # 11.0.0.0/25 is ROA-valid but too long; 10.0.0.0/24 is ROA-invalid.
        assert kept == {"11.0.0.0/24"}


class TestPolicyImport:
    def test_import_filter_applied(self):
        assert BGPSpeaker(1, Engine()).rov is None
        # With no arguments a speaker still applies the length limit.
        assert imported([A("10.0.0.0/24"), A("10.0.0.0/25")]) == {"10.0.0.0/24"}

    def test_default_local_pref(self):
        assert len(LOCAL_PREF_BY_INDEX) == len(Relationship)
        for rel in Relationship:
            assert LOCAL_PREF_BY_INDEX[REL_INDEX[rel]] == DEFAULT_LOCAL_PREF[rel]
