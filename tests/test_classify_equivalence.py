"""Property test: the shipped rule selection agrees with an independent one.

``conftest.classify`` is the one-tenant plane's flat-tree most-specific
resolve plus the rule ladder.  The oracle
(:func:`oracles.classify_with_config_tries`) picks the rule off a pair of
``PrefixTrie`` built over the config's owned prefixes and owned space.  This test
drives both with the same randomized announcements — prefixes
inside/outside/astride the owned space, paths over legit and bogus ASNs,
every corroboration state, every combination of the ``detect_*`` switches —
and requires byte-identical verdicts; the node-object oracle tree must
resolve to the same rule too.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alerts import AlertType
from repro.core.config import ArtemisConfig, OwnedPrefix, OwnedSpace
from repro.feeds.events import FeedEvent
from repro.net.prefix import Prefix
from repro.tenants.pipeline import OPERATOR, classify_batch_verdicts, one_tenant_plane
from repro.tenants.registry import TenantRegistry

from conftest import classify
from oracles import PrefixTree, classify_with_config_tries

ADJACENCIES = {
    65001: {65010},
    65010: {65001, 100},
    100: {65010, 200},
    200: {100},
}


def build_config(**switches) -> ArtemisConfig:
    return ArtemisConfig(
        owned=[
            OwnedPrefix("10.0.0.0/23", {65001}, {65010}),
            OwnedPrefix("10.0.4.0/24", {65002}),
            OwnedPrefix("10.0.8.0/22", {65001}),
        ],
        owned_space=[
            OwnedSpace(Prefix.parse("10.0.0.0/21"), {65001}),
            # An unannounced hole *inside* the announced 10.0.8.0/22.
            OwnedSpace(Prefix.parse("10.0.10.0/23"), {65001}),
        ],
        adjacencies=ADJACENCIES,
        leak_sentinels={64999},
        auto_mitigate=False,
        **switches,
    )


#: Mix of exact owned, nested, sibling-in-space, space-exact and foreign.
PREFIXES = [
    "10.0.0.0/23",
    "10.0.0.0/24",
    "10.0.1.0/24",
    "10.0.2.0/24",
    "10.0.4.0/24",
    "10.0.4.0/25",
    "10.0.6.0/24",
    "10.0.0.0/21",
    "10.0.8.0/22",
    "10.0.9.0/24",
    "10.0.10.0/23",
    "10.0.10.0/24",
    "11.0.0.0/24",
]

#: Legit origins/upstreams, known transit, the leak sentinel, strangers.
ASNS = [65001, 65002, 65010, 64999, 100, 200, 666]

PROBES = {"none": None, "healthy": lambda p: True, "unhealthy": lambda p: False}


def announcement(prefix, path, vantage) -> FeedEvent:
    return FeedEvent(
        source="ris",
        collector="rrc00",
        vantage_asn=vantage,
        kind="A",
        prefix=Prefix.parse(prefix),
        as_path=path,
        observed_at=1.0,
        delivered_at=2.0,
    )


@settings(max_examples=400, deadline=None)
@given(
    prefix=st.sampled_from(PREFIXES),
    path=st.lists(st.sampled_from(ASNS), min_size=1, max_size=5),
    vantage=st.sampled_from(ASNS + [1]),
    probe_kind=st.sampled_from(sorted(PROBES)),
    switches=st.fixed_dictionaries(
        {
            name: st.booleans()
            for name in (
                "detect_squatting",
                "detect_subprefix",
                "detect_path",
                "detect_unchanged_path",
            )
        }
    ),
)
def test_single_tenant_and_plane_verdicts_identical(
    prefix, path, vantage, probe_kind, switches
):
    probe = PROBES[probe_kind]
    config = build_config(**switches)
    event = announcement(prefix, path, vantage)
    expected = classify_with_config_tries(config, event, probe)

    assert classify(config, event, probe) == expected

    registry = TenantRegistry()
    registry.add_tenant("t0", config)
    plane = classify_batch_verdicts(
        PrefixTree(registry).resolve(event.prefix),
        event.prefix,
        event.as_path,
        event.vantage_asn,
        probe=probe,
    )
    if expected is None:
        assert plane == ()
    else:
        assert len(plane) == 1
        rule, plane_type, plane_offender = plane[0]
        assert (plane_type, rule.prefix, plane_offender) == expected


def squat_hole_event() -> FeedEvent:
    """AS666 announces a /24 inside owned 10.0.0.0/22's space hole /23."""
    return announcement("10.0.2.0/24", (100, 666), 100)


def squat_hole_config(detect_squatting: bool) -> ArtemisConfig:
    return ArtemisConfig(
        [OwnedPrefix("10.0.0.0/22", {65001})],
        owned_space=[OwnedSpace("10.0.2.0/23", {65001})],
        detect_squatting=detect_squatting,
    )


def test_hole_in_owned_space_is_squatting_when_squatting_is_on():
    verdict = classify(squat_hole_config(detect_squatting=True), squat_hole_event())
    assert verdict == (AlertType.SQUATTING, Prefix.parse("10.0.2.0/23"), 666)


def test_squatting_off_does_not_swallow_subprefix_hijack():
    # With squatting detection off the hole is not monitored at all; the
    # announcement is still a more-specific of the owned /22.
    config = squat_hole_config(detect_squatting=False)
    verdict = classify(config, squat_hole_event())
    assert verdict == (AlertType.SUB_PREFIX, Prefix.parse("10.0.0.0/22"), 666)
    assert classify_with_config_tries(config, squat_hole_event()) == verdict
    plane = one_tenant_plane(config)
    plane.ingest(squat_hole_event())
    alerts = plane.tenant_state(OPERATOR).alerts.alerts
    assert [a.type for a in alerts] == [AlertType.SUB_PREFIX]
