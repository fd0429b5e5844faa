"""Tests for ARTEMIS configuration."""

import pytest

from repro.core.config import ArtemisConfig, OwnedPrefix, OwnedSpace
from repro.errors import ConfigError
from repro.net.prefix import Prefix

from oracles import config_tries, most_specific
from test_classify_equivalence import PREFIXES, build_config, squat_hole_config


def P(text):
    return Prefix.parse(text)


class TestOwnedPrefix:
    def test_basic(self):
        owned = OwnedPrefix("10.0.0.0/23", {64500})
        assert owned.prefix == P("10.0.0.0/23")
        assert owned.origin_is_legit(64500)
        assert not owned.origin_is_legit(64501)
        assert not owned.origin_is_legit(None)

    def test_needs_origin(self):
        with pytest.raises(ConfigError):
            OwnedPrefix("10.0.0.0/23", set())

    def test_multi_origin(self):
        owned = OwnedPrefix("10.0.0.0/23", {1, 2})
        assert owned.origin_is_legit(1) and owned.origin_is_legit(2)

    def test_upstreams_default_permissive(self):
        owned = OwnedPrefix("10.0.0.0/23", {1})
        assert owned.upstream_is_legit(999)

    def test_upstreams_enforced_when_set(self):
        owned = OwnedPrefix("10.0.0.0/23", {1}, legit_upstreams={10, 11})
        assert owned.upstream_is_legit(10)
        assert not owned.upstream_is_legit(12)

    def test_dict_roundtrip(self):
        owned = OwnedPrefix("10.0.0.0/23", {1, 2}, legit_upstreams={3}, description="main")
        data = owned.to_dict()
        back = OwnedPrefix.from_dict(data)
        assert back.prefix == owned.prefix
        assert back.legit_origins == owned.legit_origins
        assert back.legit_upstreams == owned.legit_upstreams
        assert back.description == "main"

    def test_from_dict_missing_key(self):
        with pytest.raises(ConfigError):
            OwnedPrefix.from_dict({"prefix": "10.0.0.0/23"})


class TestArtemisConfig:
    def make(self, **kw):
        return ArtemisConfig([OwnedPrefix("10.0.0.0/23", {64500})], **kw)

    def test_needs_owned(self):
        with pytest.raises(ConfigError):
            ArtemisConfig([])

    def test_duplicate_owned_rejected(self):
        with pytest.raises(ConfigError, match="duplicate owned prefix 10.0.0.0/23"):
            ArtemisConfig(
                [
                    OwnedPrefix("10.0.0.0/23", {1}),
                    # A second spelling of the same network, not the same object.
                    OwnedPrefix("10.0.1.77/23", {2}),
                ]
            )

    def test_duplicate_owned_space_rejected(self):
        with pytest.raises(ConfigError, match="duplicate owned space 10.0.8.0/22"):
            self.make(
                owned_space=[OwnedSpace("10.0.8.0/22", {1}), OwnedSpace("10.0.8.0/22", {2})]
            )

    def test_owned_prefix_also_owned_space_rejected(self):
        with pytest.raises(
            ConfigError,
            match="10.0.0.0/23 configured as both owned prefix and owned space",
        ):
            self.make(owned_space=[OwnedSpace("10.0.0.0/23", {64500})])

    def test_entry_for_exact_only(self):
        config = self.make()
        assert config.entry_for(P("10.0.0.0/23")) is not None
        assert config.entry_for(P("10.0.0.0/24")) is None

    def test_covering_entry(self):
        config = self.make()
        assert config.covering_entry(P("10.0.0.0/24")).prefix == P("10.0.0.0/23")
        assert config.covering_entry(P("11.0.0.0/24")) is None

    def test_covering_entry_most_specific_wins(self):
        config = ArtemisConfig(
            [
                OwnedPrefix("10.0.0.0/16", {1}),
                OwnedPrefix("10.0.0.0/23", {2}),
            ]
        )
        assert config.covering_entry(P("10.0.0.0/24")).prefix == P("10.0.0.0/23")
        assert config.covering_entry(P("10.0.9.0/24")).prefix == P("10.0.0.0/16")

    @pytest.mark.parametrize(
        "config",
        [build_config(), squat_hole_config(True), squat_hole_config(False)],
        ids=["equivalence", "hole-squatting-on", "hole-squatting-off"],
    )
    def test_lookups_agree_with_trie_oracle(self, config):
        owned, space = config_tries(config)
        probes = PREFIXES + [
            "0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/22", "10.0.2.0/23",
            "10.0.2.0/24", "10.0.11.255/32", "2001:db8::/32",
        ]
        for probe in map(P, probes):
            assert config.entry_for(probe) is owned.get(probe)
            assert config.covering_entry(probe) is most_specific(owned, probe)
            assert config.covering_space(probe) is most_specific(space, probe)

    def test_max_announce_length(self):
        config = self.make()
        assert config.max_announce_length(4) == 24
        assert config.max_announce_length(6) == 48

    def test_validation(self):
        with pytest.raises(ConfigError):
            self.make(deaggregation_levels=0)
        with pytest.raises(ConfigError):
            self.make(alert_cooldown=-1.0)

    def test_dict_roundtrip(self):
        config = self.make(auto_mitigate=False, deaggregation_levels=2)
        back = ArtemisConfig.from_dict(config.to_dict())
        assert back.auto_mitigate is False
        assert back.deaggregation_levels == 2
        assert back.owned_prefixes == config.owned_prefixes

    def test_dict_roundtrip_keeps_every_field_and_lookup(self):
        config = build_config(alert_cooldown=7.5, detect_path=False)
        data = config.to_dict()
        back = ArtemisConfig.from_dict(data)
        assert back.to_dict() == data
        assert [str(p) for p in back.monitored_prefixes] == [
            "10.0.0.0/23", "10.0.4.0/24", "10.0.8.0/22", "10.0.0.0/21", "10.0.10.0/23",
        ]
        assert back.entry_for(P("10.0.4.0/24")).legit_origins == {65002}
        assert back.covering_entry(P("10.0.9.0/24")).prefix == P("10.0.8.0/22")
        assert back.covering_space(P("10.0.10.0/24")).prefix == P("10.0.10.0/23")

    def test_from_dict_missing_owned(self):
        with pytest.raises(ConfigError):
            ArtemisConfig.from_dict({})
