"""Tests for the ground-truth OriginTracker."""

import pytest

from repro.internet.tracker import OriginTracker
from repro.net.prefix import Prefix


def P(text):
    return Prefix.parse(text)


class TestTracking:
    def test_initial_state_no_routes(self, net7):
        tracker = OriginTracker(net7, "10.0.0.0/23")
        assert tracker.fraction_routing_to(6) == 0.0
        assert set(tracker.tracked_asns()) == set(net7.asns())

    def test_probes_cover_both_halves(self, net7):
        tracker = OriginTracker(net7, "10.0.0.0/23")
        assert [str(p) for p in tracker.probes] == ["10.0.0.0", "10.0.1.0"]

    def test_flips_recorded_on_announce(self, net7):
        tracker = OriginTracker(net7, "10.0.0.0/23")
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        assert tracker.all_route_to({6})
        assert len(tracker.flips) >= len(net7.asns())  # each AS flipped twice probes

    def test_unrelated_prefixes_ignored(self, net7):
        tracker = OriginTracker(net7, "10.0.0.0/23")
        net7.announce(6, "99.0.0.0/16")
        net7.run_until_converged()
        assert tracker.flips == []

    def test_partial_adoption_fraction(self, net7):
        tracker = OriginTracker(net7, "10.0.0.0/23")
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.announce(7, "10.0.0.0/23")
        net7.run_until_converged()
        legit = tracker.fraction_routing_to(6)
        hijacked = tracker.fraction_routing_to(7)
        assert 0.0 < legit < 1.0
        assert 0.0 < hijacked < 1.0
        assert legit + hijacked == pytest.approx(1.0)

    def test_ases_routing_to(self, net7):
        tracker = OriginTracker(net7, "10.0.0.0/23")
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        assert tracker.ases_routing_to(6) == net7.asns()

    def test_mixed_probe_origins_not_fully_legit(self, net7):
        tracker = OriginTracker(net7, "10.0.0.0/23")
        # Victim announces only one half; other half goes to another AS.
        net7.announce(6, "10.0.0.0/24")
        net7.announce(7, "10.0.1.0/24")
        net7.run_until_converged()
        assert tracker.fraction_routing_to(6) == 0.0  # nobody has BOTH halves on 6
        assert tracker.fraction_routing_to({6, 7}) == 1.0


class TestReplay:
    def test_fraction_series_starts_at_start_time(self, net7):
        tracker = OriginTracker(net7, "10.0.0.0/23")
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        start = net7.engine.now
        series = tracker.fraction_series({6}, start_time=start)
        assert series[0] == (start, 1.0)

    def test_fraction_series_monotone_for_single_announce(self, net7):
        tracker = OriginTracker(net7, "10.0.0.0/23")
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        series = tracker.fraction_series({6}, start_time=0.0)
        fractions = [f for _t, f in series]
        assert fractions == sorted(fractions)
        # The announce happens at t=0 exactly, so the t=0 snapshot already
        # includes the victim's own flip; everyone else joins later.
        assert fractions[0] < 0.5 and fractions[-1] == 1.0

    def test_first_time_all_route_to(self, net7):
        tracker = OriginTracker(net7, "10.0.0.0/23")
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        when = tracker.first_time_all_route_to({6}, since=0.0)
        assert when is not None
        assert when <= net7.engine.now
        # The tracker's own flip log confirms nothing changed after `when`.
        assert all(t <= when for t, _a, _i, _o in tracker.flips)

    def test_first_time_none_when_never(self, net7):
        tracker = OriginTracker(net7, "10.0.0.0/23")
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        assert tracker.first_time_all_route_to({99}, since=0.0) is None

    def test_since_respected(self, net7):
        tracker = OriginTracker(net7, "10.0.0.0/23")
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        converged_at = tracker.first_time_all_route_to({6}, since=0.0)
        later = converged_at + 100.0
        net7.run_for(200.0)
        # Asking "since" after convergence returns the ask time (state
        # already satisfied the predicate).
        assert tracker.first_time_all_route_to({6}, since=later) == later

    def test_state_reconstruction_mid_history(self, net7):
        tracker = OriginTracker(net7, "10.0.0.0/23")
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        mid_time = net7.engine.now
        net7.run_for(5.0)  # separate the hijack timestamp from mid_time
        net7.announce(7, "10.0.0.0/23")
        net7.run_until_converged()
        # Full recovery fraction at mid_time (before the hijack) was 1.0.
        series = tracker.fraction_series({6}, start_time=mid_time)
        assert series[0][1] == 1.0
        assert series[-1][1] < 1.0


class TestLateAttachment:
    def test_attached_stub_tracked(self, net7):
        tracker = OriginTracker(net7, "10.0.0.0/23")
        speaker = net7.attach_stub(100, [3])
        tracker.track_speaker(speaker)
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        assert 100 in tracker.tracked_asns()
        assert tracker.all_route_to({6})
