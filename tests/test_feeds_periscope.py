"""Tests for looking glasses and the Periscope poll scheduler."""

import pytest

from repro.errors import FeedError
from repro.feeds.periscope import LookingGlass, PeriscopeAPI
from repro.net.prefix import Prefix
from repro.sim.latency import Constant
from repro.sim.rng import SeededRNG


def P(text):
    return Prefix.parse(text)


def make_lg(net, asn, min_interval=0.0, query_delay=0.2):
    return LookingGlass(
        f"lg-{asn}",
        net.speaker(asn),
        net.engine,
        query_delay=Constant(query_delay),
        min_query_interval=min_interval,
        rng=SeededRNG(asn),
    )


class TestLookingGlass:
    def test_query_returns_exact_route(self, net7):
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        lg = make_lg(net7, 3)
        answers = []
        lg.query(P("10.0.0.0/23"), lambda when, rows: answers.append((when, rows)))
        net7.run_for(1.0)
        assert len(answers) == 1
        _when, rows = answers[0]
        assert any(prefix == P("10.0.0.0/23") and path[-1] == 6 for prefix, path in rows)

    def test_query_includes_more_specifics(self, net7):
        net7.announce(6, "10.0.0.0/24")
        net7.announce(6, "10.0.1.0/24")
        net7.run_until_converged()
        lg = make_lg(net7, 3)
        answers = []
        lg.query(P("10.0.0.0/23"), lambda when, rows: answers.append(rows))
        net7.run_for(1.0)
        prefixes = {prefix for prefix, _path in answers[0]}
        assert prefixes == {P("10.0.0.0/24"), P("10.0.1.0/24")}

    def test_query_includes_covering_route(self, net7):
        net7.announce(6, "10.0.0.0/16")
        net7.run_until_converged()
        lg = make_lg(net7, 3)
        answers = []
        lg.query(P("10.0.0.0/23"), lambda when, rows: answers.append(rows))
        net7.run_for(1.0)
        assert any(prefix == P("10.0.0.0/16") for prefix, _p in answers[0])

    def test_empty_answer_when_no_route(self, net7):
        lg = make_lg(net7, 3)
        answers = []
        lg.query(P("10.0.0.0/23"), lambda when, rows: answers.append(rows))
        net7.run_for(1.0)
        assert answers == [[]]

    def test_rate_limit_spaces_queries(self, net7):
        lg = make_lg(net7, 3, min_interval=10.0)
        times = []
        for _ in range(3):
            lg.query(P("10.0.0.0/23"), lambda when, rows: times.append(when))
        net7.run_for(60.0)
        assert len(times) == 3
        assert times[1] - times[0] >= 9.9
        assert times[2] - times[1] >= 9.9

    def test_answer_reflects_query_time_state(self, net7):
        # The LG snapshot happens when the query reaches the router, not
        # when the query was issued.
        lg = make_lg(net7, 6, query_delay=2.0)
        answers = []
        lg.query(P("10.0.0.0/23"), lambda when, rows: answers.append(rows))
        net7.announce(6, "10.0.0.0/23")  # announced before snapshot time
        net7.run_for(5.0)
        assert answers[0]  # route visible


class TestPeriscope:
    def _periscope(self, net, asns, poll=20.0):
        lgs = [make_lg(net, asn) for asn in asns]
        return PeriscopeAPI(
            net.engine, lgs, poll_interval=poll, rng=SeededRNG(0)
        )

    def test_poll_detects_announcement(self, net7):
        api = self._periscope(net7, [3, 4])
        events = []
        api.subscribe(events.append)
        api.watch([P("10.0.0.0/23")])
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.run_for(45.0)
        assert events
        assert all(e.source == "periscope" for e in events)
        assert {e.vantage_asn for e in events} == {3, 4}

    def test_unchanged_answers_deduplicated(self, net7):
        api = self._periscope(net7, [3])
        events = []
        api.subscribe(events.append)
        api.watch([P("10.0.0.0/23")])
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.run_for(200.0)  # many poll rounds
        announcements = [e for e in events if e.is_announcement]
        assert len(announcements) == 1  # reported once, not per poll

    def test_withdraw_reported(self, net7):
        api = self._periscope(net7, [3])
        events = []
        api.subscribe(events.append)
        api.watch([P("10.0.0.0/23")])
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.run_for(45.0)
        net7.speaker(6).withdraw_origin(P("10.0.0.0/23"))
        net7.run_until_converged()
        net7.run_for(45.0)
        assert any(not e.is_announcement for e in events)

    def test_origin_change_reported(self, net7):
        api = self._periscope(net7, [3])
        events = []
        api.subscribe(events.append)
        api.watch([P("10.0.0.0/23")])
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.run_for(45.0)
        net7.announce(7, "10.0.0.0/23")  # hijack; AS3 may or may not flip
        net7.run_until_converged()
        net7.run_for(45.0)
        origins = {e.origin_as for e in events if e.is_announcement}
        assert 6 in origins  # baseline seen
        if net7.resolve_origin(3, "10.0.0.5") == 7:
            assert 7 in origins  # flip seen too

    def test_stop_polling(self, net7):
        api = self._periscope(net7, [3])
        api.subscribe(lambda e: None)
        api.watch([P("10.0.0.0/23")])
        net7.run_for(50.0)
        count = api.queries_sent
        api.stop()
        assert not api.polling
        net7.run_for(100.0)
        assert api.queries_sent == count

    def test_invalid_poll_interval(self, net7):
        with pytest.raises(FeedError):
            PeriscopeAPI(net7.engine, [], poll_interval=0.0)

    def test_polls_staggered_across_lgs(self, net7):
        api = self._periscope(net7, [3, 4, 5], poll=30.0)
        api.watch([P("10.0.0.0/23")])
        net7.run_for(31.0)
        served = [lg.queries_served for lg in api.looking_glasses]
        assert all(count >= 1 for count in served)


class TestBacklogCap:
    def _overloaded_lg(self, net, backlog=3):
        return LookingGlass(
            "lg-3",
            net.speaker(3),
            net.engine,
            query_delay=Constant(0.2),
            min_query_interval=10.0,
            rng=SeededRNG(3),
            max_backlog=backlog,
        )

    def test_overload_drops_past_backlog(self, net7):
        # Regression: queries beyond the rate limit used to queue without
        # bound, so a fast client pushed the schedule arbitrarily far into
        # the future and answer staleness grew forever.
        lg = self._overloaded_lg(net7, backlog=3)
        times = []
        for _ in range(50):
            lg.query(P("10.0.0.0/23"), lambda when, rows: times.append(when))
        net7.run_for(200.0)
        assert lg.queries_dropped > 0
        assert lg.queries_served + lg.queries_dropped == 50
        # Only the immediate query plus a full backlog ever run.
        assert lg.queries_served <= 1 + 3

    def test_backlog_drain_bounded_drift(self, net7):
        lg = self._overloaded_lg(net7, backlog=3)
        for _ in range(50):
            lg.query(P("10.0.0.0/23"), lambda when, rows: None)
        # The rate-limit schedule never drifts past backlog * interval.
        assert lg._next_allowed - net7.engine.now <= 3 * 10.0 + 1e-9

    def test_backlog_recovers_after_drain(self, net7):
        lg = self._overloaded_lg(net7, backlog=1)
        for _ in range(10):
            lg.query(P("10.0.0.0/23"), lambda when, rows: None)
        dropped = lg.queries_dropped
        assert dropped > 0
        net7.run_for(60.0)  # queue drains
        served = []
        lg.query(P("10.0.0.0/23"), lambda when, rows: served.append(when))
        net7.run_for(30.0)
        assert len(served) == 1
        assert lg.queries_dropped == dropped  # no new drops once idle

    def test_unlimited_lg_never_drops(self, net7):
        lg = make_lg(net7, 3, min_interval=0.0)
        for _ in range(100):
            lg.query(P("10.0.0.0/23"), lambda when, rows: None)
        net7.run_for(10.0)
        assert lg.queries_dropped == 0
        assert lg.queries_served == 100

    def test_api_aggregates_drops(self, net7):
        lgs = [self._overloaded_lg(net7, backlog=2)]
        api = PeriscopeAPI(net7.engine, lgs, poll_interval=1.0, rng=SeededRNG(0))
        api.subscribe(lambda e: None)
        api.watch([P("10.0.0.0/23")])
        net7.run_for(120.0)
        api.stop()
        assert api.queries_dropped == lgs[0].queries_dropped
        assert api.queries_dropped > 0
        assert "dropped" in repr(api)


class TestDeadLookingGlass:
    def test_dead_lg_counts_drops(self, net7):
        # Regression: queries to a dead LG must fail fast into the
        # queries_dropped accounting instead of queueing forever.
        lg = make_lg(net7, 3, min_interval=10.0)
        lg.fail()
        answers = []
        for _ in range(5):
            lg.query(P("10.0.0.0/23"), lambda when, rows: answers.append(rows))
        net7.run_for(60.0)
        assert answers == []
        assert lg.queries_dropped == 5
        assert lg.queries_served == 0
        assert lg.failures == 1

    def test_dead_drops_do_not_advance_rate_clock(self, net7):
        # The outage must not accumulate rate-limit slots: a recovering LG
        # answers promptly instead of first paying off its downtime.
        lg = make_lg(net7, 3, min_interval=10.0)
        lg.fail()
        for _ in range(5):
            lg.query(P("10.0.0.0/23"), lambda when, rows: None)
        assert lg._next_allowed == 0.0
        lg.repair()
        times = []
        lg.query(P("10.0.0.0/23"), lambda when, rows: times.append(when))
        net7.run_for(5.0)
        assert len(times) == 1
        assert times[0] < 1.0  # answered immediately, no backlog to drain

    def test_query_in_flight_when_lg_dies_is_lost(self, net7):
        lg = make_lg(net7, 3, query_delay=2.0)
        answers = []
        lg.query(P("10.0.0.0/23"), lambda when, rows: answers.append(rows))
        lg.fail()  # dies before the query reaches the router
        net7.run_for(10.0)
        assert answers == []
        assert lg.queries_dropped == 1

    def test_one_dead_lg_does_not_wedge_fanout(self, net7):
        # Regression: the poll scheduler keeps serving events from the
        # surviving LGs while a dead one eats its queries.
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        lgs = [make_lg(net7, 3), make_lg(net7, 4)]
        lgs[0].fail()
        api = PeriscopeAPI(net7.engine, lgs, poll_interval=20.0, rng=SeededRNG(0))
        events = []
        api.subscribe(events.append)
        api.watch([P("10.0.0.0/23")])
        net7.run_for(45.0)
        api.stop()
        assert api.transport_up  # one LG still answers
        assert lgs[0].queries_dropped > 0
        assert events  # fan-out not wedged
        assert {e.vantage_asn for e in events} == {4}

    def test_all_dead_takes_transport_down(self, net7):
        lgs = [make_lg(net7, 3), make_lg(net7, 4)]
        api = PeriscopeAPI(net7.engine, lgs, poll_interval=20.0, rng=SeededRNG(0))
        for lg in lgs:
            lg.fail()
        assert not api.transport_up
        assert not api.reconnect()  # supervisor probe fails while all dead
        lgs[1].repair()
        assert api.transport_up
        assert api.reconnect()

    def test_repaired_lg_serves_next_poll_round(self, net7):
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        lg = make_lg(net7, 3)
        lg.fail()
        api = PeriscopeAPI(net7.engine, [lg], poll_interval=20.0, rng=SeededRNG(0))
        events = []
        api.subscribe(events.append)
        api.watch([P("10.0.0.0/23")])
        net7.run_for(45.0)
        assert events == []
        dropped = lg.queries_dropped
        assert dropped > 0
        lg.repair()
        net7.run_for(45.0)
        api.stop()
        assert events  # polls resumed by themselves after repair
        assert lg.queries_dropped == dropped  # no further drops once up
