"""Tests for the discrete-event engine."""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.net.prefix import Prefix
from repro.perf import collector_handed_off, collector_paused
from repro.sim.engine import Engine
from repro.tenants.synth import build_synth_registry

from conftest import gc_collections


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        log = []
        engine.schedule(2.0, lambda: log.append("b"))
        engine.schedule(1.0, lambda: log.append("a"))
        engine.schedule(3.0, lambda: log.append("c"))
        engine.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        engine = Engine()
        log = []
        for name in "abc":
            engine.schedule(1.0, log.append, name)
        engine.run()
        assert log == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(5.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5.5]
        assert engine.now == 5.5

    def test_args_passed(self):
        engine = Engine()
        result = []
        engine.schedule(1.0, lambda a, b: result.append(a + b), 2, 3)
        engine.run()
        assert result == [5]

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self):
        engine = Engine()
        log = []

        def outer():
            log.append(("outer", engine.now))
            engine.schedule(1.0, lambda: log.append(("inner", engine.now)))

        engine.schedule(1.0, outer)
        engine.run()
        assert log == [("outer", 1.0), ("inner", 2.0)]


class TestCancellation:
    def test_cancel_prevents_firing(self):
        engine = Engine()
        log = []
        handle = engine.schedule(1.0, lambda: log.append("x"))
        assert handle.cancel()
        engine.run()
        assert log == []

    def test_cancel_after_fire_returns_false(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.run()
        assert handle.fired
        assert not handle.cancel()

    def test_pending_states(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        assert handle.pending
        engine.run()
        assert not handle.pending


class TestRunBounds:
    def test_run_until_leaves_future_events(self):
        engine = Engine()
        log = []
        engine.schedule(1.0, lambda: log.append(1))
        engine.schedule(10.0, lambda: log.append(10))
        engine.run(until=5.0)
        assert log == [1]
        assert engine.now == 5.0
        engine.run()
        assert log == [1, 10]

    def test_run_for(self):
        engine = Engine()
        engine.run_for(7.0)
        assert engine.now == 7.0

    def test_max_events_guard(self):
        engine = Engine()

        def loop():
            engine.schedule(0.1, loop)

        engine.schedule(0.1, loop)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_reentrancy_rejected(self):
        engine = Engine()

        def reenter():
            engine.run()

        engine.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            engine.run()

    def test_events_processed_counter(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.events_processed == 5


class TestPeriodic:
    def test_fires_repeatedly(self):
        engine = Engine()
        log = []
        engine.schedule_periodic(1.0, lambda: log.append(engine.now))
        engine.run(until=5.5)
        assert log == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_first_delay_override(self):
        engine = Engine()
        log = []
        engine.schedule_periodic(2.0, lambda: log.append(engine.now), first_delay=0.5)
        engine.run(until=5.0)
        assert log == [0.5, 2.5, 4.5]

    def test_cancel_stops_series(self):
        engine = Engine()
        log = []
        handle = engine.schedule_periodic(1.0, lambda: log.append(engine.now))

        def stop():
            handle.cancel()

        engine.schedule(2.5, stop)
        engine.run(until=10.0)
        assert log == [1.0, 2.0]

    def test_invalid_interval(self):
        with pytest.raises(SimulationError):
            Engine().schedule_periodic(0.0, lambda: None)


class TestIntrospection:
    def test_peek_time_skips_cancelled(self):
        engine = Engine()
        first = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        first.cancel()
        assert engine.peek_time() == 2.0

    def test_peek_time_empty(self):
        assert Engine().peek_time() is None

    def test_pending_events(self):
        engine = Engine()
        a = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        a.cancel()
        assert engine.pending_events() == 1

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False


class TestTombstones:
    def test_cancel_counts_tombstones(self):
        engine = Engine()
        handles = [engine.schedule(float(i + 1), lambda: None) for i in range(10)]
        handles[3].cancel()
        handles[7].cancel()
        assert engine.tombstones == 2
        assert engine.pending_events() == 8

    def test_double_cancel_counts_once(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        assert handle.cancel()
        assert not handle.cancel()
        assert engine.tombstones == 1

    def test_mass_cancellation_compacts_queue(self):
        engine = Engine()
        keep = [engine.schedule(float(i + 1), lambda: None) for i in range(10)]
        doomed = [engine.schedule(1000.0, lambda: None) for _ in range(200)]
        for handle in doomed:
            handle.cancel()
        # Tombstones exceeded half the queue well past the size floor, so
        # the heap was rebuilt at least once; the live count stays exact
        # even though stragglers below the size floor may linger lazily.
        assert engine.tombstones < len(doomed)
        assert engine.pending_events() == len(keep)
        assert len(engine._queue) < len(keep) + len(doomed)

    def test_small_queues_never_compact(self):
        engine = Engine()
        handles = [engine.schedule(float(i + 1), lambda: None) for i in range(10)]
        for handle in handles:
            handle.cancel()
        assert len(engine._queue) == len(handles)  # tombstones stay queued
        assert engine.pending_events() == 0

    def test_run_purges_head_tombstones(self):
        engine = Engine()
        log = []
        doomed = engine.schedule(1.0, lambda: log.append("doomed"))
        engine.schedule(2.0, lambda: log.append("live"))
        doomed.cancel()
        engine.run()
        assert log == ["live"]
        assert engine.tombstones == 0

    def test_cancelled_events_never_fire_after_compaction(self):
        engine = Engine()
        log = []
        live = [engine.schedule(float(i + 1), log.append, i) for i in range(5)]
        doomed = [engine.schedule(0.5, log.append, "bad") for _ in range(200)]
        for handle in doomed:
            handle.cancel()
        engine.run()
        assert log == list(range(5))
        assert all(h.fired for h in live)

    def test_mid_run_compaction_keeps_draining_new_events(self):
        # Regression: a callback that mass-cancels queued events can trip
        # the compaction threshold while run() is draining.  The rebuild
        # must not strand run()'s view of the queue — events scheduled
        # after the compaction (by the same or later callbacks) must still
        # fire, and the tombstone counter must stay non-negative.
        engine = Engine()
        log = []
        sizes = []
        doomed = [engine.schedule(1000.0, log.append, "bad") for _ in range(200)]

        def purge_and_reschedule() -> None:
            for handle in doomed:
                handle.cancel()
            sizes.append(len(engine._queue))
            engine.schedule(1.0, log.append, "after-compaction")

        engine.schedule(1.0, purge_and_reschedule)
        engine.schedule(3.0, log.append, "tail")
        engine.run()
        assert sizes[0] < len(doomed)  # compacted mid-run
        assert log == ["after-compaction", "tail"]
        assert engine.tombstones == 0
        assert engine.pending_events() == 0

    def test_mid_run_compaction_inside_step_and_peek(self):
        # step() and peek_time() hold the same alias; cancelling from a
        # stepped callback must leave them coherent too.
        engine = Engine()
        log = []
        doomed = [engine.schedule(1000.0, log.append, "bad") for _ in range(200)]

        def purge() -> None:
            for handle in doomed:
                handle.cancel()
            engine.schedule(0.5, log.append, "late")

        engine.schedule(1.0, purge)
        assert engine.step()  # fires purge, compacting mid-step
        assert len(engine._queue) < len(doomed)
        assert engine.peek_time() == 1.5
        assert engine.step()
        assert not engine.step()
        assert log == ["late"]
        assert engine.tombstones >= 0


class TestPeriodicHandleState:
    def test_fired_and_firings_track_progress(self):
        engine = Engine()
        handle = engine.schedule_periodic(1.0, lambda: None)
        assert not handle.fired
        assert handle.firings == 0
        engine.run(until=3.5)
        assert handle.fired
        assert handle.firings == 3

    def test_time_tracks_next_firing(self):
        engine = Engine()
        handle = engine.schedule_periodic(1.0, lambda: None, first_delay=0.5)
        assert handle.time == 0.5
        engine.run(until=2.0)
        assert handle.time == 2.5

    def test_pending_until_cancelled_even_after_firing(self):
        engine = Engine()
        handle = engine.schedule_periodic(1.0, lambda: None)
        engine.run(until=2.5)
        assert handle.pending  # the series is still live
        assert handle.cancel()
        assert not handle.pending
        assert not handle.cancel()

    def test_cancel_drops_queued_firing(self):
        engine = Engine()
        handle = engine.schedule_periodic(1.0, lambda: None)
        engine.run(until=1.5)
        handle.cancel()
        # The queued next firing became a tombstone, not a live event.
        assert engine.pending_events() == 0

    def test_repr_reports_series_state(self):
        engine = Engine()
        handle = engine.schedule_periodic(2.0, lambda: None)
        engine.run(until=4.5)
        text = repr(handle)
        assert "firings=2" in text
        assert "next=6.000" in text


@pytest.mark.usefixtures("restore_gc")
class TestCollectorPause:
    """``run()`` pauses the cyclic collector and hands it back as found."""

    def test_paused_inside_and_restored_on_return(self, caller_gc_enabled):
        engine = Engine()
        seen = []
        engine.schedule(1.0, lambda: seen.append(gc.isenabled()))
        engine.run()
        assert seen == [False]
        assert gc.isenabled() is caller_gc_enabled

    def test_restored_when_a_callback_raises(self, caller_gc_enabled):
        engine = Engine()

        def boom():
            raise RuntimeError("callback failed")

        engine.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            engine.run()
        assert gc.isenabled() is caller_gc_enabled

    def test_restored_after_rejected_reentry(self, caller_gc_enabled):
        engine = Engine()
        seen = []

        def reenter():
            try:
                engine.run()
            finally:
                # The refused inner run() must not lift the outer pause.
                seen.append(gc.isenabled())

        engine.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            engine.run()
        assert seen == [False]
        assert gc.isenabled() is caller_gc_enabled

    def test_nested_pause_is_a_no_op(self):
        gc.enable()
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled(), "inner exit lifted the outer pause"
        assert gc.isenabled()

    def test_no_collection_runs_during_a_drain(self):
        gc.enable()
        engine = Engine()
        # Enough container allocations per event to trip generation 0 many
        # times over if the collector were live.
        keep = []
        for _ in range(50):
            engine.schedule(1.0, lambda: keep.extend([i] for i in range(1000)))
        inside = []
        engine.schedule(2.0, lambda: inside.append(gc_collections()))
        before = gc_collections()
        engine.run()
        assert inside == [before]


@pytest.fixture
def thawed_heap(restore_gc):
    """A heap nothing has frozen: a worker plane started by an earlier test
    freezes this process for good.  Frozen again afterwards if it was."""
    frozen = gc.get_freeze_count()
    gc.unfreeze()
    yield
    if frozen:
        gc.freeze()


class _Node:
    pass


class TestCollectorHandOff:
    """A bulk compile pauses the collector and files what it built in the
    oldest generation, so no young collection is owed when it resumes."""

    def test_synth_compile_runs_no_collection(self, thawed_heap):
        gc.enable()
        origins = {Prefix.parse(f"10.{i}.0.0/16"): 65000 + i for i in range(8)}
        started = []
        gc.callbacks.append(lambda phase, info: started.append(info["generation"]))
        try:
            # 4,000 rows: 14 collections with the collector live.
            registry = build_synth_registry(origins, num_tenants=40, num_prefixes=4000)
        finally:
            gc.callbacks.pop()
        assert registry.num_rules == 4000
        assert started == []
        assert gc.isenabled()

    def test_a_frozen_heap_stays_frozen(self, restore_gc):
        gc.enable()
        thawed = not gc.get_freeze_count()
        if thawed:
            gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            with collector_handed_off():
                assert not gc.isenabled()
                keep = [[i] for i in range(1000)]
            assert gc.get_freeze_count() == frozen
            assert gc.isenabled() and len(keep) == 1000
        finally:
            if thawed:
                gc.unfreeze()

    def test_a_cycle_dropped_inside_is_still_freed(self, thawed_heap):
        gc.enable()
        with collector_handed_off():
            node = _Node()
            node.self = node
            ref = weakref.ref(node)
            del node
        assert gc.get_freeze_count() == 0
        assert ref() is not None  # refcounting alone cannot free a cycle
        gc.collect()
        assert ref() is None
