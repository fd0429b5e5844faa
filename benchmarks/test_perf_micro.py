"""Performance microbenchmarks of the substrate hot paths.

Not a paper artefact — these guard the simulator's own performance (the
reproduction suites run hundreds of full experiments, so prefix-table
lookups, the decision process, and event dispatch must stay cheap).
"""

import pytest

from repro.bgp.decision import select_best
from repro.bgp.route import Route
from repro.net.prefix import (
    Address,
    Prefix,
    covering,
    longest_match,
    present_lengths,
)
from repro.sim.engine import Engine
from repro.sim.rng import SeededRNG
from repro.testbed.scenario import HijackExperiment, ScenarioConfig
from repro.topology.generator import GeneratorConfig


def test_perf_prefix_parse(benchmark):
    benchmark(Prefix.parse, "203.0.113.0/24")


def _random_table(seed, count=10_000):
    """An ``ikey`` prefix table of ``count`` random v4 /8–/24 prefixes."""
    rng = SeededRNG(seed)
    table = {}
    for _ in range(count):
        value = rng.getrandbits(32)
        table[Prefix(value, rng.randint(8, 24), 4).ikey] = value
    return table, Address(rng.getrandbits(32), 4)


def test_perf_prefix_table_longest_match(benchmark):
    """Longest match over 10k prefixes, probing only the lengths present."""
    table, probe = _random_table(0)
    lengths = present_lengths(table)[4]
    benchmark(longest_match, table, probe, lengths)


def test_perf_prefix_table_covering(benchmark):
    """Every covering value over 10k prefixes (the RPKI and interest read)."""
    table, probe = _random_table(1)
    lengths = present_lengths(table)[4]
    benchmark(covering, table, probe, lengths)


def test_perf_decision_process(benchmark):
    prefix = Prefix.parse("10.0.0.0/23")
    rng = SeededRNG(2)
    candidates = [
        Route(
            prefix,
            tuple(rng.randint(1, 65000) for _ in range(rng.randint(2, 6))),
            peer_asn=peer,
            local_pref=rng.choice([100, 200, 300]),
            learned_at=float(peer),
        )
        for peer in range(1, 33)
    ]
    benchmark(select_best, candidates)


def test_perf_engine_event_throughput(benchmark):
    def run_10k():
        engine = Engine()
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                engine.schedule(0.001, tick)

        engine.schedule(0.001, tick)
        engine.run()

    benchmark(run_10k)


def test_perf_engine_cancel_heavy(benchmark):
    """Schedule/cancel churn — the pattern MRAI and poll timers produce."""

    def churn():
        engine = Engine()
        keep = [engine.schedule(10.0, lambda: None) for _ in range(50)]
        for _ in range(2_000):
            engine.schedule(1000.0, lambda: None).cancel()
        engine.run()
        assert all(h.fired for h in keep)

    benchmark(churn)


def test_engine_tombstones_stay_bounded():
    """Scaling guard: cancelled events must not accumulate in the heap.

    With lazy purging alone, a timer-heavy workload (schedule + cancel per
    update, as MRAI does) leaves every cancelled entry in the queue until
    its time is reached; the compaction threshold bounds the heap at a
    small multiple of the live event count instead.
    """
    engine = Engine()
    live = [engine.schedule(1e6, lambda: None) for _ in range(100)]
    for _ in range(50_000):
        engine.schedule(1000.0, lambda: None).cancel()
    assert engine.pending_events() == len(live)
    assert len(engine._queue) <= 2 * len(live) + 64, (
        f"heap holds {len(engine._queue)} entries for {len(live)} live events"
    )


def test_perf_full_experiment_small(benchmark):
    """End-to-end cost of one small (churn-free) hijack experiment."""

    def run():
        config = ScenarioConfig(
            seed=5,
            topology=GeneratorConfig(num_tier1=3, num_tier2=10, num_stubs=25),
            churn=None,
            churn_warmup=0.0,
            baseline_settle=60.0,
            monitors=dict(
                num_ris_vantages=6, num_bgpmon_vantages=4, num_lgs=4,
                lg_poll_interval=30.0, num_batch_vantages=4,
            ),
        )
        result = HijackExperiment(config).run()
        assert result.mitigated

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_generator_build_cost_stays_linear():
    """Scaling guard: topology generation must not walk tier-2 per stub.

    The stub-attachment loop used to rebuild its same-region/other-region
    provider pools from scratch for every stub — O(stubs x tier2) node
    lookups, the dominant generator cost at 10k ASes (hundreds of
    thousands of lookups for the config below).  With the pools
    precomputed per region, lookups stay proportional to the AS count.
    The bound is deliberately loose: it only has to rule out the
    superlinear regime.
    """
    from repro.topology.generator import generate_internet
    from repro.topology.graph import ASGraph

    calls = [0]
    original = ASGraph.node

    def counting(self, asn):
        calls[0] += 1
        return original(self, asn)

    config = GeneratorConfig(num_tier1=8, num_tier2=150, num_stubs=600)
    ASGraph.node = counting
    try:
        generate_internet(config, seed=3)
    finally:
        ASGraph.node = original
    assert calls[0] < 8 * config.total_ases, (
        f"generator made {calls[0]} node lookups for {config.total_ases} ASes"
    )


# --------------------------------------------------------- feed fan-out paths


class _FakeCollector:
    name = "bench-rc"


def _watch_prefix(i):
    return Prefix.parse(f"10.{i >> 8}.{i & 255}.0/24")


def _churn_stream(num_subscriptions):
    from repro.feeds.stream import StreamingService
    from repro.sim.latency import Constant

    service = StreamingService(Engine(), latency=Constant(1.0), rng=SeededRNG(0))
    for i in range(num_subscriptions):
        service.subscribe(lambda e: None, prefixes=[_watch_prefix(i)])
    return service


def test_perf_interest_lookup_many_subscriptions(benchmark):
    """One interest lookup against 2048 prefix-filtered subscriptions."""
    from repro.feeds.interest import InterestIndex

    index = InterestIndex()
    for i in range(2048):
        index.add(lambda e: None, prefixes=[_watch_prefix(i)])
    churn = Prefix.parse("99.1.2.0/24")
    benchmark(index.lookup, churn)


def test_perf_stream_fanout_under_churn(benchmark):
    """Per-observation stream cost with 512 uninterested subscribers."""
    service = _churn_stream(512)
    churn = Prefix.parse("99.1.2.0/24")
    benchmark(
        service._on_observation,
        _FakeCollector(), 3, "A", churn, (3, 2, 1), 0.0,
    )


def test_fanout_cost_independent_of_subscription_count():
    """Scaling guard: 128x more subscriptions must not mean 128x slower.

    With the old linear scan, per-observation cost grew with the number of
    subscriptions; the interest index bounds it by the filter lengths present.
    The 10x bound is deliberately loose — it only has to rule out the
    linear regime, not measure constants.
    """
    import time

    churn = Prefix.parse("99.1.2.0/24")
    rounds = 2_000

    def cost(num_subscriptions):
        service = _churn_stream(num_subscriptions)
        collector = _FakeCollector()
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(rounds):
                service._on_observation(collector, 3, "A", churn, (3, 2, 1), 0.0)
            best = min(best, time.perf_counter() - start)
        return best

    small, large = cost(16), cost(2048)
    assert large < small * 10, (
        f"fan-out scaled with subscription count: {small:.6f}s @16 vs "
        f"{large:.6f}s @2048"
    )


# ------------------------------------------------------------ record decoder


def test_decoder_cost_independent_of_path_repetition():
    """Scaling guard: the decoder's gain must not rest on repeated paths.

    Amplified traces repeat ~4k AS-path spellings, so ~98 % of their
    records hit the path intern table; an un-amplified recording repeats
    ~38 %.  The miss path (whole-spelling validation, no per-hop object)
    has to stay close to the hit path: 50k records with all-distinct path
    spellings must parse within 3x of 50k records sharing one spelling.
    """
    import time

    from repro.feeds.dumpfile import parse_event

    count = 50_000

    def lines(path_of):
        return [
            f"A|ris|rrc00|64500|10.0.0.0/24|{path_of(i)}|{i}.0|{i}.5"
            for i in range(count)
        ]

    def cost(batches):
        best = float("inf")
        for batch in batches:
            start = time.perf_counter()
            for line in batch:
                parse_event(line)
            best = min(best, time.perf_counter() - start)
        return best

    shared = cost([lines(lambda i: "3356 1299 174 64496 64500")] * 3)
    # 50k spellings fit the table, so a batch parsed twice would hit on the
    # second pass: each round gets spellings no earlier round used.
    distinct = cost(
        lines(lambda i, r=r: f"3356 1299 {r} {100_000 + i} 64500") for r in range(3)
    )
    assert distinct < shared * 3, (
        f"decoder leans on path repetition: {shared:.4f}s shared vs "
        f"{distinct:.4f}s all-distinct per {count} records"
    )


# ------------------------------------------------------------- verdict cache


def test_verdict_cache_miss_cost_independent_of_cache_size():
    """Scaling guard: evicting from a full verdict cache must be O(1).

    All-distinct keys through a full cache: every announcement is a miss
    and an eviction.  A miss costs a ladder run and two appends whatever
    the bound, so the per-miss cost at the default 65,536 bound must stay
    within 2x of the cost at 4,096 (measured 1.1-1.3x).  Evicting with
    ``del cache[next(iter(cache))]`` measured 3.4x: dicts keep dead slots
    until they resize, and each scan walks the run of them.
    """
    import itertools
    import time

    from repro.core.config import ArtemisConfig, OwnedPrefix
    from repro.feeds.events import FeedEvent
    from repro.perf import COUNTERS
    from repro.tenants import DetectionPlane, TenantRegistry

    registry = TenantRegistry()
    registry.add_tenant(
        "acme", ArtemisConfig([OwnedPrefix("10.0.0.0/23", [65001], [64600])])
    )
    prefix = Prefix.parse("10.0.0.0/23")
    count = 65_536

    def cost(cache_size):
        plane = DetectionPlane(
            registry, batch_size=1024, verdict_cache_size=cache_size
        )
        serial = itertools.count(100_000)

        def feed(n):
            # Benign paths (legit origin and upstream), distinct first hop:
            # a new key each, and no alert state to grow under the timer.
            events = [
                FeedEvent(
                    source="ris", collector="rrc00", vantage_asn=100,
                    kind="A", prefix=prefix,
                    as_path=(next(serial), 64600, 65001),
                    observed_at=1.0, delivered_at=1.5,
                )
                for _ in range(n)
            ]
            start = time.perf_counter()
            for event in events:
                plane.ingest(event)
            plane.flush()
            return time.perf_counter() - start

        feed(cache_size)  # fill the cache: every later key evicts
        evictions = COUNTERS.verdict_cache_evictions
        best = min(feed(count) for _ in range(3))
        assert COUNTERS.verdict_cache_evictions == evictions + 3 * count
        assert plane.total_alerts() == 0
        return best / count

    small, large = cost(4_096), cost(65_536)
    assert large < small * 2, (
        f"verdict-cache eviction scales with the cache: {small * 1e6:.2f} us "
        f"per miss at 4,096 entries vs {large * 1e6:.2f} us at 65,536"
    )
