"""Property-style equivalence: incremental decisions == full ``select_best``.

The speaker's hot path dispatches most routing changes through incremental
shortcuts (new-best compare, withdrawn-best rescan, displaced-replacement
rescan) instead of rescanning every candidate per UPDATE.  The shortcuts
are only sound because preference keys are unique per candidate set — so
this test hammers a small randomly-wired world with every mutation the
simulation performs (announce, implicit replace, withdraw, local
origination, forged origination, session teardown and re-establishment)
and re-derives every speaker's Loc-RIB from scratch with the reference
:func:`~repro.bgp.decision.select_best` after each convergence.

Any divergence between the incremental result and the full rescan — a
stale best, a missed promotion, a wrong tie-break — fails here with the
exact speaker and prefix.

A second test pins the session-teardown order: a ``remove_peer`` issued
mid-convergence must produce the same best-change callbacks and schedule
the same MRAI flushes, in the same order, on every run — and in the order
recorded before the second Adj-RIB-In layout was deleted.
"""

import hashlib
import random

from repro.bgp.decision import select_best
from repro.bgp.policy import Relationship
from repro.bgp.session import ActivityTracker, Session
from repro.bgp.speaker import BGPSpeaker
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.sim.latency import Constant
from repro.sim.rng import SeededRNG


def _build_world(rng):
    engine = Engine()
    tracker = ActivityTracker()
    speakers = {}
    for asn in range(1, 7):
        speakers[asn] = BGPSpeaker(
            asn,
            engine,
            rng=SeededRNG(asn),
            tracker=tracker,
            processing_delay=Constant(0.01),
            mrai=Constant(rng.choice([0.0, 0.5])),
        )
    links = {}
    pairs = [(a, b) for a in speakers for b in speakers if a < b]
    for a, b in rng.sample(pairs, k=9):
        relationship = rng.choice(
            [Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER]
        )
        session = Session(
            engine,
            speakers[a],
            speakers[b],
            delay=Constant(0.01),
            rng=SeededRNG(a * 1000 + b),
            tracker=tracker,
        )
        speakers[a].add_peer(session, relationship)
        speakers[b].add_peer(session, relationship.inverse())
        links[(a, b)] = relationship
    return engine, tracker, speakers, links


def _converge(engine, tracker, max_time=3600.0):
    while tracker.busy:
        assert engine.peek_time() is not None, "activity pending but queue empty"
        assert engine.now < max_time, "did not converge"
        engine.step()


def _assert_loc_rib_matches_full_rescan(speakers):
    for asn, speaker in speakers.items():
        prefixes = {p.ikey: p for p in speaker.adj_rib_in.prefixes()}
        for prefix in speaker.originated_prefixes:
            prefixes[prefix.ikey] = prefix
        # Every known prefix: incremental best == reference full scan.
        for prefix in prefixes.values():
            candidates = speaker.adj_rib_in.candidates(prefix)
            local = speaker._local_routes.get(prefix.ikey)
            if local is not None:
                candidates.append(local)
            expected = select_best(candidates)
            installed = speaker.loc_rib.get(prefix)
            assert installed is expected, (
                f"AS{asn} {prefix}: loc_rib has {installed!r}, "
                f"full rescan selects {expected!r}"
            )
        # And nothing else is installed.
        for route in speaker.loc_rib.routes():
            assert route.prefix.ikey in prefixes


def test_incremental_decisions_match_select_best():
    rng = random.Random(1234)
    prefixes = [Prefix.parse(f"10.0.{i}.0/24") for i in range(4)]
    for world_seed in range(5):
        world_rng = random.Random(world_seed)
        engine, tracker, speakers, links = _build_world(world_rng)
        torn_down = []
        for _step in range(40):
            op = rng.random()
            asn = rng.randint(1, 6)
            speaker = speakers[asn]
            prefix = rng.choice(prefixes)
            if op < 0.45:
                if not speaker.originates(prefix):
                    speaker.originate(prefix)
            elif op < 0.65:
                if speaker.originates(prefix):
                    speaker.withdraw_origin(prefix)
                else:
                    speaker.originate(prefix)
            elif op < 0.75:
                if not speaker.originates(prefix):
                    suffix = tuple(
                        rng.sample(sorted(set(range(1, 7)) - {asn}), k=1)
                    )
                    speaker.originate_forged(prefix, suffix)
            elif op < 0.85 and links:
                # Tear a random session down (teardown withdraws on both
                # sides and re-runs the withdraw-aware decision).
                a, b = rng.choice(sorted(links))
                relationship = links.pop((a, b))
                speakers[a].remove_peer(speakers[b].asn)
                speakers[b].remove_peer(speakers[a].asn)
                torn_down.append((a, b, relationship))
            elif torn_down:
                # Re-establish a torn-down session; the new peer receives
                # the current table per the initial-exchange path.
                a, b, relationship = torn_down.pop(
                    rng.randrange(len(torn_down))
                )
                session = Session(
                    engine,
                    speakers[a],
                    speakers[b],
                    delay=Constant(0.01),
                    rng=SeededRNG(a * 1000 + b + 7),
                    tracker=tracker,
                )
                speakers[a].add_peer(session, relationship)
                speakers[b].add_peer(session, relationship.inverse())
                links[(a, b)] = relationship
            _converge(engine, tracker)
            _assert_loc_rib_matches_full_rescan(speakers)


def _teardown_mid_convergence_log(world_seed):
    """Everything observable about one scripted run: every best-change
    callback and every MRAI flush scheduled, in program order."""
    engine, tracker, speakers, links = _build_world(random.Random(world_seed))
    log = []

    def on_best_change(speaker, prefix, new, old):
        log.append(
            (
                "best",
                engine.now,
                speaker.asn,
                str(prefix),
                new.as_path if new is not None else None,
                old.as_path if old is not None else None,
            )
        )

    for speaker in speakers.values():
        speaker.on_best_change(on_best_change)
    schedule_at = engine.schedule_at

    def logging_schedule_at(when, callback, *args):
        if getattr(callback, "__name__", "") == "_flush_tracked":
            log.append(("flush", engine.now, when, callback.__self__.asn, args[0]))
        return schedule_at(when, callback, *args)

    engine.schedule_at = logging_schedule_at
    # Learn order deliberately differs from prefix order: descending /24s,
    # then a covering /16 and a v6 block, from two origins.
    prefixes = [Prefix.parse(f"10.0.{i}.0/24") for i in (5, 3, 4, 0, 2)]
    prefixes += [Prefix.parse("10.0.0.0/16"), Prefix.parse("2001:db8::/32")]
    rng = random.Random(world_seed + 100)
    for prefix in prefixes:
        speakers[rng.randint(1, 6)].originate(prefix)
    _converge(engine, tracker)
    # New churn, stopped part-way: updates in flight, flushes pending.
    for prefix in rng.sample(prefixes, k=3):
        origin = rng.randint(1, 6)
        if not speakers[origin].originates(prefix):
            speakers[origin].originate(prefix)
    for _ in range(6):
        engine.step()
    assert tracker.busy, "script meant to tear down mid-convergence"

    def bests_over(pair):
        # Installed bests the link carries, either direction: tearing the
        # busiest link down forces the most re-decisions.
        return sum(
            route.peer_asn == far
            for near, far in (pair, pair[::-1])
            for route in speakers[near].loc_rib.routes()
        )

    a, b = max(sorted(links), key=bests_over)
    assert bests_over((a, b)) > 1
    mark = len(log)
    speakers[a].remove_peer(b)
    speakers[b].remove_peer(a)
    assert len(log) > mark, "teardown changed nothing observable"
    _converge(engine, tracker)
    _assert_loc_rib_matches_full_rescan(speakers)
    for asn, speaker in speakers.items():
        log.extend(
            ("rib", asn, str(route.prefix), route.as_path)
            for route in speaker.loc_rib.routes()
        )
    return log


#: SHA-256 of ``repr(log)`` per world seed, recorded at commit 991779d (the
#: last with two layouts, which this log held equal): a change of teardown
#: or flush order fails here even though nothing is left to compare against.
_TEARDOWN_LOG_SHA256 = [
    "7f0c3d2d29496d9ddfd2fb1b8498206d1db9aa5795bde800d739e897c209684d",
    "e2f7b4c0076b50b549e51ac45a56915f8f7a94635b63ba65b726f574b223e2fa",
    "7874bab9658672497d0e9db6686d973f06b895ffd6f739a05f0d7b52c267ca34",
    "18e31cea8fab7d96969f068f5468424056a6481eb54d4ec6f9be8ebb69c88f20",
    "56d7307de0eff18fdde6971e0aafe5d775f49b2ce18f930d328735d8536e9b96",
]


def test_mid_convergence_teardown_is_deterministic():
    for world_seed, pinned in enumerate(_TEARDOWN_LOG_SHA256):
        log = _teardown_mid_convergence_log(world_seed)
        assert log == _teardown_mid_convergence_log(world_seed), (
            f"world {world_seed} differs between two runs"
        )
        digest = hashlib.sha256(repr(log).encode()).hexdigest()
        assert digest == pinned, f"world {world_seed} teardown order moved"
