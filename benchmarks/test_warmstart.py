"""Warm-start checkpoint bench: snapshot the converged Internet, fork per run.

Not a paper artefact — this bench guards the checkpoint substrate's own
value proposition.  The workload is the canonical warm-start use case: a
detection-latency sweep (ARTEMIS's headline metric) over many hijack seeds
against ONE fixed 1000-AS Internet.  ``world_seed`` pins the world, so every
run seed shares a single converged phase-1 state; a cold sweep rebuilds and
re-converges that world per seed, a warm sweep captures it once and forks it
per seed, sharing its immutable routes and Adj-RIB-In rows.

Two properties are asserted, in this order of importance:

1. **Bit-identity** — every warm-started run's result must equal the cold
   run's for the same seed, field for field.  A warm-start that changes
   outcomes is a bug, whatever it saves.
2. **Wall clock** — the warm sweep (including the one-off capture) must
   beat the cold sweep.  The committed ``BENCH_warmstart.json`` records the
   full 50-seed protocol (≈2.5x end-to-end); the in-test guard is
   deliberately loose (warm < cold) so CI smoke runs on noisy small
   machines don't flake.

``BENCH_warmstart.json`` (next to this file) records the measured sweep;
regenerate with the protocol described there, or approximate with::

    WARMSTART_SWEEP_SEEDS=50 PYTHONPATH=src \
        python -m pytest benchmarks/test_warmstart.py -s --benchmark-only

Environment knobs (for CI smoke runs on small machines):

``WARMSTART_SWEEP_SEEDS``
    Sweep width for the speedup test (default 4; 0 disables it).
``WARMSTART_JOBS``
    Worker processes for both sweeps (default 1).
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import run_once
from repro.eval.experiments import run_artemis_suite
from repro.internet.churn import ChurnConfig
from repro.perf import COUNTERS
from repro.testbed import checkpoint as ckpt
from repro.testbed.scenario import ScenarioConfig
from repro.topology.generator import GeneratorConfig

#: Same ~1000-AS world as ``test_scale.py``.
WARMSTART_TOPOLOGY = dict(num_tier1=10, num_tier2=110, num_stubs=880)

#: The world-defining seed every run seed shares (via ``world_seed``).
WORLD_SEED = 11

#: First run seed of the sweep (spaced away from other benches' seeds).
FIRST_SEED = 101


def warmstart_config(seed: int = 0, warm_start: bool = False) -> ScenarioConfig:
    """The detection-latency sweep scenario (one run seed of it).

    Detection-focused: auto-mitigation off and a short observation window,
    because the sweep measures the detection-delay distribution — phase 1
    (convergence + baselines) dominates each cold run, which is exactly the
    cost a checkpoint amortises.  ``world_seed`` pins the Internet so all
    run seeds share one checkpoint.
    """
    return ScenarioConfig(
        seed=seed,
        world_seed=WORLD_SEED,
        topology=GeneratorConfig(**WARMSTART_TOPOLOGY),
        churn=ChurnConfig(pool_size=40, event_rate=0.25),
        auto_mitigate=False,
        observation_window=60.0,
        monitor_grace=30.0,
        monitors=dict(
            num_ris_vantages=20,
            num_bgpmon_vantages=12,
            num_lgs=12,
            lg_poll_interval=60.0,
            num_batch_vantages=12,
        ),
        warm_start=warm_start,
    )


@pytest.mark.slow
@pytest.mark.skipif(
    int(os.environ.get("WARMSTART_SWEEP_SEEDS", "4")) < 1,
    reason="sweep disabled via WARMSTART_SWEEP_SEEDS",
)
def test_warmstart_sweep_identical_and_faster(benchmark):
    """Cold sweep vs warm sweep: bit-identical results, less wall clock.

    The benchmark timer covers the *warm* sweep including its one-off
    checkpoint capture — i.e. everything a user pays when they opt in.
    The cold sweep is timed manually and reported via ``extra_info``.
    """
    num_seeds = int(os.environ.get("WARMSTART_SWEEP_SEEDS", "4"))
    jobs = int(os.environ.get("WARMSTART_JOBS", "1"))
    seeds = range(FIRST_SEED, FIRST_SEED + num_seeds)
    ckpt.clear_registry()

    cold_start = time.perf_counter()
    cold = run_artemis_suite(warmstart_config(), seeds, jobs=jobs)
    cold_seconds = time.perf_counter() - cold_start

    COUNTERS.reset()
    # Timed manually around the benchmark call so the wall-clock guard also
    # works under --benchmark-disable (where benchmark.stats is absent).
    warm_start_mark = time.perf_counter()
    warm = run_once(
        benchmark,
        lambda: run_artemis_suite(
            warmstart_config(warm_start=True), seeds, jobs=jobs
        ),
    )
    warm_seconds = time.perf_counter() - warm_start_mark

    assert [r.seed for r in warm] == list(seeds)
    for cold_result, warm_result in zip(cold, warm):
        assert warm_result.to_dict() == cold_result.to_dict(), (
            f"warm-started seed {warm_result.seed} diverged from cold"
        )
    # Detection delays must actually vary across seeds — a sweep whose runs
    # all collapse to one outcome would make the speedup claim vacuous.
    assert len({r.detection_delay for r in cold}) > 1 or num_seeds < 3

    assert warm_seconds < cold_seconds, (
        f"warm sweep ({warm_seconds:.1f}s) did not beat the cold sweep "
        f"({cold_seconds:.1f}s)"
    )
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 3)
    benchmark.extra_info["speedup"] = round(cold_seconds / warm_seconds, 2)
    benchmark.extra_info["seeds"] = num_seeds
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["counters"] = {
        field: value
        for field, value in COUNTERS.as_dict().items()
        if field.startswith("checkpoint") or field == "peak_rss_kb"
    }


@pytest.mark.slow
def test_warmstart_fork_is_milliseconds(benchmark):
    """A single fork of the converged 1000-AS world, timed in isolation.

    This is the per-run marginal cost a warm sweep pays instead of
    setup + phase 1; the tentpole promise is milliseconds, not seconds.
    """
    ckpt.clear_registry()
    checkpoint = ckpt.acquire_checkpoint(warmstart_config(warm_start=True))
    ckpt.pin_checkpoints()
    checkpoint.fork()  # warm the allocator before timing

    # Self-timed so the guard also works under --benchmark-disable (where
    # benchmark.stats is absent and pedantic only calls the function once).
    fork_walls = []

    def timed_fork():
        fork_mark = time.perf_counter()
        checkpoint.fork()
        fork_walls.append(time.perf_counter() - fork_mark)

    benchmark.pedantic(timed_fork, rounds=5, iterations=1)

    # The fork must stay well under a second — an order of magnitude below
    # the phase-1 convergence it replaces (~3s on the same hardware).
    assert min(fork_walls) < 1.0
    benchmark.extra_info["ases"] = len(
        checkpoint.experiment.network.speakers
    )
