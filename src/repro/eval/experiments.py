"""Suite runners: repeat seeded experiments and aggregate the paper's metrics.

The paper reports means "over a few dozen experiments"; these helpers run N
seeded repetitions of :class:`~repro.testbed.scenario.HijackExperiment` — of
ARTEMIS, or of any :data:`~repro.baselines.PROFILES` defender the template
names — with fresh topologies/sites per seed, then summarise each timing.

Seeded experiments are embarrassingly parallel — each seed builds its own
world from scratch and shares nothing at runtime — so
:func:`run_artemis_suite` fans the matrix out across worker processes when
``jobs > 1``.  Every world is fully determined by its seed, so the per-seed
results are bit-identical whatever the job count, and they are returned in
seed order regardless of completion order.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.eval.stats import Summary, summarize
from repro.perf import COUNTERS, sample_memory
from repro.proc import FORK
from repro.testbed.scenario import ExperimentResult, HijackExperiment, ScenarioConfig


def _config_for_seed(template: ScenarioConfig, seed: int) -> ScenarioConfig:
    config = copy.copy(template)
    config.seed = seed
    return config


#: The scenario template each worker process runs seeds against.  Installed
#: once per worker by the pool initializer, so the template is pickled per
#: worker rather than per seed.
_WORKER_TEMPLATE: Optional[ScenarioConfig] = None


def _init_worker(template: ScenarioConfig) -> None:
    global _WORKER_TEMPLATE
    _WORKER_TEMPLATE = template
    COUNTERS.reset()


def _run_worker_seed(seed: int) -> Tuple[ExperimentResult, Dict[str, int]]:
    """Run one seed in a worker; ship the result and the perf delta back."""
    before = COUNTERS.as_dict()
    result = HijackExperiment(_config_for_seed(_WORKER_TEMPLATE, seed)).run()
    sample_memory()
    return result, COUNTERS.delta_since(before)


def run_artemis_suite(
    template: ScenarioConfig,
    seeds: Sequence[int],
    on_result: Optional[Callable[[ExperimentResult], None]] = None,
    jobs: int = 1,
) -> List[ExperimentResult]:
    """Run one experiment per seed (independent worlds).

    ``jobs > 1`` fans the seeds out over that many forked worker processes;
    the per-seed outputs are identical to a serial run (each world is fully
    seeded) and ``on_result`` still fires in seed order.  Worker perf
    counters are merged back into the parent's
    :data:`repro.perf.COUNTERS` so ``--profile`` stays meaningful.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seeds = list(seeds)
    if template.warm_start or template.checkpoint is not None:
        # Build (or load) the shared world once and register it by key:
        # forked workers inherit the registry, so every seed everywhere
        # forks this one master.  Pinning it before the fork keeps the GC,
        # here and in the workers, from re-walking a converged Internet.
        from repro.testbed import checkpoint as ckpt

        ckpt.register_checkpoint(ckpt.acquire_checkpoint(template))
        ckpt.pin_checkpoints()
    if jobs == 1 or len(seeds) <= 1:
        results = []
        for seed in seeds:
            result = HijackExperiment(_config_for_seed(template, seed)).run()
            results.append(result)
            if on_result is not None:
                on_result(result)
        return results
    worker_template = template
    if template.checkpoint is not None:
        # Workers resolve the master from their inherited registry by key.
        worker_template = copy.copy(template)
        worker_template.checkpoint = None
        worker_template.warm_start = True
    results = []
    with FORK.Pool(
        min(jobs, len(seeds)),
        initializer=_init_worker,
        initargs=(worker_template,),
    ) as pool:
        # imap preserves seed order, so output is deterministic even when
        # workers finish out of order.
        for result, perf_delta in pool.imap(_run_worker_seed, seeds):
            COUNTERS.merge(perf_delta)
            results.append(result)
            if on_result is not None:
                on_result(result)
    return results


def summarize_results(
    results: Sequence,
    fields: Sequence[str] = (
        "detection_delay",
        "announce_delay",
        "completion_delay",
        "total_time",
    ),
) -> Dict[str, Summary]:
    """Per-field :class:`~repro.eval.stats.Summary` across runs."""
    table: Dict[str, Summary] = {}
    for field in fields:
        table[field] = summarize(getattr(r, field) for r in results)
    return table


def per_source_detection(
    results: Sequence[ExperimentResult],
) -> Dict[str, Summary]:
    """Summaries of per-source detection delay across a suite (E2).

    A run where a source produced no evidence is a miss in its summary's
    ``runs``; the "combined" entry is the actual (min-over-sources) ARTEMIS
    delay, and a run ARTEMIS never detected is its miss.
    """
    names = {source for result in results for source in result.per_source_delay}
    sources = {
        name: [result.per_source_delay.get(name) for result in results]
        for name in names
    }
    sources["combined"] = [result.detection_delay for result in results]
    return {name: summarize(values) for name, values in sorted(sources.items())}


def liveness_summary(results: Sequence[ExperimentResult]) -> Dict[str, Dict]:
    """Per-source health totals across a (fault) suite.

    For each source: runs it appeared in, total supervised outages and
    downtime, worst staleness, and in how many runs the first alert fired
    while this source was believed dead — the count that demonstrates
    detection surviving the loss of a feed.
    """
    table: Dict[str, Dict] = {}
    for result in results:
        live = set(result.sources_live_at_alert)
        detected = result.detection_delay is not None
        for source, report in sorted(result.source_report.items()):
            row = table.setdefault(
                source,
                {
                    "runs": 0,
                    "outages": 0,
                    "downtime": 0.0,
                    "max_staleness": 0.0,
                    "detected_while_dead": 0,
                },
            )
            row["runs"] += 1
            row["outages"] += report.get("outages", 0)
            row["downtime"] += report.get("downtime", 0.0)
            row["max_staleness"] = max(
                row["max_staleness"], report.get("max_staleness", 0.0)
            )
            if detected and result.sources_live_at_alert and source not in live:
                row["detected_while_dead"] += 1
    return table
