"""Golden determinism regression tests.

The hot-path rework (allocation-light engine, shared export announcements,
interned paths/prefixes, exact-match Loc-RIB) must not change *any* simulated
outcome — only wall-clock time.  These tests pin that down two ways:

* a golden sha256 digest of a fully seeded E1-style scenario, hard-coded
  from the pre-optimisation seed tree, so any behavioural drift (timings,
  per-source delays, BGP update counts, data-plane flips) fails loudly;
  the same digest pins E1 at 1,000 and at 10,000 ASes, each one process;
* a jobs=1 vs jobs=N comparison of the suite runner, proving the
  multiprocessing fan-out returns byte-identical per-seed results in order.

The digest deliberately excludes engine-internal counters such as
``events_processed``: skipping provably no-op flush events is allowed to
shrink the event count, as long as every observable outcome is unchanged.
"""

import hashlib

import pytest

from repro.eval.experiments import run_artemis_suite
from repro.testbed.scenario import HijackExperiment, ScenarioConfig
from repro.topology.generator import GeneratorConfig

#: Digest of the golden scenario's observable outcome, recorded on the seed
#: tree (pre-optimisation) and unchanged by the hot-path rework.
GOLDEN_DIGEST = "25540de545722a0452b9109df6ff90ebcb9a84658fcdbef752ddda6bf11b3b31"

#: Same idea at 400 ASes: big enough that the incremental decision process,
#: export marking and MRAI batching are all exercised under real fan-out,
#: small enough to run in CI.  Recorded before the Internet-scale hot-path
#: work landed.
GOLDEN_DIGEST_400 = (
    "b55ade9b9b56229edef59174909b0e37314662757e1a5310c21a0cb757890975"
)


def _golden_config(seed: int = 5) -> ScenarioConfig:
    return ScenarioConfig(
        seed=seed,
        topology=GeneratorConfig(num_tier1=3, num_tier2=10, num_stubs=25),
        churn=None,
        churn_warmup=0.0,
        baseline_settle=60.0,
        monitors=dict(
            num_ris_vantages=6,
            num_bgpmon_vantages=4,
            num_lgs=4,
            lg_poll_interval=30.0,
            num_batch_vantages=4,
        ),
    )


def _outcome_digest(experiment: HijackExperiment, result) -> str:
    speakers = experiment.network.speakers
    updates = (
        sum(s.updates_received for s in speakers.values()),
        sum(s.updates_sent for s in speakers.values()),
    )
    material = repr(
        (
            result.detection_delay,
            result.announce_delay,
            result.completion_delay,
            result.total_time,
            sorted(result.per_source_delay.items()),
            result.hijack_fraction_peak,
            result.residual_hijack_fraction,
            result.alert_type,
            result.strategy,
            updates,
            experiment.tracker.flips,
        )
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


#: E1 on the 1000-AS smoke world (6/94/900), seed 11, without churn.
GOLDEN_DIGEST_1000 = (
    "72e798634d0daae0759ee61b13d5621f9df7d120298b833c3f6ca8ae403c7fa8"
)

#: E1 on the 10k-AS world (12/988/9000) without churn, by seed.  Seed 13
#: detects and fully recovers.  Seed 11 is a known miss: its hijack takes
#: 4 % of ASes and no vantage sees it, so ARTEMIS never alerts.
GOLDEN_DIGEST_10K = {
    13: "786711ba3803de37789fcc828e389186f41882ffb92a7202c6e931c49159c49e",
    11: "425aa0647f82d8a14d41e478990339ea0a2bb111ad033034a0317fe61995fcb9",
}


def _no_churn_config(seed: int, tier1: int, tier2: int, stubs: int) -> ScenarioConfig:
    """What ``repro experiment --no-churn`` runs on a world of this size."""
    return ScenarioConfig(
        seed=seed,
        topology=GeneratorConfig(num_tier1=tier1, num_tier2=tier2, num_stubs=stubs),
        churn=None,
        churn_warmup=0.0,
    )


def _golden_config_400() -> ScenarioConfig:
    return ScenarioConfig(
        seed=7,
        topology=GeneratorConfig(num_tier1=6, num_tier2=44, num_stubs=350),
        churn=None,
        churn_warmup=0.0,
        baseline_settle=60.0,
        monitors=dict(
            num_ris_vantages=10,
            num_bgpmon_vantages=6,
            num_lgs=6,
            lg_poll_interval=30.0,
            num_batch_vantages=6,
        ),
    )


def test_golden_scenario_digest_matches_seed_tree():
    experiment = HijackExperiment(_golden_config())
    result = experiment.run()
    assert _outcome_digest(experiment, result) == GOLDEN_DIGEST


@pytest.mark.slow
def test_golden_400as_digest_matches_seed_tree():
    experiment = HijackExperiment(_golden_config_400())
    result = experiment.run()
    assert _outcome_digest(experiment, result) == GOLDEN_DIGEST_400


def test_golden_1000as_digest():
    experiment = HijackExperiment(_no_churn_config(11, 6, 94, 900))
    result = experiment.run()
    assert result.mitigated
    assert _outcome_digest(experiment, result) == GOLDEN_DIGEST_1000


@pytest.mark.slow
@pytest.mark.parametrize("seed, detected", [(13, True), (11, False)])
def test_e1_10k_digest(seed, detected):
    experiment = HijackExperiment(_no_churn_config(seed, 12, 988, 9000))
    result = experiment.run()
    assert (result.detection_delay is not None) is detected
    assert result.mitigated is detected
    assert _outcome_digest(experiment, result) == GOLDEN_DIGEST_10K[seed]


def test_same_seed_twice_is_bit_identical():
    first_exp = HijackExperiment(_golden_config(seed=9))
    first = _outcome_digest(first_exp, first_exp.run())
    second_exp = HijackExperiment(_golden_config(seed=9))
    second = _outcome_digest(second_exp, second_exp.run())
    assert first == second


@pytest.mark.slow
def test_parallel_suite_matches_serial():
    template = ScenarioConfig(
        seed=0,
        topology=GeneratorConfig(num_tier1=3, num_tier2=10, num_stubs=25),
        churn=None,
        churn_warmup=0.0,
        baseline_settle=60.0,
    )
    seeds = [1, 2, 3, 4]
    serial = run_artemis_suite(template, seeds, jobs=1)
    parallel = run_artemis_suite(template, seeds, jobs=2)
    assert [r.seed for r in parallel] == seeds
    assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]


def test_parallel_runner_rejects_bad_jobs():
    template = ScenarioConfig(seed=0)
    with pytest.raises(ValueError):
        run_artemis_suite(template, [1], jobs=0)
