"""E5 — coverage of real hijack durations.

Paper: "more than 20% of hijacks last < 10mins" (citing Argus [3]) and
ARTEMIS' total cycle "is smaller than the duration of > 80% of the
hijacking cases observed in [3]".

Regenerates the coverage computation: sample the empirical hijack-duration
distribution, measure each defence's end-to-end response time on the
simulator, and report the fraction of hijack events each system would fully
mitigate *while the event is still ongoing*.  Shape: ARTEMIS covers >80 %;
the manual pipelines cover well under half.
"""

from conftest import LIGHT_CHURN, bench_scenario, run_once

from repro.baselines import PROFILES
from repro.eval.durations import HijackDurationModel
from repro.eval.experiments import run_artemis_suite
from repro.eval.report import format_table
from repro.eval.stats import summarize
from repro.sim.rng import SeededRNG

SEEDS = range(3)
NUM_EVENT_SAMPLES = 20_000


def _measure():
    artemis = run_artemis_suite(bench_scenario(churn=LIGHT_CHURN), seeds=SEEDS)
    phas = run_artemis_suite(
        bench_scenario(churn=LIGHT_CHURN, **PROFILES["phas"]), seeds=SEEDS
    )
    return {
        "artemis": summarize(r.total_time for r in artemis).mean,
        "phas": summarize(r.total_time for r in phas).mean,
    }


def test_e5_duration_coverage(benchmark):
    response = run_once(benchmark, _measure)
    model = HijackDurationModel()

    # Analytic coverage from the CDF plus an empirical cross-check.
    rng = SeededRNG(0)
    samples = model.sample_many(rng, NUM_EVENT_SAMPLES)
    rows = []
    coverage = {}
    for system, time_needed in response.items():
        analytic = model.fraction_outlived_by(time_needed)
        empirical = sum(1 for s in samples if s > time_needed) / len(samples)
        coverage[system] = analytic
        rows.append([system, time_needed / 60.0, analytic * 100, empirical * 100])
    table = format_table(
        ["system", "response (min)", "coverage CDF (%)", "coverage sampled (%)"],
        rows,
        title="E5: fraction of real hijack events fully mitigated in time",
    )
    print("\n" + table)
    benchmark.extra_info["table"] = table

    # Distribution anchors from the paper's citation of Argus.
    assert model.cdf(10 * 60) >= 0.20, ">20% of hijacks last under 10 minutes"
    # ARTEMIS' cycle beats >80% of observed hijack durations (the paper's
    # claim), the manual pipeline misses the short-event mass.
    assert coverage["artemis"] > 0.80
    assert coverage["phas"] < 0.70
    assert coverage["artemis"] - coverage["phas"] > 0.15
    # Analytic and sampled coverage agree.
    for system, time_needed in response.items():
        empirical = sum(1 for s in samples if s > time_needed) / len(samples)
        assert abs(empirical - coverage[system]) < 0.02
