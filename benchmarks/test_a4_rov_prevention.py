"""A4 — prevention vs detection+mitigation (§1: "since its prevention is
not always possible").

The paper's opening argument: prevention (RPKI/ROV) is incomplete, so
operators need detection and mitigation regardless.  This bench quantifies
both halves on the simulator:

* sweeping ROV adoption shrinks an exact-origin hijack's blast radius, but
  any non-adopting remainder still flips — and partial adoption is the
  2016 (and still current) reality;
* even *full* ROV adoption does nothing against a forged-origin (type-1)
  attack, which ARTEMIS' path validation detects and de-aggregation fixes.
"""

from conftest import bench_scenario, run_once

from repro.eval.experiments import run_artemis_suite
from repro.eval.report import format_table
from repro.eval.stats import summarize

SEEDS = range(3)
ADOPTION_SWEEP = [0.0, 0.3, 0.7, 1.0]


def _run():
    sweep_rows = []
    for adoption in ADOPTION_SWEEP:
        template = bench_scenario(
            rov_adoption=adoption,
            auto_mitigate=False,          # isolate prevention
            observation_window=300.0,
            detection_timeout=600.0,
        )
        results = run_artemis_suite(template, seeds=SEEDS)
        sweep_rows.append(
            {
                "adoption": adoption,
                "peak": summarize(r.hijack_fraction_peak for r in results),
                "detected": sum(1 for r in results if r.detection_delay is not None),
            }
        )
    # Forged-origin attack under FULL ROV: prevention is blind, ARTEMIS not.
    forged = run_artemis_suite(
        bench_scenario(rov_adoption=1.0, hijack_type="type-1"),
        seeds=SEEDS,
    )
    return sweep_rows, forged


def test_a4_rov_prevention(benchmark):
    sweep_rows, forged = run_once(benchmark, _run)
    table = format_table(
        ["ROV adoption", "mean peak hijacked (%)", "runs detected"],
        [
            [f"{r['adoption']:.0%}", r["peak"].mean * 100, r["detected"]]
            for r in sweep_rows
        ],
        title="A4: exact-origin hijack blast radius vs ROV adoption "
        "(no mitigation)",
    )
    print("\n" + table)
    forged_peak = summarize(r.hijack_fraction_peak for r in forged)
    print(
        f"\nforged-origin attack under 100% ROV: peak capture "
        f"{forged_peak.mean:.0%}, ARTEMIS detected "
        f"{sum(1 for r in forged if r.detection_delay is not None)}/{len(forged)}, "
        f"mitigated {sum(1 for r in forged if r.mitigated)}/{len(forged)}"
    )
    benchmark.extra_info["table"] = table

    peaks = [r["peak"].mean for r in sweep_rows]
    # Prevention helps monotonically (weakly) and full adoption nearly
    # eliminates the exact-origin hijack.
    assert all(b <= a + 0.02 for a, b in zip(peaks, peaks[1:]))
    assert peaks[-1] < 0.10 < peaks[0]
    # But partial adoption leaves real exposure (the paper's premise).
    middle = sweep_rows[1]["peak"].mean
    assert middle > 0.03
    # And type-1 attacks sail through full ROV — only ARTEMIS catches them.
    assert forged_peak.mean > 0.02
    assert all(r.detection_delay is not None for r in forged)
    assert all(r.alert_type == "path" for r in forged)
    assert all(r.mitigated for r in forged)
