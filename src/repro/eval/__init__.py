"""Evaluation harness: metrics, suites, sweeps, duration model, reporting."""

from repro.eval.calibration import CalibrationReport, check_calibration
from repro.eval.catalog import HijackEvent, HijackEventCatalog
from repro.eval.durations import HijackDurationModel
from repro.eval.experiments import run_artemis_suite, summarize_results
from repro.eval.report import format_series, format_table
from repro.eval.stats import Summary, summarize

__all__ = [
    "CalibrationReport",
    "HijackDurationModel",
    "HijackEvent",
    "HijackEventCatalog",
    "Summary",
    "check_calibration",
    "format_series",
    "format_table",
    "run_artemis_suite",
    "summarize",
    "summarize_results",
]
