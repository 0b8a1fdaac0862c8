"""Experiment configuration, pipeline, report serialization, and CLI."""

from .config import ExperimentConfig, SubsetRule, build_subset, parse_rule
from .pipeline import CheckRow, FinalReport, run_pipeline
from .reports import write_report

__all__ = [
    "ExperimentConfig",
    "SubsetRule",
    "build_subset",
    "parse_rule",
    "CheckRow",
    "FinalReport",
    "run_pipeline",
    "write_report",
]
