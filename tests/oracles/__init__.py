"""Executable oracles: slow, obviously-correct references the production
paths are diffed against.  Nothing under ``src/`` imports them."""

from .naive_classifier import (
    NaiveRaceClassifier,
    naive_log_analysis,
    naive_suite,
)
from .naive_detector import (
    NaiveHappensBeforeDetector,
    render_races,
    replay_detection,
)

__all__ = [
    "NaiveHappensBeforeDetector",
    "NaiveRaceClassifier",
    "naive_log_analysis",
    "naive_suite",
    "render_races",
    "replay_detection",
]
