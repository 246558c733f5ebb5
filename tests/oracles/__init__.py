"""Executable oracles: slow, obviously-correct references the production
paths are diffed against.  Nothing under ``src/`` imports them."""

from .generic_interpreters import (
    GenericMachine,
    GenericOrderedReplay,
    GenericThreadReplayer,
    GenericThreadState,
    generic_record_run,
    generic_replay_thread,
)
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
    "GenericMachine",
    "GenericOrderedReplay",
    "GenericThreadReplayer",
    "GenericThreadState",
    "generic_record_run",
    "generic_replay_thread",
    "NaiveHappensBeforeDetector",
    "NaiveRaceClassifier",
    "naive_log_analysis",
    "naive_suite",
    "render_races",
    "replay_detection",
]
