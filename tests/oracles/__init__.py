"""Executable oracles: slow, obviously-correct references the production
paths are diffed against.  Nothing under ``src/`` imports them."""

from .generic_interpreters import (
    VP_DIFF_CONFIGS,
    GenericMachine,
    GenericOrderedReplay,
    GenericThreadReplayer,
    GenericThreadState,
    GenericVirtualProcessor,
    diff_virtual_processors,
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
    "VP_DIFF_CONFIGS",
    "GenericMachine",
    "GenericOrderedReplay",
    "GenericThreadReplayer",
    "GenericThreadState",
    "GenericVirtualProcessor",
    "diff_virtual_processors",
    "generic_record_run",
    "generic_replay_thread",
    "NaiveHappensBeforeDetector",
    "NaiveRaceClassifier",
    "naive_log_analysis",
    "naive_suite",
    "render_races",
    "replay_detection",
]
