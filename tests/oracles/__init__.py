"""Executable oracles: slow, obviously-correct references the production
paths are diffed against.  Nothing under ``src/`` imports them."""

from .naive_detector import (
    NaiveHappensBeforeDetector,
    render_races,
    replay_detection,
)

__all__ = ["NaiveHappensBeforeDetector", "render_races", "replay_detection"]
