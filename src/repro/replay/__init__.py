"""iDNA-analog replay: per-thread replay, sequencing regions, ordered
replay, and the both-orders virtual processor."""

from .errors import ReplayDivergence, ReplayError, ReplayFailure, ReplayFailureKind
from .inspector import StepView, TimeTravelInspector
from .events import HeapEvent, ReplayedAccess, ThreadReplay
from .log_view import LogView, LogViewUnavailable
from .ordered_replay import OrderedReplay, RegionKey, region_key
from .regions import (
    SequencingRegion,
    overlaps,
    regions_of_log,
    regions_of_thread,
)
from .thread_replayer import ThreadReplayer
from .virtual_processor import (
    VPConfig,
    VPOutcome,
    VPThreadSpec,
    VirtualProcessor,
    same_state,
)

__all__ = [
    "ReplayDivergence",
    "ReplayError",
    "ReplayFailure",
    "ReplayFailureKind",
    "StepView",
    "TimeTravelInspector",
    "HeapEvent",
    "ReplayedAccess",
    "ThreadReplay",
    "LogView",
    "LogViewUnavailable",
    "OrderedReplay",
    "RegionKey",
    "region_key",
    "SequencingRegion",
    "overlaps",
    "regions_of_log",
    "regions_of_thread",
    "ThreadReplayer",
    "VPConfig",
    "VPOutcome",
    "VPThreadSpec",
    "VirtualProcessor",
    "same_state",
]
