"""The quadratic region-pair race detector: the sweep line's oracle.

Every region pair is tested with :func:`overlaps`; per-region access
lists are re-materialized from the thread replays on every call, so the
oracle shares no region store, cursor or index with the production
sweep — only the per-(pair, address) conflict enumeration and its cap
arithmetic, inherited from :class:`HappensBeforeDetector`, so the
truncation counters are comparable.  It needs ``thread_replays`` and
therefore always takes a real :class:`OrderedReplay`.

Run as a script it prints a log's race listing in the exact format of
``repro detect`` (without ``--perf``), so the CLI can be byte-diffed
against it::

    PYTHONPATH=src python tests/oracles/naive_detector.py racy.rprb
"""

from __future__ import annotations

import sys
from collections import defaultdict
from typing import Dict, List

from repro.analysis.pipeline import DetectionAnalysis
from repro.race.happens_before import HappensBeforeDetector, sort_canonically
from repro.race.model import RaceInstance
from repro.record import load_log
from repro.record.serialization import load_log_bytes
from repro.replay import OrderedReplay
from repro.replay.events import ReplayedAccess
from repro.replay.regions import SequencingRegion, overlaps


class NaiveHappensBeforeDetector(HappensBeforeDetector):
    """All region pairs, each checked with :func:`overlaps`."""

    def detect(self) -> List[RaceInstance]:
        """All race instances in the replayed execution, canonically ordered."""
        regions = [
            region for region in self.ordered.all_regions() if not region.is_empty
        ]
        indexed = [(region, self._index_accesses(region)) for region in regions]
        instances: List[RaceInstance] = []
        for position_a in range(len(indexed)):
            region_a, accesses_a = indexed[position_a]
            if not accesses_a:
                continue
            for position_b in range(position_a + 1, len(indexed)):
                region_b, accesses_b = indexed[position_b]
                if not accesses_b or not overlaps(region_a, region_b):
                    continue
                instances.extend(
                    self._conflicts(region_a, accesses_a, region_b, accesses_b)
                )
        return sort_canonically(instances)

    def _index_accesses(
        self, region: SequencingRegion
    ) -> Dict[int, List[ReplayedAccess]]:
        replay = self.ordered.thread_replays[region.thread_name]
        by_address: Dict[int, List[ReplayedAccess]] = defaultdict(list)
        for access in replay.accesses_in_steps(region.start_step, region.end_step):
            if not access.is_sync:
                by_address[access.address].append(access)
        return dict(by_address)


def replay_detection(
    source, detector_cls=HappensBeforeDetector, max_pairs_per_location=256
) -> DetectionAnalysis:
    """Detect on a full :class:`OrderedReplay` of ``source`` (container
    bytes or a decoded log), shaped like a ``detect_only`` result so its
    rendered report can be byte-diffed against every other path.

    ``detector_cls`` is :class:`HappensBeforeDetector` (the replay feed
    of the sweep) or :class:`NaiveHappensBeforeDetector` (the oracle).
    """
    log = load_log_bytes(bytes(source)) if isinstance(source, (bytes, bytearray)) else source
    ordered = OrderedReplay(log)
    detector = detector_cls(ordered, max_pairs_per_location=max_pairs_per_location)
    instances = detector.detect()
    return DetectionAnalysis(
        execution_id="%s#s%d" % (log.program_name, log.seed),
        program_name=log.program_name,
        seed=log.seed,
        scheduler=log.scheduler,
        path="replay",
        source=ordered,
        instances=instances,
        truncated_locations=detector.truncated_locations,
    )


def render_races(instances: List[RaceInstance], program) -> str:
    """The race listing ``repro detect`` prints, for ``instances``."""
    unique = {instance.static_key for instance in instances}
    lines = [
        "%d race instance(s), %d unique static race(s)"
        % (len(instances), len(unique))
    ]
    for key in sorted(unique, key=lambda key: (str(key[0]), str(key[1]))):
        lines.append(
            "  %s  <->  %s"
            % (
                program.describe_instruction(key[0]),
                program.describe_instruction(key[1]),
            )
        )
    return "\n".join(lines) + "\n"


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: naive_detector.py LOG", file=sys.stderr)
        return 2
    ordered = OrderedReplay(load_log(argv[0]))
    instances = NaiveHappensBeforeDetector(ordered).detect()
    sys.stdout.write(render_races(instances, ordered.program))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
