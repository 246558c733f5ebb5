"""Happens-before data race detection over sequencing regions (Section 3.4).

Two memory operations race when they execute in *overlapping* sequencing
regions of different threads, touch the same address, and at least one is
a write.  Because "overlapping" literally means no sequencer separates the
two operations in the global synchronization order, every reported pair is
a true unordered conflict — **no false positives**, the property the paper
chose the happens-before algorithm for.

One detector implements the definition: :class:`HappensBeforeDetector`, a
**sweep line** over region opening/closing sequencer timestamps.  Regions
enter an active set at their opening timestamp and expire at their closing
one, so only genuinely overlapping pairs are ever examined; within the
active set, candidate partners are found through per-address sets instead
of scanning every active region.  Work is proportional to overlap and
address sharing, not to the square of the region count.

What varies is only how regions are fed to the loop:

* **batch** — :meth:`HappensBeforeDetector.detect` walks the columnar
  :class:`~repro.analysis.access_index.AccessIndex` of its ``ordered``
  argument, a full :class:`OrderedReplay` *or* the zero-replay
  :class:`~repro.replay.log_view.LogView`;
* **stream** — :meth:`HappensBeforeDetector.add_region` takes the regions a
  :class:`~repro.replay.log_view.SegmentCursor` releases, one at a time,
  and returns the races each one completes;
* **partition** — :func:`parallel_detect_races` hands each worker a
  contiguous segment range; the worker feeds its owned regions the same
  way, with the regions straddling in from earlier ranges preloaded.

Race sets — instances, order and truncation counters — are byte-identical
across the feeds; the test suite holds every one of them to a quadratic
region-pair oracle.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from ..replay.events import ReplayedAccess
from ..replay.log_view import LogView
from ..replay.ordered_replay import OrderedReplay
from ..replay.regions import SequencingRegion
from .model import RaceAccess, RaceInstance


def sort_canonically(instances: List[RaceInstance]) -> List[RaceInstance]:
    """Sort ``instances`` in place into the canonical report order.

    The key is total, so enumeration order never leaks into the output:
    any feed of the sweep (or any concatenation of partition results)
    sorts to the same list.
    """
    instances.sort(
        key=lambda instance: (
            instance.region_a.start_ts,
            instance.region_b.start_ts,
            instance.access_a.thread_step,
            instance.access_b.thread_step,
            instance.address,
        )
    )
    return instances


class HappensBeforeDetector:
    """The sweep-line happens-before detector.

    Regions are visited in opening-timestamp order.  A region expires from
    the active set once its closing timestamp is at or before the sweep
    position — exactly the negation of the strict
    :func:`~repro.replay.regions.overlaps` definition — so the active set
    holds precisely the earlier-opening regions that overlap the entering
    one.  Candidate partners are the active regions sharing at least one
    address with the entering region, found by union over the entering
    region's addresses in the active per-address sets.

    :meth:`detect` sweeps the access index of ``ordered``;
    :meth:`add_region` sweeps row-fed regions one at a time through
    :attr:`window` (a
    :class:`~repro.analysis.access_index.StreamingAccessWindow`, which
    retires expired regions as the sweep passes them).  Both end in
    :meth:`finish`, which returns the canonically ordered race set.  A
    detector sweeps one execution once.

    ``max_pairs_per_location`` caps the number of instance pairs reported
    per (region pair, address) so that adversarial loops cannot explode
    the instance count; the cap is reported via ``truncated_locations``.
    ``perf`` (a :class:`repro.analysis.perf.PerfStats`) receives the
    detect-stage breakdown: index/sweep wall time, regions swept, pairs
    examined vs. the quadratic pair count an all-pairs loop would visit.
    """

    def __init__(
        self,
        ordered: "OrderedReplay | LogView | None" = None,
        max_pairs_per_location: Optional[int] = 256,
        perf=None,
    ):
        # Local import: the analysis package imports this module.
        from ..analysis.access_index import StreamingAccessWindow

        self.ordered = ordered
        self.max_pairs_per_location = max_pairs_per_location
        self.perf = perf
        self.truncated_locations = 0
        #: Regions swept, candidate pairs examined, and straddlers
        #: preloaded without being swept.
        self.swept = 0
        self.examined = 0
        self.preloaded = 0
        #: Instances in enumeration order (:meth:`finish` sorts them).
        self.instances: List[RaceInstance] = []
        #: The row-fed region store behind :meth:`add_region`.
        self.window = StreamingAccessWindow()
        self._store = None
        #: Min-heap of (end_ts, ordinal) over currently active regions.
        self._expiry: List[Tuple[int, int]] = []
        #: address -> ordinals of active regions touching it.
        self._active_by_address: Dict[int, Set[int]] = defaultdict(set)
        self._last_start_ts: Optional[int] = None

    # -- the feeds ------------------------------------------------------

    def detect(self) -> List[RaceInstance]:
        """All race instances in the replayed execution, canonically ordered."""
        perf = self.perf
        if perf is not None:
            with perf.stage("detect.index"):
                index = self.ordered.access_index()
            with perf.stage("detect.sweep"):
                self._sweep_index(index)
        else:
            self._sweep_index(self.ordered.access_index())
        return self.finish()

    def _sweep_index(self, index) -> None:
        self._store = index
        for ordinal in range(index.region_count):
            self._sweep(index, ordinal)

    def add_region(
        self, region: SequencingRegion, rows, preload: bool = False
    ) -> List[RaceInstance]:
        """Sweep one row-fed region; returns the race instances it completed.

        ``rows`` are the region's captured ``(step, flag, address, value,
        static_id)`` tuples (sync rows are filtered by the window).
        Regions must arrive in strictly increasing ``start_ts`` order —
        the segment cursor's release order.  ``preload`` marks a partition
        worker's straddler: it enters the active set and pairs up with
        later regions, but is neither swept nor counted in the window's
        stats (the worker owning its range sweeps and counts it).
        """
        if self._last_start_ts is not None and region.start_ts <= self._last_start_ts:
            raise ValueError(
                "sweep fed out of order: region %s opens at ts %d, "
                "after ts %d was already swept"
                % (region, region.start_ts, self._last_start_ts)
            )
        self._last_start_ts = region.start_ts
        self._store = window = self.window
        ordinal = window.admit(region, rows, counted=not preload)
        if ordinal is None:
            return []
        return self._sweep(window, ordinal, preload)

    # -- the sweep loop -------------------------------------------------

    def _sweep(self, store, ordinal: int, preload: bool = False) -> List[RaceInstance]:
        """One sweep step: expire, find candidates, emit, activate.

        ``store`` is the region store the ordinal belongs to — the batch
        :class:`AccessIndex` or the row-fed window; both expose
        ``regions[ordinal]``, ``addresses_of``, ``by_address`` and
        ``retire``.
        """
        addresses = store.addresses_of(ordinal)
        if not addresses:
            return []
        region = store.regions[ordinal]
        expiry = self._expiry
        active_by_address = self._active_by_address
        fresh: List[RaceInstance] = []
        if preload:
            self.preloaded += 1
        else:
            self.swept += 1
            start_ts = region.start_ts
            # Expire: closed at or before the sweep position means ordered
            # (happens-before), mirroring the strict overlap definition.
            while expiry and expiry[0][0] <= start_ts:
                _, expired = heappop(expiry)
                for address in store.addresses_of(expired):
                    active_by_address[address].discard(expired)
                store.retire(expired)
            candidates: Set[int] = set()
            for address in addresses:
                candidates |= active_by_address[address]
            regions = store.regions
            tid = region.tid
            grouped = None
            for other in sorted(candidates):
                other_region = regions[other]
                if other_region.tid == tid:
                    continue
                self.examined += 1
                if grouped is None:
                    grouped = store.by_address(ordinal)
                fresh.extend(
                    self._conflicts(
                        other_region,
                        store.by_address(other),
                        region,
                        grouped,
                    )
                )
            self.instances.extend(fresh)
        heappush(expiry, (region.end_ts, ordinal))
        for address in addresses:
            active_by_address[address].add(ordinal)
        return fresh

    def finish(self) -> List[RaceInstance]:
        """Retire what is still active, record the perf counters, and
        return the canonically ordered race set."""
        expiry = self._expiry
        while expiry:
            _, expired = heappop(expiry)
            self._store.retire(expired)
        self._active_by_address.clear()
        if self.perf is not None:
            self.perf.detect_regions += self.swept
            self.perf.detect_pairs_examined += self.examined
            self.perf.detect_pairs_pruned += (
                self.swept * (self.swept - 1) // 2 - self.examined
            )
        return sort_canonically(self.instances)

    # -- conflict enumeration -------------------------------------------

    def _conflicts(
        self,
        region_a: SequencingRegion,
        accesses_a: Dict[int, List[ReplayedAccess]],
        region_b: SequencingRegion,
        accesses_b: Dict[int, List[ReplayedAccess]],
    ) -> List[RaceInstance]:
        # Canonical side ordering: earlier-opening region is side A.
        if (region_b.start_ts, region_b.tid) < (region_a.start_ts, region_a.tid):
            region_a, region_b = region_b, region_a
            accesses_a, accesses_b = accesses_b, accesses_a
        instances: List[RaceInstance] = []
        common = set(accesses_a) & set(accesses_b)
        for address in sorted(common):
            emitted = 0
            for access_a in accesses_a[address]:
                for access_b in accesses_b[address]:
                    if not (access_a.is_write or access_b.is_write):
                        continue
                    if (
                        self.max_pairs_per_location is not None
                        and emitted >= self.max_pairs_per_location
                    ):
                        self.truncated_locations += 1
                        break
                    instances.append(
                        RaceInstance(
                            access_a=self._to_race_access(region_a, access_a),
                            access_b=self._to_race_access(region_b, access_b),
                            region_a=region_a,
                            region_b=region_b,
                        )
                    )
                    emitted += 1
                else:
                    continue
                break
        return instances

    def _to_race_access(
        self, region: SequencingRegion, access: ReplayedAccess
    ) -> RaceAccess:
        return RaceAccess(
            thread_name=region.thread_name,
            tid=region.tid,
            thread_step=access.thread_step,
            static_id=access.static_id,
            address=access.address,
            value=access.value,
            is_write=access.is_write,
        )


def find_races(
    ordered: "OrderedReplay | LogView",
    max_pairs_per_location: Optional[int] = 256,
) -> List[RaceInstance]:
    """Convenience wrapper around :class:`HappensBeforeDetector`."""
    return HappensBeforeDetector(
        ordered, max_pairs_per_location=max_pairs_per_location
    ).detect()


# ----------------------------------------------------------------------
# Parallel segment-fanout detection.
#
# A v4 container's segments are self-contained and indexed by the
# footer, so the sweep partitions cleanly: worker *k* owns the regions
# whose opening sequencer timestamp falls inside its contiguous segment
# range.  Because timestamps are globally unique and a thread has at
# most one region open at any instant, the only regions from earlier
# ranges that can overlap worker *k*'s owned regions are the per-thread
# regions still open at the cut — the *straddlers*.  Each worker
# preloads its straddlers into the sweep's active set without emitting
# for them (their pairs belong to the worker that owns the
# later-opening side), so every overlapping pair is emitted exactly
# once, by exactly one worker, with the same per-(pair, address) cap
# arithmetic as the serial sweep.  Concatenating the workers' instances
# and applying the canonical sort therefore reproduces the serial
# output byte for byte.
# ----------------------------------------------------------------------


def _partition_worker(task: tuple) -> dict:
    """One worker: reconstruct and sweep a contiguous segment range.

    ``task`` is ``(path, s_lo, s_hi, max_pairs_per_location)``.  The
    worker mmaps the container itself, regex-skips the access rows of
    every prelude segment (it only needs per-thread sequencer counts and
    each thread's last pre-range sequencer — the opener of its possible
    straddler) to seed a :class:`~repro.replay.log_view.SegmentCursor`,
    lean-decodes its owned range into that cursor, and keeps reading
    past the range only while a thread still has an open region that
    started at or below the range end.
    """
    path, s_lo, s_hi, max_pairs = task
    started = time.perf_counter()
    cpu_started = time.process_time()
    from ..record.binary_format import (
        MappedSegmentedReader,
        read_segment_lean,
        scan_segment_sequencers,
    )
    from ..replay.log_view import SegmentCursor

    detector = HappensBeforeDetector(max_pairs_per_location=max_pairs)
    with MappedSegmentedReader(path) as reader:
        entries = reader.index
        range_start = entries[s_lo].first_ts
        range_end = entries[s_hi - 1].last_ts
        cursor = SegmentCursor(owned_through=range_end)
        for entry in entries[:s_lo]:
            payload = reader.segment_payload(entry)
            for name, tid, _block, count, step, ts, kind in scan_segment_sequencers(payload):
                cursor.seed(name, tid, count, step, ts, kind)

        def sweep(released) -> None:
            for region, rows in released:
                detector.add_region(
                    region, rows, preload=region.start_ts < range_start
                )

        kinds: Dict[str, str] = {}
        interned: Dict[Tuple[str, int], object] = {}
        for position in range(s_lo, len(entries)):
            if position >= s_hi and not cursor.open_through(range_end):
                break  # every region we could still own has closed
            payload = reader.segment_payload(entries[position])
            sweep(cursor.feed_lean(read_segment_lean(payload, kinds, interned)))
        sweep(cursor.finish())
    instances = detector.finish()
    window = detector.window
    return {
        "instances": instances,
        "truncated": detector.truncated_locations,
        "swept": detector.swept,
        "examined": detector.examined,
        "stitches": detector.preloaded,
        "segments": s_hi - s_lo,
        "owned": dict(window.stats(), addresses=frozenset(window.address_set)),
        "worker_s": time.perf_counter() - started,
        # CPU seconds are the honest per-worker compute measure: when
        # workers outnumber free cores they time-share, which inflates
        # every worker's wall clock but not its CPU time.
        "worker_cpu_s": time.process_time() - cpu_started,
        "pid": os.getpid(),
    }


def partition_segment_ranges(entries, jobs: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` segment ranges, balanced by row counts.

    The footer index records per-segment access- and sequencer-row
    counts, so the partitioner can equalize decode work (the dominant
    cost — both row kinds cost a comparable number of varint reads)
    instead of segment counts.  At most ``min(jobs, len(entries))``
    ranges come back; every segment lands in exactly one.
    """
    count = len(entries)
    jobs = max(1, min(jobs, count))
    weights = [
        entry.access_rows + entry.sequencer_rows + 1 for entry in entries
    ]
    remaining = sum(weights)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for workers_left in range(jobs, 0, -1):
        if lo >= count:
            break
        if workers_left == 1:
            hi = count
        else:
            target = remaining / workers_left
            acc = 0
            hi = lo
            # Leave at least one segment per remaining worker.
            ceiling = count - (workers_left - 1)
            while hi < ceiling:
                if hi > lo and acc + weights[hi] > target:
                    break
                acc += weights[hi]
                hi += 1
        ranges.append((lo, hi))
        remaining -= sum(weights[lo:hi])
        lo = hi
    return ranges


@dataclass
class ParallelDetectOutcome:
    """What the fan-out produced, plus the counters the caller surfaces."""

    instances: List[RaceInstance]
    truncated_locations: int
    stats: Dict[str, int]
    segments: int
    workers: int
    boundary_stitches: int
    #: The container's identity section (a
    #: :class:`~repro.record.binary_format.SegmentedHeader`).
    header: object = None
    #: Per-worker wall clock (inflated by time-sharing when workers
    #: outnumber free cores) and CPU seconds (contention-independent).
    worker_seconds: List[float] = field(default_factory=list)
    worker_cpu_seconds: List[float] = field(default_factory=list)
    worker_pids: List[int] = field(default_factory=list)


def parallel_detect_races(
    path,
    jobs: int,
    max_pairs_per_location: Optional[int] = 256,
    perf=None,
) -> ParallelDetectOutcome:
    """Fan a v4 container's segments across a process pool and merge.

    The parent maps the file, decodes only the header and footer (the
    segment index), and never holds the container bytes; each worker
    decompresses exactly the segments it reads.  The merged instance
    list — canonical order included — and the truncation counter are
    byte-identical to the serial sweep's.
    """
    from contextlib import nullcontext

    from ..record.binary_format import MappedSegmentedReader

    path = os.fspath(path)
    with MappedSegmentedReader(path) as reader:
        entries = reader.index
        header = reader.header
    ranges = partition_segment_ranges(entries, jobs) if entries else []
    tasks = [(path, lo, hi, max_pairs_per_location) for lo, hi in ranges]
    with perf.stage("detect.fanout") if perf is not None else nullcontext():
        if len(tasks) <= 1:
            results = [_partition_worker(task) for task in tasks]
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
                results = list(pool.map(_partition_worker, tasks))
    merge_started = time.perf_counter()
    with perf.stage("detect.merge") if perf is not None else nullcontext():
        instances: List[RaceInstance] = []
        for result in results:
            instances.extend(result["instances"])
        sort_canonically(instances)
        swept = sum(result["swept"] for result in results)
        examined = sum(result["examined"] for result in results)
        stitches = sum(result["stitches"] for result in results)
        addresses: Set[int] = set()
        for result in results:
            addresses.update(result["owned"]["addresses"])
        stats = {
            "regions": sum(result["owned"]["regions"] for result in results),
            "accesses": sum(result["owned"]["accesses"] for result in results),
            "addresses": len(addresses),
            "writes": sum(result["owned"]["writes"] for result in results),
        }
    merge_seconds = time.perf_counter() - merge_started
    if perf is not None:
        perf.detect_regions += swept
        perf.detect_pairs_examined += examined
        perf.detect_pairs_pruned += swept * (swept - 1) // 2 - examined
        perf.parallel_segments += len(entries)
        perf.parallel_workers += len(tasks)
        perf.parallel_boundary_stitches += stitches
        perf.parallel_merge_s += merge_seconds
        perf.parallel_worker_sweep_s += sum(
            result["worker_cpu_s"] for result in results
        )
        if len(tasks) > 1:
            perf.pool_tasks += len(tasks)
            perf.pool_workers.update(result["pid"] for result in results)
    return ParallelDetectOutcome(
        instances=instances,
        truncated_locations=sum(result["truncated"] for result in results),
        stats=stats,
        segments=len(entries),
        workers=len(tasks),
        boundary_stitches=stitches,
        header=header,
        worker_seconds=[result["worker_s"] for result in results],
        worker_cpu_seconds=[result["worker_cpu_s"] for result in results],
        worker_pids=[result["pid"] for result in results],
    )


class ParallelFileDetector:
    """Detector-shaped adapter over :func:`parallel_detect_races`.

    Lets ``analyze_log``'s ``detector_factory`` hook swap the in-memory
    sweep for the partitioned file sweep: ``detect()`` returns the same
    canonical instance list the serial detector would, so every
    downstream stage (classification, reporting) is oblivious.
    """

    def __init__(
        self,
        path,
        jobs: int,
        max_pairs_per_location: Optional[int] = 256,
        perf=None,
    ):
        self.path = path
        self.jobs = jobs
        self.max_pairs_per_location = max_pairs_per_location
        self.perf = perf
        self.truncated_locations = 0

    def detect(self) -> List[RaceInstance]:
        outcome = parallel_detect_races(
            self.path,
            self.jobs,
            max_pairs_per_location=self.max_pairs_per_location,
            perf=self.perf,
        )
        self.truncated_locations = outcome.truncated_locations
        return outcome.instances
