"""Columnar access index: one trace representation, shared by every analysis.

Detection and classification both walk the plain (non-sync) memory accesses
of every sequencing region.  The seed implementation re-materialized those
lists on every query (`OrderedReplay.region_accesses` was a bisect plus a
per-access sync filter), and the detector additionally re-grouped them by
address on every ``detect()`` call.  Following the observation of the
compressed-trace detection literature — detection cost falls out of the
trace *representation* — this module builds the representation once per
execution:

* **parallel columns** over every plain access, in region-major order:
  region ordinal, thread step, address, value, write flag (plus the
  original :class:`~repro.replay.events.ReplayedAccess` objects, so callers
  that need the rich records get slices, not copies);
* **per-region slices** — ``region_accesses`` becomes an O(1) slice of the
  object column;
* **per-address postings** — for every address, the ascending list of
  region ordinals that touch it, so conflicting regions are found by
  intersection instead of scanning.

Region ordinals follow the opening-timestamp order of
:meth:`OrderedReplay.all_regions`, which is exactly the order a sweep line
over sequencer timestamps visits regions — the detector iterates ordinals
and never re-sorts.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..replay.events import ReplayedAccess
from ..replay.regions import SequencingRegion

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (replay builds us)
    from ..replay.ordered_replay import OrderedReplay


class AccessIndex:
    """Columnar index of every plain memory access of one execution.

    Built from an :class:`OrderedReplay` (the historical constructor) or
    straight from captured log columns via :meth:`from_captured` — the
    zero-replay detect path.  Regions are keyed by their *ordinal* — the
    position in the opening-timestamp order over all non-empty regions.
    Step-empty regions are not indexed (they contain no accesses by
    construction) and map to the empty slice.
    """

    __slots__ = (
        "regions",
        "_ordinals",
        "steps",
        "addresses",
        "values",
        "write_flags",
        "region_of",
        "_objects",
        "_static_id_col",
        "_slices",
        "_address_tuples",
        "postings",
        "_by_address",
        "_perf",
        "_write_count",
    )

    def __init__(self, ordered: "OrderedReplay"):
        # Rows come from the recorder's columnar capture when the log
        # still carries it, else from the replayed threads' access columns
        # (:meth:`OrderedReplay.access_columns`): region slicing is a
        # bisect over a step column either way, and every downstream
        # analysis is oblivious to the source (the equivalence tests
        # compare both).
        self._build(
            regions=[
                region for region in ordered.all_regions() if not region.is_empty
            ],
            columns_for=ordered.access_columns,
            perf=getattr(ordered, "_perf", None),
        )

    @classmethod
    def from_captured(
        cls,
        regions: List[SequencingRegion],
        columns_by_thread: Dict[str, object],
        perf=None,
    ) -> "AccessIndex":
        """Build the index straight from captured columns — zero replay.

        ``regions`` is every region of the execution in opening-timestamp
        (sweep) order — empty regions are filtered here, mirroring the
        replay constructor; ``columns_by_thread`` maps each thread name to
        any step-sorted column carrier exposing
        ``steps``/``flags``/``addresses``/``values``/``static_ids``
        parallel sequences (the recorder's
        :class:`~repro.record.log.ThreadAccessColumns` or the sectioned
        reader's :class:`~repro.record.binary_format.CapturedColumnView`).
        Every non-empty region's thread must have columns: there is no
        replay to fall back to here, so a missing thread raises
        :class:`ValueError`.
        """
        index = cls.__new__(cls)
        index._build(
            regions=[region for region in regions if not region.is_empty],
            columns_for=columns_by_thread.get,
            perf=perf,
        )
        return index

    def _build(
        self,
        regions: List[SequencingRegion],
        columns_for: Callable[[str], object],
        perf,
    ) -> None:
        #: Non-empty regions in opening-timestamp (sweep) order.
        self.regions: List[SequencingRegion] = regions
        self._ordinals: Dict[Tuple[int, int], int] = {
            (region.tid, region.index): ordinal
            for ordinal, region in enumerate(self.regions)
        }
        # The columns.  Addresses/values are 64-bit unsigned machine words,
        # steps and ordinals are non-negative — "Q" holds them all exactly.
        self.steps = array("Q")
        self.addresses = array("Q")
        self.values = array("Q")
        self.write_flags = bytearray()
        self.region_of = array("Q")
        #: Rich access records, parallel to the columns.  Rows start as
        #: ``None`` and are materialized on demand (most are never asked
        #: for: the sweep detector reads columns).
        self._objects: List[Optional[ReplayedAccess]] = []
        self._static_id_col: List[object] = []
        self._slices: List[Tuple[int, int]] = []
        self._address_tuples: List[Tuple[int, ...]] = []
        #: address -> ascending region ordinals touching it.
        self.postings: Dict[int, List[int]] = {}
        #: Per-ordinal address -> accesses grouping, built lazily.
        self._by_address: List[Optional[Dict[int, List[ReplayedAccess]]]] = []
        self._perf = perf
        self._write_count: Optional[int] = None
        for ordinal, region in enumerate(self.regions):
            columns = columns_for(region.thread_name)
            if columns is None:
                raise ValueError(
                    "no captured columns for thread %r and no replay to "
                    "fall back to" % region.thread_name
                )
            start = len(self._objects)
            seen: Dict[int, None] = {}
            self._fill_region_from_columns(ordinal, region, columns, seen)
            self._slices.append((start, len(self._objects)))
            self._address_tuples.append(tuple(seen))
        self._by_address = [None] * len(self.regions)

    def _fill_region_from_columns(
        self,
        ordinal: int,
        region: SequencingRegion,
        columns,
        seen: Dict[int, None],
    ) -> None:
        """Append one region's rows from step-sorted access columns.

        Shared by both construction paths: the replay constructor hands
        recorder columns or a replay's
        :class:`~repro.replay.events.LazyAccessList` here,
        :meth:`from_captured` hands the sectioned reader's views —
        identical parallel-sequence shape either way.
        """
        column_steps = columns.steps
        column_flags = columns.flags
        column_addresses = columns.addresses
        column_values = columns.values
        column_static_ids = columns.static_ids
        lo = bisect_left(column_steps, region.start_step)
        hi = bisect_left(column_steps, region.end_step, lo)
        for position in range(lo, hi):
            flag = column_flags[position]
            if flag & 2:  # synchronization access
                continue
            address = column_addresses[position]
            self._objects.append(None)
            self._static_id_col.append(column_static_ids[position])
            self.steps.append(column_steps[position])
            self.addresses.append(address)
            self.values.append(column_values[position])
            self.write_flags.append(flag & 1)
            self.region_of.append(ordinal)
            if address not in seen:
                seen[address] = None
                self.postings.setdefault(address, []).append(ordinal)

    # ------------------------------------------------------------------
    # Sizes.
    # ------------------------------------------------------------------

    @property
    def access_count(self) -> int:
        return len(self._objects)

    @property
    def region_count(self) -> int:
        return len(self.regions)

    @property
    def address_count(self) -> int:
        """Distinct addresses touched by plain accesses."""
        return len(self.postings)

    @property
    def write_count(self) -> int:
        """Total write accesses — summed once and cached (the columns are
        immutable after construction; ``stats()`` reads this per ``--perf``
        dump)."""
        if self._write_count is None:
            self._write_count = sum(self.write_flags)
        return self._write_count

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def ordinal_of(self, region: SequencingRegion) -> Optional[int]:
        """The sweep ordinal of ``region`` (None for empty regions)."""
        return self._ordinals.get((region.tid, region.index))

    def region_slice(self, ordinal: int) -> Tuple[int, int]:
        """``[start, end)`` bounds of a region's accesses in the columns."""
        return self._slices[ordinal]

    def _materialize_range(self, start: int, end: int) -> List[ReplayedAccess]:
        """Object rows ``[start, end)``, building each row on first use."""
        objects = self._objects
        out = objects[start:end]
        if None in out:
            static_ids = self._static_id_col
            steps, addresses, values = self.steps, self.addresses, self.values
            write_flags = self.write_flags
            built = 0
            for position in range(start, end):
                if objects[position] is None:
                    objects[position] = ReplayedAccess(
                        thread_step=steps[position],
                        static_id=static_ids[position],
                        address=addresses[position],
                        value=values[position],
                        is_write=bool(write_flags[position]),
                        is_sync=False,
                    )
                    built += 1
            if built and self._perf is not None:
                self._perf.replay_accesses_materialized += built
            out = objects[start:end]
        return out

    def materialized_objects(self) -> List[ReplayedAccess]:
        """Every access record, fully materialized (tests and equivalence
        checks compare this across the captured and replay-derived paths)."""
        return self._materialize_range(0, len(self._objects))

    def region_accesses(self, region: SequencingRegion) -> List[ReplayedAccess]:
        """Plain accesses inside ``region`` — a slice of the object column
        (rows materialize on first query)."""
        ordinal = self._ordinals.get((region.tid, region.index))
        if ordinal is None:
            return []
        start, end = self._slices[ordinal]
        return self._materialize_range(start, end)

    def addresses_of(self, ordinal: int) -> Tuple[int, ...]:
        """Distinct addresses a region touches, in first-touch order."""
        return self._address_tuples[ordinal]

    def by_address(self, ordinal: int) -> Dict[int, List[ReplayedAccess]]:
        """A region's accesses grouped by address (step order preserved).

        Grouped once per ordinal on first query, driven by the address
        column; the detector shares the grouping across every pair the
        region participates in.
        """
        grouped = self._by_address[ordinal]
        if grouped is None:
            start, end = self._slices[ordinal]
            objects = self._materialize_range(start, end)
            grouped = {}
            addresses = self.addresses
            for offset, position in enumerate(range(start, end)):
                grouped.setdefault(addresses[position], []).append(objects[offset])
            self._by_address[ordinal] = grouped
        return grouped

    def retire(self, ordinal: int) -> None:
        """Nothing to drop: the batch index stays whole after the sweep
        passes a region (classification reads it after detection)."""

    def regions_touching(self, address: int) -> List[int]:
        """Ascending ordinals of regions touching ``address``."""
        return self.postings.get(address, [])

    def stats(self) -> Dict[str, int]:
        """Summary counters (surfaced by ``--perf`` breakdowns)."""
        return {
            "regions": self.region_count,
            "accesses": self.access_count,
            "addresses": self.address_count,
            "writes": self.write_count,
        }


class StreamingAccessWindow:
    """Row-fed region store for the region-at-a-time sweep.

    The streaming path (regions released by the segment cursor) and the
    partition workers of the parallel path both feed the sweep one region
    at a time, in opening-timestamp order, with the region's captured
    rows.  This store keeps exactly what the sweep reads from
    :class:`AccessIndex` — ``regions[ordinal]``/``addresses_of``/
    ``by_address`` over store-local ordinals — but rows stay as captured
    tuples and are grouped into :class:`~repro.replay.events.ReplayedAccess`
    objects lazily, only for regions the sweep actually pairs up, and a
    region is dropped as soon as the sweep expires it (:meth:`retire`).
    Resident state is the active overlap window, not the trace.

    :meth:`stats` counts regions the way :meth:`AccessIndex.stats` does:
    every admitted region, including those whose rows hold no plain
    access (the sweep never sees those).  Regions admitted with
    ``counted=False`` — a partition worker's straddlers, which the worker
    owning them counts — join the sweep but not the totals.
    """

    __slots__ = (
        "regions",
        "_rows",
        "_addresses",
        "_grouped",
        "_next_ordinal",
        "region_count",
        "access_count",
        "write_count",
        "address_set",
    )

    def __init__(self) -> None:
        #: ordinal -> region, for the regions still resident.
        self.regions: Dict[int, SequencingRegion] = {}
        self._rows: Dict[int, list] = {}
        self._addresses: Dict[int, Tuple[int, ...]] = {}
        self._grouped: Dict[int, Dict[int, List[ReplayedAccess]]] = {}
        self._next_ordinal = 0
        self.region_count = 0
        self.access_count = 0
        self.write_count = 0
        #: Distinct addresses of the counted regions' plain accesses.
        self.address_set: Dict[int, None] = {}

    def admit(self, region: SequencingRegion, rows, counted: bool = True) -> Optional[int]:
        """Store one region's rows; returns its ordinal, or ``None`` when
        the region carries no plain access (the sweep would skip it).

        ``rows`` are ``(step, flag, address, value, static_id)`` tuples in
        step order, already bounded to the region's step range; sync rows
        (``flag & 2``) are filtered here, the same filter
        :meth:`AccessIndex._fill_region_from_columns` applies.
        """
        plain = []
        append = plain.append
        addresses: Dict[int, None] = {}
        writes = 0
        for row in rows:
            flag = row[1]
            if flag & 2:
                continue
            append(row)
            addresses[row[2]] = None
            if flag & 1:
                writes += 1
        if counted:
            self.region_count += 1
            self.access_count += len(plain)
            self.write_count += writes
            self.address_set.update(addresses)
        if not plain:
            return None
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        self.regions[ordinal] = region
        self._rows[ordinal] = plain
        self._addresses[ordinal] = tuple(addresses)
        return ordinal

    def retire(self, ordinal: int) -> None:
        """Drop a region's resident state (the sweep expired it)."""
        del self.regions[ordinal]
        del self._rows[ordinal]
        del self._addresses[ordinal]
        self._grouped.pop(ordinal, None)

    # -- the detector-facing surface ------------------------------------

    def addresses_of(self, ordinal: int) -> Tuple[int, ...]:
        """Distinct addresses a region touches, in first-touch order."""
        return self._addresses[ordinal]

    def by_address(self, ordinal: int) -> Dict[int, List[ReplayedAccess]]:
        """A region's accesses grouped by address (step order preserved),
        materialized to :class:`ReplayedAccess` on first query."""
        grouped = self._grouped.get(ordinal)
        if grouped is None:
            grouped = self._grouped[ordinal] = {}
            for step, flag, address, value, static_id in self._rows[ordinal]:
                grouped.setdefault(address, []).append(
                    ReplayedAccess(
                        thread_step=step,
                        static_id=static_id,
                        address=address,
                        value=value,
                        is_write=bool(flag & 1),
                        is_sync=False,
                    )
                )
        return grouped

    def stats(self) -> Dict[str, int]:
        """Cumulative counters, equal to :meth:`AccessIndex.stats` over the
        same counted regions."""
        return {
            "regions": self.region_count,
            "accesses": self.access_count,
            "addresses": len(self.address_set),
            "writes": self.write_count,
        }


def build_access_index(ordered: "OrderedReplay") -> AccessIndex:
    """Convenience constructor mirroring the other analysis entry points."""
    return AccessIndex(ordered)
