"""Zero-replay log view: regions and the access index straight from bytes.

The paper's triage funnel is detect-first, and detection — the sweep line
in :mod:`repro.race.happens_before` — consumes only three things: the
sequencing regions (pure sequencer arithmetic), the plain-access columns,
and the per-address postings of the :class:`AccessIndex`.  None of that
needs a :class:`~repro.vm.machine.Machine`, a
:class:`~repro.replay.thread_replayer.ThreadReplayer` or any register
state; for a v3 log with captured columns it is all *already on disk*.

:class:`LogView` is the carrier for that observation: it wraps the
sectioned reader's :func:`~repro.record.binary_format.decode_log_sections`
output (or an in-memory :class:`~repro.record.log.ReplayLog` that still
holds its capture), builds regions with the same
:func:`~repro.replay.regions.regions_of_thread` arithmetic the replay path
uses, and exposes ``access_index()`` — the only method the sweep detector
calls on its ``ordered`` argument — backed by
:meth:`AccessIndex.from_captured`.  Race sets are byte-identical to the
replay-derived path (the equivalence suite holds both paths to the
reference detector), while the work and peak memory stay proportional to
the log instead of the execution.

Logs that cannot support the path — v1/v2 containers, or v3 encoded with
``include_captured=False`` — raise :class:`LogViewUnavailable` (a
:class:`ValueError`, so the CLI's error handling turns it into a clean
nonzero exit) and callers fall back to :class:`OrderedReplay`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..record.binary_format import decode_log_sections, is_binary_log
from ..record.log import ReplayLog
from .regions import SequencingRegion, regions_of_thread

#: Why a log cannot serve the zero-replay path, by cause.
_NO_CAPTURE = (
    "log has no captured-columns section (v%d%s): the zero-replay detect "
    "path needs a v3 log recorded with captured columns — re-record, or "
    "drop --from-log/--stream (the default falls back to replay)"
)


class LogViewUnavailable(ValueError):
    """The log cannot serve the zero-replay detect path.

    Raised for v1/v2 containers and for v3 logs encoded with
    ``include_captured=False``; the message says which.  Subclasses
    :class:`ValueError` so existing CLI/service error handling converts
    it into a clean nonzero exit / 400 instead of an ``AttributeError``.
    """


class LogView:
    """Detect-ready view of one replay log, with zero replay performed.

    Duck-type-compatible with :class:`OrderedReplay` for exactly the
    surface the detect stage uses: ``access_index()``,
    ``invalidate_access_index()``, ``all_regions()``, ``regions`` and
    ``log``-level identity fields.  ``program`` assembles lazily from the
    embedded source for callers that print instruction text *after*
    detection (the CLI race listing) — detection itself never triggers
    it.
    """

    def __init__(
        self,
        *,
        program_name: str,
        program_source: str,
        seed: int,
        scheduler: str,
        threads: Dict[str, object],
        columns_by_thread: Dict[str, object],
        perf=None,
    ):
        self.program_name = program_name
        self.program_source = program_source
        self.seed = seed
        self.scheduler = scheduler
        #: thread name -> sequencer-bearing record (duck-typed by
        #: :func:`regions_of_thread`: needs ``name``/``tid``/``sequencers``).
        self.threads = threads
        self._columns = columns_by_thread
        self._perf = perf
        self.regions: Dict[str, List[SequencingRegion]] = {
            name: regions_of_thread(thread) for name, thread in threads.items()
        }
        self._access_index = None
        self._program = None
        if perf is not None:
            perf.detect_log_native += 1

    # -- construction ---------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes, perf=None) -> "LogView":
        """Build a view straight from RPRB container bytes.

        Decodes only the header, sequencer and captured sections —
        everything else is seeked past.  Raises
        :class:`LogViewUnavailable` when the container has no captured
        columns, and plain :class:`ValueError` for non-RPRB bytes.
        """
        if not is_binary_log(data):
            raise LogViewUnavailable(
                "not a binary replay log: the zero-replay detect path reads "
                "RPRB containers only — drop --from-log/--stream for JSON "
                "logs (the default falls back to replay)"
            )
        sections = decode_log_sections(data)
        if sections.captured is None:
            raise LogViewUnavailable(
                _NO_CAPTURE
                % (
                    sections.version,
                    "" if sections.version >= 3 else "; captured columns need v3",
                )
            )
        return cls(
            program_name=sections.program_name,
            program_source=sections.program_source,
            seed=sections.seed,
            scheduler=sections.scheduler,
            threads=sections.threads,
            columns_by_thread=sections.captured,
            perf=perf,
        )

    @classmethod
    def from_log(cls, log: ReplayLog, perf=None) -> "LogView":
        """Build a view from an already-decoded :class:`ReplayLog`.

        The in-memory analog of :meth:`from_bytes` for callers that hold
        a fresh recording (``record_run`` output) or a fully decoded log;
        requires ``log.captured``.
        """
        if log.captured is None:
            raise LogViewUnavailable(
                "log carries no captured access columns (pre-v3 container, "
                "or v3 encoded without capture): the zero-replay detect "
                "path needs them — re-record, or drop --from-log/--stream "
                "(the default falls back to replay)"
            )
        return cls(
            program_name=log.program_name,
            program_source=log.program_source,
            seed=log.seed,
            scheduler=log.scheduler,
            threads=dict(log.threads),
            columns_by_thread=dict(log.captured.threads),
            perf=perf,
        )

    # -- the detect surface ---------------------------------------------

    def all_regions(self) -> List[SequencingRegion]:
        """Every region of every thread, sorted by opening timestamp —
        the same sweep order :meth:`OrderedReplay.all_regions` produces."""
        collected: List[SequencingRegion] = []
        for thread_regions in self.regions.values():
            collected.extend(thread_regions)
        collected.sort(key=lambda region: region.start_ts)
        return collected

    def access_index(self):
        """The columnar :class:`AccessIndex`, built from captured columns
        on first use — no thread is ever replayed."""
        if self._access_index is None:
            # Local import mirrors OrderedReplay: the index lives in the
            # analysis layer, which imports replay at module scope.
            from ..analysis.access_index import AccessIndex

            self._access_index = AccessIndex.from_captured(
                self.all_regions(), self._columns, perf=self._perf
            )
        return self._access_index

    def invalidate_access_index(self) -> None:
        """Drop the cached index (benchmarks re-time the build with this)."""
        self._access_index = None

    # -- lazy extras ----------------------------------------------------

    @property
    def program(self):
        """The embedded program, assembled on first use.

        Detection never touches this; it exists so race *presentation*
        (``describe_instruction`` in the CLI) works on the same object.
        """
        if self._program is None:
            from ..isa.assembler import assemble

            self._program = assemble(self.program_source, name=self.program_name)
        return self._program


# ----------------------------------------------------------------------
# The streaming surface: segments in, regions out.
# ----------------------------------------------------------------------


class _ThreadCursor:
    """Per-thread progress while digesting a segment stream."""

    __slots__ = (
        "name", "tid", "seen", "open_step", "open_ts", "open_kind", "rows", "row_pos",
    )

    def __init__(self, name: str, tid: int):
        self.name = name
        self.tid = tid
        #: Sequencers seen so far — after *k* of them, ``k - 1`` regions
        #: are complete, so the next completed region has index ``k - 1``
        #: (step-empty regions consume indices too, exactly as
        #: :func:`~repro.replay.regions.regions_of_thread` numbers them).
        self.seen = 0
        #: The last sequencer seen — the opening side of the thread's
        #: currently *open* region (meaningful once ``seen > 0``).
        self.open_step = 0
        self.open_ts = 0
        self.open_kind = ""
        #: Buffered ``(step, flag, address, value, static_id)`` rows from
        #: ``row_pos`` on are not yet claimed by a completed region.
        self.rows: List[tuple] = []
        self.row_pos = 0

    @property
    def live(self) -> bool:
        """True while the thread has an open region still to close."""
        return self.seen > 0 and self.open_kind != "thread_end"


class SegmentCursor:
    """Turn a v4 segment stream into completed regions in sweep order.

    The one place segment sequencers and rows become regions.  Feed
    segments in file order — :class:`~repro.record.binary_format.LogSegmentView`
    objects via :meth:`feed`, or
    :func:`~repro.record.binary_format.read_segment_lean` tuples via
    :meth:`feed_lean`; each call returns the ``(region, rows)`` pairs
    whose rows are now final *and* provably next in global
    opening-timestamp order — exactly the order :meth:`LogView.all_regions`
    (and therefore the batch sweep) visits them.  A region is released
    once every still-live thread's open region starts later than it; the
    v4 attachment rule guarantees a region's rows arrive no later than the
    segment carrying its closing sequencer, so released regions never
    grow.  Step-empty regions are never released (no path indexes them).

    A partition worker starts mid-stream: it first seeds (:meth:`seed`) each
    thread's sequencer count and last pre-range sequencer, and passes
    ``owned_through`` — the last timestamp of its range — so regions
    opening later (a later worker's) are completed but never released.

    :meth:`finish` drains the remainder after the last segment.  Resident
    state is the per-thread open-region row buffers plus the not-yet
    releasable completed regions — bounded by the active overlap window,
    not the trace.
    """

    def __init__(self, owned_through: Optional[int] = None):
        self._threads: Dict[str, _ThreadCursor] = {}
        self._pending: List[Tuple[int, int, SequencingRegion, List[tuple]]] = []
        self._tiebreak = 0
        self._owned_through = owned_through
        self.segments_fed = 0

    def seed(self, name: str, tid: int, count: int, step: int, ts: int, kind: str) -> None:
        """Catch a thread up on ``count`` sequencers that precede the fed
        segments, the last at ``(step, ts, kind)`` — one row of
        :func:`~repro.record.binary_format.scan_segment_sequencers`."""
        if not count:
            return
        thread = self._thread(name, tid)
        thread.seen += count
        thread.open_step = step
        thread.open_ts = ts
        thread.open_kind = kind

    def feed(self, segment) -> List[Tuple[SequencingRegion, List[tuple]]]:
        """Digest one segment view; return newly releasable (region, rows)."""
        for name, view in segment.threads.items():
            columns = view.columns
            self._feed_thread(
                name,
                view.tid,
                [
                    (sequencer.thread_step, sequencer.timestamp, sequencer.kind)
                    for sequencer in view.sequencers
                ],
                zip(
                    columns.steps,
                    columns.flags,
                    columns.addresses,
                    columns.values,
                    columns.static_ids,
                ),
                segment.ordinal,
            )
        return self._seal(segment.last_ts)

    def feed_lean(self, lean) -> List[Tuple[SequencingRegion, List[tuple]]]:
        """Digest one ``read_segment_lean`` result; return newly
        releasable (region, rows)."""
        ordinal, _first_ts, last_ts, threads = lean
        for name, tid, _block, sequencers, rows in threads:
            self._feed_thread(name, tid, sequencers, rows, ordinal)
        return self._seal(last_ts)

    def finish(self) -> List[Tuple[SequencingRegion, List[tuple]]]:
        """Release everything still pending (the stream is over)."""
        return self._release(bound=None)

    def open_through(self, ts: int) -> bool:
        """True while some live thread's open region started at or before
        ``ts`` — its closing sequencer and rows are still to come."""
        return any(
            thread.live and thread.open_ts <= ts
            for thread in self._threads.values()
        )

    # -- internals ------------------------------------------------------

    def _thread(self, name: str, tid: int) -> _ThreadCursor:
        thread = self._threads.get(name)
        if thread is None:
            thread = self._threads[name] = _ThreadCursor(name, tid)
        return thread

    def _feed_thread(self, name, tid, sequencers, rows, segment_ordinal: int) -> None:
        thread = self._thread(name, tid)
        if thread.row_pos:
            del thread.rows[: thread.row_pos]
            thread.row_pos = 0
        thread.rows.extend(rows)
        for step, ts, kind in sequencers:
            if thread.seen:
                if ts <= thread.open_ts:
                    raise LogViewUnavailable(
                        "segment stream out of order: thread %r sequencer "
                        "timestamps regress (ts %d after %d) (at segment %d, "
                        "step %d)" % (name, ts, thread.open_ts, segment_ordinal, step)
                    )
                self._complete_region(thread, step, ts, kind, segment_ordinal)
            thread.seen += 1
            thread.open_step = step
            thread.open_ts = ts
            thread.open_kind = kind

    def _complete_region(
        self, thread: _ThreadCursor, end_step: int, end_ts: int, end_kind: str,
        segment_ordinal: int,
    ) -> None:
        """Close the thread's open region at a newly arrived sequencer.

        Buffered rows below ``end_step`` belong to the closing region.
        Rows below its ``start_step`` are stragglers of the *previous*
        closing sequencer's step (the VM emits a sync instruction's
        sequencer before its access hooks) — always sync-flagged, outside
        every region.
        """
        rows = thread.rows
        low = position = thread.row_pos
        end = len(rows)
        while position < end and rows[position][0] < end_step:
            position += 1
        claimed = rows[low:position]
        thread.row_pos = position
        start_step = thread.open_step + 1
        start_ts = thread.open_ts
        if claimed and claimed[0][0] < start_step:
            kept = []
            for row in claimed:
                if row[0] >= start_step:
                    kept.append(row)
                elif not row[1] & 2:
                    raise LogViewUnavailable(
                        "segment stream inconsistent: thread %r has a plain "
                        "access row below its region window (at segment %d, "
                        "step %d)" % (thread.name, segment_ordinal, row[0])
                    )
            claimed = kept
        if end_step <= start_step or (
            self._owned_through is not None and start_ts > self._owned_through
        ):
            return  # step-empty, or owned by a later partition
        region = SequencingRegion(
            thread_name=thread.name,
            tid=thread.tid,
            index=thread.seen - 1,
            start_step=start_step,
            end_step=end_step,
            start_ts=start_ts,
            end_ts=end_ts,
            start_kind=thread.open_kind,
            end_kind=end_kind,
        )
        heappush(self._pending, (start_ts, self._tiebreak, region, claimed))
        self._tiebreak += 1

    def _seal(self, segment_last_ts: int) -> List[Tuple[SequencingRegion, List[tuple]]]:
        """Release what is safe after a segment ending at ``segment_last_ts``.

        Every sequencer with timestamp ≤ the segment's last_ts has been
        seen (segments are globally timestamp-ordered), so the only
        regions that could still appear with an earlier start are the
        live threads' currently open ones.
        """
        self.segments_fed += 1
        bound = segment_last_ts + 1
        for thread in self._threads.values():
            if thread.live and thread.open_ts < bound:
                bound = thread.open_ts
        return self._release(bound)

    def _release(
        self, bound: Optional[int]
    ) -> List[Tuple[SequencingRegion, List[tuple]]]:
        released: List[Tuple[SequencingRegion, List[tuple]]] = []
        pending = self._pending
        while pending and (bound is None or pending[0][0] < bound):
            _, _, region, rows = heappop(pending)
            released.append((region, rows))
        return released


class StreamingLogView:
    """Streaming sibling of :class:`LogView`: regions in sweep order,
    with resident state bounded by the segment window.

    Wraps a segment iterator (a v4 file's
    :func:`~repro.record.binary_format.iter_segments`, or the in-memory
    re-chunking of a v1–v3 sectioned read / decoded log) and a
    :class:`SegmentCursor`.  :meth:`stream_regions` yields
    ``(region, rows)`` in exactly the opening-timestamp order the batch
    detector sweeps, so feeding them to
    :meth:`~repro.race.happens_before.HappensBeforeDetector.add_region`
    reproduces the batch race set byte for byte.

    Carries the same identity surface as :class:`LogView`
    (``program_name``/``seed``/``scheduler``, lazy ``program``);
    ``access_index()`` returns the detector's
    :class:`~repro.analysis.access_index.StreamingAccessWindow` once
    attached, so post-detection ``--perf`` plumbing works unchanged.
    """

    def __init__(
        self,
        *,
        program_name: str,
        program_source: str,
        seed: int,
        scheduler: str,
        segments: Iterable,
        perf=None,
    ):
        self.program_name = program_name
        self.program_source = program_source
        self.seed = seed
        self.scheduler = scheduler
        self._segments = segments
        self._perf = perf
        self.cursor = SegmentCursor()
        self._program = None
        self._window = None
        if perf is not None:
            perf.detect_log_native += 1

    # -- construction ---------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes, perf=None, segment_bytes: Optional[int] = None):
        """Stream from RPRB container bytes.

        v4 containers stream segment frames directly (one decompressed
        at a time).  Monolithic v3 containers are read through the
        sectioned reader and re-chunked with the v4 cut rule —
        ``segment_bytes`` sizes those synthetic segments.  v1/v2 and
        captureless logs raise :class:`LogViewUnavailable`.
        """
        from ..record.binary_format import (
            DEFAULT_SEGMENT_BYTES,
            is_segmented_log,
            iter_segments,
            read_segmented_header,
            segment_views_of_sections,
        )

        if not is_binary_log(data):
            raise LogViewUnavailable(
                "not a binary replay log: the streaming detect path reads "
                "RPRB containers only — drop --from-log/--stream for JSON "
                "logs (the default falls back to replay)"
            )
        if is_segmented_log(data):
            header = read_segmented_header(data)
            if not header.has_captured:
                raise LogViewUnavailable(
                    _NO_CAPTURE % (header.version, "")
                )
            return cls(
                program_name=header.program_name,
                program_source=header.program_source,
                seed=header.seed,
                scheduler=header.scheduler,
                segments=iter_segments(data),
                perf=perf,
            )
        sections = decode_log_sections(data)
        if sections.captured is None:
            raise LogViewUnavailable(
                _NO_CAPTURE
                % (
                    sections.version,
                    "" if sections.version >= 3 else "; captured columns need v3",
                )
            )
        return cls(
            program_name=sections.program_name,
            program_source=sections.program_source,
            seed=sections.seed,
            scheduler=sections.scheduler,
            segments=segment_views_of_sections(
                sections, segment_bytes or DEFAULT_SEGMENT_BYTES
            ),
            perf=perf,
        )

    @classmethod
    def from_log(
        cls, log: ReplayLog, perf=None, segment_bytes: Optional[int] = None
    ):
        """Stream an in-memory captured log (re-chunked with the v4 cut
        rule); requires ``log.captured``."""
        from ..record.binary_format import (
            DEFAULT_SEGMENT_BYTES,
            segment_views_of_log,
        )

        if log.captured is None:
            raise LogViewUnavailable(
                "log carries no captured access columns (pre-v3 container, "
                "or v3 encoded without capture): the streaming detect path "
                "needs them — re-record, or drop --from-log/--stream (the "
                "default falls back to replay)"
            )
        return cls(
            program_name=log.program_name,
            program_source=log.program_source,
            seed=log.seed,
            scheduler=log.scheduler,
            segments=segment_views_of_log(
                log, segment_bytes or DEFAULT_SEGMENT_BYTES
            ),
            perf=perf,
        )

    # -- streaming ------------------------------------------------------

    def stream_regions(self) -> Iterator[Tuple[SequencingRegion, List[tuple]]]:
        """Yield every ``(region, rows)`` in opening-timestamp order,
        holding only the active window resident.  Single use."""
        for window in self.stream_windows():
            yield from window

    def stream_windows(
        self,
    ) -> Iterator[List[Tuple[SequencingRegion, List[tuple]]]]:
        """Like :meth:`stream_regions`, but one list per sealed segment
        (plus a final drain) — the granularity eager classification fires
        at.  Empty windows are skipped.  Single use."""
        for segment in self._segments:
            window = self.cursor.feed(segment)
            if window:
                yield window
        window = self.cursor.finish()
        if window:
            yield window

    @property
    def segments_fed(self) -> int:
        return self.cursor.segments_fed

    # -- the post-detection surface -------------------------------------

    def attach_window(self, window) -> None:
        """Record the detector's access window (for ``access_index()``)."""
        self._window = window

    def access_index(self):
        """The streaming window standing in for the batch
        :class:`AccessIndex` (``stats()``-compatible)."""
        if self._window is None:
            raise LogViewUnavailable(
                "streaming view has no access window yet: sweep its "
                "regions first"
            )
        return self._window

    @property
    def program(self):
        """The embedded program, assembled on first use (presentation
        only — streaming detection never touches it)."""
        if self._program is None:
            from ..isa.assembler import assemble

            self._program = assemble(self.program_source, name=self.program_name)
        return self._program
