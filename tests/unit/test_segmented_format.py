"""Unit tests for the v4 segmented container and the segment cursor.

Covers the pieces the streaming equivalence properties treat as a black
box: the deterministic window-sealing rule, races whose regions straddle
a segment boundary, the cursor's ordering/consistency errors (with the
offending segment ordinal and step in the message), the streaming
recorder, and the version gates on the streaming view.
"""

import pytest

from repro.analysis.pipeline import detect_only, detection_report, render_report
from repro.isa import assemble
from repro.record import load_log, record_run, record_run_segmented
from repro.record.binary_format import (
    SEGMENTED_FORMAT_VERSION,
    SegmentedLogWriter,
    encode_log,
    encode_log_segmented,
    is_segmented_log,
    iter_segments,
    read_segment_index,
    read_segmented_header,
    segment_views_of_log,
)
from repro.replay.errors import ReplayDivergence, stream_context
from repro.replay.log_view import (
    LogViewUnavailable,
    SegmentCursor,
    StreamingLogView,
)
from repro.vm import RandomScheduler

RACY_COUNTER = """
.data
counter: .word 0
m: .word 0
.thread racer_a
    load r1, [counter]
    addi r1, r1, 1
    store r1, [counter]
    lock [m]
    load r2, [counter]
    unlock [m]
    load r1, [counter]
    addi r1, r1, 1
    store r1, [counter]
    halt
.thread racer_b
    load r1, [counter]
    addi r1, r1, 2
    store r1, [counter]
    lock [m]
    load r2, [counter]
    unlock [m]
    load r1, [counter]
    addi r1, r1, 2
    store r1, [counter]
    halt
"""


def _recorded(seed=9, switch_probability=0.4):
    program = assemble(RACY_COUNTER, name="seg_unit")
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=switch_probability),
        seed=seed,
    )
    return program, log


class TestWindowSealing:
    def test_small_budget_seals_many_segments_deterministically(self):
        _, log = _recorded()
        small = segment_views_of_log(log, segment_bytes=64)
        again = segment_views_of_log(log, segment_bytes=64)
        large = segment_views_of_log(log, segment_bytes=1 << 20)
        assert len(small) > 1
        assert len(large) == 1
        assert [view.ordinal for view in small] == list(range(len(small)))
        # Same log, same budget — same cuts, every time.
        assert [
            (view.first_ts, view.last_ts) for view in small
        ] == [(view.first_ts, view.last_ts) for view in again]

    def test_segments_are_globally_timestamp_ordered(self):
        _, log = _recorded()
        views = segment_views_of_log(log, segment_bytes=64)
        previous_last = -1
        for view in views:
            assert view.first_ts <= view.last_ts
            assert view.first_ts > previous_last
            previous_last = view.last_ts

    def test_file_cuts_match_in_memory_cuts(self):
        _, log = _recorded()
        data = encode_log_segmented(log, segment_bytes=64)
        assert is_segmented_log(data)
        assert read_segmented_header(data).version == SEGMENTED_FORMAT_VERSION
        from_bytes = list(iter_segments(data))
        in_memory = segment_views_of_log(log, segment_bytes=64)
        assert [view.ordinal for view in from_bytes] == [
            view.ordinal for view in in_memory
        ]
        assert [entry.offset for entry in read_segment_index(data)] == sorted(
            entry.offset for entry in read_segment_index(data)
        )

    def test_non_positive_budget_is_rejected(self):
        _, log = _recorded()
        with pytest.raises(ValueError):
            segment_views_of_log(log, segment_bytes=0)

    def test_writer_refuses_double_finish(self):
        import io

        writer = SegmentedLogWriter(
            io.BytesIO(),
            program_name="p",
            program_source="",
            seed=0,
            scheduler="",
            has_captured=False,
        )
        writer.finish(threads={})
        with pytest.raises(ValueError, match="finished"):
            writer.finish(threads={})


class TestSegmentBoundaryRaces:
    def test_races_straddling_boundaries_survive_streaming(self):
        _, log = _recorded()
        v3 = encode_log(log, version=3)
        expected = render_report(
            detection_report(detect_only(v3, mode="from-log"))
        )
        v4 = encode_log_segmented(log, segment_bytes=64)
        assert len(list(iter_segments(v4))) > 1
        streamed = detect_only(v4, mode="stream")
        assert render_report(detection_report(streamed)) == expected
        assert streamed.instance_count > 0
        assert streamed.path == "stream"

    def test_streaming_detector_rejects_unsorted_regions(self):
        from repro.race.happens_before import HappensBeforeDetector

        _, log = _recorded()
        cursor = SegmentCursor()
        regions = []
        for segment in segment_views_of_log(log, segment_bytes=1 << 20):
            regions.extend(cursor.feed(segment))
        regions.extend(cursor.finish())
        assert len(regions) >= 2
        detector = HappensBeforeDetector()
        detector.add_region(*regions[1])
        with pytest.raises(ValueError, match="fed out of order"):
            detector.add_region(*regions[0])


class TestCursorErrors:
    def test_out_of_order_segments_name_segment_and_step(self):
        _, log = _recorded()
        views = segment_views_of_log(log, segment_bytes=64)
        assert len(views) > 1
        cursor = SegmentCursor()
        cursor.feed(views[-1])
        with pytest.raises(LogViewUnavailable) as excinfo:
            for view in views[:-1]:
                cursor.feed(view)
        message = str(excinfo.value)
        assert "at segment" in message
        assert "step" in message

    def test_replay_divergence_carries_stream_context(self):
        error = ReplayDivergence("value mismatch", thread_step=7, segment=3)
        assert error.thread_step == 7
        assert error.segment == 3
        assert "(at segment 3, step 7)" in str(error)
        assert stream_context(segment=2) == " (at segment 2)"
        assert stream_context(thread_step=5) == " (at step 5)"
        assert stream_context() == ""
        # Existing single-argument raises are unaffected.
        assert str(ReplayDivergence("plain")) == "plain"


class TestStreamingViewGates:
    @pytest.mark.parametrize("version", (1, 2))
    def test_v1_v2_containers_are_refused(self, version):
        _, log = _recorded()
        data = encode_log(log, version=version)
        with pytest.raises(LogViewUnavailable):
            StreamingLogView.from_bytes(data)

    def test_captureless_v3_is_refused(self):
        _, log = _recorded()
        data = encode_log(log, version=3, include_captured=False)
        with pytest.raises(LogViewUnavailable):
            StreamingLogView.from_bytes(data)

    def test_captureless_v4_is_refused(self):
        _, log = _recorded()
        data = encode_log_segmented(log, include_captured=False)
        with pytest.raises(LogViewUnavailable):
            StreamingLogView.from_bytes(data)

    def test_non_binary_bytes_are_refused(self):
        with pytest.raises(LogViewUnavailable):
            StreamingLogView.from_bytes(b'{"not": "a container"}')


class TestStreamingRecorder:
    def test_segmented_recording_round_trips(self, tmp_path):
        program, batch_log = _recorded(seed=11)
        destination = tmp_path / "run.rprb"
        _, stream_log = record_run_segmented(
            program,
            destination,
            scheduler=RandomScheduler(seed=11, switch_probability=0.4),
            seed=11,
            segment_bytes=128,
        )
        # The streaming log keeps captured columns in the file only.
        assert stream_log.captured is None
        decoded = load_log(destination)
        assert decoded == batch_log
        assert decoded.captured is not None
        for name, columns in batch_log.captured.threads.items():
            assert decoded.captured.threads[name] == columns

    def test_segmented_recording_streams_detection(self, tmp_path):
        program, batch_log = _recorded(seed=11)
        destination = tmp_path / "run.rprb"
        record_run_segmented(
            program,
            destination,
            scheduler=RandomScheduler(seed=11, switch_probability=0.4),
            seed=11,
            segment_bytes=128,
        )
        data = destination.read_bytes()
        assert is_segmented_log(data)
        expected = render_report(
            detection_report(
                detect_only(encode_log(batch_log, version=3), mode="from-log")
            )
        )
        assert render_report(
            detection_report(detect_only(data, mode="stream"))
        ) == expected

    def test_save_log_rejects_json_with_segments(self, tmp_path):
        from repro.record.serialization import save_log

        _, log = _recorded()
        with pytest.raises(ValueError):
            save_log(log, tmp_path / "log.json", segment_bytes=64)
