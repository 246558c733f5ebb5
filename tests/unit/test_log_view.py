"""Unit tests for the zero-replay LogView detect surface."""

import pytest

from repro.analysis.perf import PerfStats
from repro.isa import assemble
from repro.record import record_run
from repro.record.binary_format import decode_log, encode_log
from repro.record.serialization import log_to_json
from repro.replay import LogView, LogViewUnavailable, OrderedReplay
from repro.vm import RandomScheduler

SOURCE = """
.data
x: .word 0
.thread a b
    li r1, 4
loop:
    load r2, [x]
    addi r2, r2, 1
    store r2, [x]
    sys_rand r3, 2
    subi r1, r1, 1
    bnez r1, loop
    halt
"""


@pytest.fixture(scope="module")
def recording():
    program = assemble(SOURCE, name="lv")
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=9, switch_probability=0.4),
        seed=9,
    )
    return program, log


class TestConstruction:
    def test_from_bytes_carries_log_identity(self, recording):
        _, log = recording
        view = LogView.from_bytes(encode_log(log))
        assert view.program_name == log.program_name
        assert view.seed == log.seed
        assert view.scheduler == log.scheduler
        assert set(view.threads) == set(log.threads)

    def test_from_log_equals_from_bytes(self, recording):
        _, log = recording
        via_log = LogView.from_log(log)
        via_bytes = LogView.from_bytes(encode_log(log))
        assert via_log.all_regions() == via_bytes.all_regions()

    def test_perf_counter_increments(self, recording):
        _, log = recording
        perf = PerfStats()
        LogView.from_log(log, perf=perf)
        assert perf.detect_log_native == 1


class TestUnavailability:
    def test_non_rprb_bytes_refused(self):
        with pytest.raises(LogViewUnavailable):
            LogView.from_bytes(b"{\"not\": \"a container\"}")

    @pytest.mark.parametrize("version", [1, 2])
    def test_pre_v3_container_refused(self, recording, version):
        _, log = recording
        with pytest.raises(LogViewUnavailable) as excinfo:
            LogView.from_bytes(encode_log(log, version=version))
        assert "v%d" % version in str(excinfo.value)

    def test_v3_without_capture_refused(self, recording):
        _, log = recording
        data = encode_log(log, include_captured=False)
        with pytest.raises(LogViewUnavailable):
            LogView.from_bytes(data)

    def test_decoded_captureless_log_refused(self, recording):
        _, log = recording
        stripped = decode_log(encode_log(log, include_captured=False))
        assert stripped.captured is None
        with pytest.raises(LogViewUnavailable):
            LogView.from_log(stripped)

    def test_unavailable_is_a_value_error(self):
        # CLI/service error handling catches ValueError: the refusal
        # must convert into a clean nonzero exit / 400, not a crash.
        assert issubclass(LogViewUnavailable, ValueError)

    def test_json_document_points_at_replay_fallback(self, recording):
        import json

        _, log = recording
        data = json.dumps(log_to_json(log)).encode("utf-8")
        with pytest.raises(LogViewUnavailable) as excinfo:
            LogView.from_bytes(data)
        message = str(excinfo.value)
        assert "drop --from-log/--stream" in message
        assert "falls back to replay" in message


class TestDetectSurface:
    def test_regions_match_ordered_replay(self, recording):
        program, log = recording
        view = LogView.from_bytes(encode_log(log))
        ordered = OrderedReplay(log, program)
        assert view.all_regions() == ordered.all_regions()
        assert view.regions.keys() == ordered.regions.keys()
        for name in view.regions:
            assert view.regions[name] == ordered.regions[name]

    def test_access_index_cached_and_invalidated(self, recording):
        _, log = recording
        view = LogView.from_log(log)
        first = view.access_index()
        assert view.access_index() is first
        view.invalidate_access_index()
        second = view.access_index()
        assert second is not first
        assert second.access_count == first.access_count

    def test_program_assembles_lazily(self, recording):
        program, log = recording
        view = LogView.from_bytes(encode_log(log))
        assert view._program is None
        assembled = view.program
        assert assembled.name == program.name
        assert view.program is assembled
