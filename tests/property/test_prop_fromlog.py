"""Property-based tests: the zero-replay detect path over random programs.

Two invariant families:

* **Sectioned reading** — for random :class:`ReplayLog` containers (every
  version, ``include_captured`` both ways), ``decode_log_sections`` must
  agree with the full decoder on everything it claims to decode: thread
  identity, sequencer records, step counts, and the captured columns
  when (and only when) the container carries them.
* **Detect equivalence or clean refusal** — for random *recorded*
  programs, the log-native :class:`LogView` detector either produces
  exactly the race instances the replay path produces (v3 with captured
  columns) or refuses with :class:`LogViewUnavailable` (v1/v2, or v3
  encoded with ``include_captured=False``) — never a wrong answer, never
  a different exception.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.pipeline import detect_only, detection_report, render_report
from repro.isa import assemble
from repro.race.happens_before import HappensBeforeDetector
from repro.record import record_run
from repro.record.binary_format import (
    SUPPORTED_VERSIONS,
    decode_log,
    decode_log_sections,
    encode_log,
)
from repro.replay import LogView, LogViewUnavailable, OrderedReplay
from repro.vm import RandomScheduler

from oracles import replay_detection
from strategies import programs, seeds
from test_prop_binary_versions import replay_logs

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _recording(source, seed):
    program = assemble(source, name="prop_fromlog")
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )
    return program, log


class TestSectionedReaderAgainstFullDecoder:
    @pytest.mark.parametrize("version", SUPPORTED_VERSIONS)
    @given(log=replay_logs())
    @_SETTINGS
    def test_sections_match_decode_log(self, version, log):
        data = encode_log(log, version=version)
        full = decode_log(data)
        sections = decode_log_sections(data)
        assert sections.version == version
        assert sections.program_name == full.program_name
        assert sections.program_source == full.program_source
        assert sections.seed == full.seed
        assert sections.scheduler == full.scheduler
        assert set(sections.threads) == set(full.threads)
        for name, thread in full.threads.items():
            view = sections.threads[name]
            assert view.tid == thread.tid
            assert view.block == thread.block
            assert view.steps == thread.steps
            assert view.sequencers == thread.sequencers

    @pytest.mark.parametrize("include_captured", (True, False))
    @given(log=replay_logs())
    @_SETTINGS
    def test_captured_round_trip_mirrors_flag(self, include_captured, log):
        data = encode_log(log, include_captured=include_captured)
        full = decode_log(data)
        sections = decode_log_sections(data)
        if not include_captured or log.captured is None:
            assert full.captured is None
            assert sections.captured is None
            return
        assert set(sections.captured) == set(full.captured.threads)
        for name, columns in full.captured.threads.items():
            view = sections.captured[name]
            assert list(view.steps) == list(columns.steps)
            assert list(view.flags) == list(columns.flags)
            assert list(view.addresses) == list(columns.addresses)
            assert list(view.values) == list(columns.values)
            assert list(view.static_ids) == list(columns.static_ids)


class TestDetectMatchesOrRefuses:
    @given(source=programs(), seed=seeds)
    @_SETTINGS
    def test_fromlog_races_identical_on_v3(self, source, seed):
        program, log = _recording(source, seed)
        view = LogView.from_bytes(encode_log(log))
        replayed = HappensBeforeDetector(OrderedReplay(log, program))
        fromlog = HappensBeforeDetector(view)
        assert fromlog.detect() == replayed.detect()
        assert fromlog.truncated_locations == replayed.truncated_locations

    @given(source=programs(), seed=seeds)
    @_SETTINGS
    def test_captureless_containers_refuse_cleanly(self, source, seed):
        _, log = _recording(source, seed)
        for data in (
            encode_log(log, version=1),
            encode_log(log, version=2),
            encode_log(log, include_captured=False),
        ):
            with pytest.raises(LogViewUnavailable):
                LogView.from_bytes(data)
            # detect_only falls back to replay and still answers.
            fallback = detect_only(data, mode="auto")
            assert fallback.path == "replay"

    @given(source=programs(), seed=seeds)
    @_SETTINGS
    def test_detection_reports_byte_identical(self, source, seed):
        _, log = _recording(source, seed)
        data = encode_log(log)
        via_view = detect_only(data, mode="from-log")
        via_replay = replay_detection(data)
        assert render_report(detection_report(via_view)) == render_report(
            detection_report(via_replay)
        )
