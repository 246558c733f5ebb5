"""The replay stage must not change anything.

The predecoded thread replayer, the captured-columns handoff, and the
lazy region materialization are pure performance work: every observable
the analyses read from an :class:`OrderedReplay` — materialized thread
replays, region snapshots, program output, final memory, race instances
and verdicts — must be *identical* whether the replay was fed from
captured columns or from the replayed threads, and identical to the
eager generic replayer in ``tests/oracles/generic_interpreters.py``.
These tests enforce that over the full paper suite plus the clean
controls.
"""

import dataclasses

from repro.analysis.perf import PerfStats
from repro.analysis.pipeline import analyze_execution
from repro.race.classifier import RaceClassifier
from repro.race.happens_before import HappensBeforeDetector, find_races
from repro.record import record_run
from repro.replay.ordered_replay import OrderedReplay
from repro.vm import RandomScheduler
from repro.workloads.suite import clean_suite, paper_suite

from oracles import GenericOrderedReplay


def _record(execution):
    return record_run(
        execution.workload.program(),
        scheduler=RandomScheduler(
            seed=execution.seed, switch_probability=execution.switch_probability
        ),
        seed=execution.seed,
        max_steps=200_000,
    )


def _stripped(log):
    """The same log without its captured columns (the deserialized-JSON /
    suite-cache shape), so the walk and index read the replayed threads."""
    clone = dataclasses.replace(log)
    clone.captured = None
    return clone


def _race_keys(ordered):
    return sorted(
        (
            str(instance.static_key[0]),
            str(instance.static_key[1]),
            instance.address,
            instance.access_a.tid,
            instance.access_a.thread_step,
            instance.access_b.tid,
            instance.access_b.thread_step,
        )
        for instance in find_races(ordered)
    )


def _region_observables(ordered):
    """Everything the classifier reads per region, fully materialized."""
    observables = []
    for region in ordered.all_regions():
        if region.is_empty:
            continue
        image, freed = ordered.region_snapshot(region)
        observables.append(
            (
                region.tid,
                region.index,
                ordered.region_start_pc(region),
                ordered.live_in_registers(region),
                sorted(image.items()),
                sorted(freed.items()),
            )
        )
    return observables


class TestFastVsGenericReplay:
    def test_thread_replays_byte_identical(self):
        """Shipped vs oracle replay of every thread of every suite
        execution: the materialized replays are equal, snapshots and all."""
        for execution in list(paper_suite()) + list(clean_suite()):
            _, log = _record(execution)
            program = execution.workload.program()
            fast = OrderedReplay(log, program)
            generic = GenericOrderedReplay(log, program)
            for name in log.threads:
                fast_replay = fast.thread_replays[name].materialized()
                generic_replay = generic.thread_replays[name].materialized()
                assert fast_replay == generic_replay, (
                    execution.execution_id,
                    name,
                )

    def test_ordered_observables_identical(self):
        """Output, final memory, region snapshots and race sets agree
        between the shipped replay (with and without captured columns)
        and the oracle on every suite execution."""
        for execution in list(paper_suite()) + list(clean_suite()):
            _, log = _record(execution)
            program = execution.workload.program()
            generic = GenericOrderedReplay(log, program)
            for fast in (
                OrderedReplay(log, program),
                OrderedReplay(_stripped(log), program),
            ):
                assert fast.output() == generic.output(), execution.execution_id
                assert fast.final_memory() == generic.final_memory()
                assert _region_observables(fast) == _region_observables(generic)
                assert _race_keys(fast) == _race_keys(generic), (
                    execution.execution_id
                )

    def test_verdicts_identical(self):
        """Detection and classification over the oracle's replay
        reproduce every instance and every verdict of the default path."""
        for execution in paper_suite()[:8]:
            default = analyze_execution(execution)
            generic = GenericOrderedReplay(
                default.log, execution.workload.program()
            )
            instances = HappensBeforeDetector(
                generic, max_pairs_per_location=256
            ).detect()
            classified = RaceClassifier(
                generic, execution_id=execution.execution_id
            ).classify_all(instances)

            def instance_keys(instances):
                return [
                    (
                        i.static_key,
                        i.address,
                        i.access_a.tid,
                        i.access_a.thread_step,
                        i.access_b.tid,
                        i.access_b.thread_step,
                    )
                    for i in instances
                ]

            assert instance_keys(instances) == instance_keys(default.instances)
            assert [
                (e.outcome, e.original_first, e.pre_value, e.failure_kind)
                for e in classified
            ] == [
                (e.outcome, e.original_first, e.pre_value, e.failure_kind)
                for e in default.classified
            ]


class TestCapturedHandoff:
    def test_captured_matches_replay_derived_fallback(self):
        """Replay fed by captured columns equals replay fed by the
        replayed threads' own access columns (captured stripped) — same
        index, same races, same walk results."""
        for execution in paper_suite():
            _, log = _record(execution)
            assert log.captured is not None
            program = execution.workload.program()

            with_capture_perf = PerfStats()
            with_capture = OrderedReplay(log, program, perf=with_capture_perf)
            without_capture = OrderedReplay(_stripped(log), program)

            assert with_capture_perf.replay_captured_handoffs == 1
            # The handoff never interprets a thread for the walk/index.
            assert with_capture_perf.replay_threads_fast == 0

            index_a = with_capture.access_index()
            index_b = without_capture.access_index()
            assert list(index_a.steps) == list(index_b.steps)
            assert list(index_a.addresses) == list(index_b.addresses)
            assert list(index_a.values) == list(index_b.values)
            assert bytes(index_a.write_flags) == bytes(index_b.write_flags)
            assert list(index_a.region_of) == list(index_b.region_of)
            assert index_a.postings == index_b.postings

            assert with_capture.output() == without_capture.output()
            assert with_capture.final_memory() == without_capture.final_memory()
            assert _race_keys(with_capture) == _race_keys(without_capture)

    def test_binary_round_trip_preserves_handoff(self):
        """A log decoded from the v3 binary container still feeds the
        walk from captured columns, with identical analysis results."""
        from repro.record.binary_format import decode_log, encode_log

        execution = paper_suite()[0]
        _, log = _record(execution)
        program = execution.workload.program()
        round_tripped = decode_log(encode_log(log))
        assert round_tripped.captured is not None

        perf = PerfStats()
        from_disk = OrderedReplay(round_tripped, program, perf=perf)
        fresh = OrderedReplay(log, program)
        assert perf.replay_captured_handoffs == 1
        assert from_disk.output() == fresh.output()
        assert from_disk.final_memory() == fresh.final_memory()
        assert _race_keys(from_disk) == _race_keys(fresh)
