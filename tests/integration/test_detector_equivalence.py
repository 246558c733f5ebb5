"""The sweep-line detector must not change a single race or verdict.

The production detector replaces the seed's quadratic region-pair loop
with a sweep line over the columnar access index.  That optimization is
sound only if the detected race set — ordering included — and every
downstream classification verdict are *byte-identical* to the
:class:`NaiveHappensBeforeDetector` oracle (``tests/oracles``).  These
tests enforce that across the paper suite, re-seeded recordings the
suite does not contain, and randomized multi-region workloads with and
without the per-location pair cap.

Every feed of the sweep is held to the same bar: a :class:`LogView`
built straight from container bytes, a full :class:`OrderedReplay`,
the segment-streaming feed and the partitioned ``--jobs`` feed must all
produce the identical instance list, truncation counters, rendered
detection report and ``access_index().stats()`` — which in turn match
the oracle.
"""

import io

import pytest

from repro.analysis.pipeline import (
    analyze_execution,
    detect_only,
    detection_report,
    render_report,
)
from repro.isa import assemble
from oracles import NaiveHappensBeforeDetector, replay_detection
from repro.cli import main
from repro.race.happens_before import HappensBeforeDetector
from repro.record import record_run
from repro.record.binary_format import encode_log, encode_log_segmented
from repro.replay import LogView, OrderedReplay
from repro.vm import RandomScheduler
from repro.workloads.suite import paper_suite

#: Many small regions (one per loop iteration) and two independent racy
#: address groups — the shape that exercises both the temporal and the
#: per-address pruning of the sweep.
REGION_HEAVY = """
.data
x: .word 0
y: .word 0
.thread a b
    li r1, 12
al:
    load r2, [x]
    addi r2, r2, 1
    store r2, [x]
    sys_rand r3, 3
    subi r1, r1, 1
    bnez r1, al
    halt
.thread c d
    li r1, 12
cl:
    load r2, [y]
    addi r2, r2, 2
    store r2, [y]
    sys_rand r3, 3
    subi r1, r1, 1
    bnez r1, cl
    halt
"""


def log_for(seed):
    program = assemble(REGION_HEAVY, name="deteq%d" % seed)
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )
    return program, log


def ordered_for(seed):
    program, log = log_for(seed)
    return OrderedReplay(log, program)


def naive_factory(ordered, max_pairs_per_location):
    return NaiveHappensBeforeDetector(
        ordered, max_pairs_per_location=max_pairs_per_location
    )


def verdicts(analysis):
    return [
        (
            entry.instance.static_key,
            entry.execution_id,
            entry.outcome,
            entry.original_first,
            entry.pre_value,
            entry.failure_kind,
            entry.failure_detail,
        )
        for entry in analysis.classified
    ]


class TestInstanceEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_identical_instance_lists(self, seed):
        """Full instance lists — ordering included — match the reference."""
        ordered = ordered_for(seed)
        sweep = HappensBeforeDetector(ordered, max_pairs_per_location=None)
        naive = NaiveHappensBeforeDetector(ordered, max_pairs_per_location=None)
        assert sweep.detect() == naive.detect()

    @pytest.mark.parametrize("cap", [1, 4, 256])
    def test_identical_under_pair_cap(self, cap):
        ordered = ordered_for(5)
        sweep = HappensBeforeDetector(ordered, max_pairs_per_location=cap)
        naive = NaiveHappensBeforeDetector(ordered, max_pairs_per_location=cap)
        assert sweep.detect() == naive.detect()
        assert sweep.truncated_locations == naive.truncated_locations

    def test_paper_suite_instances_identical(self):
        for execution in paper_suite():
            program = execution.workload.program()
            _, log = record_run(
                program,
                scheduler=RandomScheduler(
                    seed=execution.seed,
                    switch_probability=execution.switch_probability,
                ),
                seed=execution.seed,
            )
            ordered = OrderedReplay(log, program)
            sweep = HappensBeforeDetector(ordered)
            naive = NaiveHappensBeforeDetector(ordered)
            assert sweep.detect() == naive.detect(), execution.execution_id
            assert sweep.truncated_locations == naive.truncated_locations


class TestFromLogEquivalence:
    """The zero-replay LogView path against replay and the reference."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fromlog_matches_replay_and_reference(self, seed):
        program, log = log_for(seed)
        data = encode_log(log)
        ordered = OrderedReplay(log, program)
        fromlog = HappensBeforeDetector(
            LogView.from_bytes(data), max_pairs_per_location=None
        ).detect()
        replayed = HappensBeforeDetector(
            ordered, max_pairs_per_location=None
        ).detect()
        reference = NaiveHappensBeforeDetector(
            ordered, max_pairs_per_location=None
        ).detect()
        assert fromlog == replayed
        assert fromlog == reference

    @pytest.mark.parametrize("cap", [1, 4, 256])
    def test_fromlog_identical_under_pair_cap(self, cap):
        program, log = log_for(5)
        fromlog = HappensBeforeDetector(
            LogView.from_bytes(encode_log(log)), max_pairs_per_location=cap
        )
        replayed = HappensBeforeDetector(
            OrderedReplay(log, program), max_pairs_per_location=cap
        )
        assert fromlog.detect() == replayed.detect()
        assert fromlog.truncated_locations == replayed.truncated_locations

    def test_paper_suite_fromlog_identical(self):
        for execution in paper_suite():
            program = execution.workload.program()
            _, log = record_run(
                program,
                scheduler=RandomScheduler(
                    seed=execution.seed,
                    switch_probability=execution.switch_probability,
                ),
                seed=execution.seed,
            )
            fromlog = HappensBeforeDetector(LogView.from_bytes(encode_log(log)))
            replayed = HappensBeforeDetector(OrderedReplay(log, program))
            assert fromlog.detect() == replayed.detect(), execution.execution_id
            assert fromlog.truncated_locations == replayed.truncated_locations

    @pytest.mark.parametrize("seed", range(4))
    def test_detection_reports_byte_identical(self, seed):
        """detect_only's rendered report is the same bytes whichever
        path materializes the detector input — the CI equivalence job
        literally diffs these."""
        _, log = log_for(seed)
        data = encode_log(log)
        via_view = detect_only(data, mode="from-log")
        via_replay = replay_detection(data)
        via_oracle = replay_detection(data, NaiveHappensBeforeDetector)
        assert via_view.path == "from-log"
        expected = render_report(detection_report(via_view))
        assert render_report(detection_report(via_replay)) == expected
        assert render_report(detection_report(via_oracle)) == expected


class TestEndToEndVerdictEquivalence:
    def test_suite_verdicts_identical(self):
        """The full pipeline — detect *and* classify — produces the same
        verdict tuples whether the sweep line or the quadratic reference
        finds the races."""
        for execution in paper_suite():
            default = analyze_execution(execution)
            reference = analyze_execution(execution, detector_factory=naive_factory)
            assert default.instances == reference.instances, execution.execution_id
            assert verdicts(default) == verdicts(reference), execution.execution_id


#: Two threads looping over a lock-protected region and an unprotected
#: store: most sequencing regions hold only lock/unlock accesses or no
#: access at all, so a store that counted only access-bearing regions
#: would report far fewer regions than the batch index.
LOCK_LOOP = """
.data
x: .word 0
m: .word 0
.thread a b
    li r1, 4
loop:
    lock [m]
    addi r2, r2, 1
    unlock [m]
    addi r3, r3, 1
    store r3, [x]
    subi r1, r1, 1
    bnez r1, loop
    halt
"""


class TestEveryPathAgrees:
    """batch (from-log) vs replay vs stream (v3 and v4) vs ``--jobs 1..4``
    vs the oracle: one report, one ``access_index().stats()``."""

    @pytest.fixture(scope="class")
    def lock_loop(self, tmp_path_factory):
        program = assemble(LOCK_LOOP, name="lockloop")
        _, log = record_run(
            program, scheduler=RandomScheduler(seed=3, switch_probability=0.4), seed=3
        )
        directory = tmp_path_factory.mktemp("lockloop")
        v3 = directory / "lockloop.rprb"
        v3.write_bytes(encode_log(log, version=3))
        v4 = directory / "lockloop.seg.rprb"
        v4.write_bytes(encode_log_segmented(log, segment_bytes=64))
        return log, v3, v4

    def _analyses(self, log, v3, v4):
        analyses = {
            "from-log": detect_only(v3.read_bytes(), mode="from-log"),
            "replay": replay_detection(log),
            "stream-v3": detect_only(v3.read_bytes(), mode="stream"),
            "stream-v4": detect_only(v4.read_bytes(), mode="stream"),
        }
        for jobs in (1, 2, 3, 4):
            analyses["jobs-%d" % jobs] = detect_only(v4, mode="parallel", jobs=jobs)
        return analyses

    def test_reports_and_stats_identical(self, lock_loop):
        log, v3, v4 = lock_loop
        analyses = self._analyses(log, v3, v4)
        oracle = replay_detection(log, NaiveHappensBeforeDetector)
        expected = render_report(detection_report(oracle))
        assert oracle.instances
        batch = analyses["from-log"].source.access_index().stats()
        # The lock loop's point: regions without a plain access count too.
        assert batch == {"regions": 18, "accesses": 8, "addresses": 1, "writes": 8}
        for name, analysis in analyses.items():
            assert render_report(detection_report(analysis)) == expected, name
            assert analysis.source.access_index().stats() == batch, name

    def test_cli_perf_prints_one_access_index_line(self, lock_loop):
        _, v3, v4 = lock_loop
        runs = [
            [str(v3)],
            [str(v3), "--from-log"],
            [str(v3), "--stream"],
            [str(v4), "--stream"],
        ] + [[str(v4), "--jobs", str(jobs)] for jobs in (1, 2, 3, 4)]
        lines = set()
        for argv in runs:
            out = io.StringIO()
            assert main(["detect"] + argv + ["--perf"], out=out) == 0, argv
            lines.update(
                line for line in out.getvalue().splitlines()
                if line.startswith("access index:")
            )
        assert lines == {"access index: 18 regions, 8 accesses, 1 addresses, 8 writes"}
