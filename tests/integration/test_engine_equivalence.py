"""The classifier's optimized paths must not change a single verdict.

Every shortcut the one classifier stacks on top of the paper's plain
per-instance loop — recorded-original synthesis, prefix fast-forward,
spin-cycle cutoff, the verdict cache, batch fan-out, process-pool
fan-out — is sound only if a suite analysed through it is
*byte-identical* to the naive oracle (``tests/oracles/naive_classifier``).
These tests enforce that across the full paper suite, a set of re-seeded
recordings the suite does not contain, and every CLI verb and the
service.
"""

import io
import json
import time

import pytest

from oracles import naive_log_analysis, naive_suite
from repro.analysis.engine import ClassificationEngine, EngineConfig
from repro.analysis.perf import PerfStats
from repro.analysis.pipeline import analyze_suite, execution_report
from repro.cli import main
from repro.race.classifier import RaceClassifier
from repro.record import load_log, save_log
from repro.workloads.harmful_lost_update import lost_update
from repro.workloads.harmful_refcount import refcount_free
from repro.workloads.base import Workload
from repro.workloads.benign_sync import flag_publish
from repro.workloads.suite import Execution, paper_suite


def reseeded_executions():
    """Recordings at seeds the paper suite does not use."""
    return [
        Execution("equiv:%s#s%d" % (workload.name, seed), workload, seed)
        for workload, seed in [
            (lost_update(90), 901),
            (lost_update(90), 902),
            (refcount_free(91), 911),
            (flag_publish(92), 921),
        ]
    ]


def verdict(entry):
    return (
        entry.instance.static_key,
        entry.execution_id,
        entry.outcome,
        entry.original_first,
        entry.pre_value,
        entry.failure_kind,
        entry.failure_detail,
    )


def verdicts(suite):
    return [
        verdict(entry)
        for analysis in suite.executions
        for entry in analysis.classified
    ]


def aggregates(suite):
    return {
        key: result.classification for key, result in suite.results.items()
    }


@pytest.fixture(scope="module")
def reference():
    return naive_suite(paper_suite())


class TestPaperSuiteEquivalence:
    def test_fast_serial_path_is_byte_identical(self, reference):
        fast = analyze_suite(paper_suite())
        assert verdicts(fast) == verdicts(reference)
        assert aggregates(fast) == aggregates(reference)

    def test_memoized_path_is_byte_identical(self, reference):
        perf = PerfStats()
        memoized = analyze_suite(paper_suite(), perf=perf)
        assert verdicts(memoized) == verdicts(reference)
        assert aggregates(memoized) == aggregates(reference)
        assert perf.cache_hits + perf.cache_misses == perf.instances

    def test_pooled_path_is_byte_identical(self, reference):
        perf = PerfStats()
        pooled = analyze_suite(paper_suite(), jobs=2, perf=perf)
        assert verdicts(pooled) == verdicts(reference)
        assert aggregates(pooled) == aggregates(reference)
        assert perf.pool_tasks == len(paper_suite())
        assert perf.pool_workers


class TestBatchingEquivalence:
    """The batched planner and incremental splicing change no verdict."""

    def test_unbatched_memoized_path_is_byte_identical(self, reference):
        # One-member batches: each instance through classify_instance,
        # every execution sharing one verdict cache.
        engine = ClassificationEngine()
        unbatched = []
        for execution in paper_suite():
            analysis = engine.analyze_execution(execution)
            classifier = RaceClassifier(
                analysis.ordered,
                execution_id=execution.execution_id,
                cache=engine.cache,
            )
            unbatched.extend(
                verdict(classifier.classify_instance(instance))
                for instance in analysis.instances
            )
        assert unbatched == verdicts(reference)

    def test_batched_path_is_byte_identical(self, reference):
        perf = PerfStats()
        batched = analyze_suite(paper_suite(), perf=perf)
        assert verdicts(batched) == verdicts(reference)
        assert aggregates(batched) == aggregates(reference)
        assert perf.classify_batches > 0
        assert sum(
            size * count for size, count in perf.batch_sizes.items()
        ) == perf.instances

    def test_incremental_prior_replays_nothing(self):
        execution = Execution("incr:lost_update#s931", lost_update(90), 931)
        cold_stats = PerfStats()
        cold = ClassificationEngine(EngineConfig(jobs=1)).analyze_execution(
            execution, perf=cold_stats
        )
        warm_stats = PerfStats()
        warm = ClassificationEngine(EngineConfig(jobs=1)).analyze_execution(
            execution, perf=warm_stats, prior=cold
        )

        def entry_tuples(analysis):
            return [
                (
                    entry.instance.static_key,
                    entry.outcome,
                    entry.original_first,
                    entry.pre_value,
                    entry.failure_kind,
                    entry.failure_detail,
                )
                for entry in analysis.classified
            ]

        assert entry_tuples(warm) == entry_tuples(cold)
        assert cold_stats.cache_misses > 0
        assert warm_stats.cache_misses == 0
        assert warm_stats.incremental_spliced > 0
        assert warm.verdict_index == cold.verdict_index


class TestReseededEquivalence:
    def test_engine_matches_naive_on_unseen_seeds(self):
        executions = reseeded_executions()
        reference = naive_suite(executions)
        engine = analyze_suite(executions, jobs=2)
        assert verdicts(reference)  # the workloads do race
        assert verdicts(engine) == verdicts(reference)

    def test_duplicate_recordings_hit_the_cache_without_drift(self):
        # The same recording twice: the second pass must be served from
        # the verdict cache and still reproduce every verdict verbatim.
        twice = [
            Execution("dup%d:lost_update#s905" % n, lost_update(90), 905)
            for n in range(2)
        ]
        perf = PerfStats()
        suite = analyze_suite(twice, perf=perf)
        reference = naive_suite(twice)
        assert verdicts(suite) == verdicts(reference)
        assert perf.cache_hits > 0


#: The program CI records and byte-diffs through ``repro analyze``.
RACY_ASM = """
.data
x: .word 0
cnt_a: .word 9
cnt_b: .word 9
.thread a
ah:
    load r1, [cnt_a]
    subi r1, r1, 1
    store r1, [cnt_a]
    beqz r1, adone
    li r1, 0
    sys_rand r9, 1
    li r2, 5
    store r2, [x]
    li r2, 0
    sys_rand r9, 1
    jmp ah
adone:
    halt
.thread b
bh:
    load r1, [cnt_b]
    subi r1, r1, 1
    store r1, [cnt_b]
    beqz r1, bdone
    li r1, 0
    sys_rand r9, 1
    li r2, 7
    store r2, [x]
    li r2, 0
    sys_rand r9, 1
    jmp bh
bdone:
    halt
"""


def _verb_executions():
    suite = {execution.execution_id: execution for execution in paper_suite()}
    racy = Workload(name="racy", source=RACY_ASM, description="CI racy loop")
    return [
        Execution("racy#s11", racy, 11),
        suite["lost_update_lu0#s15"],
        suite["refcount_free_rc0#s23"],
    ]


def race_verdicts(document):
    """Per unique race: classification, outcome counts and exemplar
    scenarios — everything a report says about verdicts, minus the
    execution ids and batch keys that differ by entry point."""
    return [
        (
            race["race"],
            race["classification"],
            race["instances"],
            [
                {
                    field: value
                    for field, value in scenario.items()
                    if field not in ("execution", "batch_key")
                }
                for scenario in race["scenarios"]
            ],
        )
        for race in document["races"]
    ]


def _cli_stdout(argv):
    out = io.StringIO()
    assert main(argv, out=out) == 0
    return out.getvalue()


def _inline_service_report(data):
    from repro.service import AnalysisService, JobState, ServiceConfig

    service = AnalysisService(ServiceConfig(pool_size=0, port=0)).start()
    try:
        job, _ = service.submit_log(data)
        deadline = time.monotonic() + 60
        while service.job(job.job_id).state is not JobState.DONE:
            assert service.job(job.job_id).state is not JobState.FAILED
            assert time.monotonic() < deadline
            time.sleep(0.01)
        return json.loads(service.report_bytes(job.job_id))
    finally:
        service.shutdown()


class TestEveryVerbAgrees:
    """``suite``, ``classify``, ``analyze``, ``analyze --stream`` and a
    service job all classify through the one engine path, and all agree
    with the naive oracle."""

    @pytest.mark.parametrize(
        "execution", _verb_executions(), ids=lambda e: e.execution_id
    )
    def test_verdict_lists_are_identical(self, execution, tmp_path):
        suite = analyze_suite([execution])
        (analysis,) = suite.executions
        log_path = tmp_path / "run.rprb"
        save_log(analysis.log, log_path)
        log = load_log(log_path)

        reference = race_verdicts(execution_report(naive_log_analysis(log)))
        assert reference  # the program does race
        json_path = tmp_path / "classify.json"
        _cli_stdout(["classify", str(log_path), "--json", str(json_path)])
        paths = {
            "suite": execution_report(analysis),
            "classify": json.loads(json_path.read_text()),
            "analyze": json.loads(_cli_stdout(["analyze", str(log_path)])),
            "analyze --stream": json.loads(
                _cli_stdout(["analyze", str(log_path), "--stream"])
            ),
            "service": _inline_service_report(log_path.read_bytes()),
        }
        for name, document in paths.items():
            assert race_verdicts(document) == reference, name
        # The suite's per-instance verdicts match the oracle's too.
        assert verdicts(suite) == verdicts(naive_suite([execution]))

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "run.rprb", "--no-batching"],
            ["analyze", "run.rprb", "--no-memoize"],
            ["suite", "--memoize"],
            ["suite", "--no-cache"],
            ["experiment", "table1", "--memoize"],
        ],
    )
    def test_removed_flags_are_rejected(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv, out=io.StringIO())
        assert excinfo.value.code == 2
