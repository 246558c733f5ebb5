"""Property-based tests: the one classifier against the naive oracle.

For random recorded programs, the engine's batched classification and a
warm incremental re-analysis spliced from its verdict index must both
render the exact report bytes of the naive per-instance oracle
(``tests/oracles/naive_classifier``).  This is the whole-pipeline
version of the unit equivalence tests: any drift in canonicalization,
batch planning, lazy live-in resolution, probe tracking, the replay
shortcuts or index splicing shows up as a byte diff here.
"""

from hypothesis import HealthCheck, given, settings

from oracles import naive_log_analysis
from repro.analysis.engine import ClassificationEngine
from repro.analysis.perf import PerfStats
from repro.analysis.pipeline import execution_report, render_report
from repro.isa import assemble
from repro.race.classifier import RaceClassifier
from repro.record import record_run
from repro.vm import RandomScheduler

from strategies import programs, seeds

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _recorded_log(source, seed):
    program = assemble(source, name="prop_batching")
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )
    return log


def _report(analysis):
    return render_report(execution_report(analysis))


def _verdict(entry):
    return (
        entry.instance.static_key,
        entry.outcome,
        entry.original_first,
        entry.pre_value,
        entry.failure_kind,
        entry.failure_detail,
    )


class TestBatchedEngineEquivalence:
    @given(source=programs(), seed=seeds)
    @_SETTINGS
    def test_batched_and_incremental_match_per_instance(self, source, seed):
        log = _recorded_log(source, seed)
        naive = naive_log_analysis(log)
        reference = _report(naive)

        batched = ClassificationEngine().analyze_log(log)
        assert _report(batched) == reference

        # Instance by instance: one-member batches over one cache.
        classifier = RaceClassifier(naive.ordered, execution_id=naive.execution_id)
        single = [classifier.classify_instance(i) for i in naive.instances]
        assert [_verdict(entry) for entry in single] == [
            _verdict(entry) for entry in naive.classified
        ]

        # A warm engine spliced from the batched run's verdict index
        # must reproduce the same bytes without a single replay.
        warm_stats = PerfStats()
        warm = ClassificationEngine().analyze_log(
            log, perf=warm_stats, prior=batched
        )
        assert _report(warm) == reference
        if naive.classified:
            assert warm_stats.cache_misses == 0
            assert warm_stats.incremental_spliced > 0
