"""The plain per-instance classifier: the batched classifier's oracle.

Every instance is classified on its own, over a freshly materialized
pair snapshot, with both orders interpreted instruction by instruction
by the operand-object virtual processor
(``GenericVirtualProcessor``): no verdict cache, no batches, no
recorded-original synthesis, no prefix fast-forward, no spin-cycle
cutoff and no predecoded dispatch.  It reaches those settings by
subclassing the production classes, so it shares only the per-instance
both-orders comparison (``_classify_with_state``), the recorded thread
inputs and the VP's phase schedule with the path it checks.

Run as a script it prints a log's canonical ``repro analyze`` report,
so the CLI can be byte-diffed against it::

    PYTHONPATH=src python tests/oracles/naive_classifier.py racy.rprb
"""

from __future__ import annotations

import sys
from dataclasses import replace
from typing import List, Optional, Sequence

from repro.analysis.pipeline import (
    ExecutionAnalysis,
    SuiteAnalysis,
    default_execution_id,
    execution_report,
    merge_suite,
    render_report,
)
from repro.race.classifier import ClassifierConfig, RaceClassifier
from repro.race.happens_before import HappensBeforeDetector
from repro.race.model import RaceInstance
from repro.race.outcomes import ClassifiedInstance
from repro.record import load_log, record_run
from repro.record.log import ReplayLog
from repro.replay import OrderedReplay, VirtualProcessor
from repro.vm import RandomScheduler
from repro.workloads.base import Workload
from repro.workloads.suite import Execution

try:
    from .generic_interpreters import GenericVirtualProcessor, vp_at_region_end
except ImportError:  # run as a script: this directory is sys.path[0]
    from generic_interpreters import GenericVirtualProcessor, vp_at_region_end


class NaiveVirtualProcessor(GenericVirtualProcessor):
    """The operand-object VP running every suffix to its region end: no
    spin-cycle cutoff."""

    def _run_to_region_end(self, thread, memory) -> None:
        while not vp_at_region_end(thread):
            self._step(thread, memory)


class NaiveRaceClassifier(RaceClassifier):
    """One instance at a time, every replay interpreted in full."""

    def classify_all(self, instances: List[RaceInstance]) -> List[ClassifiedInstance]:
        return [self.classify_instance(instance) for instance in instances]

    def classify_instance(self, instance: RaceInstance) -> ClassifiedInstance:
        instance = self._canonicalize(instance)
        live_in, freed = self.ordered.pair_snapshot(
            instance.region_a, instance.region_b
        )
        return self._classify_with_state(instance, live_in, freed)

    def batch_processor(self, instance, live_in, freed) -> VirtualProcessor:
        return NaiveVirtualProcessor(
            self.program,
            live_in,
            freed,
            self._thread_spec(instance.access_a, instance.region_a),
            self._thread_spec(instance.access_b, instance.region_b),
            self.config.vp_config(),
        )

    def _thread_spec(self, access, region):
        # Without the recorded prefix state the VP re-executes the prefix.
        return replace(
            super()._thread_spec(access, region),
            racing_registers=None,
            racing_pc=None,
            prefix_accesses=None,
            prefix_static_ids=None,
        )

    def _synthesized_original(self, instance, original_first):
        return None  # always re-execute the original order


def naive_log_analysis(
    log: ReplayLog,
    execution_id: Optional[str] = None,
    workload: Optional[Workload] = None,
    classifier_config: Optional[ClassifierConfig] = None,
    max_pairs_per_location: Optional[int] = 256,
) -> ExecutionAnalysis:
    """Replay, detect and naively classify one recorded log."""
    if workload is None:
        workload = Workload(
            name=log.program_name,
            source=log.program_source,
            description="recorded log (naive classifier oracle)",
        )
    if execution_id is None:
        execution_id = default_execution_id(log)
    ordered = OrderedReplay(log, workload.program())
    instances = HappensBeforeDetector(
        ordered, max_pairs_per_location=max_pairs_per_location
    ).detect()
    classifier = NaiveRaceClassifier(
        ordered, config=classifier_config, execution_id=execution_id
    )
    return ExecutionAnalysis(
        execution_id=execution_id,
        workload=workload,
        machine_result=None,
        log=log,
        ordered=ordered,
        instances=instances,
        classified=classifier.classify_all(instances),
    )


def naive_suite(
    executions: Sequence[Execution],
    classifier_config: Optional[ClassifierConfig] = None,
) -> SuiteAnalysis:
    """Record every execution as the pipeline does, then analyse each
    with :func:`naive_log_analysis` and merge like ``analyze_suite``."""
    analyses = []
    for execution in executions:
        scheduler = RandomScheduler(
            seed=execution.seed, switch_probability=execution.switch_probability
        )
        _, log = record_run(
            execution.workload.program(), scheduler=scheduler, seed=execution.seed
        )
        analyses.append(
            naive_log_analysis(
                log,
                execution_id=execution.execution_id,
                workload=execution.workload,
                classifier_config=classifier_config,
            )
        )
    return merge_suite(analyses)


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: naive_classifier.py LOG", file=sys.stderr)
        return 2
    analysis = naive_log_analysis(load_log(argv[0]))
    sys.stdout.write(render_report(execution_report(analysis)).decode("utf-8"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
