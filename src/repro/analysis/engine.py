"""The classification engine: parallel execution analysis with verdict reuse.

This layer sits between :mod:`repro.analysis.pipeline` (one execution →
one :class:`ExecutionAnalysis`) and the suite/experiment/service drivers.
It adds three things the per-execution pipeline does not have:

* **fan-out** — executions are independent, so the engine can dispatch
  them across a ``ProcessPoolExecutor`` (``jobs`` workers) and reassemble
  the results in submission order;
* **an engine-lifetime verdict cache** — every execution's classifier
  shares one :class:`~repro.analysis.batching.VerdictCache`, so
  structurally identical race instances across executions replay once
  (the soundness argument is in :mod:`repro.analysis.batching`);
* **incremental re-analysis** — a prior analysis's portable verdict
  index (``prior=``), or the one persisted under ``cache_dir``, is
  absorbed so content-identical regions splice their verdicts.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..race.classifier import ClassifierConfig
from ..workloads.suite import Execution
from .batching import VerdictCache
from .perf import PerfStats
from .pipeline import (
    ExecutionAnalysis,
    analyze_execution,
    analyze_log,
    analyze_log_stream,
)


@dataclass
class EngineConfig:
    """Configuration of a :class:`ClassificationEngine`."""

    #: Worker processes; 1 analyses in-process (no pool).
    jobs: int = 1
    #: Splice verdicts from a prior analysis of the same program: absorb
    #: the ``prior=`` index passed to :meth:`analyze_execution` /
    #: :meth:`analyze_log`, and (with ``cache_dir``) persist and reload
    #: the portable verdict index through the suite cache so warm
    #: re-submissions replay almost nothing.
    incremental: bool = True
    classifier_config: Optional[ClassifierConfig] = None
    max_pairs_per_location: Optional[int] = 256
    max_steps: int = 200_000
    capture_global_order: bool = True
    #: Directory of the content-addressed record cache (None = no cache).
    #: A string (not a Path) so the config pickles cheaply to pool workers.
    cache_dir: Optional[str] = None


class ClassificationEngine:
    """Analyses batches of executions, in parallel and with verdict reuse.

    The verdict cache is engine-lifetime: with ``jobs == 1`` every
    execution in every :meth:`analyze_executions` call shares it; with a
    pool each worker process keeps its own engine (and cache) alive across
    the executions it is handed, and the per-worker statistics are merged
    back into the caller's :class:`PerfStats`.
    """

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self.cache = VerdictCache()
        self._record_cache = None
        if self.config.cache_dir is not None:
            from .cache import SuiteCache

            self._record_cache = SuiteCache(self.config.cache_dir)

    # -- incremental re-analysis plumbing ------------------------------

    def _verdict_index_key(self, program_name: str, source: str) -> str:
        from .cache import verdict_index_key

        classifier_config = self.config.classifier_config or ClassifierConfig()
        return verdict_index_key(
            program_name,
            source,
            step_limit=classifier_config.step_limit,
            allow_unrecorded_control_flow=(
                classifier_config.allow_unrecorded_control_flow
            ),
            allow_unknown_addresses=classifier_config.allow_unknown_addresses,
            max_pairs_per_location=self.config.max_pairs_per_location,
        )

    def _absorb_prior(self, prior, program_name: str, source: str) -> Optional[str]:
        """Load every verdict source an incremental analysis may splice
        from; returns the suite-cache verdict key when one applies.

        ``prior`` is a previous :class:`ExecutionAnalysis` (its
        ``verdict_index``) or a raw portable index document.  With a
        ``cache_dir`` and ``incremental`` on, the persisted index of the
        same program/config is absorbed too — the near-miss resubmission
        path: a changed seed or scheduler records a different execution,
        but regions whose content didn't change splice their verdicts.
        """
        if prior is not None:
            index = getattr(prior, "verdict_index", prior)
            self.cache.absorb_portable(index)
        if not self.config.incremental or self._record_cache is None:
            return None
        verdict_key = self._verdict_index_key(program_name, source)
        stored = self._record_cache.load_verdicts(verdict_key)
        if stored is not None:
            self.cache.absorb_portable(stored)
        return verdict_key

    def _finish_analysis(
        self,
        analysis: ExecutionAnalysis,
        stats: PerfStats,
        snapshot: Tuple[int, int, int, int],
        verdict_key: Optional[str],
    ) -> None:
        hits, misses, spliced, absorbed = snapshot
        stats.cache_hits += self.cache.hits - hits
        stats.cache_misses += self.cache.misses - misses
        stats.incremental_spliced += self.cache.spliced - spliced
        stats.incremental_absorbed += self.cache.absorbed - absorbed
        # The portable index walks the whole cache and digests region
        # contents, so it is exported only when somebody reads it.
        analysis.export_verdicts = functools.partial(
            self.cache.export_portable, program=analysis.log.program_name
        )
        if verdict_key is not None:
            # export_portable includes absorbed entries, so storing it
            # unions this run's verdicts with everything loaded.
            self._record_cache.store_verdicts(verdict_key, analysis.verdict_index)

    def _cache_snapshot(self) -> Tuple[int, int, int, int]:
        return (
            self.cache.hits,
            self.cache.misses,
            self.cache.spliced,
            self.cache.absorbed,
        )

    # -- public API ----------------------------------------------------

    def analyze_execution(
        self,
        execution: Execution,
        perf: Optional[PerfStats] = None,
        prior=None,
    ) -> ExecutionAnalysis:
        """Analyse one execution in-process (the pool is for batches).

        ``prior`` — a previous :class:`ExecutionAnalysis` of the same
        program (or its portable verdict index) — turns this into an
        incremental re-analysis: instances whose region contents are
        unchanged splice the prior verdicts and only changed regions
        replay.  With a ``cache_dir`` the persisted verdict index of the
        program is used the same way automatically.
        """
        snapshot = self._cache_snapshot()
        stats = perf if perf is not None else PerfStats()
        workload = execution.workload
        verdict_key = self._absorb_prior(prior, workload.name, workload.source)
        analysis = analyze_execution(
            execution,
            classifier_config=self.config.classifier_config,
            max_pairs_per_location=self.config.max_pairs_per_location,
            max_steps=self.config.max_steps,
            capture_global_order=self.config.capture_global_order,
            verdict_cache=self.cache,
            perf=stats,
            cache=self._record_cache,
        )
        self._finish_analysis(analysis, stats, snapshot, verdict_key)
        return analysis

    def analyze_log(
        self,
        log,
        execution_id: Optional[str] = None,
        perf: Optional[PerfStats] = None,
        prior=None,
        detector_factory=None,
    ) -> ExecutionAnalysis:
        """Analyse an already-recorded log through this engine.

        The engine counterpart of :func:`repro.analysis.pipeline.analyze_log`
        — same report bytes — plus the engine's shared verdict cache and
        incremental splicing (``prior=`` and the persisted per-program
        verdict index, exactly as in :meth:`analyze_execution`).

        ``detector_factory`` is forwarded to the pipeline; pass one built
        around :class:`repro.race.happens_before.ParallelFileDetector` to
        fan the detection sweep over v4 segments.
        """
        snapshot = self._cache_snapshot()
        stats = perf if perf is not None else PerfStats()
        verdict_key = self._absorb_prior(
            prior, log.program_name, log.program_source
        )
        analysis = analyze_log(
            log,
            execution_id=execution_id,
            classifier_config=self.config.classifier_config,
            max_pairs_per_location=self.config.max_pairs_per_location,
            verdict_cache=self.cache,
            perf=stats,
            detector_factory=detector_factory,
        )
        self._finish_analysis(analysis, stats, snapshot, verdict_key)
        return analysis

    def analyze_log_stream(
        self,
        source,
        execution_id: Optional[str] = None,
        perf: Optional[PerfStats] = None,
        prior=None,
        segment_bytes: Optional[int] = None,
    ) -> ExecutionAnalysis:
        """Analyse a log with streaming detection and eager per-window
        classification (:func:`repro.analysis.pipeline.analyze_log_stream`).

        Report bytes match :meth:`analyze_log` exactly; the difference is
        the cost profile — verdicts start landing after the first sealed
        window instead of after the whole sweep, and detection state is
        bounded by the active window.  The shared verdict cache and
        incremental splicing apply, same as :meth:`analyze_log`.
        """
        snapshot = self._cache_snapshot()
        stats = perf if perf is not None else PerfStats()
        if isinstance(source, (bytes, bytearray, memoryview)):
            from ..record.serialization import load_log_bytes

            log = load_log_bytes(bytes(source))
        else:
            log = source
        verdict_key = self._absorb_prior(
            prior, log.program_name, log.program_source
        )
        analysis = analyze_log_stream(
            source,
            execution_id=execution_id,
            classifier_config=self.config.classifier_config,
            max_pairs_per_location=self.config.max_pairs_per_location,
            verdict_cache=self.cache,
            perf=stats,
            segment_bytes=segment_bytes,
            log=log,
        )
        self._finish_analysis(analysis, stats, snapshot, verdict_key)
        return analysis

    def analyze_executions(
        self, executions: Sequence[Execution], perf: Optional[PerfStats] = None
    ) -> List[ExecutionAnalysis]:
        """Analyse a batch, preserving input order in the result list."""
        stats = perf if perf is not None else PerfStats()
        stats.jobs = max(stats.jobs, self.config.jobs)
        if self.config.jobs <= 1 or len(executions) <= 1:
            return [self.analyze_execution(e, perf=stats) for e in executions]
        return self._analyze_pooled(list(executions), stats)

    def _analyze_pooled(
        self, executions: List[Execution], stats: PerfStats
    ) -> List[ExecutionAnalysis]:
        workers = min(self.config.jobs, len(executions))
        with stats.stage("pool"):
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(self.config,),
            ) as pool:
                futures = [pool.submit(_worker_analyze, e) for e in executions]
                outcomes = [future.result() for future in futures]
        analyses: List[ExecutionAnalysis] = []
        for analysis, worker_stats in outcomes:
            analyses.append(analysis)
            stats.merge(worker_stats)
        stats.pool_tasks += len(executions)
        return analyses


# ----------------------------------------------------------------------
# Pool worker plumbing.  The engine (and its verdict cache) lives for the
# whole worker process, so verdict reuse spans every execution a worker
# is handed, not just one task.
# ----------------------------------------------------------------------

_WORKER_ENGINE: Optional[ClassificationEngine] = None


def _init_worker(config: EngineConfig) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = ClassificationEngine(replace(config, jobs=1))


def _worker_analyze(execution: Execution) -> Tuple[ExecutionAnalysis, PerfStats]:
    assert _WORKER_ENGINE is not None, "worker used before initialization"
    worker_stats = PerfStats()
    analysis = _WORKER_ENGINE.analyze_execution(execution, perf=worker_stats)
    # The verdict cache stays in the worker; nothing is exported for it.
    analysis.export_verdicts = None
    worker_stats.pool_workers.add(os.getpid())
    return analysis, worker_stats
