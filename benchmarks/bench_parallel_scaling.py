"""End-to-end classification speedup: seed-era serial vs the engine.

The serial baseline is the naive classifier oracle
(``NaiveRaceClassifier`` in ``tests/oracles``): every §4 replay shortcut
off (no recorded-original reuse, no prefix fast-forward, no spin-cycle
cutoff), no verdict cache, no batches -- the algorithm the repo shipped
with.  The engine path is ``analyze_suite(..., jobs=N)``: the process
pool plus the batched verdict cache plus the replay shortcuts, which are
verified here to produce byte-identical verdicts.

Runs both under pytest (``pytest benchmarks/bench_parallel_scaling.py``)
and as a script::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --quick

Either way the measured numbers land in
``benchmarks/results/BENCH_classify.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis.perf import PerfStats
from repro.analysis.pipeline import analyze_suite
from repro.workloads import paper_suite

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import naive_suite  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"


def _verdicts(suite):
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
        for analysis in suite.executions
        for entry in analysis.classified
    ]


def run_benchmark(jobs: int = 4, repeats: int = 3) -> dict:
    """Time baseline vs engine on the paper suite; assert verdict equality.

    ``repeats`` keeps the minimum wall time per configuration, the usual
    way to suppress scheduler noise; ``--quick`` uses a single repeat.
    """
    serial_s = None
    baseline = None
    for _ in range(repeats):
        start = time.perf_counter()
        baseline = naive_suite(paper_suite())
        elapsed = time.perf_counter() - start
        serial_s = elapsed if serial_s is None else min(serial_s, elapsed)

    parallel_s = None
    engine_suite = None
    perf = None
    for _ in range(repeats):
        stats = PerfStats()
        start = time.perf_counter()
        candidate = analyze_suite(paper_suite(), jobs=jobs, perf=stats)
        elapsed = time.perf_counter() - start
        if parallel_s is None or elapsed < parallel_s:
            parallel_s, engine_suite, perf = elapsed, candidate, stats

    reference = _verdicts(baseline)
    candidate = _verdicts(engine_suite)
    if reference != candidate:
        raise AssertionError(
            "engine verdicts diverge from the serial baseline "
            "(%d vs %d instances)" % (len(reference), len(candidate))
        )

    return {
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "jobs": jobs,
        "cache_hit_rate": round(perf.cache_hit_rate, 4),
        "speedup": round(serial_s / parallel_s, 2),
        "instances": len(reference),
        "cache_hits": perf.cache_hits,
        "cache_misses": perf.cache_misses,
        "classify_batches": perf.classify_batches,
        "batch_fanout": perf.batch_fanout,
        "batch_fallbacks": perf.batch_fallbacks,
        "batch_size_distribution": {
            str(size): count
            for size, count in sorted(perf.batch_sizes.items())
        },
        "pool_tasks": perf.pool_tasks,
        "pool_workers": len(perf.pool_workers),
        "verdicts_identical": True,
    }


def write_result(result: dict, output: Path) -> None:
    output.parent.mkdir(exist_ok=True)
    output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


def test_engine_beats_serial_baseline(results_dir):
    result = run_benchmark(jobs=4, repeats=2)
    write_result(result, results_dir / "BENCH_classify.json")
    assert result["verdicts_identical"]
    assert result["speedup"] >= 2.0, "engine must be >=2x over the seed baseline"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--jobs", type=int, default=4, help="engine worker count")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="single repeat per configuration: equivalence check, not a "
        "timing gate",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=RESULTS_DIR / "BENCH_classify.json",
        help="where to write the JSON result",
    )
    args = parser.parse_args()
    result = run_benchmark(jobs=args.jobs, repeats=1 if args.quick else 3)
    if args.quick:
        result["quick"] = True  # mark CI-noise numbers as non-authoritative
    write_result(result, args.output)
    print(json.dumps(result, indent=2, sort_keys=True))
    print(
        "verdicts identical; %.2fx over the seed baseline; %d batches "
        "(%d fanned out, %d fallbacks)"
        % (
            result["speedup"],
            result["classify_batches"],
            result["batch_fanout"],
            result["batch_fallbacks"],
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
