"""Classify cost: the batched, verdict-cached classifier vs the oracle.

Classification replays each race instance twice in a virtual processor.
The naive oracle (``NaiveRaceClassifier`` in ``tests/oracles``) does
exactly that, one instance at a time: a full pair-image copy per
instance and both orders interpreted in full.  The one production
classifier groups instances by ``(static race id, region-content hash)``
up front (:mod:`repro.analysis.batching`), resolves pair live-in state
lazily (one address per probe — no reconstruction, no copy), replays one
leader per batch and fans the verdict out to every member, on top of the
recorded-original and prefix fast-forward shortcuts.

The workload here is built so region contents genuinely repeat — the
racing loop keeps its iteration state in a memory counter and normalizes
every register it touches before each sequencer call, so all racing
regions of a thread are byte-identical — and carries a wide initialized
data section, the shape where per-pair image reconstruction and
per-instance snapshot copies dominate.  Real racy loops share the
pattern: hot racing code touches few addresses, while the surrounding
heap is large.

Per size the benchmark times a whole cold analysis (decode, replay,
detect, classify) through the oracle and through a fresh engine, asserts
the two rendered reports are byte-identical, and then measures the
incremental path: a warm engine seeded with the cold run's verdict index
re-analyses a *different seed* of the same program (the service's
dedup-near-miss resubmission) and must replay almost nothing.

Runs both under pytest (``pytest benchmarks/bench_classify_batched.py``)
and as a script::

    PYTHONPATH=src python benchmarks/bench_classify_batched.py --quick

Either way the measured numbers land in
``benchmarks/results/BENCH_classify_batched.json``.  ``--quick`` (used
by CI) keeps the equivalence assertions but runs single repeats on the
smaller sizes — the byte-identity gate, not the timing gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis.engine import ClassificationEngine
from repro.analysis.perf import PerfStats
from repro.analysis.pipeline import execution_report, render_report
from repro.isa import assemble
from repro.record import record_run
from repro.record.binary_format import encode_log
from repro.record.serialization import load_log_bytes
from repro.vm import RandomScheduler

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import naive_log_analysis  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

#: Initialized data words beyond the racing variable: they widen the
#: memory image every racing pair's live-in is drawn from, which is
#: exactly the cost the per-instance path pays per pair (full image
#: reconstruction) and again per instance (dict copy), while the batched
#: path resolves only the few addresses actually probed.
FILLER_WORDS = 1024

#: Racing stores per region; K stores per side gives K*K instances per
#: overlapping region pair, all sharing that pair's live-in state.
RACING_STORES = 3

#: The racing loop keeps its trip count in ``cnt_{t}`` (memory, not a
#: register) and re-normalizes every register it touched before each
#: sequencer call, so every racing region of a thread records identical
#: content — the planner batches them all.  The register kernel between
#: the stores models the non-racing compute of a real critical section.
THREAD_TEMPLATE = """
.thread {t}
{t}h:
    load r1, [cnt_{t}]
    subi r1, r1, 1
    store r1, [cnt_{t}]
    beqz r1, {t}done
    li r1, 0
    sys_rand r9, 1
    li r2, {value}
{stores}
    li r4, 3
{t}k:
    addi r5, r5, 3
    subi r4, r4, 1
    bnez r4, {t}k
    li r2, 0
    li r4, 0
    li r5, 0
    sys_rand r9, 1
    jmp {t}h
{t}done:
    halt
"""

#: ``iters`` is the racing-region count per thread.
SIZES = (16, 48, 128)
QUICK_SIZES = (10, 24)
SEED = 21
WARM_SEED = 22


def _thread_source(t: str, value: int) -> str:
    stores = "\n".join("    store r2, [x]" for _ in range(RACING_STORES))
    return THREAD_TEMPLATE.format(t=t, value=value, stores=stores)


def _source(iters: int) -> str:
    data = [".data", "x: .word 0"]
    for t in ("a", "b"):
        data.append("cnt_%s: .word %d" % (t, iters + 1))
    data.extend("f%d: .word %d" % (i, i % 97) for i in range(FILLER_WORDS))
    return (
        "\n".join(data)
        + _thread_source("a", 5)
        + _thread_source("b", 7)
    )


def _container_bytes(iters: int, seed: int) -> bytes:
    program = assemble(_source(iters), name="batched%d" % iters)
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.3),
        seed=seed,
        max_steps=800_000,
    )
    return encode_log(log)


def _analyze(data: bytes, prior=None):
    """One cold analysis on a fresh engine; returns (analysis, stats)."""
    stats = PerfStats()
    analysis = ClassificationEngine().analyze_log(
        load_log_bytes(data), perf=stats, prior=prior
    )
    return analysis, stats


def _time_analysis(analyze, data: bytes, repeats: int):
    """Min wall seconds of ``analyze(data)`` over ``repeats`` cold runs.

    Each repeat decodes the container and analyses it from scratch (the
    engine side on a brand-new engine, so an empty verdict cache);
    returns ``(seconds, last result)``.
    """
    best = None
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = analyze(data)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _measure_warm(data: bytes, prior_index: dict):
    """Incremental re-analysis of ``data`` spliced from ``prior_index``."""
    started = time.perf_counter()
    analysis, stats = _analyze(data, prior=prior_index)
    elapsed = time.perf_counter() - started
    instances = len(analysis.instances)
    replayed = stats.cache_misses
    return {
        "instances": instances,
        "replayed": replayed,
        "replayed_fraction": round(replayed / instances, 4) if instances else 0.0,
        "spliced": stats.incremental_spliced,
        "elapsed_s": round(elapsed, 4),
    }


def run_benchmark(sizes=SIZES, repeats: int = 3) -> dict:
    """Time the oracle vs the engine; assert identical reports."""
    rows = []
    for iters in sizes:
        data = _container_bytes(iters, SEED)
        oracle_s, oracle_analysis = _time_analysis(
            lambda data: naive_log_analysis(load_log_bytes(data)), data, repeats
        )
        engine_s, (engine_analysis, engine_stats) = _time_analysis(
            _analyze, data, repeats
        )
        oracle_report = render_report(execution_report(oracle_analysis))
        engine_report = render_report(execution_report(engine_analysis))
        if oracle_report != engine_report:
            raise AssertionError(
                "engine report diverges from the naive oracle at iters=%d" % iters
            )
        rows.append(
            {
                "iters": iters,
                "instances": len(engine_analysis.instances),
                "batches": engine_stats.classify_batches,
                "largest_batch": max(engine_stats.batch_sizes, default=0),
                "batch_size_histogram": {
                    str(size): count
                    for size, count in sorted(engine_stats.batch_sizes.items())
                },
                "fanout": engine_stats.batch_fanout,
                "fallbacks": engine_stats.batch_fallbacks,
                "oracle_analysis_s": round(oracle_s, 4),
                "engine_analysis_s": round(engine_s, 4),
                "speedup": round(oracle_s / engine_s, 2) if engine_s else 0.0,
                "reports_identical": True,
            }
        )
    largest = rows[-1]
    # Warm incremental: re-analyse a *different seed* of the largest
    # program, spliced from the cold run's verdict index — the service's
    # resubmission near-miss.  Content-identical regions splice; only
    # genuinely new (live-in variant) instances replay.
    cold_analysis, _ = _analyze(_container_bytes(largest["iters"], SEED))
    warm = _measure_warm(
        _container_bytes(largest["iters"], WARM_SEED),
        cold_analysis.verdict_index,
    )
    return {
        "workloads": rows,
        "seed": SEED,
        "warm_seed": WARM_SEED,
        "filler_words": FILLER_WORDS,
        "racing_stores": RACING_STORES,
        "largest_iters": largest["iters"],
        "instances": largest["instances"],
        "speedup": largest["speedup"],
        "batch_size_histogram": largest["batch_size_histogram"],
        "warm_incremental": warm,
        "reports_identical": all(row["reports_identical"] for row in rows),
    }


def write_result(result: dict, output: Path) -> None:
    output.parent.mkdir(exist_ok=True)
    output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


def test_batched_classification(results_dir):
    result = run_benchmark(sizes=SIZES, repeats=3)
    write_result(result, results_dir / "BENCH_classify_batched.json")
    assert result["reports_identical"]
    assert result["speedup"] >= 2.0, (
        "the engine must analyse >=2x faster than the naive oracle on the "
        "largest workload (got %.2fx)" % result["speedup"]
    )
    warm = result["warm_incremental"]
    assert warm["replayed_fraction"] < 0.10, (
        "a warm incremental re-submit must replay <10%% of instances "
        "(replayed %d of %d)" % (warm["replayed"], warm["instances"])
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller sizes, single repeat: equivalence check, not a timing gate",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=RESULTS_DIR / "BENCH_classify_batched.json",
        help="where to write the JSON result",
    )
    args = parser.parse_args()
    result = run_benchmark(
        sizes=QUICK_SIZES if args.quick else SIZES,
        repeats=1 if args.quick else 3,
    )
    if args.quick:
        result["quick"] = True  # mark CI-noise numbers as non-authoritative
    write_result(result, args.output)
    print(json.dumps(result, indent=2, sort_keys=True))
    warm = result["warm_incremental"]
    print(
        "reports identical across %d workloads; largest speedup %.2fx; "
        "warm re-submit replayed %d/%d instances (%.1f%%)"
        % (
            len(result["workloads"]),
            result["speedup"],
            warm["replayed"],
            warm["instances"],
            warm["replayed_fraction"] * 100,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
