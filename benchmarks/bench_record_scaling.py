"""Record-stage cost: the generic oracle machine vs the shipped machine.

The oracle machine (``GenericMachine`` in
``tests/oracles/generic_interpreters.py``, the seed's interpreter)
re-derives everything about an instruction on every step — mnemonic
string chains, operand isinstance tests, by-name ALU lookups — and
rebuilds the runnable list every iteration.  The shipped machine
predecodes each code block once into dense dispatch records
(:mod:`repro.isa.predecode`), maintains the runnable list incrementally,
and the recorder captures events into columnar arrays.  This benchmark
scales compute-heavy racy loop workloads, records each one through both
machines, asserts the resulting :class:`ReplayLog`\\ s and machine
results are identical, and gates on the shipped machine being >=2x
faster on the largest workload.  It also times the content-addressed
suite cache (:mod:`repro.analysis.cache`) serving the same recording
from disk.

Runs both under pytest (``pytest benchmarks/bench_record_scaling.py``)
and as a script::

    PYTHONPATH=src python benchmarks/bench_record_scaling.py --quick

Either way the measured numbers land in
``benchmarks/results/BENCH_record.json``.  ``--quick`` (used by CI) keeps
the equality assertions but runs single repeats on the smaller sizes —
the log-equivalence gate, not the timing gate.
"""

from __future__ import annotations

import gc
import sys
import tempfile
import time
from pathlib import Path

from conftest import (
    INTERP_QUICK_SIZES,
    INTERP_SIZES,
    SCALING_SEED,
    min_wall,
    scaling_main,
    write_result,
)
from repro.analysis.cache import SuiteCache
from repro.isa import assemble
from repro.record import record_run
from repro.vm import RandomScheduler

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import generic_record_run  # noqa: E402

#: Four threads in two independent racy pairs, with enough straight-line
#: ALU work per iteration to look like computation rather than pure
#: memory traffic; the per-iteration syscall keeps sequencers (and hence
#: regions) scaling with the iteration count.
SOURCE_TEMPLATE = """
.data
x: .word 0
y: .word 0
.thread a b
    li r1, {iters}
al:
    load r2, [x]
    addi r2, r2, 1
    muli r3, r2, 7
    xori r3, r3, 21
    andi r3, r3, 1023
    store r2, [x]
    sys_rand r4, 3
    subi r1, r1, 1
    bnez r1, al
    halt
.thread c d
    li r1, {iters}
cl:
    load r2, [y]
    addi r2, r2, 2
    muli r3, r2, 5
    ori r3, r3, 9
    shri r3, r3, 2
    store r2, [y]
    sys_rand r4, 3
    subi r1, r1, 1
    bnez r1, cl
    halt
"""

SIZES = INTERP_SIZES
QUICK_SIZES = INTERP_QUICK_SIZES
SEED = SCALING_SEED
MAX_STEPS = 2_000_000


def _record(iters: int, recorder):
    """One recorded run through ``recorder``; the program and scheduler
    are rebuilt per run so neither predecode caches nor RNG state leak
    between timings, and the garbage collector stays out of the timed
    window."""
    program = assemble(SOURCE_TEMPLATE.format(iters=iters), name="recscale%d" % iters)
    scheduler = RandomScheduler(seed=SEED, switch_probability=0.3)
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result, log = recorder(
            program,
            scheduler=scheduler,
            seed=SEED,
            max_steps=MAX_STEPS,
        )
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed, result, log


def _measure_pair(iters: int, repeats: int):
    """Min-of-``repeats`` for both machines, interleaved so machine-load
    drift lands on both sides rather than biasing one."""
    fast_s = slow_s = None
    fast_result = fast_log = slow_result = slow_log = None
    for _ in range(repeats):
        elapsed, fast_result, fast_log = _record(iters, record_run)
        fast_s = elapsed if fast_s is None else min(fast_s, elapsed)
        elapsed, slow_result, slow_log = _record(iters, generic_record_run)
        slow_s = elapsed if slow_s is None else min(slow_s, elapsed)
    return fast_s, fast_result, fast_log, slow_s, slow_result, slow_log


def _time_cache_hit(result, log, repeats: int) -> float:
    """Min wall time to serve the recording from a warm suite cache."""
    with tempfile.TemporaryDirectory() as directory:
        cache = SuiteCache(directory)
        cache.store("bench", result, log)
        best, cached = min_wall(repeats, lambda: cache.load("bench"))
        assert cached is not None and cached[1] == log
    return best


def run_benchmark(sizes=SIZES, repeats: int = 5) -> dict:
    """Time oracle vs shipped recording per size; assert identical logs."""
    rows = []
    for iters in sizes:
        fast_s, fast_result, fast_log, slow_s, slow_result, slow_log = _measure_pair(
            iters, repeats
        )
        if fast_log != slow_log:
            raise AssertionError(
                "recorded log diverges from the oracle's at iters=%d" % iters
            )
        if (
            fast_result.output != slow_result.output
            or fast_result.memory != slow_result.memory
            or fast_result.global_steps != slow_result.global_steps
            or fast_result.threads != slow_result.threads
        ):
            raise AssertionError(
                "machine result diverges from the oracle's at iters=%d" % iters
            )
        cache_s = _time_cache_hit(fast_result, fast_log, repeats)
        rows.append(
            {
                "iters": iters,
                "steps": fast_log.total_instructions,
                "events": fast_log.captured.total_events,
                "predicted_loads": fast_log.captured.predicted_loads,
                "oracle_record_s": round(slow_s, 4),
                "record_s": round(fast_s, 4),
                "cache_hit_s": round(cache_s, 4),
                "speedup": round(slow_s / fast_s, 2) if fast_s else 0.0,
                "cache_speedup": round(slow_s / cache_s, 2) if cache_s else 0.0,
                "logs_identical": True,
            }
        )
    largest = rows[-1]
    return {
        "workloads": rows,
        "seed": SEED,
        "largest_iters": largest["iters"],
        "speedup": largest["speedup"],
        "cache_speedup": largest["cache_speedup"],
        "logs_identical": all(row["logs_identical"] for row in rows),
    }


def test_record_beats_generic_oracle(results_dir):
    result = run_benchmark(sizes=SIZES, repeats=5)
    write_result(result, results_dir / "BENCH_record.json")
    assert result["logs_identical"]
    assert result["speedup"] >= 2.0, (
        "record must be >=2x over the generic oracle machine "
        "on the largest workload (got %.2fx)" % result["speedup"]
    )


def main() -> int:
    return scaling_main(
        "record",
        run_benchmark,
        sizes=SIZES,
        quick_sizes=QUICK_SIZES,
        repeats=5,
        description=__doc__.split("\n")[0],
        summary=lambda result: (
            "logs identical across %d workloads; largest speedup %.2fx "
            "(cache hit %.2fx)"
            % (len(result["workloads"]), result["speedup"], result["cache_speedup"])
        ),
    )


if __name__ == "__main__":
    raise SystemExit(main())
