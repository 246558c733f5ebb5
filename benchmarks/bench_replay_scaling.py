"""Replay-stage cost: the generic oracle replayer vs the shipped replay.

The oracle (``GenericOrderedReplay`` in
``tests/oracles/generic_interpreters.py``, the seed's replay stage)
re-interprets every thread eagerly — one Python dispatch per retired
instruction, one :class:`ReplayedAccess` object per memory event, one
full register-tuple snapshot per region boundary and per access —
before the ordered walk or the access index can run.  The shipped
replay predecodes each block once (:mod:`repro.isa.predecode`), feeds
the ordered walk and the columnar :class:`AccessIndex` straight from the
recorder's captured columns (no instruction is re-interpreted at all on
fresh recordings and v3 binary round trips), and materializes access
objects and register snapshots lazily, only where an analysis actually
looks.  This benchmark scales compute-heavy racy loop workloads, records
each once, times the full replay stage (ordered replay construction plus
access-index build) through both, asserts every observable is
identical, and gates on the shipped replay being >=2x faster on the
largest workload.

Runs both under pytest (``pytest benchmarks/bench_replay_scaling.py``)
and as a script::

    PYTHONPATH=src python benchmarks/bench_replay_scaling.py --quick

Either way the measured numbers land in
``benchmarks/results/BENCH_replay.json``.  ``--quick`` (used by CI) keeps
the equality assertions but runs single repeats on the smaller sizes —
the equivalence gate, not the timing gate.
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

from conftest import (
    INTERP_QUICK_SIZES,
    INTERP_SIZES,
    SCALING_SEED,
    scaling_main,
    write_result,
)
from repro.isa import assemble
from repro.race.happens_before import find_races
from repro.record import record_run
from repro.replay.ordered_replay import OrderedReplay
from repro.vm import RandomScheduler

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import GenericOrderedReplay  # noqa: E402

#: Four threads in two independent racy pairs (same shape as the record
#: benchmark): straight-line ALU work per iteration, and a per-iteration
#: syscall so sequencers — and hence regions, the unit the replay stage
#: walks — scale with the iteration count.
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


def _recorded(iters: int):
    """One recording per size, shared by both timed replays."""
    program = assemble(
        SOURCE_TEMPLATE.format(iters=iters), name="repscale%d" % iters
    )
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=SEED, switch_probability=0.3),
        seed=SEED,
        max_steps=MAX_STEPS,
    )
    if log.captured is None:
        raise AssertionError("recording lost its captured columns")
    return program, log


def _time_replay_stage(log, program, replay_class):
    """Wall time of the full replay stage: ordered replay construction
    (walk included) plus the access-index build.  The garbage collector
    stays out of the timed window; a fresh OrderedReplay per run keeps
    its internal caches cold."""
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        ordered = replay_class(log, program)
        ordered.access_index()
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed, ordered


def _measure_pair(log, program, repeats: int):
    """Min-of-``repeats`` for both replays, interleaved so machine-load
    drift lands on both sides rather than biasing one."""
    fast_s = slow_s = None
    fast = slow = None
    for _ in range(repeats):
        elapsed, fast = _time_replay_stage(log, program, OrderedReplay)
        fast_s = elapsed if fast_s is None else min(fast_s, elapsed)
        elapsed, slow = _time_replay_stage(log, program, GenericOrderedReplay)
        slow_s = elapsed if slow_s is None else min(slow_s, elapsed)
    return fast_s, fast, slow_s, slow


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


def _assert_equivalent(fast, slow, iters: int) -> None:
    """Every observable the analyses read must agree (checked after the
    timed window so the comparison work never pollutes the numbers)."""
    index_fast, index_slow = fast.access_index(), slow.access_index()
    if (
        list(index_fast.steps) != list(index_slow.steps)
        or list(index_fast.addresses) != list(index_slow.addresses)
        or list(index_fast.values) != list(index_slow.values)
        or bytes(index_fast.write_flags) != bytes(index_slow.write_flags)
        or list(index_fast.region_of) != list(index_slow.region_of)
        or index_fast.postings != index_slow.postings
    ):
        raise AssertionError("access index diverges at iters=%d" % iters)
    if fast.output() != slow.output():
        raise AssertionError("replay output diverges at iters=%d" % iters)
    if fast.final_memory() != slow.final_memory():
        raise AssertionError("final memory diverges at iters=%d" % iters)
    if _race_keys(fast) != _race_keys(slow):
        raise AssertionError("race sets diverge at iters=%d" % iters)
    for name in fast.log.threads:
        if (
            fast.thread_replays[name].materialized()
            != slow.thread_replays[name].materialized()
        ):
            raise AssertionError(
                "thread %r replay diverges at iters=%d" % (name, iters)
            )


def run_benchmark(sizes=SIZES, repeats: int = 5) -> dict:
    """Time oracle vs shipped replay per size; assert identical results."""
    rows = []
    for iters in sizes:
        program, log = _recorded(iters)
        fast_s, fast, slow_s, slow = _measure_pair(log, program, repeats)
        _assert_equivalent(fast, slow, iters)
        rows.append(
            {
                "iters": iters,
                "steps": log.total_instructions,
                "regions": sum(len(regions) for regions in fast.regions.values()),
                "accesses": fast.access_index().access_count,
                "oracle_replay_s": round(slow_s, 4),
                "replay_s": round(fast_s, 4),
                "speedup": round(slow_s / fast_s, 2) if fast_s else 0.0,
                "results_identical": True,
            }
        )
    largest = rows[-1]
    return {
        "workloads": rows,
        "seed": SEED,
        "largest_iters": largest["iters"],
        "speedup": largest["speedup"],
        "results_identical": all(row["results_identical"] for row in rows),
    }


def test_replay_beats_generic_oracle(results_dir):
    result = run_benchmark(sizes=SIZES, repeats=5)
    write_result(result, results_dir / "BENCH_replay.json")
    assert result["results_identical"]
    assert result["speedup"] >= 2.0, (
        "replay must be >=2x over the generic oracle replayer "
        "on the largest workload (got %.2fx)" % result["speedup"]
    )


def main() -> int:
    return scaling_main(
        "replay",
        run_benchmark,
        sizes=SIZES,
        quick_sizes=QUICK_SIZES,
        repeats=5,
        description=__doc__.split("\n")[0],
        summary=lambda result: (
            "results identical across %d workloads; largest speedup %.2fx"
            % (len(result["workloads"]), result["speedup"])
        ),
    )


if __name__ == "__main__":
    raise SystemExit(main())
