"""Detect-stage speedup: the quadratic oracle vs the sweep line.

The oracle (`NaiveHappensBeforeDetector` in ``tests/oracles``, the seed
algorithm) examines every region pair with an ``overlaps`` check and re-materializes
per-region access lists on each call — O(R^2) in the region count.  The
sweep-line detector walks the shared columnar ``AccessIndex`` in opening-
timestamp order and only examines genuinely overlapping, address-sharing
pairs.  This benchmark scales the region count with ``bench_scaling.py``-
style racy loop workloads (a per-iteration syscall sequencer splits every
iteration into its own region) and records both detectors' wall time,
asserting along the way that their race-instance lists — ordering
included — and truncation counters are identical.

Runs both under pytest (``pytest benchmarks/bench_detect_scaling.py``)
and as a script::

    PYTHONPATH=src python benchmarks/bench_detect_scaling.py --quick

Either way the measured numbers land in
``benchmarks/results/BENCH_detect.json``.  ``--quick`` (used by CI) keeps
the equality assertions but runs single repeats on the smaller sizes —
the race-set equivalence gate, not the timing gate.
"""

from __future__ import annotations

import sys
from pathlib import Path

from conftest import (
    DETECT_QUICK_SIZES,
    DETECT_SIZES,
    SCALING_SEED,
    min_wall,
    scaling_main,
    write_result,
)
from repro.isa import assemble
from repro.race.happens_before import HappensBeforeDetector
from repro.record import record_run
from repro.replay import OrderedReplay
from repro.vm import RandomScheduler

# The oracle lives with the tests (nothing under src/ imports it).
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import NaiveHappensBeforeDetector  # noqa: E402

#: Two independent racy pairs: regions of the a/b threads never share an
#: address with regions of the c/d threads, so the benchmark exercises
#: both pruning dimensions (temporal overlap *and* address postings).
SOURCE_TEMPLATE = """
.data
x: .word 0
y: .word 0
.thread a b
    li r1, {iters}
al:
    load r2, [x]
    addi r2, r2, 1
    store r2, [x]
    sys_rand r3, 3
    subi r1, r1, 1
    bnez r1, al
    halt
.thread c d
    li r1, {iters}
cl:
    load r2, [y]
    addi r2, r2, 2
    store r2, [y]
    sys_rand r3, 3
    subi r1, r1, 1
    bnez r1, cl
    halt
"""

SIZES = DETECT_SIZES
QUICK_SIZES = DETECT_QUICK_SIZES
SEED = SCALING_SEED


def _ordered(iters: int, seed: int = SEED) -> OrderedReplay:
    program = assemble(SOURCE_TEMPLATE.format(iters=iters), name="detscale%d" % iters)
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.3),
        seed=seed,
        max_steps=400_000,
    )
    return OrderedReplay(log, program)


def _time_detector(make_detector, ordered: OrderedReplay, repeats: int):
    """Min wall time over ``repeats`` plus the last run's instance list.

    The sweep path's cached index is invalidated before every repeat so
    the measured time includes the index build — the honest end-to-end
    detect cost.
    """

    def run():
        detector = make_detector(ordered)
        return detector.detect(), detector

    best, (instances, detector) = min_wall(
        repeats, run, prepare=ordered.invalidate_access_index
    )
    return best, instances, detector


def run_benchmark(sizes=SIZES, repeats: int = 3) -> dict:
    """Time reference vs sweep per size; assert byte-identical race sets."""
    rows = []
    for iters in sizes:
        ordered = _ordered(iters)
        naive_s, naive_instances, naive = _time_detector(
            NaiveHappensBeforeDetector, ordered, repeats
        )
        sweep_s, sweep_instances, sweep = _time_detector(
            HappensBeforeDetector, ordered, repeats
        )
        if sweep_instances != naive_instances:
            raise AssertionError(
                "sweep-line race set diverges from the reference at iters=%d "
                "(%d vs %d instances)"
                % (iters, len(sweep_instances), len(naive_instances))
            )
        if sweep.truncated_locations != naive.truncated_locations:
            raise AssertionError(
                "truncation counters diverge at iters=%d (%d vs %d)"
                % (iters, sweep.truncated_locations, naive.truncated_locations)
            )
        index = ordered.access_index()
        rows.append(
            {
                "iters": iters,
                "regions": index.region_count,
                "accesses": index.access_count,
                "instances": len(sweep_instances),
                "naive_s": round(naive_s, 4),
                "sweep_s": round(sweep_s, 4),
                "speedup": round(naive_s / sweep_s, 2) if sweep_s else 0.0,
                "races_identical": True,
            }
        )
    largest = rows[-1]
    return {
        "workloads": rows,
        "seed": SEED,
        "largest_iters": largest["iters"],
        "speedup": largest["speedup"],
        "races_identical": all(row["races_identical"] for row in rows),
    }


def test_sweep_beats_quadratic_reference(results_dir):
    result = run_benchmark(sizes=SIZES, repeats=3)
    write_result(result, results_dir / "BENCH_detect.json")
    assert result["races_identical"]
    assert result["speedup"] >= 2.0, (
        "sweep-line detect must be >=2x over the quadratic reference "
        "on the largest workload (got %.2fx)" % result["speedup"]
    )


def main() -> int:
    return scaling_main(
        "detect",
        run_benchmark,
        sizes=SIZES,
        quick_sizes=QUICK_SIZES,
        repeats=3,
        description=__doc__.split("\n")[0],
        summary=lambda result: (
            "race sets identical across %d workloads; largest speedup %.2fx"
            % (len(result["workloads"]), result["speedup"])
        ),
    )


if __name__ == "__main__":
    raise SystemExit(main())
