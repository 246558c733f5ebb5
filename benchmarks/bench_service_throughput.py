"""Analysis-service throughput: jobs/sec across worker-pool sizes.

Two series, measured on a live :class:`~repro.service.AnalysisService`:

* **dispatch scaling** — the serving layer itself (admission, content-hash
  shard routing, queue, dispatch threads, journal/metrics bookkeeping)
  measured with calibrated fixed-cost jobs via the pool's injected-runner
  hook.  Each synthetic job blocks for a known wall time the way a real
  job waits on its worker process, so jobs/sec must scale with the shard
  count unless the service serializes somewhere.  This isolates the
  subsystem under test from host core count: CPU scaling of the
  classifier itself is ``bench_parallel_scaling.py``'s job, and on a
  single-core runner the two would otherwise be indistinguishable.
* **end to end** — real record→replay→detect→classify jobs through real
  worker processes (memoization off so every job does full work),
  reported for context and bounded by the host's cores, not gated.

Plus **saturation**: with dispatch stopped and the queue full, further
submissions must be rejected immediately (the HTTP layer's 429), never
buffered or hung — the rejection count and total submit wall time prove
bounded backpressure.

Runs both under pytest (``pytest benchmarks/bench_service_throughput.py``)
and as a script::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py --quick

Either way the numbers land in ``benchmarks/results/BENCH_service.json``
(``BENCH_service_quick.json`` under ``--quick``).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.service import (
    AnalysisService,
    JobSpec,
    JobState,
    QueueFull,
    ServiceConfig,
    content_key_for,
)
from repro.workloads.suite import all_workloads

RESULTS_DIR = Path(__file__).parent / "results"

WORKLOAD = "mixed_service_mx1"
POOL_SIZES = (1, 2, 4)
QUICK_POOL_SIZES = (1, 2)
#: Wall cost of one synthetic dispatch-series job.
JOB_COST_S = 0.05
JOBS_PER_SHARD = 3
SATURATION_CAPACITY = 4
SATURATION_ATTEMPTS = 10

#: Shard classes seeds are balanced over.  4 is the largest pool size;
#: a set balanced mod 4 is automatically balanced mod 2 and mod 1, so
#: the same seeds load every pool size evenly.
_SHARD_CLASSES = 4


def _balanced_seeds(per_class: int, start: int) -> list:
    """Seeds whose job content keys spread evenly over the shard classes.

    Routing is by content hash, so arbitrary seeds can pile onto one
    shard and make a scaling number measure luck instead of the service.
    """
    workload = all_workloads()[WORKLOAD]
    config = ServiceConfig()
    buckets = [[] for _ in range(_SHARD_CLASSES)]
    seed = start
    while sum(len(bucket) for bucket in buckets) < per_class * _SHARD_CLASSES:
        spec = JobSpec.for_workload(WORKLOAD, seed=seed)
        key = content_key_for(
            spec,
            workload,
            config.max_steps,
            config.capture_global_order,
            config.max_pairs_per_location,
        )
        bucket = buckets[int(key[:8], 16) % _SHARD_CLASSES]
        if len(bucket) < per_class:
            bucket.append(seed)
        seed += 1
    return [seed for bucket in buckets for seed in bucket]


def _wait_all(service: AnalysisService, job_ids: list, timeout_s: float) -> None:
    deadline = time.monotonic() + timeout_s
    for job_id in job_ids:
        while True:
            job = service.job(job_id)
            if job is not None and job.state.is_final:
                if job.state is not JobState.DONE:
                    raise AssertionError(
                        "job %s ended %s: %s" % (job_id, job.state.value, job.error)
                    )
                break
            if time.monotonic() > deadline:
                raise AssertionError("timed out waiting for job %s" % job_id)
            time.sleep(0.005)


def _synthetic_runner(cost_s: float):
    """A runner standing in for a worker: blocks ``cost_s``, returns a result."""

    def run(payload: dict) -> dict:
        time.sleep(cost_s)
        return {
            "report": {"synthetic": True, "workload": payload.get("workload")},
            "perf": {"stage_seconds": {"classify": cost_s}},
            "elapsed_s": cost_s,
        }

    return run


def _measure_dispatch(pool_size: int, seeds: list, cost_s: float) -> dict:
    config = ServiceConfig(
        pool_size=pool_size,
        shards=pool_size,
        queue_capacity=len(seeds) + 8,
        port=0,
    )
    service = AnalysisService(config, runner=_synthetic_runner(cost_s)).start()
    try:
        start = time.perf_counter()
        job_ids = [
            service.submit_workload(WORKLOAD, seed=seed)[0].job_id for seed in seeds
        ]
        _wait_all(service, job_ids, timeout_s=60.0)
        elapsed = time.perf_counter() - start
    finally:
        service.shutdown()
    return {
        "pool_size": pool_size,
        "jobs": len(seeds),
        "job_cost_s": cost_s,
        "elapsed_s": round(elapsed, 4),
        "jobs_per_s": round(len(seeds) / elapsed, 2),
    }


def _measure_end_to_end(pool_size: int, seeds: list, warmup_seeds: list) -> dict:
    """Real worker processes, real jobs; warmup spins up every shard's
    process (and its engine import) outside the timed window."""
    config = ServiceConfig(
        pool_size=pool_size,
        shards=pool_size,
        queue_capacity=len(seeds) + len(warmup_seeds) + 8,
        port=0,
    )
    service = AnalysisService(config).start()
    try:
        warm_ids = [
            service.submit_workload(WORKLOAD, seed=seed)[0].job_id
            for seed in warmup_seeds
        ]
        _wait_all(service, warm_ids, timeout_s=300.0)
        start = time.perf_counter()
        job_ids = [
            service.submit_workload(WORKLOAD, seed=seed)[0].job_id for seed in seeds
        ]
        _wait_all(service, job_ids, timeout_s=300.0)
        elapsed = time.perf_counter() - start
    finally:
        service.shutdown()
    return {
        "pool_size": pool_size,
        "jobs": len(seeds),
        "elapsed_s": round(elapsed, 4),
        "jobs_per_s": round(len(seeds) / elapsed, 2),
    }


def _measure_saturation() -> dict:
    """Fill the queue with dispatch stopped; overflow must reject fast."""
    service = AnalysisService(
        ServiceConfig(pool_size=0, queue_capacity=SATURATION_CAPACITY, port=0)
    ).start(workers=False)
    accepted = rejected = 0
    start = time.perf_counter()
    try:
        for index in range(SATURATION_ATTEMPTS):
            try:
                service.submit_workload(WORKLOAD, seed=9000 + index)
                accepted += 1
            except QueueFull:
                rejected += 1
        elapsed = time.perf_counter() - start
        counted = service.queue.rejections
    finally:
        service.shutdown(drain=False)
    return {
        "capacity": SATURATION_CAPACITY,
        "attempts": SATURATION_ATTEMPTS,
        "accepted": accepted,
        "rejected": rejected,
        "rejections_counted": counted,
        "submit_elapsed_s": round(elapsed, 4),
        # Ten admission calls against a full queue take milliseconds;
        # anything near the 2s bound would mean overflow blocks.
        "hang_free": elapsed < 2.0,
    }


def run_benchmark(
    pool_sizes=POOL_SIZES,
    jobs_per_shard: int = JOBS_PER_SHARD,
    job_cost_s: float = JOB_COST_S,
    end_to_end: bool = True,
) -> dict:
    seeds = _balanced_seeds(jobs_per_shard, start=1000)
    dispatch_rows = [
        _measure_dispatch(pool_size, seeds, job_cost_s) for pool_size in pool_sizes
    ]
    by_pool = {row["pool_size"]: row for row in dispatch_rows}
    speedup = round(
        dispatch_rows[-1]["jobs_per_s"] / dispatch_rows[0]["jobs_per_s"], 2
    )
    result = {
        "workload": WORKLOAD,
        "cpu_count": os.cpu_count(),
        "dispatch": {
            "job_cost_s": job_cost_s,
            "rows": dispatch_rows,
            "speedup": speedup,
        },
        "saturation": _measure_saturation(),
    }
    if 1 in by_pool and 4 in by_pool:
        result["speedup_1_to_4"] = round(
            by_pool[4]["jobs_per_s"] / by_pool[1]["jobs_per_s"], 2
        )
    if end_to_end:
        e2e_seeds = _balanced_seeds(2, start=2000)
        e2e_warmup = _balanced_seeds(1, start=3000)
        result["end_to_end"] = {
            "note": "real worker processes; bounded by host cores, not gated",
            "rows": [
                _measure_end_to_end(pool_size, e2e_seeds, e2e_warmup)
                for pool_size in (pool_sizes[0], pool_sizes[-1])
            ],
        }
    return result


def write_result(result: dict, output: Path) -> None:
    output.parent.mkdir(exist_ok=True)
    output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


def test_service_throughput_scales_and_rejects_overload(results_dir):
    result = run_benchmark()
    write_result(result, results_dir / "BENCH_service.json")
    assert result["speedup_1_to_4"] >= 2.0, (
        "service must serve >=2x jobs/sec at pool size 4 vs 1 "
        "(got %.2fx)" % result["speedup_1_to_4"]
    )
    saturation = result["saturation"]
    assert saturation["accepted"] == saturation["capacity"]
    assert saturation["rejected"] > 0
    assert saturation["rejections_counted"] == saturation["rejected"]
    assert saturation["hang_free"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="pool sizes 1/2, fewer and cheaper jobs, no end-to-end series",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON result (default: results/BENCH_service.json,"
        " or results/BENCH_service_quick.json under --quick)",
    )
    args = parser.parse_args()
    if args.quick:
        result = run_benchmark(
            pool_sizes=QUICK_POOL_SIZES,
            jobs_per_shard=2,
            job_cost_s=0.02,
            end_to_end=False,
        )
    else:
        result = run_benchmark()
    output = args.output
    if output is None:
        name = "BENCH_service_quick.json" if args.quick else "BENCH_service.json"
        output = RESULTS_DIR / name
    write_result(result, output)
    print(json.dumps(result, indent=2, sort_keys=True))
    rows = result["dispatch"]["rows"]
    print(
        "dispatch: %.2fx jobs/sec from pool %d to %d; saturation rejected "
        "%d/%d submissions in %.3fs"
        % (
            result["dispatch"]["speedup"],
            rows[0]["pool_size"],
            rows[-1]["pool_size"],
            result["saturation"]["rejected"],
            result["saturation"]["attempts"],
            result["saturation"]["submit_elapsed_s"],
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
