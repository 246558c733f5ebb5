"""Performance scaling of the analysis stages.

Not a paper table, but the engineering facts behind §5.1: how detection
and classification cost grow with the recording.  Detection work grows
with conflicting-access pairs (quadratic in accesses per racing region,
which is why the instance cap exists); classification grows linearly in
instances analysed.
"""

import pytest

from repro.analysis import analyze_execution
from repro.race.classifier import RaceClassifier
from repro.race.happens_before import HappensBeforeDetector
from repro.record import record_run
from repro.replay import OrderedReplay
from repro.vm import RandomScheduler
from repro.workloads import Execution, lost_update


def _ordered(iters, seed=15):
    workload = lost_update(17, iters=iters)
    program = workload.program()
    _, log = record_run(
        program, scheduler=RandomScheduler(seed=seed, switch_probability=0.3), seed=seed
    )
    return OrderedReplay(log, program)


@pytest.mark.parametrize("iters", [5, 10, 20])
def test_benchmark_detection_scaling(benchmark, iters):
    ordered = _ordered(iters)
    benchmark.group = "detect"
    benchmark.name = "detect-iters-%d" % iters
    instances = benchmark(
        lambda: HappensBeforeDetector(ordered, max_pairs_per_location=None).detect()
    )
    assert instances


@pytest.mark.parametrize("iters", [5, 10, 20])
def test_benchmark_classification_scaling(benchmark, iters):
    ordered = _ordered(iters)
    instances = HappensBeforeDetector(ordered, max_pairs_per_location=None).detect()
    benchmark.group = "classify"
    benchmark.name = "classify-iters-%d" % iters
    # A fresh classifier per round: its verdict cache would otherwise
    # serve every later round without a replay.
    classified = benchmark.pedantic(
        lambda: RaceClassifier(ordered).classify_all(instances),
        rounds=2,
        iterations=1,
    )
    assert len(classified) == len(instances)


def test_instance_cap_bounds_detection_work():
    """The cap turns quadratic blowup into a constant-bounded instance set."""
    ordered = _ordered(40)
    capped = HappensBeforeDetector(ordered, max_pairs_per_location=64)
    instances = capped.detect()
    # 3 static pairs share one address: the cap is per (region pair, address).
    assert len(instances) <= 64 * 2  # a couple of region pairs at most
    assert capped.truncated_locations > 0
