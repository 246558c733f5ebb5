"""Property-based tests: race detection and classification invariants."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.isa import assemble
from repro.race.classifier import RaceClassifier
from repro.race.happens_before import HappensBeforeDetector, find_races
from repro.race.model import RaceInstance
from repro.record import record_run
from repro.replay import OrderedReplay
from repro.vm import RandomScheduler, TraceObserver

from oracles import NaiveHappensBeforeDetector
from strategies import programs, seeds

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _oracle_races(trace):
    """Independent happens-before oracle from the full machine trace."""
    sequencers_by_tid = {}
    for sequencer in trace.sequencers:
        sequencers_by_tid.setdefault(sequencer.tid, []).append(sequencer)

    def earliest_after(tid, step):
        values = [s.timestamp for s in sequencers_by_tid[tid] if s.thread_step >= step]
        return min(values) if values else None

    def latest_before(tid, step):
        values = [s.timestamp for s in sequencers_by_tid[tid] if s.thread_step <= step]
        return max(values) if values else None

    def happens_before(x, y):
        after_x = earliest_after(x.tid, x.thread_step)
        before_y = latest_before(y.tid, y.thread_step)
        return after_x is not None and before_y is not None and after_x <= before_y

    plain = [a for a in trace.accesses if not a.is_sync]
    races = set()
    for i in range(len(plain)):
        for j in range(i + 1, len(plain)):
            x, y = plain[i], plain[j]
            if x.tid == y.tid or x.address != y.address:
                continue
            if not (x.is_write or y.is_write):
                continue
            if happens_before(x, y) or happens_before(y, x):
                continue
            key = tuple(sorted([(x.tid, x.thread_step), (y.tid, y.thread_step)]))
            races.add(key + (x.address,))
    return races


def _run(source, seed):
    program = assemble(source, name="prop")
    trace = TraceObserver()
    result, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
        extra_observers=[trace],
    )
    return program, trace, OrderedReplay(log, program)


@given(source=programs(), seed=seeds)
@_SETTINGS
def test_detector_equals_oracle(source, seed):
    """Soundness AND completeness: the detector's instance set equals an
    independently computed happens-before oracle — no false positives, no
    missed unordered conflicting pairs."""
    program, trace, ordered = _run(source, seed)
    detected = {
        tuple(
            sorted(
                [
                    (i.access_a.tid, i.access_a.thread_step),
                    (i.access_b.tid, i.access_b.thread_step),
                ]
            )
        )
        + (i.address,)
        for i in HappensBeforeDetector(ordered, max_pairs_per_location=None).detect()
    }
    assert detected == _oracle_races(trace)


@given(source=programs(), seed=seeds, cap=st.sampled_from((None, 1, 3, 256)))
@_SETTINGS
def test_sweep_equals_quadratic_oracle(source, seed, cap):
    """Instances (order included) and truncation counters of the sweep
    equal the all-pairs oracle's, with and without the pair cap."""
    program, trace, ordered = _run(source, seed)
    sweep = HappensBeforeDetector(ordered, max_pairs_per_location=cap)
    oracle = NaiveHappensBeforeDetector(ordered, max_pairs_per_location=cap)
    assert sweep.detect() == oracle.detect()
    assert sweep.truncated_locations == oracle.truncated_locations


@given(source=programs(fully_locked=True), seed=seeds)
@_SETTINGS
def test_locked_programs_have_no_races(source, seed):
    """Zero false positives on correctly synchronized random programs."""
    program, trace, ordered = _run(source, seed)
    assert find_races(ordered) == []


@given(source=programs(max_threads=2), seed=seeds)
@_SETTINGS
def test_classification_symmetric_and_deterministic(source, seed):
    program, trace, ordered = _run(source, seed)
    instances = find_races(ordered)[:5]
    classifier = RaceClassifier(ordered)
    for instance in instances:
        verdict = classifier.classify_instance(instance)
        again = classifier.classify_instance(instance)
        assert verdict.outcome is again.outcome
        swapped = RaceInstance(
            access_a=instance.access_b,
            access_b=instance.access_a,
            region_a=instance.region_b,
            region_b=instance.region_a,
        )
        assert classifier.classify_instance(swapped).outcome is verdict.outcome
