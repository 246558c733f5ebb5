"""Property-based tests for the tooling layer: validator and inspector."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.isa import assemble
from repro.record import record_run, validate_log
from repro.replay import OrderedReplay
from repro.replay.inspector import TimeTravelInspector
from repro.vm import RandomScheduler, TraceObserver

from strategies import programs, seeds

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(source=programs(), seed=seeds)
@_SETTINGS
def test_recorded_logs_always_validate(source, seed):
    """Every log the recorder produces satisfies every invariant the
    validator checks — on arbitrary programs and schedules."""
    program = assemble(source, name="val")
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )
    assert validate_log(log) == []


@given(source=programs(), seed=seeds)
@_SETTINGS
def test_serialized_logs_still_validate(source, seed):
    from repro.record import log_from_json, log_to_json

    program = assemble(source, name="val")
    _, log = record_run(program, scheduler=RandomScheduler(seed=seed), seed=seed)
    assert validate_log(log_from_json(log_to_json(log))) == []


@given(source=programs(max_threads=2), seed=seeds)
@_SETTINGS
def test_inspector_matches_machine_trace(source, seed):
    """The time-travel register reconstruction agrees with the live
    machine at *every* step, not just at thread end."""
    program = assemble(source, name="tt")

    from repro.vm import Machine

    recorder_machine = Machine(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )

    # Wrap each thread's dispatch to snapshot registers after every
    # retired step, keyed by the index of the step that just retired.
    after_step = {}

    def snapshotting(thread):
        step_fast = thread.step_fast

        def step(machine):
            before = thread.steps
            outcome = step_fast(machine)
            if thread.steps > before:
                after_step[(thread.tid, before)] = thread.registers.snapshot()
            return outcome

        thread.step_fast = step

    for thread in recorder_machine.threads:
        snapshotting(thread)
    recorder_machine.run()

    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )
    ordered = OrderedReplay(log, program)
    inspector = TimeTravelInspector(ordered)
    for name, thread_log in log.threads.items():
        tid = thread_log.tid
        for step in range(thread_log.steps):
            expected = after_step[(tid, step)]
            assert inspector.registers_at(name, step + 1) == expected, (
                "inspector diverged at %s step %d" % (name, step)
            )


@given(source=programs(max_threads=2), seed=seeds)
@_SETTINGS
def test_inspector_step_views_consistent(source, seed):
    """Each step view's after-registers equal the next view's before."""
    program = assemble(source, name="tt")
    _, log = record_run(program, scheduler=RandomScheduler(seed=seed), seed=seed)
    ordered = OrderedReplay(log, program)
    inspector = TimeTravelInspector(ordered)
    for name, replay in ordered.thread_replays.items():
        window = inspector.walk(name, start=0, count=min(replay.steps, 8))
        for earlier, later in zip(window, window[1:]):
            assert earlier.registers_after == later.registers_before
