"""Unit tests for the time-travel inspector."""

import pytest

from repro.isa import assemble
from repro.record import record_run
from repro.replay import OrderedReplay, ReplayDivergence
from repro.replay.inspector import TimeTravelInspector
from repro.vm import ExplicitScheduler, RandomScheduler

from oracles import generic_replay_thread

SOURCE = """
.data
x: .word 5
m: .word 0
.thread main
    li r1, 10
    load r2, [x]
    add r3, r1, r2
    store r3, [x]
    lock [m]
    addi r3, r3, 1
    unlock [m]
    sys_rand r4, 100
    halt
.thread side
    li r9, 8
d:
    subi r9, r9, 1
    bnez r9, d
    load r5, [x]
    halt
"""


@pytest.fixture
def inspector():
    program = assemble(SOURCE, name="tt")
    _, log = record_run(
        program, scheduler=RandomScheduler(seed=5, switch_probability=0.3), seed=5
    )
    ordered = OrderedReplay(log, program)
    return program, ordered, TimeTravelInspector(ordered)


class TestRegisterTimeTravel:
    def test_registers_before_first_step_are_initial(self, inspector):
        _, _, tt = inspector
        assert tt.registers_at("main", 0) == (0,) * 16

    def test_register_evolution(self, inspector):
        _, _, tt = inspector
        # Before step 1 (the load): r1 was just set to 10.
        assert tt.register_at("main", 1, 1) == 10
        # Before step 2 (the add): r2 holds the loaded 5.
        assert tt.register_at("main", 2, 2) == 5
        # Before step 3 (the store): r3 = 15.
        assert tt.register_at("main", 3, 3) == 15

    def test_final_state_matches_replay(self, inspector):
        _, ordered, tt = inspector
        replay = ordered.thread_replays["main"]
        assert tt.registers_at("main", replay.steps) == replay.final_registers

    def test_syscall_result_visible_after_step(self, inspector):
        _, ordered, tt = inspector
        replay = ordered.thread_replays["main"]
        rand_step = next(
            step
            for step, static_id in enumerate(replay.static_ids)
            if "sys_rand" in str(ordered.program.instruction(static_id))
        )
        after = tt.registers_at("main", rand_step + 1)
        assert 0 <= after[4] < 100

    def test_out_of_range_step(self, inspector):
        _, _, tt = inspector
        with pytest.raises(IndexError):
            tt.registers_at("main", 99999)
        with pytest.raises(IndexError):
            tt.registers_at("main", -1)

    def test_matches_oracle_replay_snapshots(self, inspector):
        """Every register snapshot the eager oracle replay takes (region
        boundaries, memory steps, end state) is what the inspector says."""
        program, ordered, tt = inspector
        for name in ordered.log.threads:
            eager = generic_replay_thread(program, ordered.log, name)
            for snapshots in (
                eager.region_start_registers,
                eager.region_end_registers,
                eager.registers_at_step,
            ):
                for step, registers in snapshots.items():
                    assert tt.registers_at(name, step) == registers
            assert tt.registers_at(name, eager.steps) == eager.final_registers

    def test_diverged_end_state_raises(self, inspector):
        _, ordered, tt = inspector
        replay = ordered.thread_replays["main"]
        replay.final_registers = (1,) * 16
        with pytest.raises(ReplayDivergence):
            tt.registers_at("main", 0)


class TestStepViews:
    def test_step_view_contents(self, inspector):
        program, _, tt = inspector
        view = tt.step_view("main", 1)  # the load
        assert view.instruction_text.startswith("load")
        assert view.access == ("load", program.data_address("x"), 5)
        assert view.registers_before[2] == 0
        assert view.registers_after[2] == 5
        assert "r2: 0 -> 5" in view.describe()

    def test_store_access_in_view(self, inspector):
        program, _, tt = inspector
        view = tt.step_view("main", 3)
        assert view.access == ("store", program.data_address("x"), 15)

    def test_walk_window(self, inspector):
        _, _, tt = inspector
        window = tt.walk("main", start=0, count=4)
        assert len(window) == 4
        assert [v.thread_step for v in window] == [0, 1, 2, 3]

    def test_walk_clamps_to_thread_end(self, inspector):
        _, ordered, tt = inspector
        steps = ordered.thread_replays["side"].steps
        window = tt.walk("side", start=steps - 2, count=100)
        assert len(window) == 2

    def test_pc_at(self, inspector):
        _, _, tt = inspector
        assert tt.pc_at("main", 0) == 0
        assert tt.pc_at("main", 1) == 1

    def test_steps_outside_the_thread_raise(self, inspector):
        """Negative steps do not wrap around; past-the-end steps raise."""
        _, ordered, tt = inspector
        steps = ordered.thread_replays["main"].steps
        for step in (-1, -5, steps, 99999):
            with pytest.raises(IndexError, match="out of range for thread main"):
                tt.step_view("main", step)
            with pytest.raises(IndexError):
                tt.pc_at("main", step)
        with pytest.raises(IndexError) as excinfo:
            tt.walk("main", start=steps, count=3)
        assert str(excinfo.value) == (
            "step %d out of range for thread main (0..%d)" % (steps, steps - 1)
        )
        assert tt.walk("main", start=steps, count=0) == []

    def test_step_view_access_is_the_first_row_of_the_step(self, inspector):
        """A lock step shows its synchronization read, like the seed scan."""
        program, ordered, tt = inspector
        replay = ordered.thread_replays["main"]
        lock_step = next(
            step
            for step, static_id in enumerate(replay.static_ids)
            if str(program.instruction(static_id)).startswith("lock")
        )
        view = tt.step_view("main", lock_step)
        assert view.access == ("load", program.data_address("m"), 0)


class TestProvenance:
    def test_history_of_address(self, inspector):
        program, _, tt = inspector
        history = tt.history_of_address(program.data_address("x"))
        kinds = [(thread, kind) for thread, _, kind, _ in history]
        assert ("main", "load") in kinds
        assert ("main", "store") in kinds
        assert ("side", "load") in kinds

    def test_last_write_before_own_store(self, inspector):
        program, _, tt = inspector
        # After main's store (step 3), the last writer is main itself.
        provenance = tt.last_write_before("main", 5, program.data_address("x"))
        assert provenance == ("main", 3, 15)

    def test_last_write_before_cross_thread(self, inspector):
        program, _, tt = inspector
        # side never writes x; its provenance points at main's store.
        provenance = tt.last_write_before("side", 99, program.data_address("x"))
        assert provenance[0] == "main"

    def test_no_writer(self, inspector):
        _, _, tt = inspector
        assert tt.last_write_before("main", 5, 0xDEAD) is None


class TestRaceDebugging:
    def test_inspect_racing_operations(self):
        """The paper's workflow: the report names two dynamic operations;
        the inspector shows the developer the exact state around each."""
        from repro.race.happens_before import find_races

        source = (
            ".data\nx: .word 10\n.thread a b\n    load r1, [x]\n"
            "    addi r1, r1, 1\n    store r1, [x]\n    halt\n"
        )
        program = assemble(source, name="dbg")
        _, log = record_run(program, scheduler=RandomScheduler(seed=3), seed=3)
        ordered = OrderedReplay(log, program)
        tt = TimeTravelInspector(ordered)
        instance = find_races(ordered)[0]
        for access in (instance.access_a, instance.access_b):
            view = tt.step_view(access.thread_name, access.thread_step)
            assert view.static_id == access.static_id
            if view.access is not None:
                _, address, value = view.access
                assert address == access.address
                assert value == access.value
