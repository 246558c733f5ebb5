"""The generic interpreters: the record, replay and VP stages' oracle.

The shipped machine (``ThreadState.step_fast``) and thread replayer
(``ThreadReplayer.run_fast``) dispatch on predecoded records, capture
accesses into columns and reconstruct register snapshots lazily; the
virtual processor's run loop (``VirtualProcessor._run``) dispatches on
the same records.  The interpreters here are the seed's operand-object
versions of all three: every step re-reads the instruction's opcode and
operand objects, every replayed access becomes a :class:`ReplayedAccess`,
and every region boundary and memory access takes an eager register
snapshot.  They reach the production classes by subclassing, so they
share only the machine's observer fan-out and lifecycle hooks, the
recorder, the logged-load lookup (``ThreadReplayer._replay_load``), the
region-ordered walk and the VP's phase schedule, memory image and
address checks with the paths they check:

* :class:`GenericMachine` / :func:`generic_record_run` — recording;
* :class:`GenericThreadReplayer` / :func:`generic_replay_thread` —
  isolated thread replay;
* :class:`GenericOrderedReplay` — the ordered walk and the access index
  fed from those eager replays, never from captured columns;
* :class:`GenericVirtualProcessor` — the classifier's both-orders
  region replay, stepping each instruction through ``_step``/``_execute``
  instead of the predecoded run loop; :func:`diff_virtual_processors`
  diffs the two on every instance of a replay.

Run as a script it records a program the way ``repro record`` does and
writes the log through ``save_log``, so the CLI's log bytes can be
diffed against it::

    PYTHONPATH=src python tests/oracles/generic_interpreters.py racy.asm \\
        --seed 11 -o oracle.rprb
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.analysis.access_index import AccessIndex
from repro.isa import assemble
from repro.isa.instructions import Instruction
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.program import StaticInstructionId
from repro.race.classifier import RaceClassifier
from repro.record import Recorder, save_log
from repro.record.log import ReplayLog
from repro.replay import (
    OrderedReplay,
    ReplayDivergence,
    ReplayFailure,
    ReplayFailureKind,
    ThreadReplayer,
    VirtualProcessor,
    VPConfig,
)
from repro.replay.events import HeapEvent, ReplayedAccess, ThreadReplay
from repro.replay.virtual_processor import _VPMemory, _VPThread
from repro.vm import alu
from repro.vm.errors import DeadlockError, MemoryFault, ScheduleError, StepLimitError
from repro.vm.machine import Machine, MachineResult
from repro.vm.registers import RegisterFile
from repro.vm.scheduler import RandomScheduler
from repro.vm.thread import StepOutcome, ThreadState, ThreadStatus


# ----------------------------------------------------------------------
# Record: the operand-object machine.
# ----------------------------------------------------------------------


class GenericThreadState(ThreadState):
    """Executes one instruction by decoding its operand objects."""

    def _mem_address(self, operand: Mem) -> int:
        base = self.registers.read(operand.base) if operand.base is not None else 0
        return base + operand.offset

    def _reg(self, operand: Reg) -> int:
        return self.registers.read(operand.index)

    def step(self, machine: Machine) -> StepOutcome:
        """Execute one instruction against ``machine``'s shared state."""
        if self.pc >= len(self.block):
            machine.end_thread(self, reason="fell-off-end")
            return StepOutcome.ENDED
        instruction = self.block.instruction_at(self.pc)
        try:
            return self._dispatch(machine, instruction)
        except MemoryFault as fault:
            machine.fault_thread(self, fault)
            return StepOutcome.ENDED

    def _dispatch(self, machine: Machine, instruction: Instruction) -> StepOutcome:
        opcode = instruction.opcode
        operands = instruction.operands
        static_id = self.block.static_id(self.pc)

        if opcode == "li":
            self.registers.write(operands[0].index, operands[1].value)
        elif opcode == "mov":
            self.registers.write(operands[0].index, self._reg(operands[1]))
        elif alu.is_binary_op(opcode):
            rhs = (
                operands[2].value
                if isinstance(operands[2], Imm)
                else self._reg(operands[2])
            )
            result = alu.binary_op(opcode, self._reg(operands[1]), rhs)
            self.registers.write(operands[0].index, result)
        elif opcode == "load":
            address = self._mem_address(operands[1])
            value = machine.memory.read(address)
            machine.notify_load(self, static_id, address, value, is_sync=False)
            self.registers.write(operands[0].index, value)
        elif opcode == "store":
            address = self._mem_address(operands[1])
            value = self._reg(operands[0])
            old = machine.memory.write(address, value)
            machine.notify_store(self, static_id, address, old, value, is_sync=False)
        elif opcode == "jmp":
            return self._retire_branch(machine, static_id, operands[0].value)
        elif opcode in ("beq", "bne", "blt", "bge"):
            taken = alu.branch_taken(opcode, self._reg(operands[0]), self._reg(operands[1]))
            target = operands[2].value if taken else self.pc + 1
            return self._retire_branch(machine, static_id, target)
        elif opcode in ("beqz", "bnez"):
            taken = alu.branch_taken(opcode, self._reg(operands[0]))
            target = operands[1].value if taken else self.pc + 1
            return self._retire_branch(machine, static_id, target)
        elif opcode == "lock":
            return self._do_lock(machine, static_id, operands[0])
        elif opcode == "unlock":
            self._do_unlock(machine, static_id, operands[0])
        elif opcode in ("atom_add", "atom_xchg"):
            self._do_atomic_rmw(machine, static_id, opcode, operands)
        elif opcode == "cas":
            self._do_cas(machine, static_id, operands)
        elif opcode == "fence":
            machine.emit_sequencer(self, kind="fence", static_id=static_id)
        elif instruction.spec.is_syscall:
            self._do_syscall(machine, static_id, opcode, operands)
        elif opcode == "nop":
            pass
        elif opcode == "halt":
            machine.retire(self, static_id)
            self.pc += 1
            self.steps += 1
            machine.end_thread(self, reason="halt")
            return StepOutcome.ENDED
        else:  # pragma: no cover - opcode table and dispatch kept in sync
            raise NotImplementedError("unhandled opcode %r" % opcode)

        return self._retire_branch(machine, static_id, self.pc + 1)

    def _retire_branch(
        self, machine: Machine, static_id: StaticInstructionId, next_pc: int
    ) -> StepOutcome:
        machine.retire(self, static_id)
        self.pc = next_pc
        self.steps += 1
        return StepOutcome.RETIRED

    def _do_lock(
        self, machine: Machine, static_id: StaticInstructionId, operand: Mem
    ) -> StepOutcome:
        address = self._mem_address(operand)
        machine.memory.read(address)  # fault check (e.g. lock in freed memory)
        if not machine.locks.try_acquire(self.tid, address):
            machine.block_thread(self, address)
            return StepOutcome.BLOCKED
        machine.emit_sequencer(self, kind="lock", static_id=static_id)
        machine.notify_load(self, static_id, address, 0, is_sync=True)
        old = machine.memory.write(address, 1)
        machine.notify_store(self, static_id, address, old, 1, is_sync=True)
        return self._retire_branch(machine, static_id, self.pc + 1)

    def _do_unlock(
        self, machine: Machine, static_id: StaticInstructionId, operand: Mem
    ) -> None:
        address = self._mem_address(operand)
        machine.emit_sequencer(self, kind="unlock", static_id=static_id)
        to_wake = machine.locks.release(self.tid, address)
        machine.notify_load(self, static_id, address, 1, is_sync=True)
        old = machine.memory.write(address, 0)
        machine.notify_store(self, static_id, address, old, 0, is_sync=True)
        if to_wake is not None:
            machine.wake_thread(to_wake)

    def _do_atomic_rmw(
        self, machine: Machine, static_id: StaticInstructionId, opcode: str, operands
    ) -> None:
        address = self._mem_address(operands[1])
        machine.emit_sequencer(self, kind=opcode, static_id=static_id)
        old = machine.memory.read(address)
        machine.notify_load(self, static_id, address, old, is_sync=True)
        operand_value = self._reg(operands[2])
        new = (
            alu.binary_op("add", old, operand_value)
            if opcode == "atom_add"
            else operand_value
        )
        machine.memory.write(address, new)
        machine.notify_store(self, static_id, address, old, new, is_sync=True)
        self.registers.write(operands[0].index, old)

    def _do_cas(
        self, machine: Machine, static_id: StaticInstructionId, operands
    ) -> None:
        address = self._mem_address(operands[1])
        machine.emit_sequencer(self, kind="cas", static_id=static_id)
        old = machine.memory.read(address)
        machine.notify_load(self, static_id, address, old, is_sync=True)
        expected = self._reg(operands[2])
        if old == expected:
            new = self._reg(operands[3])
            machine.memory.write(address, new)
            machine.notify_store(self, static_id, address, old, new, is_sync=True)
        self.registers.write(operands[0].index, old)

    def _do_syscall(
        self, machine: Machine, static_id: StaticInstructionId, opcode: str, operands
    ) -> None:
        machine.emit_sequencer(self, kind=opcode, static_id=static_id)
        arg: Optional[int] = None
        dest: Optional[int] = None
        if opcode in ("sys_getpid", "sys_time"):
            dest = operands[0].index
        elif opcode == "sys_rand":
            dest = operands[0].index
            arg = operands[1].value
        elif opcode == "sys_alloc":
            dest = operands[0].index
            arg = self._reg(operands[1])
        elif opcode in ("sys_free", "sys_print"):
            arg = self._reg(operands[0])
        result = machine.syscalls.execute(
            opcode, self.tid, self.name, machine.global_step, arg
        )
        machine.notify_syscall(self, static_id, opcode, result, arg)
        if dest is not None:
            self.registers.write(dest, result)
        if opcode == "sys_yield":
            machine.note_yield()


class GenericMachine(Machine):
    """Rebuilds the runnable list every iteration and steps threads
    through :meth:`GenericThreadState.step`."""

    def __init__(self, program, **kwargs):
        super().__init__(program, **kwargs)
        self.threads = [
            GenericThreadState(thread.tid, thread.name, thread.block)
            for thread in self.threads
        ]

    def _run_loop(self) -> None:
        iterations = 0
        iteration_limit = self.max_steps * 2
        while True:
            runnable = [
                thread.tid
                for thread in self.threads
                if thread.status is ThreadStatus.RUNNABLE
            ]
            if not runnable:
                if any(
                    thread.status is ThreadStatus.BLOCKED for thread in self.threads
                ):
                    raise DeadlockError(
                        "all live threads are blocked: %s"
                        % {
                            thread.name: thread.blocked_on
                            for thread in self.threads
                            if thread.status is ThreadStatus.BLOCKED
                        }
                    )
                break
            candidates = runnable
            if self._yielded_tid is not None:
                others = [tid for tid in runnable if tid != self._yielded_tid]
                if others:
                    candidates = others
                self._yielded_tid = None
            tid = self.scheduler.pick(candidates, self._last_tid, self.global_step)
            if tid not in candidates:
                raise ScheduleError("scheduler picked non-runnable thread %d" % tid)
            thread = self.threads[tid]
            self._current_tid = tid
            outcome = thread.step(self)
            self._current_tid = None
            if outcome is StepOutcome.RETIRED:
                self._last_tid = tid
            elif outcome is StepOutcome.BLOCKED:
                self._last_tid = None
            if self.global_step > self.max_steps:
                raise StepLimitError(
                    "exceeded max_steps=%d (runaway schedule?)" % self.max_steps
                )
            iterations += 1
            if iterations > iteration_limit:
                raise StepLimitError("exceeded iteration limit (livelock?)")


def generic_record_run(
    program,
    scheduler=None,
    seed: int = 0,
    max_steps: int = 200_000,
    capture_global_order: bool = True,
    extra_observers=(),
):
    """:func:`repro.record.record_run` on a :class:`GenericMachine`;
    returns ``(MachineResult, ReplayLog)``."""
    recorder = Recorder(
        program,
        seed=seed,
        scheduler=type(scheduler).__name__ if scheduler else "RoundRobinScheduler",
        capture_global_order=capture_global_order,
    )
    machine = GenericMachine(
        program,
        scheduler=scheduler,
        seed=seed,
        max_steps=max_steps,
        observers=[recorder, *extra_observers],
    )
    result: MachineResult = machine.run()
    return result, recorder.finish()


# ----------------------------------------------------------------------
# Replay: the eager operand-object thread replayer.
# ----------------------------------------------------------------------


class GenericThreadReplayer(ThreadReplayer):
    """Replays one thread eagerly: one :class:`ReplayedAccess` per access
    and a register snapshot at every region boundary and memory access."""

    def run(self) -> ThreadReplay:
        """Replay every recorded step; returns the full :class:`ThreadReplay`."""
        thread_log = self.thread_log
        registers = RegisterFile(thread_log.initial_registers)
        local_view: Dict[int, int] = {}
        replay = ThreadReplay(
            name=self.thread_name, tid=thread_log.tid, steps=thread_log.steps
        )
        snapshot_steps: Set[int] = {
            sequencer.thread_step + 1 for sequencer in thread_log.sequencers
        }
        boundary_steps: Set[int] = {
            sequencer.thread_step
            for sequencer in thread_log.sequencers
            if sequencer.thread_step >= 0
        }
        pc = 0
        for step in range(thread_log.steps):
            if step in snapshot_steps:
                replay.region_start_registers[step] = registers.snapshot()
                replay.region_start_pcs[step] = pc
            if step in boundary_steps:
                # Live-out of the region this boundary closes: the state
                # just before the sequencer-point instruction executes.
                replay.region_end_registers[step] = registers.snapshot()
                replay.region_end_pcs[step] = pc
            if pc >= len(self.block):
                raise ReplayDivergence(
                    "thread %r ran past the end of block %r at step %d"
                    % (self.thread_name, self.block.name, step)
                )
            instruction = self.block.instruction_at(pc)
            replay.pcs.append(pc)
            replay.static_ids.append(self.block.static_id(pc))
            if instruction.spec.touches_memory:
                replay.registers_at_step[step] = registers.snapshot()
            pc = self._execute(instruction, pc, step, registers, local_view, replay)
        replay.final_registers = registers.snapshot()
        replay.final_pc = pc
        if thread_log.steps in boundary_steps:
            # Thread-end sequencers sit one past the last retired step.
            replay.region_end_registers[thread_log.steps] = registers.snapshot()
            replay.region_end_pcs[thread_log.steps] = pc
        return replay

    def _mem_address(self, operand: Mem, registers: RegisterFile) -> int:
        base = registers.read(operand.base) if operand.base is not None else 0
        return base + operand.offset

    def _execute(
        self,
        instruction: Instruction,
        pc: int,
        step: int,
        registers: RegisterFile,
        local_view: Dict[int, int],
        replay: ThreadReplay,
    ) -> int:
        opcode = instruction.opcode
        operands = instruction.operands
        static_id = self.block.static_id(pc)

        def reg(operand) -> int:
            return registers.read(operand.index)

        def note_access(address: int, value: int, is_write: bool, is_sync: bool) -> None:
            replay.accesses.append(
                ReplayedAccess(
                    thread_step=step,
                    static_id=static_id,
                    address=address,
                    value=value,
                    is_write=is_write,
                    is_sync=is_sync,
                )
            )

        if opcode == "li":
            registers.write(operands[0].index, operands[1].value)
        elif opcode == "mov":
            registers.write(operands[0].index, reg(operands[1]))
        elif alu.is_binary_op(opcode):
            rhs = (
                operands[2].value
                if isinstance(operands[2], Imm)
                else reg(operands[2])
            )
            registers.write(
                operands[0].index, alu.binary_op(opcode, reg(operands[1]), rhs)
            )
        elif opcode == "load":
            address = self._mem_address(operands[1], registers)
            value = self._replay_load(step, address, local_view, sync=False)
            note_access(address, value, is_write=False, is_sync=False)
            registers.write(operands[0].index, value)
        elif opcode == "store":
            address = self._mem_address(operands[1], registers)
            value = reg(operands[0])
            local_view[address] = value
            note_access(address, value, is_write=True, is_sync=False)
        elif opcode == "jmp":
            return operands[0].value
        elif opcode in ("beq", "bne", "blt", "bge"):
            if alu.branch_taken(opcode, reg(operands[0]), reg(operands[1])):
                return operands[2].value
        elif opcode in ("beqz", "bnez"):
            if alu.branch_taken(opcode, reg(operands[0])):
                return operands[1].value
        elif opcode == "lock":
            address = self._mem_address(operands[0], registers)
            value = self._replay_load(step, address, local_view, sync=True)
            note_access(address, value, is_write=False, is_sync=True)
            local_view[address] = 1
            note_access(address, 1, is_write=True, is_sync=True)
        elif opcode == "unlock":
            address = self._mem_address(operands[0], registers)
            value = self._replay_load(step, address, local_view, sync=True)
            note_access(address, value, is_write=False, is_sync=True)
            local_view[address] = 0
            note_access(address, 0, is_write=True, is_sync=True)
        elif opcode in ("atom_add", "atom_xchg"):
            address = self._mem_address(operands[1], registers)
            old = self._replay_load(step, address, local_view, sync=True)
            note_access(address, old, is_write=False, is_sync=True)
            operand_value = reg(operands[2])
            new = (
                alu.binary_op("add", old, operand_value)
                if opcode == "atom_add"
                else operand_value
            )
            local_view[address] = new
            note_access(address, new, is_write=True, is_sync=True)
            registers.write(operands[0].index, old)
        elif opcode == "cas":
            address = self._mem_address(operands[1], registers)
            old = self._replay_load(step, address, local_view, sync=True)
            note_access(address, old, is_write=False, is_sync=True)
            if old == reg(operands[2]):
                new = reg(operands[3])
                local_view[address] = new
                note_access(address, new, is_write=True, is_sync=True)
            registers.write(operands[0].index, old)
        elif instruction.spec.is_syscall:
            self._replay_syscall(opcode, operands, step, registers, replay)
        elif opcode in ("nop", "fence", "halt"):
            pass
        else:  # pragma: no cover - dispatch kept in sync with the opcode table
            raise NotImplementedError("unhandled opcode %r" % opcode)
        return pc + 1

    def _replay_syscall(
        self, opcode: str, operands, step: int, registers: RegisterFile, replay
    ) -> None:
        record = self.thread_log.syscall_at(step)
        if record is None or record.name != opcode:
            raise ReplayDivergence(
                "thread %r step %d: expected logged syscall %r, log has %r"
                % (self.thread_name, step, opcode, record and record.name)
            )
        result = record.result
        if opcode in ("sys_getpid", "sys_time", "sys_rand"):
            registers.write(operands[0].index, result)
        elif opcode == "sys_alloc":
            size = registers.read(operands[1].index)
            replay.heap_events.append(
                HeapEvent(thread_step=step, kind="alloc", base=result, size=size)
            )
            registers.write(operands[0].index, result)
        elif opcode == "sys_free":
            base = registers.read(operands[0].index)
            replay.heap_events.append(
                HeapEvent(thread_step=step, kind="free", base=base, size=0)
            )
        elif opcode == "sys_print":
            replay.output.append((self.thread_name, result))
        elif opcode == "sys_yield":
            pass
        else:  # pragma: no cover
            raise NotImplementedError("unhandled syscall %r" % opcode)


def generic_replay_thread(program, log: ReplayLog, thread_name: str) -> ThreadReplay:
    """Eagerly replay one thread through :class:`GenericThreadReplayer`."""
    return GenericThreadReplayer(program, log, thread_name).run()


class _ReplayWalkSource:
    """Feeds the ordered walk from a materialized thread replay."""

    __slots__ = ("_replay",)

    def __init__(self, replay: ThreadReplay):
        self._replay = replay

    def writes_in_steps(self, start_step: int, end_step: int):
        return [
            (access.address, access.value)
            for access in self._replay.accesses_in_steps(start_step, end_step)
            if access.is_write
        ]

    def writes_at(self, step: int):
        return [
            (access.address, access.value)
            for access in self._replay.writes_at_step(step)
        ]

    def heap_events_at(self, step: int):
        return [
            (event.kind, event.base, event.size)
            for event in self._replay.heap_events_at_step(step)
        ]


class GenericAccessIndex(AccessIndex):
    """The access index filled from materialized replay objects."""

    def __init__(self, ordered: OrderedReplay):
        self._build(
            regions=[
                region for region in ordered.all_regions() if not region.is_empty
            ],
            columns_for=ordered.thread_replays.__getitem__,
            perf=None,
        )

    def _fill_region_from_columns(self, ordinal, region, replay, seen) -> None:
        """Append one region's rows from an eager :class:`ThreadReplay`
        (``replay`` stands where the production index takes columns)."""
        for access in replay.accesses_in_steps(region.start_step, region.end_step):
            if access.is_sync:
                continue
            self._objects.append(access)
            self._static_id_col.append(access.static_id)
            self.steps.append(access.thread_step)
            self.addresses.append(access.address)
            self.values.append(access.value)
            self.write_flags.append(1 if access.is_write else 0)
            self.region_of.append(ordinal)
            if access.address not in seen:
                seen[access.address] = None
                self.postings.setdefault(access.address, []).append(ordinal)


class GenericOrderedReplay(OrderedReplay):
    """The ordered walk and the access index over eager generic replays;
    captured columns in the log are ignored."""

    def _replay_thread(self, name: str) -> ThreadReplay:
        return generic_replay_thread(self.program, self.log, name)

    def _walk_source(self, name: str):
        return _ReplayWalkSource(self.thread_replays[name]), False

    def access_index(self) -> AccessIndex:
        if self._access_index is None:
            self._access_index = GenericAccessIndex(self)
        return self._access_index


# ----------------------------------------------------------------------
# Classify: the operand-object virtual processor.
# ----------------------------------------------------------------------


def vp_load_is_logged(thread: _VPThread) -> bool:
    """Should the load at the thread's current step come from the log?"""
    if thread.spec.recorded_loads is None:
        return False
    if thread.follow_log:
        return True
    return thread.steps < thread.spec.racing_step_offset


def vp_at_region_end(thread: _VPThread) -> bool:
    """True when the thread's next instruction closes its region."""
    if thread.done:
        return True
    if thread.pc >= len(thread.block):
        return True
    instruction = thread.block.instruction_at(thread.pc)
    return instruction.spec.is_sequencer_point


class GenericVirtualProcessor(VirtualProcessor):
    """Interprets every VP step by decoding its operand objects.

    It shares the phase schedule, the prefix fast-forward, the memory
    image and the address checks with :class:`VirtualProcessor`, and
    replaces its one predecoded run loop with the per-step
    ``_step``/``_execute`` pair.
    """

    #: Stores executed so far (the spin cutoff restarts on each).
    stores = 0

    def _run(self, thread: _VPThread, memory: _VPMemory, until) -> None:
        if until is None:
            self._run_to_region_end(thread, memory)
        elif until > thread.spec.racing_step_offset:
            self._step(thread, memory)  # the racing step
        else:
            # The prefix; ``run`` fails a region that ends short of it.
            while thread.steps < until and not vp_at_region_end(thread):
                self._step(thread, memory)

    def _run_to_region_end(self, thread: _VPThread, memory: _VPMemory) -> None:
        if thread.follow_log:
            # A log-following thread's loads are keyed by step number, so a
            # repeated (pc, registers) state does *not* imply repetition;
            # cycle detection is sound only for live threads.
            while not vp_at_region_end(thread):
                self._step(thread, memory)
            return
        seen: Optional[Set] = None
        stores_seen = -1
        while not vp_at_region_end(thread):
            if thread.steps >= self._SPIN_CHECK_AFTER:
                if self.stores != stores_seen:
                    stores_seen = self.stores
                    seen = set()
                state = (thread.pc, thread.registers.snapshot())
                if state in seen:
                    raise ReplayFailure(
                        ReplayFailureKind.STEP_LIMIT,
                        "%s exceeded %d steps"
                        % (thread.name, self.config.step_limit),
                    )
                seen.add(state)
            self._step(thread, memory)

    def _read(self, address: int, memory: _VPMemory) -> int:
        self._check_address(address)
        values = memory.values
        if address in values:
            return values[address]
        value = self.live_in.get(address)
        if value is not None:
            values[address] = value
            return value
        if self.config.allow_unknown_addresses:
            memory.values[address] = 0
            return 0
        raise ReplayFailure(
            ReplayFailureKind.UNKNOWN_ADDRESS,
            "load of address %#x absent from the recorded live-in image" % address,
        )

    def _write(self, address: int, value: int, memory: _VPMemory) -> None:
        self._check_address(address)
        memory.store(address, value)

    def _step(self, thread: _VPThread, memory: _VPMemory) -> None:
        if thread.done:
            return
        if thread.steps >= self.config.step_limit:
            raise ReplayFailure(
                ReplayFailureKind.STEP_LIMIT,
                "%s exceeded %d steps" % (thread.name, self.config.step_limit),
            )
        pc = thread.pc
        if pc >= len(thread.block) or pc < 0:
            thread.done = True
            return
        if (
            pc not in thread.spec.pc_footprint
            and not thread.follow_log
            and not self.config.allow_unrecorded_control_flow
        ):
            raise ReplayFailure(
                ReplayFailureKind.UNRECORDED_CONTROL_FLOW,
                "%s reached pc %d of block %r, never executed in the recording"
                % (thread.name, pc, thread.block.name),
            )
        instruction = thread.block.instruction_at(pc)
        if instruction.spec.is_sequencer_point:
            # Region boundary: never execute the boundary instruction.
            thread.done = True
            return
        thread.executed.append(thread.block.static_id(pc))
        thread.pc = self._execute(instruction, thread, memory)
        thread.steps += 1

    def _execute(
        self, instruction: Instruction, thread: _VPThread, memory: _VPMemory
    ) -> int:
        opcode = instruction.opcode
        operands = instruction.operands
        registers = thread.registers
        pc = thread.pc

        def reg(operand) -> int:
            return registers.read(operand.index)

        def mem_address(operand: Mem) -> int:
            base = registers.read(operand.base) if operand.base is not None else 0
            return base + operand.offset

        if opcode == "li":
            registers.write(operands[0].index, operands[1].value)
        elif opcode == "mov":
            registers.write(operands[0].index, reg(operands[1]))
        elif alu.is_binary_op(opcode):
            rhs = (
                operands[2].value
                if isinstance(operands[2], Imm)
                else reg(operands[2])
            )
            registers.write(
                operands[0].index, alu.binary_op(opcode, reg(operands[1]), rhs)
            )
        elif opcode == "load":
            address = mem_address(operands[1])
            if vp_load_is_logged(thread):
                recorded = thread.spec.recorded_loads.get(thread.steps)
                if recorded is None or recorded[0] != address:
                    raise ReplayFailure(
                        ReplayFailureKind.DIVERGENCE,
                        "%s logged load at step %d has no matching log record"
                        % (thread.name, thread.steps),
                    )
                value = recorded[1]
                memory.seed(address, value)
            else:
                value = self._read(address, memory)
            if thread.steps == thread.spec.racing_step_offset:
                thread.racing_value = value
            registers.write(operands[0].index, value)
        elif opcode == "store":
            value = reg(operands[0])
            if thread.steps == thread.spec.racing_step_offset:
                thread.racing_value = value
            address = mem_address(operands[1])
            if thread.follow_log:
                # The recording proves this store was legal; skip checks.
                memory.store(address, value)
            else:
                self._write(address, value, memory)
            self.stores += 1
        elif opcode == "jmp":
            return operands[0].value
        elif opcode in ("beq", "bne", "blt", "bge"):
            if alu.branch_taken(opcode, reg(operands[0]), reg(operands[1])):
                return operands[2].value
        elif opcode in ("beqz", "bnez"):
            if alu.branch_taken(opcode, reg(operands[0])):
                return operands[1].value
        elif opcode == "halt":
            thread.done = True
            return pc
        elif opcode == "nop":
            pass
        else:  # pragma: no cover - sequencer points are intercepted in _step
            raise ReplayFailure(
                ReplayFailureKind.DIVERGENCE,
                "sequencer-point opcode %r reached _execute" % opcode,
            )
        return pc + 1


def vp_result(processor: VirtualProcessor, first: str, follow_log: bool):
    """One VP run as comparable data: every :class:`VPOutcome` field, or
    the failure's ``(kind, detail)``."""
    try:
        outcome = processor.run(first=first, follow_log=follow_log)
    except ReplayFailure as failure:
        return ("failure", failure.kind, failure.detail)
    return ("outcome", vars(outcome))


#: VP settings the processors are diffed under: each ``allow_*`` flag off
#: and on, plus step limits below and just above the spin-check threshold.
VP_DIFF_CONFIGS = tuple(
    VPConfig(
        allow_unrecorded_control_flow=allow_control_flow,
        allow_unknown_addresses=allow_unknown,
    )
    for allow_control_flow in (False, True)
    for allow_unknown in (False, True)
) + (VPConfig(step_limit=12), VPConfig(step_limit=70))


def diff_virtual_processors(
    ordered: OrderedReplay,
    instances,
    configs=VP_DIFF_CONFIGS,
    interpret_prefixes: bool = True,
) -> List[str]:
    """Run every instance through :class:`VirtualProcessor` and
    :class:`GenericVirtualProcessor` and list each disagreement.

    Each canonicalized instance replays in both orders, log-following
    and live, under every config in ``configs``, with the classifier's
    specs (live replays fast-forward the prefix) and, when
    ``interpret_prefixes``, with the prefix state stripped so the live
    replays interpret every prefix step too.
    """
    classifier = RaceClassifier(ordered)
    diffs: List[str] = []
    for instance in instances:
        instance = classifier._canonicalize(instance)
        live_in, freed = ordered.pair_snapshot(instance.region_a, instance.region_b)
        specs = (
            classifier._thread_spec(instance.access_a, instance.region_a),
            classifier._thread_spec(instance.access_b, instance.region_b),
        )
        stripped = tuple(
            replace(
                spec,
                racing_registers=None,
                racing_pc=None,
                prefix_accesses=None,
                prefix_static_ids=None,
            )
            for spec in specs
        )
        variants = (specs, stripped) if interpret_prefixes else (specs,)
        for config in configs:
            for spec_a, spec_b in variants:
                fast = VirtualProcessor(
                    ordered.program, live_in, freed, spec_a, spec_b, config
                )
                generic = GenericVirtualProcessor(
                    ordered.program, live_in, freed, spec_a, spec_b, config
                )
                # Following the log never fast-forwards, so the stripped
                # specs replay it exactly as the classifier's do.
                follows = (True, False) if spec_a is specs[0] else (False,)
                for first in (spec_a.thread_name, spec_b.thread_name):
                    for follow_log in follows:
                        expected = vp_result(generic, first, follow_log)
                        got = vp_result(fast, first, follow_log)
                        if got != expected:
                            diffs.append(
                                "%s first=%s follow_log=%s %s prefix=%s: %r != %r"
                                % (
                                    instance.static_key,
                                    first,
                                    follow_log,
                                    config,
                                    "recorded"
                                    if spec_a.racing_registers is not None
                                    else "interpreted",
                                    got,
                                    expected,
                                )
                            )
    return diffs


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="generic_interpreters.py",
        description="record a program through the generic machine, like "
        "`repro record` with the random scheduler",
    )
    parser.add_argument("program", type=Path, help="assembly source file")
    parser.add_argument("-o", "--output", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--switch-probability", type=float, default=0.3)
    args = parser.parse_args(argv)
    program = assemble(args.program.read_text(), name=args.program.stem)
    _, log = generic_record_run(
        program,
        scheduler=RandomScheduler(
            seed=args.seed, switch_probability=args.switch_probability
        ),
        seed=args.seed,
    )
    save_log(log, args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
