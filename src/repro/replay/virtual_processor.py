"""The virtual processor: replay a pair of racing regions in both orders.

Section 4.2 of the paper: *"we added to iDNA the ability to create a
virtual processor ... initialized with the live-in memory values and the
register states of the two threads.  We orchestrate the execution of the
two threads in the virtual processor to obey the ordering for the
instructions involved in the data race.  Whenever a memory location is
read for the first time in the virtual processor, the virtual processor
copies the value from the live-in memory."*

Orchestration is canonical and identical across the two replays except for
the racing pair itself:

1. **prefix** — run thread A from its region start up to (not including)
   its racing instruction, then thread B likewise;
2. **the racing pair** — execute the two racing instructions in the chosen
   order (original, then alternative on the second replay);
3. **suffix** — run thread A to its region end, then thread B.

A region ends at the next sequencer-point instruction (sync or syscall),
at ``halt``, or at the end of the code block.  Any live-out difference
between the two replays is therefore attributable to the race.

Replay failures (§4.2.1) surface as :class:`ReplayFailure`:

* a load of an address in neither the VP's written set nor the live-in
  image (*"an address not seen when the original log was taken"*),
* control transfer to a pc outside the thread's recorded footprint
  (*"it may jump to a piece of code that was not recorded"*) — unless
  ``allow_unrecorded_control_flow`` enables the paper's stated future-work
  extension of continuing through fresh paths,
* memory faults: null dereference or touching freed memory (the paper's
  Figure 2 replay "catches a null pointer violation"),
* a per-thread step limit (a reordering that wedges a spin loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..isa.instructions import Instruction
from ..isa.operands import Imm, Mem
from ..isa.program import CodeBlock, Program, StaticInstructionId
from ..vm import alu
from ..vm.registers import RegisterFile
from .errors import ReplayFailure, ReplayFailureKind


@dataclass
class VPConfig:
    """Knobs for virtual-processor replay.

    The two ``allow_*`` flags implement the paper's §4.2.1 future work
    ("we are looking at trying to log enough information to allow replay
    to continue in the face of both of these"): continuing through control
    flow the recording never saw, and reading addresses absent from the
    live-in image as zero-filled memory (the machine's semantics for
    never-written words).
    """

    step_limit: int = 20_000
    allow_unrecorded_control_flow: bool = False
    allow_unknown_addresses: bool = False


@dataclass
class VPThreadSpec:
    """Everything the VP needs to run one thread's region.

    ``racing_step_offset`` counts instructions from the region start to the
    racing instruction; ``pc_footprint`` is the set of instruction indices
    the thread executed anywhere in the recording.

    ``recorded_loads`` maps a step offset within the region (before the
    racing operation) to the load value the recording saw at that step.
    iDNA replays the pre-race prefix *from the log* ("we replay both
    threads for the region up until we get to the data race instruction"),
    so prefix control flow is exact by construction; only from the racing
    pair onward does execution run live against the virtual processor's
    copy-on-read memory.

    The optional ``racing_registers``/``racing_pc``/``prefix_accesses``/
    ``prefix_static_ids`` fields carry the *result* of that logged prefix,
    precomputed from the thread's recorded replay.  When present, the
    processor fast-forwards straight to the racing operation instead of
    re-executing the prefix instruction by instruction: because the prefix
    is replayed from the log in both cases, its register trajectory and
    memory effects (load seeds + stores, in program order) are exactly the
    recorded ones, so only the divergent window — the racing pair and the
    suffixes — needs live execution.
    """

    thread_name: str
    block: CodeBlock
    start_pc: int
    registers: Tuple[int, ...]
    racing_step_offset: int
    racing_static_id: StaticInstructionId
    pc_footprint: Set[int]
    recorded_loads: Dict[int, Tuple[int, int]] = None  # type: ignore[assignment]
    #: Registers just before the racing instruction (from the recording).
    racing_registers: Optional[Tuple[int, ...]] = None
    #: Pc of the racing instruction (from the recording).
    racing_pc: Optional[int] = None
    #: Recorded accesses of the pre-race prefix, in program order.
    prefix_accesses: Optional[Tuple] = None
    #: Static ids the prefix executed, in program order.
    prefix_static_ids: Optional[Tuple[StaticInstructionId, ...]] = None


@dataclass
class VPOutcome:
    """Live-out state of one both-regions replay.

    ``racing_values`` records the value each thread's racing operation
    observed (loads) or produced (stores) during this replay.  For the
    original-order replay these must equal the recorded values — a
    mismatch means the virtual processor's live-in approximation could
    not reconstruct the recorded reality, which the classifier treats as
    a replay failure.
    """

    registers: Dict[str, Tuple[int, ...]]
    dirty_memory: Dict[int, int]
    end_pcs: Dict[str, int]
    steps: Dict[str, int]
    executed: Dict[str, List[StaticInstructionId]]
    racing_values: Dict[str, Optional[int]] = None  # type: ignore[assignment]


def same_state(
    outcome_a: VPOutcome, outcome_b: VPOutcome, live_in: Dict[int, int]
) -> bool:
    """Compare two replays' live-outs (the paper's benign test).

    Memory is compared *effectively*: a write of the value already present
    in live-in memory leaves the state unchanged (this is what makes the
    paper's "redundant write" races come out benign).
    """
    if outcome_a.registers != outcome_b.registers:
        return False
    if outcome_a.end_pcs != outcome_b.end_pcs:
        return False
    touched = set(outcome_a.dirty_memory) | set(outcome_b.dirty_memory)
    for address in touched:
        base = live_in.get(address, 0)
        value_a = outcome_a.dirty_memory.get(address, base)
        value_b = outcome_b.dirty_memory.get(address, base)
        if value_a != value_b:
            return False
    return True


class _VPThread:
    """Mutable per-thread execution state inside the VP.

    ``follow_log`` marks a thread whose *entire* region replays from the
    recorded load values — the original-order replay, which by definition
    is the recording itself.  A live thread follows the log only up to its
    racing operation and then runs against the VP memory.
    """

    def __init__(self, spec: VPThreadSpec, follow_log: bool):
        self.spec = spec
        self.name = spec.thread_name
        self.block = spec.block
        self.pc = spec.start_pc
        self.registers = RegisterFile(spec.registers)
        self.steps = 0
        self.done = False
        self.follow_log = follow_log
        self.executed: List[StaticInstructionId] = []
        self.racing_value: Optional[int] = None

    def load_is_logged(self) -> bool:
        """Should the load at the current step come from the log?"""
        if self.spec.recorded_loads is None:
            return False
        if self.follow_log:
            return True
        return self.steps < self.spec.racing_step_offset

    def at_region_end(self) -> bool:
        """True when the next instruction closes the region."""
        if self.done:
            return True
        if self.pc >= len(self.block):
            return True
        instruction = self.block.instruction_at(self.pc)
        return instruction.spec.is_sequencer_point


class _VPMemory:
    """The virtual processor's memory: copied-in reads plus real writes.

    Values read in (from logs or the live-in image) only feed later reads;
    the *live-out* state the classifier compares consists solely of the
    addresses actually written (:meth:`dirty`), so two replays that merely
    read different subsets of memory do not spuriously differ.
    """

    __slots__ = ("values", "written", "store_count")

    def __init__(self) -> None:
        self.values: Dict[int, int] = {}
        self.written: Set[int] = set()
        self.store_count = 0

    def seed(self, address: int, value: int) -> None:
        """Record an observed (read) value without marking it written.

        A seed never overwrites a written value: the canonical phase
        schedule replays one thread's suffix after the other's, so a
        logged load can observe a *stale* recorded past after a store that
        canonically already happened — the store stays the truth.
        """
        if address not in self.written:
            self.values[address] = value

    def store(self, address: int, value: int) -> None:
        self.values[address] = value & ((1 << 64) - 1)
        self.written.add(address)
        self.store_count += 1

    def clone(self) -> "_VPMemory":
        """An independent copy (the cached prefix-seed image is cloned per
        run so phases 2/3 never mutate the shared seed)."""
        copy = _VPMemory.__new__(_VPMemory)
        copy.values = dict(self.values)
        copy.written = set(self.written)
        copy.store_count = self.store_count
        return copy

    def dirty(self) -> Dict[int, int]:
        return {address: self.values[address] for address in self.written}


class VirtualProcessor:
    """Copy-on-read execution of two racing regions under a forced order."""

    def __init__(
        self,
        program: Program,
        live_in_image: Dict[int, int],
        freed: Dict[int, int],
        spec_a: VPThreadSpec,
        spec_b: VPThreadSpec,
        config: Optional[VPConfig] = None,
    ):
        self.program = program
        self.live_in = live_in_image
        self.freed = freed
        self.spec_a = spec_a
        self.spec_b = spec_b
        self.config = config or VPConfig()
        #: One-slot holder for the seeded prefix memory image, shared with
        #: every :meth:`rebind` clone: the image depends only on the two
        #: specs' recorded prefix accesses, so processors replaying the
        #: same structural pair build it once and clone it per run.
        self._prefix_seed: List[Optional[_VPMemory]] = [None]

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def rebind(
        self, live_in_image: Dict[int, int], freed: Dict[int, int]
    ) -> "VirtualProcessor":
        """A processor for the same racing pair under a different live-in.

        Shares the specs, config and the prefix-seed holder (the seed is a
        pure function of the specs); only the live-in image and freed
        ranges differ.  The classifier rebinds the batch leader's
        processor for probe-divergence fallback members instead of
        rebuilding specs and re-deriving the prefix image.
        """
        clone = VirtualProcessor(
            self.program, live_in_image, freed, self.spec_a, self.spec_b, self.config
        )
        clone._prefix_seed = self._prefix_seed
        return clone

    def run(self, first: str, follow_log: bool = False) -> VPOutcome:
        """Replay both regions with thread ``first``'s racing op going first.

        With ``follow_log`` every load of both threads takes its recorded
        value — this is the *original* replay, exact by construction
        ("the first order ... matches the values seen during the original
        logged execution").  Without it, loads follow the log only up to
        each thread's racing operation and run live afterwards — the
        *alternative* replay, which may leave the recorded envelope and
        raise :class:`ReplayFailure` (§4.2.1).
        """
        thread_a = _VPThread(self.spec_a, follow_log)
        thread_b = _VPThread(self.spec_b, follow_log)

        # Phase 1: prefixes, in fixed thread order.  Both replays' prefixes
        # follow the log, so when the specs carry the precomputed prefix
        # state the threads fast-forward to their racing ops and only the
        # divergent window executes live.
        if (
            not follow_log
            and self.spec_a.racing_registers is not None
            and self.spec_b.racing_registers is not None
        ):
            memory = self._fast_forward_pair()
            for thread in (thread_a, thread_b):
                self._install_prefix(thread)
        else:
            memory = _VPMemory()
            for thread in (thread_a, thread_b):
                self._run_to_racing_op(thread, memory)

        # Phase 2: the racing pair, in the requested order.
        ordered = (
            (thread_a, thread_b) if first == thread_a.name else (thread_b, thread_a)
        )
        if first not in (thread_a.name, thread_b.name):
            raise ValueError("unknown first thread %r" % first)
        for thread in ordered:
            self._step(thread, memory)

        # Phase 3: suffixes to region end, in fixed thread order.
        for thread in (thread_a, thread_b):
            self._run_to_region_end(thread, memory)

        return VPOutcome(
            registers={
                thread_a.name: thread_a.registers.snapshot(),
                thread_b.name: thread_b.registers.snapshot(),
            },
            dirty_memory=memory.dirty(),
            end_pcs={thread_a.name: thread_a.pc, thread_b.name: thread_b.pc},
            steps={thread_a.name: thread_a.steps, thread_b.name: thread_b.steps},
            executed={
                thread_a.name: list(thread_a.executed),
                thread_b.name: list(thread_b.executed),
            },
            racing_values={
                thread_a.name: thread_a.racing_value,
                thread_b.name: thread_b.racing_value,
            },
        )

    # ------------------------------------------------------------------
    # Phases.
    # ------------------------------------------------------------------

    def _run_to_racing_op(self, thread: _VPThread, memory: "_VPMemory") -> None:
        while thread.steps < thread.spec.racing_step_offset:
            if thread.at_region_end():
                raise ReplayFailure(
                    ReplayFailureKind.DIVERGENCE,
                    "%s reached region end before its racing op" % thread.name,
                )
            self._step(thread, memory)
        static_here = thread.block.static_id(thread.pc) if thread.pc < len(thread.block) else None
        if static_here != thread.spec.racing_static_id:
            raise ReplayFailure(
                ReplayFailureKind.DIVERGENCE,
                "%s arrived at %s, expected racing op %s"
                % (thread.name, static_here, thread.spec.racing_static_id),
            )

    #: Steps a thread runs before spin-cycle detection engages (almost every
    #: replay finishes well under this, so the common case pays nothing).
    _SPIN_CHECK_AFTER = 64

    def _run_to_region_end(self, thread: _VPThread, memory: "_VPMemory") -> None:
        """Run ``thread`` to its region end, cutting off provable spins.

        A live thread that provably spins forever raises the exact
        STEP_LIMIT failure early instead of interpreting up to
        ``step_limit`` instructions first — same verdicts, far less work.
        """
        if thread.follow_log:
            # A log-following thread's loads are keyed by step number, so a
            # repeated (pc, registers) state does *not* imply repetition;
            # cycle detection is sound only for live threads.
            while not thread.at_region_end():
                self._step(thread, memory)
            return
        seen: Optional[Set[Tuple[int, Tuple[int, ...]]]] = None
        stores_seen = -1
        while not thread.at_region_end():
            if thread.steps >= self._SPIN_CHECK_AFTER:
                # Past the racing op a live thread reads only VP memory, and
                # values there change only on stores.  So if it revisits a
                # (pc, registers) state with no store in between, every
                # input to every subsequent instruction is unchanged: the
                # trajectory repeats verbatim, forever.  That replay *will*
                # exhaust the step limit — raise its exact failure now.
                if memory.store_count != stores_seen:
                    stores_seen = memory.store_count
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

    def _fast_forward_pair(self) -> "_VPMemory":
        """The seeded prefix memory, built once per spec pair and cloned.

        Matches running :meth:`_run_to_racing_op` on thread A then B step
        for step: each prefix's loads seed the VP memory with their
        recorded values and its stores write through, in program order
        (and a store blocks later stale seeds of the same address, which
        is why the A-then-B application order is part of the contract).
        The step-limit failures the interpreter would raise mid-prefix are
        reproduced up front, A first.  The built image depends only on the
        two specs, so it lives in the :attr:`_prefix_seed` holder shared
        across :meth:`rebind` clones and is cloned for each run — phases
        2/3 mutate the clone, never the seed.
        """
        for spec in (self.spec_a, self.spec_b):
            if spec.racing_step_offset > self.config.step_limit:
                raise ReplayFailure(
                    ReplayFailureKind.STEP_LIMIT,
                    "%s exceeded %d steps"
                    % (spec.thread_name, self.config.step_limit),
                )
        seed = self._prefix_seed[0]
        if seed is None:
            seed = _VPMemory()
            for spec in (self.spec_a, self.spec_b):
                for access in spec.prefix_accesses:
                    if access.is_write:
                        seed.store(access.address, access.value)
                    else:
                        seed.seed(access.address, access.value)
            self._prefix_seed[0] = seed
        return seed.clone()

    def _install_prefix(self, thread: _VPThread) -> None:
        """Land one thread on the recorded state before its racing op."""
        spec = thread.spec
        thread.pc = spec.racing_pc
        thread.registers = RegisterFile(spec.racing_registers)
        thread.steps = spec.racing_step_offset
        thread.executed = list(spec.prefix_static_ids)

    # ------------------------------------------------------------------
    # Copy-on-read memory.
    # ------------------------------------------------------------------

    def _check_address(self, address: int) -> None:
        if address == 0:
            raise ReplayFailure(ReplayFailureKind.MEMORY_FAULT, "null dereference")
        if address < 0:
            raise ReplayFailure(
                ReplayFailureKind.MEMORY_FAULT, "negative address %d" % address
            )
        for base, size in self.freed.items():
            if base <= address < base + size:
                raise ReplayFailure(
                    ReplayFailureKind.MEMORY_FAULT,
                    "use-after-free at %#x (freed allocation %#x)" % (address, base),
                )

    def _read(self, address: int, memory: "_VPMemory") -> int:
        self._check_address(address)
        values = memory.values
        if address in values:
            return values[address]
        # One probe per first read: the live-in image may be a lazy view
        # (one bisect per lookup) under a probe-recording tracker.
        value = self.live_in.get(address)
        if value is not None:
            values[address] = value
            return value
        if self.config.allow_unknown_addresses:
            # §4.2.1 extension: treat the address as zero-filled memory
            # (what the machine would return for a never-written word).
            memory.values[address] = 0
            return 0
        raise ReplayFailure(
            ReplayFailureKind.UNKNOWN_ADDRESS,
            "load of address %#x absent from the recorded live-in image" % address,
        )

    def _write(self, address: int, value: int, memory: "_VPMemory") -> None:
        self._check_address(address)
        memory.store(address, value)

    # ------------------------------------------------------------------
    # Instruction execution.
    # ------------------------------------------------------------------

    def _step(self, thread: _VPThread, memory: "_VPMemory") -> None:
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
        self, instruction: Instruction, thread: _VPThread, memory: "_VPMemory"
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
            if thread.load_is_logged():
                # Replay the load from the log (iDNA semantics: the whole
                # original-order replay, and every live replay's pre-race
                # prefix).  The recorded value also seeds the VP memory so
                # later live reads stay consistent with the recording.
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
