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

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..isa.operands import WORD_MASK
from ..isa.predecode import (
    K_ALU_RI,
    K_ALU_RR,
    K_BRANCH1,
    K_BRANCH2,
    K_HALT,
    K_JMP,
    K_LI,
    K_LOAD,
    K_MOV,
    K_STORE,
    SEQUENCER_KINDS,
)
from ..isa.program import CodeBlock, Program, StaticInstructionId
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
    ``at_racing_op`` starts the thread on the recorded state just before
    its racing operation (the prefix fast-forward) instead of at its
    region start.

    Like :class:`~repro.vm.thread.ThreadState`, the thread binds its
    block's predecoded dispatch records and an alias of its register
    value list, so the run loop reaches both without attribute hops.
    """

    def __init__(self, spec: VPThreadSpec, follow_log: bool, at_racing_op: bool):
        self.spec = spec
        self.name = spec.thread_name
        self.block = spec.block
        self.records: list = spec.block.decoded()
        if at_racing_op:
            self.pc = spec.racing_pc
            self.registers = RegisterFile(spec.racing_registers)
            self.steps = spec.racing_step_offset
            self.executed: List[StaticInstructionId] = list(spec.prefix_static_ids)
        else:
            self.pc = spec.start_pc
            self.registers = RegisterFile(spec.registers)
            self.steps = 0
            self.executed = []
        self.regs: list = self.registers._values
        self.done = False
        self.follow_log = follow_log
        self.racing_value: Optional[int] = None


class _VPMemory:
    """The virtual processor's memory: copied-in reads plus real writes.

    Values read in (from logs or the live-in image) only feed later reads;
    the *live-out* state the classifier compares consists solely of the
    addresses actually written (:meth:`dirty`), so two replays that merely
    read different subsets of memory do not spuriously differ.
    """

    __slots__ = ("values", "written")

    def __init__(self) -> None:
        self.values: Dict[int, int] = {}
        self.written: Set[int] = set()

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
        self.values[address] = value & WORD_MASK
        self.written.add(address)

    def clone(self) -> "_VPMemory":
        """An independent copy (the cached prefix-seed image is cloned per
        run so phases 2/3 never mutate the shared seed)."""
        copy = _VPMemory.__new__(_VPMemory)
        copy.values = dict(self.values)
        copy.written = set(self.written)
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
        clone = type(self)(
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
        if first not in (self.spec_a.thread_name, self.spec_b.thread_name):
            raise ValueError("unknown first thread %r" % first)
        # Phase 1: prefixes, in fixed thread order.  Both replays' prefixes
        # follow the log, so when the specs carry the precomputed prefix
        # state the threads fast-forward to their racing ops and only the
        # divergent window executes live.
        fast_forward = (
            not follow_log
            and self.spec_a.racing_registers is not None
            and self.spec_b.racing_registers is not None
        )
        thread_a = _VPThread(self.spec_a, follow_log, fast_forward)
        thread_b = _VPThread(self.spec_b, follow_log, fast_forward)
        if fast_forward:
            memory = self._fast_forward_pair()
        else:
            memory = _VPMemory()
            for thread in (thread_a, thread_b):
                self._run_to_racing_op(thread, memory)

        # Phase 2: the racing pair, in the requested order.
        ordered = (
            (thread_a, thread_b) if first == thread_a.name else (thread_b, thread_a)
        )
        for thread in ordered:
            self._run(thread, memory, thread.steps + 1)

        # Phase 3: suffixes to region end, in fixed thread order.
        for thread in (thread_a, thread_b):
            self._run(thread, memory, None)

        return VPOutcome(
            registers={
                thread_a.name: tuple(thread_a.regs),
                thread_b.name: tuple(thread_b.regs),
            },
            dirty_memory=memory.dirty(),
            end_pcs={thread_a.name: thread_a.pc, thread_b.name: thread_b.pc},
            steps={thread_a.name: thread_a.steps, thread_b.name: thread_b.steps},
            executed={
                thread_a.name: thread_a.executed,
                thread_b.name: thread_b.executed,
            },
            racing_values={
                thread_a.name: thread_a.racing_value,
                thread_b.name: thread_b.racing_value,
            },
        )

    # ------------------------------------------------------------------
    # Phases.
    # ------------------------------------------------------------------

    def _run_to_racing_op(self, thread: _VPThread, memory: _VPMemory) -> None:
        self._run(thread, memory, thread.spec.racing_step_offset)
        if thread.steps < thread.spec.racing_step_offset:
            raise ReplayFailure(
                ReplayFailureKind.DIVERGENCE,
                "%s reached region end before its racing op" % thread.name,
            )
        static_here = (
            thread.block.static_id(thread.pc)
            if thread.pc < len(thread.block)
            else None
        )
        if static_here != thread.spec.racing_static_id:
            raise ReplayFailure(
                ReplayFailureKind.DIVERGENCE,
                "%s arrived at %s, expected racing op %s"
                % (thread.name, static_here, thread.spec.racing_static_id),
            )

    def _fast_forward_pair(self) -> _VPMemory:
        """The seeded prefix memory, built once per spec pair and cloned.

        Matches :meth:`_run_to_racing_op` on thread A then B step for
        step: each prefix's loads seed the VP memory with their recorded
        values and its stores write through, in program order (and a store
        blocks later stale seeds of the same address, which is why the
        A-then-B application order is part of the contract).  The
        step-limit failures the interpreter would raise mid-prefix are
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

    # ------------------------------------------------------------------
    # Execution.
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

    #: Steps a thread runs before spin-cycle detection engages (almost every
    #: replay finishes well under this, so the common case pays nothing).
    _SPIN_CHECK_AFTER = 64

    def _run(
        self, thread: _VPThread, memory: _VPMemory, until: Optional[int]
    ) -> None:
        """Run ``thread`` until it has retired ``until`` steps in total, or
        to its region end when ``until`` is None.  Each phase is one call:
        the prefix runs to the racing step offset, the racing step one
        step further, the suffix to the region end.

        A region ends before a sequencer point (which the VP never
        executes), at the end of the block, or after a ``halt``; the loop
        stops there in every phase.  A live thread running to its region
        end that provably spins forever raises the exact STEP_LIMIT
        failure early instead of interpreting up to ``step_limit``
        instructions first — same verdicts, far less work.

        Dispatch is inlined on the predecoded records, as in
        :meth:`~repro.vm.thread.ThreadState.step_fast`; the operand-object
        ``GenericVirtualProcessor`` in ``tests/oracles/`` is its reference.
        """
        pc = thread.pc
        if thread.done or pc < 0:
            # Branch targets are label indices (never negative), so only
            # a spec's start pc can be out of range below.
            thread.done = True
            return
        spec = thread.spec
        name = thread.name
        config = self.config
        step_limit = config.step_limit
        records = thread.records
        end = len(records)
        regs = thread.regs
        steps = thread.steps
        executed = thread.executed.append
        follow_log = thread.follow_log
        racing = spec.racing_step_offset
        footprint = (
            None
            if follow_log or config.allow_unrecorded_control_flow
            else spec.pc_footprint
        )
        recorded_loads = spec.recorded_loads
        if recorded_loads is None:
            logged_until = -1
        elif follow_log:
            logged_until = step_limit
        else:
            logged_until = racing
        spin = until is None and not follow_log
        if until is None:
            until = step_limit + 1
        # Below ``slow_from`` a step needs neither the spin check nor the
        # step-limit check.
        slow_from = min(self._SPIN_CHECK_AFTER, step_limit) if spin else step_limit
        seen: Set[Tuple[int, Tuple[int, ...]]] = set()
        values = memory.values
        written = memory.written
        live_in_get = self.live_in.get
        freed = self.freed
        allow_unknown = config.allow_unknown_addresses
        sequencer_kinds = SEQUENCER_KINDS

        while steps < until:
            if pc >= end:
                thread.done = True
                break
            record = records[pc]
            kind = record[0]
            if kind in sequencer_kinds:
                # Region boundary: never execute the boundary instruction.
                thread.done = True
                break
            if steps >= slow_from:
                if spin:
                    # Past the racing op a live thread reads only VP
                    # memory, and values there change only on stores
                    # (which clear ``seen``).  So if it revisits a (pc,
                    # registers) state with no store in between, every
                    # input to every subsequent instruction is unchanged:
                    # the trajectory repeats verbatim, forever.  That
                    # replay *will* exhaust the step limit — raise its
                    # exact failure now.
                    state = (pc, tuple(regs))
                    if state in seen or steps >= step_limit:
                        raise ReplayFailure(
                            ReplayFailureKind.STEP_LIMIT,
                            "%s exceeded %d steps" % (name, step_limit),
                        )
                    seen.add(state)
                elif steps >= step_limit:
                    raise ReplayFailure(
                        ReplayFailureKind.STEP_LIMIT,
                        "%s exceeded %d steps" % (name, step_limit),
                    )
            if footprint is not None and pc not in footprint:
                raise ReplayFailure(
                    ReplayFailureKind.UNRECORDED_CONTROL_FLOW,
                    "%s reached pc %d of block %r, never executed in the recording"
                    % (name, pc, thread.block.name),
                )
            executed(record[1])

            if kind == K_ALU_RI:
                regs[record[3]] = record[2](regs[record[4]], record[5]) & WORD_MASK
            elif kind == K_LOAD:
                base = record[3]
                address = (regs[base] if base is not None else 0) + record[4]
                if steps < logged_until:
                    # Replay the load from the log (iDNA semantics: the
                    # whole original-order replay, and every live replay's
                    # pre-race prefix).  The recorded value also seeds the
                    # VP memory so later live reads stay consistent with
                    # the recording.
                    recorded = recorded_loads.get(steps)
                    if recorded is None or recorded[0] != address:
                        raise ReplayFailure(
                            ReplayFailureKind.DIVERGENCE,
                            "%s logged load at step %d has no matching log record"
                            % (name, steps),
                        )
                    value = recorded[1]
                    if address not in written:
                        values[address] = value
                else:
                    # Copy-on-read: the first read of an address takes
                    # one probe of the live-in image (which may be a lazy
                    # view doing one bisect per lookup).
                    if address <= 0 or freed:
                        self._check_address(address)
                    value = values.get(address)
                    if value is None:
                        value = live_in_get(address)
                        if value is None:
                            if not allow_unknown:
                                raise ReplayFailure(
                                    ReplayFailureKind.UNKNOWN_ADDRESS,
                                    "load of address %#x absent from the "
                                    "recorded live-in image" % address,
                                )
                            # §4.2.1 extension: treat the address as
                            # zero-filled memory (what the machine would
                            # return for a never-written word).
                            value = 0
                        values[address] = value
                if steps == racing:
                    thread.racing_value = value
                regs[record[2]] = value & WORD_MASK
            elif kind == K_BRANCH1:
                if record[2](regs[record[3]]):
                    pc = record[4]
                    steps += 1
                    continue
            elif kind == K_STORE:
                base = record[3]
                address = (regs[base] if base is not None else 0) + record[4]
                value = regs[record[2]]
                if steps == racing:
                    thread.racing_value = value
                # A log-following store is proven legal by the recording.
                if not follow_log and (address <= 0 or freed):
                    self._check_address(address)
                values[address] = value
                written.add(address)
                seen.clear()
            elif kind == K_ALU_RR:
                regs[record[3]] = (
                    record[2](regs[record[4]], regs[record[5]]) & WORD_MASK
                )
            elif kind == K_LI:
                regs[record[2]] = record[3]
            elif kind == K_BRANCH2:
                if record[2](regs[record[3]], regs[record[4]]):
                    pc = record[5]
                    steps += 1
                    continue
            elif kind == K_MOV:
                regs[record[2]] = regs[record[3]]
            elif kind == K_JMP:
                pc = record[2]
                steps += 1
                continue
            elif kind == K_HALT:
                # The pc stays on the halt; the region ends after it.
                steps += 1
                thread.done = True
                break
            # K_NOP: nothing to do.
            pc += 1
            steps += 1

        thread.pc = pc
        thread.steps = steps
