"""Hypothesis strategies generating random (always-terminating) programs.

Programs are built from a structured action language and rendered to
assembly, so every generated program assembles and halts:

* shared symbols ``x``/``y``/``z`` plus one mutex ``m``,
* actions: load, store, arithmetic, a locked block, an atomic add, a
  bounded counted loop, a syscall,
* every loop is counted (down-counting register, bounded iterations),
* with ``data_dependent``, also a forward branch over an action guarded
  by a shared load, and a heap access whose offset is a shared value
  (so a reordered replay can take unrecorded paths and read unrecorded
  addresses).

``fully_locked`` mode wraps *every* shared access in the mutex, producing
correctly synchronized programs for the zero-false-positive property.
"""

from __future__ import annotations

from hypothesis import strategies as st

SYMBOLS = ("x", "y", "z")

#: registers reserved: r8 heap index, r12 heap base, r13 alloc size,
#: r14 loop counter, r15 atomic operand
_WORK_REGISTERS = tuple(range(0, 8))


def _action(draw, depth, fully_locked, lines, label_counter, data_dependent=False):
    # In fully_locked mode atomics are excluded: an atomic RMW and a
    # lock-protected plain store to the same word are mutually unordered
    # (the lock does not order against the atomic), so programs mixing
    # them are not actually interleaving-insensitive.
    top_level = ["load", "store", "arith", "locked", "loop", "syscall",
                 "heap_load", "heap_store"]
    nested = ["load", "store", "arith", "syscall", "heap_load", "heap_store"]
    if not fully_locked:
        top_level = top_level + ["atomic"]
        nested = nested + ["atomic"]
    if data_dependent:
        top_level = top_level + ["guarded", "heap_indexed"]
        nested = nested + ["heap_indexed"]
    kind = draw(st.sampled_from(top_level if depth == 0 else nested))
    symbol = draw(st.sampled_from(SYMBOLS))
    register = draw(st.sampled_from(_WORK_REGISTERS))
    if kind == "load":
        if fully_locked:
            lines.append("    lock [m]")
        lines.append("    load r%d, [%s]" % (register, symbol))
        if fully_locked:
            lines.append("    unlock [m]")
    elif kind == "store":
        if fully_locked:
            lines.append("    lock [m]")
        lines.append("    store r%d, [%s]" % (register, symbol))
        if fully_locked:
            lines.append("    unlock [m]")
    elif kind == "arith":
        op = draw(st.sampled_from(["addi", "subi", "xori", "ori", "andi", "muli"]))
        imm = draw(st.integers(min_value=0, max_value=255))
        other = draw(st.sampled_from(_WORK_REGISTERS))
        lines.append("    %s r%d, r%d, %d" % (op, register, other, imm))
    elif kind == "locked":
        lines.append("    lock [m]")
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            _action(draw, depth + 1, False, lines, label_counter, data_dependent)
        lines.append("    unlock [m]")
    elif kind == "atomic":
        lines.append("    li r15, 1")
        lines.append("    atom_add r%d, [%s], r15" % (register, symbol))
    elif kind == "loop":
        iterations = draw(st.integers(min_value=1, max_value=4))
        label = "L%d" % label_counter[0]
        label_counter[0] += 1
        lines.append("    li r14, %d" % iterations)
        lines.append("%s:" % label)
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            _action(
                draw, depth + 1, fully_locked, lines, label_counter, data_dependent
            )
        lines.append("    subi r14, r14, 1")
        lines.append("    bnez r14, %s" % label)
    elif kind == "syscall":
        call = draw(st.sampled_from(["sys_rand r%d, 16", "sys_time r%d", "sys_yield"]))
        lines.append("    " + (call % register if "%d" in call else call))
    elif kind == "heap_load":
        # r12 holds this thread's private heap buffer (see prologue).
        offset = draw(st.integers(min_value=0, max_value=3))
        lines.append("    load r%d, [r12+%d]" % (register, offset))
    elif kind == "heap_store":
        offset = draw(st.integers(min_value=0, max_value=3))
        lines.append("    store r%d, [r12+%d]" % (register, offset))
    elif kind == "guarded":
        label = "G%d" % label_counter[0]
        label_counter[0] += 1
        branch = draw(st.sampled_from(["beqz", "bnez"]))
        lines.append("    load r%d, [%s]" % (register, symbol))
        lines.append("    %s r%d, %s" % (branch, register, label))
        _action(draw, depth + 1, fully_locked, lines, label_counter, data_dependent)
        lines.append("%s:" % label)
    elif kind == "heap_indexed":
        # Offset = shared value & 3: in bounds of the private buffer.
        lines.append("    load r8, [%s]" % symbol)
        lines.append("    andi r8, r8, 3")
        lines.append("    add r8, r12, r8")
        if draw(st.booleans()):
            lines.append("    load r%d, [r8+0]" % register)
        else:
            lines.append("    store r%d, [r8+0]" % register)


@st.composite
def programs(
    draw,
    fully_locked: bool = False,
    max_threads: int = 3,
    data_dependent: bool = False,
    min_actions: int = 2,
):
    """Generate random assembly source (always assembles, always halts).

    ``min_actions`` raises the per-thread action count from its floor of
    two (more shared accesses, so more recordings race).
    """
    thread_count = draw(st.integers(min_value=2, max_value=max_threads))
    lines = [".data"]
    for symbol in SYMBOLS:
        lines.append("%s: .word %d" % (symbol, draw(st.integers(0, 9))))
    lines.append("m: .word 0")
    label_counter = [0]
    def emit_body(action_count: int) -> None:
        # Prologue: every thread owns a private 4-word heap buffer in r12,
        # so heap actions are always in-bounds and race-free by design
        # (the interesting nondeterminism is the schedule-dependent base).
        lines.append("    li r13, 4")
        lines.append("    sys_alloc r12, r13")
        for _ in range(action_count):
            _action(draw, 0, fully_locked, lines, label_counter, data_dependent)
        lines.append("    sys_free r12")
        lines.append("    halt")

    shared_block = draw(st.booleans())
    if shared_block:
        names = " ".join("t%d" % i for i in range(thread_count))
        lines.append(".thread %s" % names)
        emit_body(draw(st.integers(min_value=min_actions, max_value=8)))
    else:
        for thread in range(thread_count):
            lines.append(".thread t%d" % thread)
            emit_body(draw(st.integers(min_value=min_actions, max_value=6)))
    return "\n".join(lines) + "\n"


seeds = st.integers(min_value=0, max_value=2**31 - 1)
