"""Pure arithmetic/branch semantics shared by the VM, the replayer, and the
virtual processor.

The predecoder (:mod:`repro.isa.predecode`) resolves each ALU instruction
to its function in this table once, so the recorder's machine, the
per-thread replayer and the both-orders virtual processor all compute
identically — a prerequisite for the paper's "compare the live-outs of
two replays" classification to be meaningful.  :func:`binary_op` and
:func:`branch_taken` are the per-step, mnemonic-keyed forms the
operand-object interpreters in ``tests/oracles/`` use.

Semantics notes:

* All values are 64-bit unsigned words; arithmetic wraps.
* ``blt``/``bge``/``slt``/``slti`` compare as signed two's complement.
* Division/remainder by zero follow the RISC-V convention (no trap):
  ``divu x, 0 == 2**64 - 1`` and ``remu x, 0 == x``.  This keeps arithmetic
  total, so an alternative-order replay can never trap on arithmetic alone.
* Shift amounts are taken modulo 64.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..isa.operands import WORD_MASK, to_signed, to_unsigned

#: Map an immediate-form mnemonic to its register-form equivalent.
IMMEDIATE_FORMS: Dict[str, str] = {
    "addi": "add",
    "subi": "sub",
    "muli": "mul",
    "andi": "and",
    "ori": "or",
    "xori": "xor",
    "shli": "shl",
    "shri": "shr",
    "slti": "slt",
}


def _divu(a: int, b: int) -> int:
    return WORD_MASK if b == 0 else a // b


def _remu(a: int, b: int) -> int:
    return a if b == 0 else a % b


_BINARY_OPS: Dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "divu": _divu,
    "remu": _remu,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b % 64),
    "shr": lambda a, b: a >> (b % 64),
    "slt": lambda a, b: 1 if to_signed(a) < to_signed(b) else 0,
    "sltu": lambda a, b: 1 if a < b else 0,
}


def binary_op(opcode: str, a: int, b: int) -> int:
    """Evaluate a binary ALU operation on two 64-bit words.

    Accepts both register forms (``add``) and immediate forms (``addi``).
    """
    opcode = IMMEDIATE_FORMS.get(opcode, opcode)
    a = to_unsigned(a)
    b = to_unsigned(b)
    return to_unsigned(_BINARY_OPS[opcode](a, b))


def is_binary_op(opcode: str) -> bool:
    """True when ``opcode`` is handled by :func:`binary_op`."""
    return opcode in _BINARY_OPS or opcode in IMMEDIATE_FORMS


def branch_taken(opcode: str, a: int, b: int = 0) -> bool:
    """Decide whether a conditional branch is taken.

    ``beqz``/``bnez`` pass only ``a``; two-register branches pass both.
    """
    a = to_unsigned(a)
    b = to_unsigned(b)
    if opcode == "jmp":
        return True
    if opcode == "beq":
        return a == b
    if opcode == "bne":
        return a != b
    if opcode == "blt":
        return to_signed(a) < to_signed(b)
    if opcode == "bge":
        return to_signed(a) >= to_signed(b)
    if opcode == "beqz":
        return a == 0
    if opcode == "bnez":
        return a != 0
    raise ValueError("not a branch opcode: %r" % opcode)
