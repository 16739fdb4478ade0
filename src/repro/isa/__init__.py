"""SPARC-v8-like instruction set definition.

Public surface:

- :class:`~repro.isa.opcodes.Opcode` / :class:`~repro.isa.opcodes.OpClass`
- :class:`~repro.isa.instruction.Instruction`
- register conventions in :mod:`repro.isa.registers`

The condition codes (SPARC v8 icc: N, Z, V, C) are computed by the
functional emulator, :mod:`repro.emu.machine`.
"""

from .instruction import Instruction
from .opcodes import (
    CC_READERS,
    CC_WRITERS,
    CLASS_CODE,
    CLASS_LATENCY,
    COLLAPSIBLE_CONSUMERS,
    COLLAPSIBLE_PRODUCERS,
    MEM_SIZE,
    Opcode,
    OpClass,
    fits_simm13,
    opclass_of,
)
from .registers import CC_INDEX, G0, LINK_REG, NUM_REGS, parse_reg, reg_name

__all__ = [
    "Instruction",
    "CC_READERS", "CC_WRITERS", "CLASS_CODE", "CLASS_LATENCY",
    "COLLAPSIBLE_CONSUMERS", "COLLAPSIBLE_PRODUCERS", "MEM_SIZE",
    "Opcode", "OpClass", "fits_simm13", "opclass_of",
    "CC_INDEX", "G0", "LINK_REG", "NUM_REGS", "parse_reg", "reg_name",
]
