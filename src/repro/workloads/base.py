"""Workload infrastructure.

A workload is a self-validating benchmark program: assembly source mirroring
one of the paper's SPECINT benchmarks, a deterministic input generator, and
a Python reference implementation.  ``trace()`` assembles, emulates,
*checks the computed answer against the reference*, and returns the dynamic
trace — a wrong kernel fails loudly instead of silently skewing every
downstream experiment.

Scale: each workload accepts a ``scale`` float; 1.0 targets a trace in the
low hundreds of thousands of dynamic instructions (tractable for the pure
Python simulator; see DESIGN.md's substitution table).  Tests use tiny
scales.
"""

import math

from ..asm import assemble
from ..emu import trace_program
from ..errors import ReproError


class WorkloadError(ReproError):
    """Raised when a workload's self-check fails."""


class Workload:
    """Base class for the six benchmark kernels.

    Subclasses define ``name``, ``pointer_chasing``, ``description`` and
    implement :meth:`source` (assembly text for a given scale) and
    :meth:`validate` (raise :class:`WorkloadError` on a wrong answer).
    """

    name = "abstract"
    pointer_chasing = False
    description = ""
    #: approximate dynamic instructions at scale=1.0 (documentation only)
    nominal_length = 0

    def source(self, scale):
        raise NotImplementedError

    def validate(self, machine, program, scale):
        raise NotImplementedError

    # ------------------------------------------------------------------

    def build(self, scale=1.0):
        """Assemble the kernel at the given scale, a finite positive
        number (anything else raises :class:`WorkloadError`)."""
        if not (scale > 0 and math.isfinite(scale)):
            raise WorkloadError(
                "workload %s: scale must be a finite positive number, "
                "got %r" % (self.name, scale))
        return assemble(self.source(scale))

    def trace(self, scale=1.0, max_instructions=80_000_000):
        """Assemble, emulate, self-check, and return the dynamic trace."""
        program = self.build(scale)
        trace, machine, _ = trace_program(
            program, name=self.name, max_instructions=max_instructions)
        self.validate(machine, program, scale)
        return trace

    def __repr__(self):
        kind = "pointer-chasing" if self.pointer_chasing else "regular"
        return "<Workload %s (%s)>" % (self.name, kind)


def read_word_array(machine, program, symbol, count):
    """Read ``count`` 32-bit words from the data symbol ``symbol``."""
    try:
        base = program.symbols[symbol]
    except KeyError:
        raise WorkloadError("missing symbol %r in program" % (symbol,))
    return machine.memory.read_words(base, count)


def expect_equal(actual, expected, what):
    """Raise a descriptive WorkloadError unless actual == expected."""
    if actual != expected:
        preview_a = actual[:8] if isinstance(actual, list) else actual
        preview_e = expected[:8] if isinstance(expected, list) else expected
        raise WorkloadError(
            "%s mismatch: got %r, want %r" % (what, preview_a, preview_e))


def words_directive(values, per_line=8):
    """Render a list of ints as .word directives."""
    lines = []
    for start in range(0, len(values), per_line):
        chunk = values[start:start + per_line]
        lines.append("        .word   " +
                     ", ".join("0x%x" % (v & 0xFFFFFFFF) for v in chunk))
    return "\n".join(lines) if lines else "        .space 0"


class LCG:
    """The deterministic generator shared by inputs and references.

    Matches the in-assembly generator some kernels use:
    ``state = state * 1103515245 + 12345 (mod 2^32)``, output is
    ``(state >> 16) & 0x7fff`` (classic ANSI C rand).
    """

    MULTIPLIER = 1103515245
    INCREMENT = 12345

    def __init__(self, seed):
        self.state = seed & 0xFFFFFFFF

    def next(self):
        self.state = (self.state * self.MULTIPLIER + self.INCREMENT) \
            & 0xFFFFFFFF
        return (self.state >> 16) & 0x7FFF

    def next_u32(self):
        high = self.next()
        low = self.next()
        return ((high << 17) ^ (low << 2) ^ self.next()) & 0xFFFFFFFF
