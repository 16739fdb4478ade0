"""Synthetic traces for tests.

:class:`TraceBuilder` constructs a trace directly, without the
assembler or the emulator.  The generators build on it, each with one
controlled property: a serial dependence chain, an embarrassingly
parallel stream, strided loads, pointer-chasing loads, independent
collapsible pairs, and a random well-formed trace for property tests.
"""

import random

from repro.isa.opcodes import CLASS_CODE, OpClass
from repro.isa.registers import G0
from repro.trace.records import (
    AR, BRC, CTI, DIV, LD, LG, MUL, MV, SH, ST, DynTrace, StaticTable,
)


class TraceBuilder:
    """Construct synthetic traces directly (each dynamic instruction gets
    its own static entry, so ``sidx`` is simply 0..N-1 unless ``repeat`` is
    used).

    This is the workhorse of the unit tests: it lets a test express "a load
    depending on an add" in two lines without touching the assembler.
    """

    def __init__(self, name="synthetic"):
        self.static = StaticTable()
        self.trace = DynTrace(self.static, name=name)

    # -- helpers -----------------------------------------------------------

    def _sig(self, cls, srcs, imm, imm_zero):
        if cls == BRC:
            return "brc"
        chars = []
        for reg in srcs:
            if reg is None:
                continue
            chars.append("0" if reg == G0 else "r")
        if imm:
            chars.append("0" if imm_zero else "i")
        return CLASS_CODE[OpClass(cls)] + "".join(chars)

    def _emit(self, cls, dest=-1, src1=-1, src2=-1, datasrc=-1,
              writes_cc=False, reads_cc=False, imm=False, imm_zero=False,
              eff_addr=0, taken=False, value=0, pc=None):
        srcs = [s for s in (src1, src2) if s >= 0]
        sig = self._sig(cls, srcs, imm, imm_zero)
        body = sig[len(CLASS_CODE[OpClass(cls)]):]
        leaves = sum(1 for ch in body if ch != "0")
        zeros = sum(1 for ch in body if ch == "0")
        if cls == BRC:
            leaves = 1
            zeros = 0
        index = self.static.add(
            cls=cls, dest=dest, writes_cc=writes_cc, reads_cc=reads_cc,
            src1=src1 if src1 != G0 else -1,
            src2=src2 if src2 != G0 else -1,
            datasrc=datasrc if datasrc != G0 else -1,
            sig=sig, leaves=leaves, zeros=zeros,
            pc=0x1000 + 4 * len(self.static) if pc is None else pc)
        self.trace.sidx.append(index)
        self.trace.eff_addr.append(eff_addr)
        self.trace.taken.append(taken)
        self.trace.mem_value.append(value)
        return len(self.trace) - 1

    # -- public emitters -----------------------------------------------

    def alu(self, cls, dest, src1=-1, src2=-1, imm=False, imm_zero=False,
            writes_cc=False):
        """Append a computational instruction; returns its trace position."""
        return self._emit(cls, dest=dest, src1=src1, src2=src2, imm=imm,
                          imm_zero=imm_zero, writes_cc=writes_cc)

    def add(self, dest, src1=-1, src2=-1, imm=False, writes_cc=False):
        return self.alu(AR, dest, src1, src2, imm=imm, writes_cc=writes_cc)

    def shift(self, dest, src1=-1, src2=-1, imm=True):
        return self.alu(SH, dest, src1, src2, imm=imm)

    def move(self, dest, src=-1, imm=False):
        if imm:
            return self._emit(MV, dest=dest, imm=True)
        return self._emit(MV, dest=dest, src1=src)

    def mul(self, dest, src1, src2=-1, imm=False):
        return self._emit(MUL, dest=dest, src1=src1, src2=src2, imm=imm)

    def div(self, dest, src1, src2=-1, imm=False):
        return self._emit(DIV, dest=dest, src1=src1, src2=src2, imm=imm)

    def load(self, dest, addr_reg=-1, addr_reg2=-1, addr=0, imm=False,
             value=0):
        return self._emit(LD, dest=dest, src1=addr_reg, src2=addr_reg2,
                          imm=imm, eff_addr=addr, value=value)

    def store(self, datasrc, addr_reg=-1, addr_reg2=-1, addr=0, imm=False):
        return self._emit(ST, datasrc=datasrc, src1=addr_reg,
                          src2=addr_reg2, imm=imm, eff_addr=addr)

    def cmp(self, src1, src2=-1, imm=False):
        """A compare: arithmetic op writing only the condition codes."""
        return self._emit(AR, src1=src1, src2=src2, imm=imm, writes_cc=True)

    def branch(self, taken=True):
        return self._emit(BRC, reads_cc=True, taken=taken)

    def jump(self, src=-1):
        return self._emit(CTI, src1=src, taken=True)

    def repeat(self, template_position, eff_addr=0, taken=False, value=0):
        """Re-emit the static instruction behind an earlier trace position
        (same PC — this is how loop iterations share predictor state)."""
        sidx = self.trace.sidx[template_position]
        self.trace.sidx.append(sidx)
        self.trace.eff_addr.append(eff_addr)
        self.trace.taken.append(taken)
        self.trace.mem_value.append(value)
        return len(self.trace) - 1

    def build(self):
        return self.trace


def dependent_chain(length, cls=AR):
    """A pure serial chain: every instruction consumes its predecessor.

    The base machine can never issue more than one of these per cycle, so
    the trace pins down scheduler serialisation and collapse speedups.
    """
    builder = TraceBuilder(name="chain")
    builder.alu(cls, dest=1, src1=2, imm=True)
    for _ in range(length - 1):
        builder.alu(cls, dest=1, src1=1, imm=True)
    return builder.build()


def independent_stream(length, regs=16):
    """Fully parallel instructions: register i only ever depends on itself
    being written by a move, so IPC is limited purely by issue width."""
    builder = TraceBuilder(name="independent")
    for i in range(length):
        builder.move(dest=1 + (i % regs), imm=True)
    return builder.build()


def strided_load_loop(iterations, stride=4, base=0x10000):
    """The classic stride pattern: ``p += stride; x = [p]; acc += x``.

    Every load address is perfectly predictable by a two-delta table, and
    the address-generation add is collapsible into the load.
    """
    builder = TraceBuilder(name="strided")
    builder.move(dest=1, imm=True)           # p = base
    builder.move(dest=2, imm=True)           # acc = 0
    address = base + stride
    # First iteration creates the static loop body; later iterations
    # replay the same static instructions (same PCs) so the stride table
    # trains exactly like it would on a real loop.
    bump = builder.add(dest=1, src1=1, imm=True)        # p += stride
    load = builder.load(dest=3, addr_reg=1, addr=address)
    accum = builder.add(dest=2, src1=2, src2=3)         # acc += x
    for _ in range(iterations - 1):
        address += stride
        builder.repeat(bump)
        builder.repeat(load, eff_addr=address)
        builder.repeat(accum)
    return builder.build()


def pointer_chase_loop(iterations, seed=7, heap=0x40000, nodes=1024):
    """Linked-list walk: each load address is the value of the previous
    load, so a stride predictor fails almost always."""
    rng = random.Random(seed)
    addresses = [heap + 16 * rng.randrange(nodes) for _ in range(iterations)]
    builder = TraceBuilder(name="pointer-chase")
    builder.move(dest=1, imm=True)          # p = head
    builder.move(dest=2, imm=True)          # acc
    load = builder.load(dest=1, addr_reg=1, addr=addresses[0])
    accum = builder.add(dest=2, src1=2, src2=1)
    for address in addresses[1:]:
        builder.repeat(load, eff_addr=address)  # p = p->next
        builder.repeat(accum)                   # acc += p
    return builder.build()


def collapsible_pairs(pairs):
    """``pairs`` repetitions of an (add, dependent add) couple; the pairs
    themselves are independent of each other."""
    builder = TraceBuilder(name="pairs")
    for i in range(pairs):
        lo = 1 + 2 * (i % 8)
        builder.add(dest=lo, src1=31, imm=True)
        builder.add(dest=lo + 1, src1=lo, imm=True)
    return builder.build()


def random_trace(length, seed=0, regs=24, load_frac=0.2, store_frac=0.08,
                 branch_frac=0.12, name="random"):
    """A randomised but well-formed trace for property-based tests.

    Every register read is preceded (eventually) by a write because the
    builder seeds all registers via moves; branch outcomes are random.
    """
    rng = random.Random(seed)
    builder = TraceBuilder(name=name)
    for reg in range(1, min(regs, 31) + 1):
        builder.move(dest=reg, imm=True)
    live = list(range(1, min(regs, 31) + 1))
    compare_pending = False
    for _ in range(length):
        roll = rng.random()
        dest = rng.choice(live)
        if roll < load_frac:
            builder.load(dest=dest, addr_reg=rng.choice(live),
                         addr=0x10000 + 4 * rng.randrange(4096))
        elif roll < load_frac + store_frac:
            builder.store(datasrc=rng.choice(live),
                          addr_reg=rng.choice(live),
                          addr=0x10000 + 4 * rng.randrange(4096))
        elif roll < load_frac + store_frac + branch_frac:
            if not compare_pending:
                builder.cmp(src1=rng.choice(live), imm=True)
                compare_pending = True
            builder.branch(taken=rng.random() < 0.6)
            compare_pending = False
        else:
            cls = rng.choice((AR, AR, AR, LG, SH, MV))
            if cls == MV:
                builder.move(dest=dest, imm=True)
            elif rng.random() < 0.5:
                builder.alu(cls, dest=dest, src1=rng.choice(live), imm=True)
            else:
                builder.alu(cls, dest=dest, src1=rng.choice(live),
                            src2=rng.choice(live))
    return builder.build()
