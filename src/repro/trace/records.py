"""Dynamic-trace representation.

A dynamic trace is stored *columnar*: per-executed-instruction columns hold
only what varies dynamically (static instruction index, effective address,
branch direction), while everything derivable from the static instruction
(operation class, register sources, collapse signature, ...) lives in a
:class:`StaticTable` indexed by static instruction number.  This keeps a
multi-hundred-thousand-entry trace small and makes the timing simulator's
inner loop a series of list lookups.
"""

from ..isa.opcodes import (
    CLASS_LATENCY,
    COLLAPSIBLE_CONSUMERS,
    COLLAPSIBLE_PRODUCERS,
    OpClass,
)
from ..isa.registers import G0

#: Operation classes, re-exported for convenience.
AR = int(OpClass.AR)
LG = int(OpClass.LG)
SH = int(OpClass.SH)
MV = int(OpClass.MV)
LD = int(OpClass.LD)
ST = int(OpClass.ST)
BRC = int(OpClass.BRC)
CTI = int(OpClass.CTI)
MUL = int(OpClass.MUL)
DIV = int(OpClass.DIV)

_LATENCY = [0] * (max(int(c) for c in OpClass) + 1)
for _cls in OpClass:
    _LATENCY[int(_cls)] = CLASS_LATENCY[_cls]

_PRODUCER = [False] * len(_LATENCY)
for _cls in COLLAPSIBLE_PRODUCERS:
    _PRODUCER[int(_cls)] = True

_CONSUMER = [False] * len(_LATENCY)
for _cls in COLLAPSIBLE_CONSUMERS:
    _CONSUMER[int(_cls)] = True


class StaticTable:
    """Per-static-instruction metadata, stored as parallel lists.

    Columns
    -------
    cls:        operation class (int of :class:`OpClass`)
    lat:        execution latency in cycles
    dest:       destination register or -1
    writes_cc / reads_cc: condition-code production/consumption
    src1/src2:  register sources of the value/address expression (-1 absent;
                ``%g0`` is filtered out since it carries no dependence)
    datasrc:    store data register (-1 otherwise)
    sig:        paper-style collapse signature string (``arri``, ``ldrr``...)
    leaves:     non-zero expression operand count
    zeros:      count of zero operands detected (``%g0`` or immediate 0)
    pc:         byte address of the instruction
    """

    __slots__ = ("cls", "lat", "dest", "writes_cc", "reads_cc", "src1",
                 "src2", "datasrc", "sig", "leaves", "zeros", "pc",
                 "producer_ok", "consumer_ok")

    def __init__(self):
        self.cls = []
        self.lat = []
        self.dest = []
        self.writes_cc = []
        self.reads_cc = []
        self.src1 = []
        self.src2 = []
        self.datasrc = []
        self.sig = []
        self.leaves = []
        self.zeros = []
        self.pc = []
        self.producer_ok = []
        self.consumer_ok = []

    def __len__(self):
        return len(self.cls)

    def add(self, cls, dest=-1, writes_cc=False, reads_cc=False, src1=-1,
            src2=-1, datasrc=-1, sig="", leaves=0, zeros=0, pc=0):
        """Append one static entry; returns its index."""
        self.cls.append(cls)
        self.lat.append(_LATENCY[cls])
        self.dest.append(dest)
        self.writes_cc.append(writes_cc)
        self.reads_cc.append(reads_cc)
        self.src1.append(src1)
        self.src2.append(src2)
        self.datasrc.append(datasrc)
        self.sig.append(sig)
        self.leaves.append(leaves)
        self.zeros.append(zeros)
        self.pc.append(pc)
        self.producer_ok.append(_PRODUCER[cls])
        self.consumer_ok.append(_CONSUMER[cls])
        return len(self.cls) - 1

    @classmethod
    def from_program(cls_, program):
        """Build the static table for an assembled program."""
        table = cls_()
        for index, instr in enumerate(program.instructions):
            opclass = int(instr.opclass)
            # Register sources of the value/address expression.
            regs = [value for kind, value in instr.expression_operands()
                    if kind == "r" and value != G0]
            src1 = regs[0] if len(regs) >= 1 else -1
            src2 = regs[1] if len(regs) >= 2 else -1
            dest = instr.rd
            datasrc = -1
            if instr.is_store:
                # For stores Instruction.rd is the data source register.
                datasrc = instr.rd
                dest = -1
            if instr.opclass is OpClass.CTI and instr.rs1 >= 0:
                # jmpl reads its base register (a real dependence, though
                # not a collapsible expression operand).
                src1 = instr.rs1 if instr.rs1 != G0 else -1
            table.add(
                cls=opclass,
                dest=dest,
                writes_cc=instr.writes_cc,
                reads_cc=instr.reads_cc,
                src1=src1,
                src2=src2,
                datasrc=datasrc,
                sig=instr.signature(),
                leaves=instr.leaf_count(),
                zeros=instr.operand_type_string().count("0"),
                pc=program.address_of_index(index),
            )
        return table


class DynTrace:
    """One dynamic trace: columnar per-instruction data + static table.

    ``mem_value`` holds the loaded value for loads (0 elsewhere); it
    exists for the value-speculation extension and is not used by the
    paper's own configurations.
    """

    __slots__ = ("static", "sidx", "eff_addr", "taken", "mem_value",
                 "name", "_soa")

    def __init__(self, static, name=""):
        self.static = static
        self.sidx = []
        self.eff_addr = []
        self.taken = []
        self.mem_value = []
        self.name = name
        self._soa = None

    def __len__(self):
        return len(self.sidx)

    def soa(self):
        """Memoised structure-of-arrays snapshot (``repro.trace.soa``).

        The snapshot is rebuilt automatically if the trace grew since it
        was taken; the numpy kernels and format v2 consume it.
        """
        from .soa import trace_arrays
        return trace_arrays(self)
