"""Control-flow graph over an assembled :class:`~repro.asm.program.Program`.

The graph is built at instruction granularity (programs here are a few
hundred instructions, so per-instruction dataflow is both simpler and
fast enough) with basic-block *leaders* computed on top for reporting.

Two successor conventions are provided:

``successors``
    The *strict* walk used by the lint checks: a conditional branch goes
    to its target and its fallthrough, ``ba`` only to its target,
    ``call`` to its target **and** the return site (the callee is
    assumed to return), and ``jmpl``/``halt`` end the path (``jmpl`` is
    a return or computed jump whose continuation belongs to the caller).

``may_successors``
    The *may* walk used by the collapse-bound analysis, which must not
    miss any path the emulator can take: ``jmpl`` may land on any
    labelled instruction or any call-return site.  This matches the
    assembler's idioms (returns target ``call+1``; computed jumps target
    labels); the emulator itself refuses ``jmpl`` outside ``.text``.

A successor equal to ``len(program)`` is the *off-end* pseudo-node:
execution would fall through past the end of ``.text``.

The graph also owns the facts every pass reads: the strict predecessor
lists (``preds``) and the program's
:class:`~repro.trace.records.StaticTable` (``table``, built on first
use).
"""

from ..isa.opcodes import Opcode, OpClass
from ..trace.records import StaticTable


class ControlFlowGraph:
    """CFG for one assembled program."""

    def __init__(self, program):
        self.program = program
        instrs = program.instructions
        self.n = len(instrs)
        try:
            self.entry = program.index_of_address(program.entry)
        except (ValueError, KeyError):
            self.entry = 0
        #: return sites: the instruction after each ``call``
        self.call_returns = frozenset(
            i + 1 for i, ins in enumerate(instrs)
            if ins.opcode is Opcode.CALL and i + 1 <= self.n)
        #: instruction indices carrying a text label
        labelled = set()
        for name, address in program.symbols.items():
            try:
                labelled.add(program.index_of_address(address))
            except (ValueError, KeyError):
                continue
        self.labelled = frozenset(labelled)
        self._strict = [self._strict_successors(i) for i in range(self.n)]
        #: strict predecessors per instruction, in index order (the
        #: off-end node has none)
        self.preds = [[] for _ in range(self.n)]
        for i, succs in enumerate(self._strict):
            for s in succs:
                if s < self.n:
                    self.preds[s].append(i)
        self._table = None
        self.leaders = self._compute_leaders()
        self.reachable = self._compute_reachable()

    # ------------------------------------------------------------------

    def _strict_successors(self, i):
        ins = self.program.instructions[i]
        op = ins.opcode
        if op is Opcode.HALT:
            return ()
        if op is Opcode.JMPL:
            return ()
        if op is Opcode.BA:
            return (ins.target,)
        if op is Opcode.CALL:
            return (ins.target, i + 1)
        if ins.opclass is OpClass.BRC:
            return (ins.target, i + 1)
        return (i + 1,)

    def successors(self, i):
        """Strict successors (may include ``n``: the off-end node)."""
        return self._strict[i]

    @property
    def table(self):
        """The program's :class:`~repro.trace.records.StaticTable`."""
        if self._table is None:
            self._table = StaticTable.from_program(self.program)
        return self._table

    def may_successors(self, i):
        """Superset of every dynamically possible successor."""
        ins = self.program.instructions[i]
        if ins.opcode is Opcode.JMPL:
            return tuple(sorted((self.labelled | self.call_returns)
                                - {self.n}))
        return self._strict[i]

    # ------------------------------------------------------------------

    def _compute_leaders(self):
        """Basic-block leaders: entry, branch targets, post-control."""
        leaders = set()
        if self.n:
            leaders.add(self.entry)
            leaders.add(0)
        for i, ins in enumerate(self.program.instructions):
            if ins.target is not None and ins.target < self.n:
                leaders.add(ins.target)
            if ins.is_control or ins.opcode is Opcode.HALT:
                if i + 1 < self.n:
                    leaders.add(i + 1)
        return tuple(sorted(leaders))

    def basic_blocks(self):
        """``(start, end)`` half-open index ranges, one per block."""
        if not self.n:
            return []
        starts = list(self.leaders)
        return [(start, end) for start, end in
                zip(starts, starts[1:] + [self.n])]

    def block_of(self, i):
        """Leader index of the block containing instruction ``i``."""
        block = self.leaders[0]
        for leader in self.leaders:
            if leader > i:
                break
            block = leader
        return block

    def _compute_reachable(self):
        """Indices reachable from the entry along strict successors."""
        seen = set()
        stack = [self.entry] if self.n else []
        while stack:
            i = stack.pop()
            if i in seen or i >= self.n:
                continue
            seen.add(i)
            for s in self._strict[i]:
                if s not in seen and s < self.n:
                    stack.append(s)
        return frozenset(seen)

    def off_end_sites(self):
        """Reachable instructions that can fall through past ``.text``."""
        return sorted(i for i in self.reachable
                      if self.n in self._strict[i])


__all__ = ["ControlFlowGraph"]
