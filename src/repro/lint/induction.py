"""Induction-variable and loop-relative value-form analysis.

Feeds the per-load address classification (:mod:`repro.lint.addrclass`).
Two layers:

- :func:`strict_reaching_writers` — per instruction, per register, the
  bitmask of instructions that may be the architectural last writer
  along the *strict* CFG (the paths the emulator actually takes).  A
  ``call``'s fallthrough edge makes the call site the writer of every
  register (the callee is opaque), and bit ``n`` marks "the value from
  before the entry point" so initial values are distinguishable from
  in-program writers.

- :class:`LoopValues` — a small abstract interpreter that renders the
  value a register holds at a site as a *form relative to a loop*:

  ========== =====================================================
  ``inv``    loop-invariant during any single run of the loop
  ``iv``     a basic induction variable (``r = r ± imm`` once per
             iteration); payload is the per-iteration step
  ``affine`` an affine function of a basic IV — constant stride per
             iteration; payload is the stride (None = constant but
             statically unknown, e.g. scaled by an invariant register)
  ``load``   derived from a load result produced inside the loop
             (the pointer-chase signal: address depends on memory)
  ``unknown`` anything else (hash mixing, variable-step updates,
             multiple reaching definitions, call results)
  ========== =====================================================

  Only operations that preserve affinity propagate ``iv``/``affine``:
  add/sub with a constant or invariant, shifts left by a constant or
  invariant amount, multiplies by an invariant.  Logical masking,
  right shifts and divides demote to ``unknown`` — exactly why a hash
  probe (compress) classifies as irregular while a linked-list walk
  (li) classifies as pointer chasing.
"""

from ..isa.opcodes import Opcode
from .cfg import ControlFlowGraph
from .dataflow import reg_defs
from .loops import LoopForest

#: value-form kind tags
INV = "inv"
IV = "iv"
AFFINE = "affine"
LOAD = "load"
UNKNOWN = "unknown"

_NUM_REGS = 32

#: opcodes a basic induction variable may be updated by
_IV_OPS = frozenset((Opcode.ADD, Opcode.SUB, Opcode.ADDCC, Opcode.SUBCC))

#: add-like opcodes (affinity-preserving sum)
_ADD_OPS = frozenset((Opcode.ADD, Opcode.ADDCC))
_SUB_OPS = frozenset((Opcode.SUB, Opcode.SUBCC))
_MUL_OPS = frozenset((Opcode.UMUL, Opcode.SMUL))


def strict_reaching_writers(program, cfg):
    """Per-instruction, per-register may-last-writer sets (strict CFG).

    Returns a list ``reach`` where ``reach[i]`` is a 32-slot list of
    bitmasks over instruction indices; bit ``n`` (= ``cfg.n``) is the
    pseudo-writer "initial value at the entry point".  ``None`` for
    instructions unreachable along strict paths.
    """
    instrs = program.instructions
    n = cfg.n
    reach = [None] * n
    if not n:
        return reach
    entry_bit = 1 << n
    entry = cfg.entry
    reach[entry] = [entry_bit] * _NUM_REGS
    work = [entry]
    while work:
        i = work.pop()
        ins = instrs[i]
        state = reach[i]
        out = list(state)
        for r in reg_defs(ins):
            out[r] = 1 << i
        if ins.opcode is Opcode.CALL:
            # The callee may write anything before control returns.
            clobber = [1 << i] * _NUM_REGS
        else:
            clobber = None
        for s in cfg.successors(i):
            if s >= n:
                continue
            edge_out = clobber if (clobber is not None and s == i + 1) \
                else out
            target = reach[s]
            if target is None:
                reach[s] = list(edge_out)
                work.append(s)
                continue
            changed = False
            for r in range(_NUM_REGS):
                merged = target[r] | edge_out[r]
                if merged != target[r]:
                    target[r] = merged
                    changed = True
            if changed:
                work.append(s)
    return reach


class BasicIV:
    """One basic induction variable of one loop."""

    __slots__ = ("reg", "step", "sites")

    def __init__(self, reg, step, sites):
        self.reg = reg
        self.step = step        # per-iteration step, None when unknown
        self.sites = frozenset(sites)


def find_basic_ivs(program, forest, loop):
    """Basic IVs of ``loop``: registers whose only in-body definitions
    are self-updates ``r = r ± imm``.

    The step is known only when there is exactly one update site, it
    executes exactly once per iteration (it dominates every back-edge
    tail and is not nested in an inner loop), so the address stream of
    any load addressed off the IV has a constant per-iteration stride.
    Variable-step IVs (conditional or multi-site updates) are *not*
    returned — their strides change with the path taken, which is
    precisely what the two-delta table cannot lock onto.
    """
    instrs = program.instructions
    dom = forest.dom
    defs_in_body = {}
    for site in loop.body:
        ins = instrs[site]
        if ins.opcode is Opcode.CALL:
            # Callee clobbers everything: no IV survives a call.
            return {}
        for r in reg_defs(ins):
            defs_in_body.setdefault(r, []).append(site)
    ivs = {}
    for reg, sites in defs_in_body.items():
        if len(sites) != 1:
            continue
        site = sites[0]
        ins = instrs[site]
        if ins.opcode not in _IV_OPS or ins.imm is None \
                or ins.rs1 != reg or ins.rd != reg:
            continue
        if forest.loop_of(site) is not loop:
            continue                    # updates many times per iteration
        if not all(dom.dominates(site, tail)
                   for tail, _ in loop.back_edges):
            continue                    # conditionally updated
        step = ins.imm if ins.opcode in _ADD_OPS else -ins.imm
        ivs[reg] = BasicIV(reg, step, sites)
    return ivs


class _Query:
    """One top-level :meth:`LoopValues.form` walk: the keys it is
    evaluating, the forms it computed by cutting a cycle, and how many
    cuts it has made (a cut, or a read of a form that made one)."""

    __slots__ = ("visiting", "memo", "cuts")

    def __init__(self):
        self.visiting = set()
        self.memo = {}
        self.cuts = 0


class LoopValues:
    """Loop-relative symbolic evaluation of register values.

    Built over the loop forest of ``cfg`` (a fresh CFG of ``program``
    when None).  Owns the value facts the loop passes share: the strict
    reaching writers, the basic IVs of each loop and the one
    bounded-congruence :attr:`resolver`.
    """

    def __init__(self, program, cfg=None):
        self.program = program
        self.cfg = cfg if cfg is not None else ControlFlowGraph(program)
        self.forest = LoopForest(self.cfg)
        self.reach = strict_reaching_writers(program, self.cfg)
        self._ivs = {}          # loop header -> {reg: BasicIV}
        self._cache = {}
        self._resolver = None

    def ivs_of(self, loop):
        ivs = self._ivs.get(loop.header)
        if ivs is None:
            ivs = find_basic_ivs(self.program, self.forest, loop)
            self._ivs[loop.header] = ivs
        return ivs

    @property
    def resolver(self):
        """The bounded-congruence resolver over these values
        (:class:`repro.lint.memdep._Resolver`), built on first use."""
        if self._resolver is None:
            from .memdep import _Resolver
            self._resolver = _Resolver(self)
        return self._resolver

    # ------------------------------------------------------------------

    def form(self, reg, site, loop, _query=None):
        """Form of the value ``reg`` holds when ``site`` executes,
        relative to ``loop``.  Returns ``(kind, stride)``; stride is
        meaningful for ``iv``/``affine`` and may be None (constant but
        statically unknown).

        A value on a loop-carried cycle reads ``unknown`` where the walk
        comes back to a key it is still evaluating, so the forms along
        the cycle depend on where the walk entered it.  Only a form
        whose walk cut no cycle is memoised for good; the others are
        memoised for the one top-level query (``_query``) and
        recomputed by the next, so the answer never depends on which
        site was queried first."""
        key = (reg, site, loop.header)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if _query is None:
            _query = _Query()
        cached = _query.memo.get(key)
        if cached is not None:
            _query.cuts += 1
            return cached
        if key in _query.visiting:
            _query.cuts += 1
            return (UNKNOWN, None)
        cuts = _query.cuts
        _query.visiting.add(key)
        result = self._form_uncached(reg, site, loop, _query)
        _query.visiting.discard(key)
        if _query.cuts == cuts:
            self._cache[key] = result
        else:
            _query.memo[key] = result
        return result

    def def_form(self, d, loop):
        """Form of the value instruction ``d`` writes, relative to
        ``loop``: one top-level query, as :meth:`form` makes."""
        return self._def_form(d, loop, _Query())

    def _form_uncached(self, reg, site, loop, query):
        state = self.reach[site]
        if state is None:
            return (UNKNOWN, None)
        writers = state[reg]
        in_body = []
        mask = writers & ~(1 << self.cfg.n)
        while mask:
            low = mask & -mask
            w = low.bit_length() - 1
            mask ^= low
            if w in loop.body:
                in_body.append(w)
        if not in_body:
            return (INV, 0)
        ivs = self.ivs_of(loop)
        iv = ivs.get(reg)
        if iv is not None and all(w in iv.sites for w in in_body):
            return (IV, iv.step)
        if len(in_body) > 1:
            return (UNKNOWN, None)
        return self._def_form(in_body[0], loop, query)

    def _def_form(self, d, loop, query):
        """Form of the value instruction ``d`` writes."""
        ins = self.program.instructions[d]
        op = ins.opcode
        if ins.is_load:
            return (LOAD, None)
        if op is Opcode.CALL or op is Opcode.JMPL:
            return (UNKNOWN, None)
        if op is Opcode.SETHI:
            return (INV, 0)
        if op is Opcode.MOV:
            if ins.imm is not None:
                return (INV, 0)
            return self.form(ins.rs2, d, loop, query)
        if op in _ADD_OPS or op in _SUB_OPS:
            negate = op in _SUB_OPS
            left = self.form(ins.rs1, d, loop, query)
            if ins.imm is not None:
                right = (INV, 0)
            else:
                right = self.form(ins.rs2, d, loop, query)
            return combine_sum(left, right, negate)
        if op is Opcode.SLL:
            base = self.form(ins.rs1, d, loop, query)
            if ins.imm is not None:
                return scale_form(base, 1 << ins.imm)
            amount = self.form(ins.rs2, d, loop, query)
            if amount[0] == INV:
                return scale_form(base, None)
            return (UNKNOWN, None)
        if op in _MUL_OPS:
            left = self.form(ins.rs1, d, loop, query)
            if ins.imm is not None:
                return scale_form(left, ins.imm)
            right = self.form(ins.rs2, d, loop, query)
            if right[0] == INV:
                return scale_form(left, None)
            if left[0] == INV:
                return scale_form(right, None)
            return (UNKNOWN, None)
        # Logical masking, right shifts, divides: affinity is destroyed
        # (this is what demotes hash probing to "irregular").  Still
        # invariant when every operand is invariant.
        operands = []
        if ins.rs1 >= 0:
            operands.append(self.form(ins.rs1, d, loop, query))
        if ins.imm is None and ins.rs2 >= 0:
            operands.append(self.form(ins.rs2, d, loop, query))
        if operands and all(f[0] == INV for f in operands):
            return (INV, 0)
        return (UNKNOWN, None)


def combine_sum(left, right, negate):
    """Form of ``left + right`` (or ``left - right``)."""
    lk, ls = left
    rk, rs = right
    if LOAD in (lk, rk):
        # Address material derived from a load result: the chase
        # signal survives further (affine) address arithmetic.
        return (LOAD, None)
    if UNKNOWN in (lk, rk):
        return (UNKNOWN, None)
    if lk == INV and rk == INV:
        return (INV, 0)
    # At least one side is iv/affine: stride adds (or subtracts).
    if ls is None or rs is None:
        return (AFFINE, None)
    stride = ls + (-rs if negate else rs)
    return (AFFINE, stride)


def scale_form(form, factor):
    """Form of ``value * factor`` (factor None = invariant unknown)."""
    kind, stride = form
    if kind == INV:
        return (INV, 0)
    if kind in (IV, AFFINE):
        if stride is None or factor is None:
            return (AFFINE, None)
        return (AFFINE, stride * factor)
    if kind == LOAD:
        return (LOAD, None)
    return (UNKNOWN, None)


__all__ = ["AFFINE", "BasicIV", "INV", "IV", "LOAD", "LoopValues",
           "UNKNOWN", "combine_sum", "find_basic_ivs", "scale_form",
           "strict_reaching_writers"]
