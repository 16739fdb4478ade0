"""Static memory-dependence (may-alias) conflict analysis.

The MDPT scheduler mode (``repro.memdep``, configs F/G) learns
store->load dependences from violations at runtime.  This pass derives
the matching *static* object: the set of (load site, store site) pairs
that may touch the same memory word — a sound upper bound on every
store->load dependence the trace (and hence the MDPT) can ever observe.

It reuses the loop machinery of the address-classification pass
(:mod:`repro.lint.addrclass` / :mod:`repro.lint.induction`): every
load/store address expression is resolved to a **bounded congruence
form** ``(anchor, mod, lo, hi)`` over program constants, meaning

    value ≡ anchor  (mod mod)       (mod 0: value == anchor exactly)
    lo <= value <= hi               (either bound may be unknown)

Forms are closed under the address arithmetic the kernels use —
``sethi``/``set`` constant builds, add/sub, left shifts, constant
multiplies — and basic induction variables fold in as ``mod =
gcd(mod, |step|)`` with interval bounds recovered from the loop's
back-edge compare-and-branch when it tests the IV against an immediate.
A reference whose base does not fully resolve to program constants
(call results, load results, values live at the entry point) conflicts
with everything — unresolved means *may alias*, never *no alias*.

Two resolved references are proven disjoint (the timing model is
word-granular: ``eff_addr >> 2``) when either

- both intervals are known and separated by at least a word, or
- with ``g = gcd(mod1, mod2)``: ``g == 0`` and ``|anchor1 - anchor2| >=
  4``, or ``r = (anchor1 - anchor2) mod g`` satisfies ``min(r, g - r)
  >= 4`` — every reachable pair of addresses then lands in different
  words, whatever the induction variables do.

:func:`memdep_cross_check` (CLI ``repro lint --memdep-check``) replays
a trace's word-granular store->load dependences and a simulated MDPT's
learned violation pairs against the static conflict set: every dynamic
pair must be statically predicted, so the static pair count bounds the
distinct dynamic pair count from above.
"""

from math import gcd

from ..isa.opcodes import Opcode
from .findings import CheckResult
from .induction import LoopValues

_MASK32 = 0xFFFFFFFF
_NUM_REGS = 32

#: word-granular model: accesses within the same aligned word depend
WORD_SPAN = 4

_ADD_OPS = frozenset((Opcode.ADD, Opcode.ADDCC))
_SUB_OPS = frozenset((Opcode.SUB, Opcode.SUBCC))
_MUL_OPS = frozenset((Opcode.UMUL, Opcode.SMUL))
#: exact 32-bit folds for fully-constant operands (the ``set`` idiom
#: expands to sethi + or)
_EXACT_OPS = {
    Opcode.AND: lambda a, b: a & b,
    Opcode.ANDCC: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.ORCC: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.XORCC: lambda a, b: a ^ b,
    Opcode.SRL: lambda a, b: (a & _MASK32) >> (b & 31),
}

#: continue-branch opcode -> interval constraint on ``iv OP imm`` when
#: the branch re-enters the loop (signed compares; kernel index values
#: are small non-negative integers, validated by the cross-check)
_BOUND_BRANCHES = {
    Opcode.BL: ("hi", -1),     # iv < C  -> iv <= C - 1
    Opcode.BLE: ("hi", 0),     # iv <= C
    Opcode.BG: ("lo", 1),      # iv > C  -> iv >= C + 1
    Opcode.BGE: ("lo", 0),     # iv >= C
}


def _join(a, b):
    """Least form covering both ``a`` and ``b`` (may-merge)."""
    if a is None or b is None:
        return None
    a_anchor, a_mod, a_lo, a_hi = a
    b_anchor, b_mod, b_lo, b_hi = b
    mod = gcd(gcd(a_mod, b_mod), abs(a_anchor - b_anchor))
    lo = None if a_lo is None or b_lo is None else min(a_lo, b_lo)
    hi = None if a_hi is None or b_hi is None else max(a_hi, b_hi)
    return (a_anchor, mod, lo, hi)


def _add(a, b, negate=False):
    if a is None or b is None:
        return None
    a_anchor, a_mod, a_lo, a_hi = a
    b_anchor, b_mod, b_lo, b_hi = b
    if negate:
        b_anchor, b_lo, b_hi = -b_anchor, \
            (None if b_hi is None else -b_hi), \
            (None if b_lo is None else -b_lo)
    lo = None if a_lo is None or b_lo is None else a_lo + b_lo
    hi = None if a_hi is None or b_hi is None else a_hi + b_hi
    return (a_anchor + b_anchor, gcd(a_mod, b_mod), lo, hi)


def _scale(a, factor):
    if a is None:
        return None
    anchor, mod, lo, hi = a
    if factor == 0:
        return (0, 0, 0, 0)
    if factor < 0:
        lo, hi = (None if hi is None else hi * factor), \
            (None if lo is None else lo * factor)
    else:
        lo = None if lo is None else lo * factor
        hi = None if hi is None else hi * factor
    return (anchor * factor, mod * abs(factor), lo, hi)


def _const(value):
    return (value, 0, value, value)


def _is_exact(form):
    return form is not None and form[1] == 0


def governing_cc(instructions, branch, loop):
    """Index of the condition-code writer feeding the branch at
    ``branch``: the nearest preceding in-loop, straight-line instruction
    that writes the condition codes, or None."""
    j = branch - 1
    while j >= 0 and j in loop.body:
        ins = instructions[j]
        if ins.is_control:
            return None
        if ins.writes_cc:
            return j
        j -= 1
    return None


class _Resolver:
    """Bounded-congruence evaluation of register values at sites, over
    one :class:`~repro.lint.induction.LoopValues` (its
    :attr:`~repro.lint.induction.LoopValues.resolver`)."""

    def __init__(self, values):
        self.program = values.program
        self.cfg = values.cfg
        self.forest = values.forest
        self.values = values
        self.reach = values.reach
        self._cache = {}
        self._bounds = {}

    # ------------------------------------------------------------------

    def address_form(self, i):
        """Form of memory instruction ``i``'s address, or None."""
        ins = self.program.instructions[i]
        if ins.rs1 < 0:
            return _const(ins.imm if ins.imm is not None else 0)
        base = self.value_at(ins.rs1, i)
        if ins.imm is not None:
            offset = _const(ins.imm)
        elif ins.rs2 >= 0:
            offset = self.value_at(ins.rs2, i)
        else:
            offset = _const(0)
        return _add(base, offset)

    def value_at(self, reg, site, _visiting=None):
        """Form of ``reg``'s value when ``site`` executes, or None."""
        if reg == 0:
            return _const(0)            # %g0 is hardwired zero
        key = (reg, site)
        if key in self._cache:
            return self._cache[key]
        if _visiting is None:
            _visiting = set()
        if key in _visiting:
            return None                 # unresolved cyclic definition
        _visiting.add(key)
        form = self._value_uncached(reg, site, _visiting)
        _visiting.discard(key)
        self._cache[key] = form
        return form

    def _value_uncached(self, reg, site, visiting):
        state = self.reach[site]
        if state is None:
            return None
        writers = state[reg]
        if writers & (1 << self.cfg.n):
            return None                 # entry value: not a program const
        # Split reaching writers into IV self-updates (folded in as a
        # congruence step + interval growth) and ordinary definitions.
        ivs = []
        iv_sites = set()
        loop = self.forest.loop_of(site)
        while loop is not None:
            iv = self.values.ivs_of(loop).get(reg)
            if iv is not None and any((writers >> w) & 1
                                      for w in iv.sites):
                ivs.append((iv, loop))
                iv_sites.update(iv.sites)
            loop = loop.parent
        base = None
        seeded = False
        mask = writers
        while mask:
            low = mask & -mask
            w = low.bit_length() - 1
            mask ^= low
            if w in iv_sites:
                continue
            form = self._def_value(w, visiting)
            if form is None:
                return None
            base = form if not seeded else _join(base, form)
            seeded = True
        if not seeded:
            # Only the self-update reaches: seed from the value flowing
            # into the update (same congruence class modulo the step).
            if len(iv_sites) != 1:
                return None
            base = self.value_at(reg, next(iter(iv_sites)), visiting)
            if base is None:
                return None
        for iv, loop in ivs:
            base = self._fold_iv(base, iv, loop)
        return base

    def _def_value(self, w, visiting):
        """Form of the value instruction ``w`` writes."""
        ins = self.program.instructions[w]
        op = ins.opcode
        if ins.is_load or op in (Opcode.CALL, Opcode.JMPL):
            return None
        if op is Opcode.SETHI:
            return _const((ins.imm << 10) & _MASK32)
        if op is Opcode.MOV:
            if ins.imm is not None:
                return _const(ins.imm)
            return self.value_at(ins.rs2, w, visiting)
        left = self.value_at(ins.rs1, w, visiting) if ins.rs1 >= 0 \
            else None
        if ins.imm is not None:
            right = _const(ins.imm)
        elif ins.rs2 >= 0:
            right = self.value_at(ins.rs2, w, visiting)
        else:
            right = None
        if op in _ADD_OPS or op in _SUB_OPS:
            return _add(left, right, negate=op in _SUB_OPS)
        if op is Opcode.SLL:
            if _is_exact(right) and 0 <= right[0] < 32:
                return _scale(left, 1 << right[0])
            return None
        if op in _MUL_OPS:
            if _is_exact(right):
                return _scale(left, right[0])
            if _is_exact(left):
                return _scale(right, left[0])
            return None
        fold = _EXACT_OPS.get(op)
        if fold is not None and _is_exact(left) and _is_exact(right):
            return _const(fold(left[0], right[0]))
        return None

    # ------------------------------------------------------------------

    def _fold_iv(self, base, iv, loop):
        """Widen ``base`` by the IV's per-iteration step, clamped by the
        loop's back-edge compare bound when one is recoverable."""
        if base is None:
            return None
        anchor, mod, lo, hi = base
        step = iv.step
        mod = gcd(mod, abs(step))
        blo, bhi = self._loop_bound(loop, iv.reg)
        if step > 0:
            # Values only grow.  Every continuing iteration passes the
            # back-edge check, so any value exceeds max(entry, bound)
            # by at most one unchecked step.
            hi = None if hi is None or bhi is None \
                else max(hi, bhi) + step
        else:
            lo = None if lo is None or blo is None \
                else min(lo, blo) + step
        return (anchor, mod, lo, hi)

    def _loop_bound(self, loop, reg):
        """Interval the back-edge compares guarantee for ``reg`` at the
        loop header, as ``(lo, hi)`` (either side may be None).

        Only the pattern ``subcc/cmp reg, imm`` immediately governing a
        conditional back-edge branch counts: that compare executes on
        every continuing iteration, so its constraint holds whenever
        the loop re-enters.  Several back edges must all bound the IV
        for the bound to survive (union of constraints).
        """
        key = (loop.header, reg)
        cached = self._bounds.get(key)
        if cached is not None:
            return cached
        instrs = self.program.instructions
        lo = hi = None
        usable = True
        for tail, header in loop.back_edges:
            ins = instrs[tail]
            if not ins.is_cond_branch or ins.target != header:
                usable = False
                break
            side = _BOUND_BRANCHES.get(ins.opcode)
            j = governing_cc(instrs, tail, loop)
            cc = instrs[j] if j is not None else None
            if side is None or cc is None or cc.opcode is not Opcode.SUBCC \
                    or cc.rs1 != reg or cc.imm is None:
                usable = False
                break
            which, delta = side
            bound = cc.imm + delta
            if which == "hi":
                hi = bound if hi is None else max(hi, bound)
            else:
                lo = bound if lo is None else min(lo, bound)
        if not usable:
            lo = hi = None
        self._bounds[key] = (lo, hi)
        return (lo, hi)


# ----------------------------------------------------------------------


def _disjoint(a, b):
    """True when two resolved address forms can never touch the same
    aligned word."""
    a_anchor, a_mod, a_lo, a_hi = a
    b_anchor, b_mod, b_lo, b_hi = b
    if a_hi is not None and b_lo is not None \
            and a_hi + WORD_SPAN - 1 < b_lo:
        return True
    if b_hi is not None and a_lo is not None \
            and b_hi + WORD_SPAN - 1 < a_lo:
        return True
    g = gcd(a_mod, b_mod)
    d = a_anchor - b_anchor
    if g == 0:
        return abs(d) >= WORD_SPAN
    r = d % g
    return r >= WORD_SPAN and g - r >= WORD_SPAN


class MemRef:
    """One static memory reference with its resolved address form."""

    __slots__ = ("index", "line", "pc", "kind", "form")

    def __init__(self, index, line, pc, kind, form):
        self.index = index
        self.line = line
        self.pc = pc
        self.kind = kind        # "load" | "store"
        self.form = form        # bounded congruence form or None

    def __repr__(self):
        return "<MemRef #%d %s form=%r>" % (self.index, self.kind,
                                            self.form)


class MemDepBound:
    """Per-program may-alias conflict pairs over loads x stores.

    ``conflict_pairs`` holds every ``(load index, store index)`` the
    analysis could not prove word-disjoint — the static upper bound on
    the store->load dependences any trace of the program can exhibit.
    """

    def __init__(self, program, values=None):
        self.program = program
        self.values = values if values is not None \
            else LoopValues(program)
        self.loads = []
        self.stores = []
        self._collect()
        self.conflict_pairs = self._conflicts()

    def _collect(self):
        resolver = self.values.resolver
        for i, ins in enumerate(self.program.instructions):
            if not (ins.is_load or ins.is_store):
                continue
            ref = MemRef(i, ins.line,
                         self.program.address_of_index(i),
                         "load" if ins.is_load else "store",
                         resolver.address_form(i))
            (self.loads if ins.is_load else self.stores).append(ref)

    def _conflicts(self):
        pairs = set()
        for load in self.loads:
            for store in self.stores:
                if load.form is None or store.form is None \
                        or not _disjoint(load.form, store.form):
                    pairs.add((load.index, store.index))
        return pairs

    # ------------------------------------------------------------------

    @property
    def pair_count(self):
        return len(self.loads) * len(self.stores)

    @property
    def conflict_count(self):
        return len(self.conflict_pairs)

    @property
    def resolved_refs(self):
        return sum(1 for ref in self.loads + self.stores
                   if ref.form is not None)

    def conflicts(self, load_index, store_index):
        return (load_index, store_index) in self.conflict_pairs

    def summary_rows(self):
        """Rows (index, line, kind, anchor, mod, lo, hi, conflicts) for
        the CLI ``--memdep`` table."""
        rows = []
        per_ref = {}
        for load_index, store_index in self.conflict_pairs:
            per_ref[load_index] = per_ref.get(load_index, 0) + 1
            per_ref[store_index] = per_ref.get(store_index, 0) + 1
        for ref in sorted(self.loads + self.stores,
                          key=lambda r: r.index):
            if ref.form is None:
                anchor = mod = lo = hi = "?"
            else:
                anchor, mod, lo, hi = ref.form
                anchor = "0x%x" % (anchor & _MASK32,)
                lo = "?" if lo is None else lo
                hi = "?" if hi is None else hi
            rows.append([ref.index,
                         ref.line if ref.line is not None else 0,
                         ref.kind, anchor, mod, lo, hi,
                         per_ref.get(ref.index, 0)])
        return rows


# ----------------------------------------------------------------------
# Dynamic cross-check: trace dependences and MDPT-learned pairs.
# ----------------------------------------------------------------------


class MemDepCheck(CheckResult):
    """Result of :func:`memdep_cross_check` for one program/trace."""

    __slots__ = ("dynamic_pairs", "static_pairs", "mdpt_pairs",
                 "mdpt_violations", "loads_seen", "stores_seen")

    def __init__(self):
        CheckResult.__init__(self)
        self.dynamic_pairs = 0
        self.static_pairs = 0
        self.mdpt_pairs = 0
        self.mdpt_violations = 0    # violations the simulated MDPT saw
        self.loads_seen = 0
        self.stores_seen = 0


def trace_dependence_pairs(program, trace):
    """Distinct word-granular (load site, store site) dependence pairs a
    trace actually exhibits — the same ``eff_addr >> 2`` rule the
    timing model uses for its memory arcs."""
    instrs = program.instructions
    is_load = [ins.is_load for ins in instrs]
    is_store = [ins.is_store for ins in instrs]
    last_store = {}
    pairs = set()
    loads = stores = 0
    sidx = trace.sidx
    eff_addr = trace.eff_addr
    for pos in range(len(sidx)):
        s = sidx[pos]
        if s >= len(instrs):
            continue
        if is_store[s]:
            stores += 1
            last_store[eff_addr[pos] >> 2] = s
        elif is_load[s]:
            loads += 1
            src = last_store.get(eff_addr[pos] >> 2)
            if src is not None:
                pairs.add((s, src))
    return pairs, loads, stores


def memdep_cross_check(bound, trace, result=None):
    """Verify the static conflict set against dynamic evidence.

    Two obligations, both directions of soundness:

    - every word-granular store->load dependence the trace exhibits
      must be a static conflict pair (a miss means the analysis proved
      "disjoint" for addresses that actually collided — unsound);
    - when ``result`` carries MDPT statistics (a config-F/G
      simulation), every violation pair the predictor learned must map
      back to a static conflict pair, so the static count bounds the
      distinct dynamic pair count from above.
    """
    check = MemDepCheck()
    program = bound.program
    pairs, loads, stores = trace_dependence_pairs(program, trace)
    check.loads_seen = loads
    check.stores_seen = stores
    check.dynamic_pairs = len(pairs)
    check.static_pairs = bound.conflict_count
    lines = [ins.line for ins in program.instructions]
    for load_index, store_index in sorted(pairs):
        if not bound.conflicts(load_index, store_index):
            check.violations.append(
                "trace dependence store #%d (line %s) -> load #%d "
                "(line %s) is not in the static conflict set — the "
                "disjointness proof is wrong for this pair"
                % (store_index, lines[store_index], load_index,
                   lines[load_index]))
    memdep = getattr(result, "memdep", None) if result is not None \
        else None
    if memdep is not None:
        by_pc = {program.address_of_index(i): i
                 for i in range(len(program.instructions))}
        check.mdpt_pairs = len(memdep.violation_pairs)
        check.mdpt_violations = memdep.violations
        for (load_pc, store_pc), count in sorted(
                memdep.violation_pairs.items()):
            load_index = by_pc.get(load_pc)
            store_index = by_pc.get(store_pc)
            if load_index is None or store_index is None:
                check.violations.append(
                    "MDPT violation pair (0x%x, 0x%x) does not map to "
                    "program sites" % (load_pc, store_pc))
                continue
            if not bound.conflicts(load_index, store_index):
                check.violations.append(
                    "MDPT learned store #%d -> load #%d (%d violations)"
                    " outside the static conflict set"
                    % (store_index, load_index, count))
    if check.static_pairs < check.dynamic_pairs:
        check.violations.append(
            "static conflict pairs %d < distinct dynamic dependence "
            "pairs %d" % (check.static_pairs, check.dynamic_pairs))
    return check


__all__ = ["MemDepBound", "MemDepCheck", "MemRef", "WORD_SPAN",
           "memdep_cross_check", "trace_dependence_pairs"]
