"""Forward/backward dataflow checks over the lint CFG.

Three classic bit-vector analyses at instruction granularity, each a
few-hundred-element fixpoint over 33-bit masks (32 registers + the
condition codes as bit 32):

- *definite assignment* (forward, meet = intersection) powers the
  uninitialized-register-read and cc-before-branch checks;
- *liveness* (backward, meet = union) powers the dead-register-write
  check;
- strict reachability powers the unreachable-code and
  fallthrough-past-``.text`` checks.

Calls are treated conservatively in both directions: a ``call``'s
fallthrough edge defines every register and the condition codes (the
callee is opaque and may set anything), while ``call`` and ``jmpl``
*use* every register (arguments, results and preserved state live in
registers).  This suppresses interprocedural false positives at the
cost of missing some intraprocedural facts across calls — the right
trade for a linter that must run clean on correct programs.
"""

from ..isa.opcodes import Opcode, OpClass
from ..isa.registers import G0, SP, reg_name
from .findings import Finding

CC_BIT = 32
ALL_MASK = (1 << 33) - 1
#: registers defined before ``main`` runs: %g0 (hardwired) and the
#: stack pointer the emulator initialises (see ``emu.machine``)
ENTRY_MASK = (1 << G0) | (1 << SP)

#: classes whose only architectural effect is a register/cc result
_VALUE_CLASSES = frozenset((OpClass.AR, OpClass.LG, OpClass.SH,
                            OpClass.MV, OpClass.LD, OpClass.MUL,
                            OpClass.DIV))


def reg_reads(ins):
    """Architectural register sources of one instruction (no %g0)."""
    reads = []
    if ins.opcode is Opcode.SETHI:
        return reads
    if ins.opcode is Opcode.MOV:
        if ins.imm is None and ins.rs2 > 0:
            reads.append(ins.rs2)
        return reads
    if ins.rs1 > 0:
        reads.append(ins.rs1)
    if ins.imm is None and ins.rs2 > 0 and ins.rs2 != ins.rs1:
        reads.append(ins.rs2)
    if ins.is_store and ins.rd > 0:
        reads.append(ins.rd)         # store data register
    return reads


def reg_defs(ins):
    """Architectural register destinations (no %g0; stores have none)."""
    if not ins.is_store and ins.rd > 0:
        return [ins.rd]
    return []


def _use_mask(ins):
    if ins.opcode in (Opcode.CALL, Opcode.JMPL):
        return ALL_MASK
    mask = 0
    for r in reg_reads(ins):
        mask |= 1 << r
    if ins.reads_cc:
        mask |= 1 << CC_BIT
    return mask


def _def_mask(ins):
    mask = 0
    for r in reg_defs(ins):
        mask |= 1 << r
    if ins.writes_cc:
        mask |= 1 << CC_BIT
    return mask


# ----------------------------------------------------------------------
# Forward: definite assignment (uninitialized reads, cc before branch).
# ----------------------------------------------------------------------

def definite_assignment(program, cfg):
    """Forward must-be-assigned masks, one per instruction.

    ``result[i]`` has bit ``r`` set when register ``r`` is definitely
    written on *every* strict path from the entry to instruction ``i``
    (bit :data:`CC_BIT` for the condition codes).  Shared by the
    uninit-read/cc-missing checks and the address-classification pass's
    ``addr-untracked`` finding.
    """
    instrs = program.instructions
    n = cfg.n
    live_in = [ALL_MASK] * n
    if not n:
        return live_in
    live_in[cfg.entry] = ENTRY_MASK
    work = [cfg.entry]
    while work:
        i = work.pop()
        ins = instrs[i]
        out = live_in[i] | _def_mask(ins)
        for s in cfg.successors(i):
            if s >= n:
                continue
            # The fallthrough edge of a call sees the callee's effects:
            # assume the callee may define anything.
            edge_out = ALL_MASK \
                if ins.opcode is Opcode.CALL and s == i + 1 else out
            new = live_in[s] & edge_out
            if new != live_in[s]:
                live_in[s] = new
                work.append(s)
    return live_in


def check_assignment(program, cfg, file="<program>"):
    instrs = program.instructions
    if not cfg.n:
        return []
    live_in = definite_assignment(program, cfg)
    findings = []
    for i in sorted(cfg.reachable):
        ins = instrs[i]
        mask = live_in[i]
        for r in reg_reads(ins):
            if not (mask >> r) & 1:
                findings.append(Finding(
                    "uninit-read",
                    "%s reads %s, which may be uninitialized on a path "
                    "from the entry point" % (ins.opcode.name.lower(),
                                              reg_name(r)),
                    file=file, line=ins.line, index=i))
        if ins.reads_cc and not (mask >> CC_BIT) & 1:
            findings.append(Finding(
                "cc-missing",
                "conditional branch %s has a path from the entry point "
                "with no prior condition-code write (cmp or an *cc op)"
                % (ins.opcode.name.lower(),),
                file=file, line=ins.line, index=i))
    return findings


# ----------------------------------------------------------------------
# Backward: liveness (dead register / condition-code results).
# ----------------------------------------------------------------------

def check_dead_results(program, cfg, file="<program>"):
    instrs = program.instructions
    n = cfg.n
    if not n:
        return []
    preds = cfg.preds
    live_in = [0] * n
    live_out = [0] * n
    work = list(range(n))
    while work:
        i = work.pop()
        ins = instrs[i]
        out = 0
        for s in cfg.successors(i):
            if s < n:
                out |= live_in[s]
        live_out[i] = out
        new_in = _use_mask(ins) | (out & ~_def_mask(ins))
        if new_in != live_in[i]:
            live_in[i] = new_in
            work.extend(preds[i])
    findings = []
    for i in sorted(cfg.reachable):
        ins = instrs[i]
        if ins.opclass not in _VALUE_CLASSES:
            continue
        out = live_out[i]
        has_rd = ins.rd > 0
        rd_dead = has_rd and not (out >> ins.rd) & 1
        cc_dead = not ins.writes_cc or not (out >> CC_BIT) & 1
        if (not has_rd or rd_dead) and cc_dead:
            if has_rd:
                message = ("result of %s in %s is never read "
                           "(dead register write)"
                           % (ins.opcode.name.lower(), reg_name(ins.rd)))
            elif ins.writes_cc:
                message = ("condition codes set by %s are never read"
                           % (ins.opcode.name.lower(),))
            else:
                message = ("%s discards its result (destination %%g0) "
                           "and has no other effect"
                           % (ins.opcode.name.lower(),))
            findings.append(Finding("dead-store", message,
                                    file=file, line=ins.line, index=i))
    return findings


# ----------------------------------------------------------------------
# Reachability: unreachable code, fallthrough past the end of .text.
# ----------------------------------------------------------------------

def check_unreachable(program, cfg, file="<program>"):
    instrs = program.instructions
    findings = []
    run_start = None
    for i in range(cfg.n + 1):
        unreachable = i < cfg.n and i not in cfg.reachable
        if unreachable and run_start is None:
            run_start = i
        elif not unreachable and run_start is not None:
            count = i - run_start
            ins = instrs[run_start]
            findings.append(Finding(
                "unreachable",
                "%d instruction%s unreachable from the entry point"
                % (count, "" if count == 1 else "s"),
                file=file, line=ins.line, index=run_start))
            run_start = None
    return findings


def check_off_end(program, cfg, file="<program>"):
    instrs = program.instructions
    findings = []
    if not cfg.n:
        findings.append(Finding(
            "fallthrough-end", "program has an empty .text section",
            file=file))
        return findings
    for i in cfg.off_end_sites():
        ins = instrs[i]
        findings.append(Finding(
            "fallthrough-end",
            "control can fall through past the end of .text after %s "
            "(no halt or branch terminates this path)"
            % (ins.opcode.name.lower(),),
            file=file, line=ins.line, index=i))
    return findings


__all__ = ["check_assignment", "check_dead_results", "check_unreachable",
           "check_off_end", "definite_assignment", "reg_reads",
           "reg_defs", "ALL_MASK", "ENTRY_MASK", "CC_BIT"]
