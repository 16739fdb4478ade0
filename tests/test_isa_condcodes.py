"""Condition-code semantics (SPARC v8 icc: N, Z, V, C) as the emulator
computes them, including property tests against Python comparisons."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.asm import assemble
from repro.emu import Machine
from repro.errors import AssemblyError

MASK32 = 0xFFFFFFFF

u32 = st.integers(min_value=0, max_value=MASK32)


def to_signed(value):
    return value - (1 << 32) if value & 0x80000000 else value


#: Each conditional branch after ``cmp a, b``, against Python's
#: comparison of the two words (signed for the signed branches).
BRANCHES = {
    "be": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "bl": lambda a, b: to_signed(a) < to_signed(b),
    "ble": lambda a, b: to_signed(a) <= to_signed(b),
    "bg": lambda a, b: to_signed(a) > to_signed(b),
    "bge": lambda a, b: to_signed(a) >= to_signed(b),
    "blu": lambda a, b: a < b,
    "bleu": lambda a, b: a <= b,
    "bgu": lambda a, b: a > b,
    "bgeu": lambda a, b: a >= b,
    "bneg": lambda a, b: to_signed((a - b) & MASK32) < 0,
    "bpos": lambda a, b: to_signed((a - b) & MASK32) >= 0,
}


def run(source):
    machine = Machine(assemble(".text\nmain:\n" + source + "\nhalt"))
    machine.run()
    return machine


def flags(machine):
    return (machine.cc_n, machine.cc_z, machine.cc_v, machine.cc_c)


def flags_after(op, a, b):
    """(N, Z, V, C) after ``op a, b`` (``addcc``, ``subcc``, ``orcc``)."""
    return flags(run("set %d, %%l0\nset %d, %%l1\n%s %%l0, %%l1, %%l2"
                     % (a, b, op)))


def taken_after_cmp(a, b):
    """The set of branch mnemonics the emulator takes after ``cmp a,
    b``: one program runs every branch on the same flags, each taken
    branch setting its own bit of ``%l2``."""
    lines = ["set %d, %%l0" % a, "set %d, %%l1" % b, "mov 0, %l2",
             "cmp %l0, %l1"]
    for bit, mnemonic in enumerate(BRANCHES):
        lines += ["%s taken%d" % (mnemonic, bit), "ba next%d" % bit,
                  "taken%d: or %%l2, %d, %%l2" % (bit, 1 << bit),
                  "next%d:" % bit]
    mask = run("\n".join(lines)).regs[18]
    return {mnemonic for bit, mnemonic in enumerate(BRANCHES)
            if mask >> bit & 1}


def test_to_signed_boundaries():
    """The signed branches order the boundary words as -2**31 < -1 < 0
    < 2**31 - 1; the unsigned ones as 0 < 2**31 - 1 < 2**31 < 2**32 - 1."""
    signed = (0x80000000, 0xFFFFFFFF, 0, 0x7FFFFFFF)
    for low, high in zip(signed, signed[1:]):
        assert {"bl", "ble"} <= taken_after_cmp(low, high)
        assert {"bg", "bge"} <= taken_after_cmp(high, low)
    unsigned = sorted(signed)
    for low, high in zip(unsigned, unsigned[1:]):
        assert {"blu", "bleu"} <= taken_after_cmp(low, high)


@given(u32)
def test_signed_unsigned_round_trip(value):
    """``smul``/``sdiv`` by one read the word as signed and write it
    back as the same 32-bit pattern."""
    machine = run("set %d, %%l0\nsmul %%l0, 1, %%l1\nsdiv %%l0, 1, %%l2"
                  % value)
    assert machine.regs[17] == value
    assert machine.regs[18] == value


def test_logic_flags():
    # orcc clears the V and C an overflowing, carrying addcc set.
    machine = run("set 0x80000000, %l0\naddcc %l0, %l0, %l1\n"
                  "orcc %g0, 0, %l2")
    assert flags(machine) == (False, True, False, False)
    machine = run("set 0x80000000, %l0\naddcc %l0, %l0, %l1\n"
                  "orcc %l0, 0, %l2")
    assert flags(machine) == (True, False, False, False)


def test_sub_borrow():
    n, z, v, c = flags_after("subcc", 1, 2)
    assert c             # borrow: 1 < 2 unsigned
    assert n
    n, z, v, c = flags_after("subcc", 2, 1)
    assert not c and not z
    n, z, v, c = flags_after("subcc", 5, 5)
    assert z and not c   # equal words borrow nothing


def test_add_carry_and_overflow():
    n, z, v, c = flags_after("addcc", 0xFFFFFFFF, 1)
    assert c and z and not v
    n, z, v, c = flags_after("addcc", 0x7FFFFFFF, 1)
    assert v and n and not c


@given(u32, u32)
def test_add_flags_match_reference(a, b):
    """Flags after ``addcc a, b`` against Python's unbounded sum."""
    total = a + b
    signed = to_signed(a) + to_signed(b)
    assert flags_after("addcc", a, b) == (
        bool(total & 0x80000000), total & MASK32 == 0,
        not -(1 << 31) <= signed < 1 << 31, total > MASK32)


@given(u32, u32)
@example(5, 5)
@example(0, MASK32)
@example(0x80000000, 0x7FFFFFFF)
def test_sub_flags_match_reference(a, b):
    """Every branch after cmp(a, b) agrees with Python-level comparisons."""
    assert taken_after_cmp(a, b) == {
        mnemonic for mnemonic, holds in BRANCHES.items() if holds(a, b)}


def test_branch_taken_unknown_condition():
    with pytest.raises(AssemblyError, match="unknown mnemonic"):
        assemble(".text\nmain:\nbxyzzy main\nhalt")
