"""Sparse memory tests, including cross-page and property-based checks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.emu.memory import PAGE_SIZE, Memory
from repro.errors import EmulationError


def test_default_zero():
    mem = Memory()
    assert mem.read_u32(0x1234) == 0
    assert mem.read_u8(99) == 0


def test_u8_round_trip():
    mem = Memory()
    mem.write_u8(5, 0xAB)
    assert mem.read_u8(5) == 0xAB


def test_u32_little_endian_layout():
    mem = Memory()
    mem.write_u32(0x100, 0x11223344)
    assert mem.read_u8(0x100) == 0x44
    assert mem.read_u8(0x103) == 0x11


def test_cross_page_u32():
    mem = Memory()
    address = PAGE_SIZE - 2
    mem.write_u32(address, 0xDEADBEEF)
    assert mem.read_u32(address) == 0xDEADBEEF


def test_cross_page_u16():
    mem = Memory()
    address = PAGE_SIZE - 1
    mem.write_u16(address, 0xCAFE)
    assert mem.read_u16(address) == 0xCAFE


def test_signed_reads():
    mem = Memory()
    mem.write_u8(0, 0xFF)
    assert mem.read_s8(0) == -1
    mem.write_u16(2, 0x8000)
    assert mem.read_s16(2) == -32768
    mem.write_u16(4, 0x7FFF)
    assert mem.read_s16(4) == 32767


def test_value_masking():
    mem = Memory()
    mem.write_u8(0, 0x1FF)
    assert mem.read_u8(0) == 0xFF
    mem.write_u32(4, 1 << 40)
    assert mem.read_u32(4) == 0


def test_out_of_range_rejected():
    mem = Memory(limit=0x1000)
    with pytest.raises(EmulationError):
        mem.read_u8(0x1000)
    with pytest.raises(EmulationError):
        mem.write_u8(-1, 0)


def test_bulk_helpers():
    mem = Memory()
    mem.load_bytes(0x200, b"hello")
    assert [mem.read_u8(0x200 + i) for i in range(5)] == list(b"hello")
    mem.load_bytes(0x300, bytes([1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0]))
    assert mem.read_words(0x300, 3) == [1, 2, 3]


@given(st.integers(min_value=0, max_value=2**20),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_u32_round_trip_property(address, value):
    mem = Memory()
    mem.write_u32(address, value)
    assert mem.read_u32(address) == value


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=4 * PAGE_SIZE),
                          st.integers(min_value=0, max_value=255)),
                max_size=40))
def test_memory_behaves_like_dict(writes):
    """Memory must agree with a plain dict model under arbitrary writes."""
    mem = Memory()
    model = {}
    for address, value in writes:
        mem.write_u8(address, value)
        model[address] = value
    for address, value in model.items():
        assert mem.read_u8(address) == value
