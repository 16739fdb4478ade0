"""Sparse paged byte-addressable memory.

The emulator needs a few disjoint regions (text is separate, data, heap,
stack), so memory is a dictionary of fixed-size ``bytearray`` pages
allocated on first touch.  All multi-byte accesses are little-endian; this
diverges from real SPARC (big-endian) but is internally consistent — the
workloads and their reference checkers both go through this class, and
endianness has no effect on dependence structure.
"""

from ..errors import EmulationError

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1


class Memory:
    """Byte-addressable sparse memory with on-demand page allocation."""

    __slots__ = ("_pages", "limit")

    def __init__(self, limit=1 << 31):
        self._pages = {}
        self.limit = limit

    def _page(self, address):
        if address < 0 or address >= self.limit:
            raise EmulationError("memory access out of range: 0x%x"
                                 % (address,))
        page_number = address >> PAGE_SHIFT
        page = self._pages.get(page_number)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_number] = page
        return page

    # ------------------------------------------------------------------
    # Byte-wise primitives.
    # ------------------------------------------------------------------

    def read_u8(self, address):
        return self._page(address)[address & PAGE_MASK]

    def write_u8(self, address, value):
        self._page(address)[address & PAGE_MASK] = value & 0xFF

    # ------------------------------------------------------------------
    # Multi-byte accessors (little-endian).  The hot paths (u32 aligned
    # within one page) avoid per-byte loops.
    # ------------------------------------------------------------------

    def read_u32(self, address):
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 4:
            page = self._page(address)
            return int.from_bytes(page[offset:offset + 4], "little")
        return (self.read_u8(address)
                | (self.read_u8(address + 1) << 8)
                | (self.read_u8(address + 2) << 16)
                | (self.read_u8(address + 3) << 24))

    def write_u32(self, address, value):
        value &= 0xFFFFFFFF
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 4:
            page = self._page(address)
            page[offset:offset + 4] = value.to_bytes(4, "little")
            return
        self.write_u8(address, value)
        self.write_u8(address + 1, value >> 8)
        self.write_u8(address + 2, value >> 16)
        self.write_u8(address + 3, value >> 24)

    def read_u16(self, address):
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 2:
            page = self._page(address)
            return int.from_bytes(page[offset:offset + 2], "little")
        return self.read_u8(address) | (self.read_u8(address + 1) << 8)

    def write_u16(self, address, value):
        value &= 0xFFFF
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 2:
            page = self._page(address)
            page[offset:offset + 2] = value.to_bytes(2, "little")
            return
        self.write_u8(address, value)
        self.write_u8(address + 1, value >> 8)

    def read_s8(self, address):
        value = self.read_u8(address)
        return value - 0x100 if value & 0x80 else value

    def read_s16(self, address):
        value = self.read_u16(address)
        return value - 0x10000 if value & 0x8000 else value

    # ------------------------------------------------------------------
    # Bulk helpers.
    # ------------------------------------------------------------------

    def load_bytes(self, address, payload):
        """Copy ``payload`` into memory starting at ``address``."""
        for i, byte in enumerate(payload):
            self.write_u8(address + i, byte)

    def read_words(self, address, count):
        """Read ``count`` 32-bit words starting at ``address``."""
        return [self.read_u32(address + 4 * i) for i in range(count)]
