"""Byte and page sizes.

The whole platform uses a 4 KiB page; changing :data:`PAGE_SIZE` is not
supported because guest page-table formats encode the 10/10/12 split of
32-bit virtual addresses (see :mod:`repro.mem.paging`).
"""

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Size of one physical/virtual page in bytes.
PAGE_SIZE = 4 * KIB
#: log2(PAGE_SIZE); offset width of a virtual address.
PAGE_SHIFT = 12

assert 1 << PAGE_SHIFT == PAGE_SIZE


def bytes_to_pages(nbytes: int) -> int:
    """Return the number of pages needed to hold ``nbytes`` (rounds up)."""
    return (nbytes + PAGE_SIZE - 1) >> PAGE_SHIFT
