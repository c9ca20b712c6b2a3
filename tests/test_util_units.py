"""Units."""

import pytest

from repro.util.units import (
    GIB,
    KIB,
    MIB,
    PAGE_SHIFT,
    PAGE_SIZE,
    bytes_to_pages,
)


def test_constants_consistent():
    assert KIB == 1024
    assert MIB == 1024 * KIB
    assert GIB == 1024 * MIB
    assert PAGE_SIZE == 1 << PAGE_SHIFT == 4096


@pytest.mark.parametrize(
    "nbytes,pages",
    [(0, 0), (1, 1), (PAGE_SIZE, 1), (PAGE_SIZE + 1, 2), (10 * PAGE_SIZE, 10)],
)
def test_bytes_to_pages_rounds_up(nbytes, pages):
    assert bytes_to_pages(nbytes) == pages
