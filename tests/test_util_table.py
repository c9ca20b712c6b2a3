"""Table renderer."""

import pytest
from hypothesis import given, strategies as st

from repro.util.table import Table


def test_render_alignment_and_content():
    table = Table("T", ["name", "value"])
    table.add_row("alpha", 1)
    table.add_row("b", 123456)
    text = table.render()
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[2] and "value" in lines[2]
    assert "alpha" in text and "123,456" in text
    # all data rows have equal width
    widths = {len(line) for line in lines[2:]}
    assert len(widths) == 1


def test_row_arity_checked():
    table = Table("T", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)


def test_empty_columns_rejected():
    with pytest.raises(ValueError):
        Table("T", [])


def test_bool_and_float_formatting():
    table = Table("T", ["c"])
    table.add_row(True)
    table.add_row(False)
    table.add_row(0.000123)
    table.add_row(3.14159)
    table.add_row(12345.6)
    rows = [line.strip() for line in table.render().splitlines()[4:]]
    assert rows[0] == "yes" and rows[1] == "no"
    assert rows[2] == "0.000123"
    assert rows[3] == "3.14"
    assert rows[4] == "12,346"


@given(st.lists(st.tuples(st.integers(), st.floats(allow_nan=False,
                                                   allow_infinity=False),
                          st.text(max_size=10)),
                min_size=0, max_size=10))
def test_render_never_crashes(rows):
    table = Table("fuzz", ["i", "f", "s"])
    for row in rows:
        table.add_row(*row)
    text = table.render()
    assert "fuzz" in text
