"""ASCII chart renderer."""

import pytest
from hypothesis import given, strategies as st

from repro.util.chart import MARKERS, ascii_chart


def test_basic_render_contains_everything():
    text = ascii_chart(
        {"up": [(1, 1), (2, 2), (3, 3)], "down": [(1, 3), (2, 2), (3, 1)]},
        title="T", x_label="xs", y_label="ys",
    )
    assert "T" in text
    assert "[x: xs]" in text and "[y: ys]" in text
    assert "* = up" in text and "o = down" in text
    # both extremes labelled on the y-axis
    assert "3" in text and "1" in text


def test_points_land_at_grid_extremes():
    text = ascii_chart({"s": [(0, 0), (10, 10)]})
    rows = [line for line in text.splitlines() if "|" in line]
    assert rows[0].rstrip().endswith("*")  # max point: top right
    assert rows[-1].split("|")[1][0] == "*"  # min point: bottom left


def test_log_axes():
    text = ascii_chart(
        {"s": [(1, 1), (10, 100), (100, 10000)]},
        log_x=True, log_y=True,
    )
    assert "10,000" in text
    with pytest.raises(ValueError):
        ascii_chart({"s": [(0, 1)]}, log_x=True)
    with pytest.raises(ValueError):
        ascii_chart({"s": [(1, -5)]}, log_y=True)


def test_degenerate_inputs_rejected():
    with pytest.raises(ValueError):
        ascii_chart({})
    with pytest.raises(ValueError):
        ascii_chart({"s": []})


def test_flat_series_renders():
    text = ascii_chart({"flat": [(0, 5), (1, 5), (2, 5)]})
    assert "*" in text


@given(st.lists(st.tuples(
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=-1e6, max_value=1e6)), min_size=1, max_size=40))
def test_never_crashes_on_linear_axes(points):
    text = ascii_chart({"fuzz": points})
    lines = text.splitlines()
    grid_rows = [line for line in lines if "|" in line]
    assert len(grid_rows) == 16
    # every marker cell is inside the grid width
    for row in grid_rows:
        assert len(row.split("|", 1)[1]) <= 64


def test_many_series_cycle_markers():
    series = {f"s{i}": [(i, i)] for i in range(10)}
    text = ascii_chart(series)
    for i in range(len(MARKERS)):
        assert f"{MARKERS[i]} = s{i}" in text
