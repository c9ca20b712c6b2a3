"""``benchmarks/history/reduce.py``: the per-PR perf record's outlier check."""

import importlib.util
import json
import os

HISTORY = os.path.join(os.path.dirname(__file__), os.pardir,
                       "benchmarks", "history")


def _reduce_module():
    spec = importlib.util.spec_from_file_location(
        "history_reduce", os.path.join(HISTORY, "reduce.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(name):
    with open(os.path.join(HISTORY, name)) as handle:
        return json.load(handle)


def test_moved_flags_the_known_outlier():
    # 0020's hw-shadow vblk_write cell was one slow op (0.059 against
    # 0.56-0.95 in the four records before it): the case the check is for.
    flagged = _reduce_module().moved(_record("0020.json"), _record("0019.json"))
    assert flagged == [("engine.hw-shadow.mips.vblk_write", 0.661258, 0.058718)]


def test_moved_is_symmetric_and_counts_zero():
    moved = _reduce_module().moved
    old = {"layers": {"up": 1.0, "down": 9.0, "same": 5.0, "gone": 1.0,
                      "from_zero": 0.0, "zero": 0.0, "edge": 1.0,
                      "x.trace_overhead_frac": -0.001}}
    new = {"layers": {"up": 3.5, "down": 2.0, "same": 6.0, "new": 1.0,
                      "from_zero": 2.0, "zero": 0.0, "edge": 3.0,
                      "x.trace_overhead_frac": 0.02}}
    assert moved(new, old) == [("down", 9.0, 2.0), ("from_zero", 0.0, 2.0),
                               ("up", 1.0, 3.5)]
