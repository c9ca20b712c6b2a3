"""The surface audit's two lists name what exists, each with its reason.

``benchmarks/reach.py`` (the CI ``surface`` job, minutes) compares them
with what its entry points reach and set; this reads them against the
source alone, so a rename or a deletion fails here first.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "reach", os.path.join(ROOT, "benchmarks", "reach.py"))
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

FUNCTIONS = {key for *_where, key, _node in reach.sources()}
OPTIONS = ({key for names in reach.parameters().values()
            for _name, key in names}
           | {key for names in reach.fields().values()
              for _name, key in names})


@pytest.mark.parametrize("path, exists", [
    (reach.LIST, FUNCTIONS.__contains__),
    (reach.OPTIONS, OPTIONS.__contains__),
], ids=["unreached.txt", "options.txt"])
def test_every_entry_exists_and_says_why(path, exists):
    listed = reach.read_list(path)
    assert listed, f"{path} lists nothing"
    missing = sorted(key for key in listed if not exists(key))
    assert not missing, f"{path} names what src/repro lacks: {missing}"
    silent = sorted(key for key, why in listed.items() if not why)
    assert not silent, f"{path} gives no reason for: {silent}"


def test_every_option_keeps_an_allowed_reason():
    listed = reach.read_list(reach.OPTIONS)
    bad = sorted(key for key, why in listed.items()
                 if not why.startswith(reach.OPTION_REASONS))
    assert not bad, f"options.txt reasons outside OPTION_REASONS: {bad}"


def test_every_unreached_function_keeps_an_allowed_reason():
    listed = reach.read_list(reach.LIST)
    bad = sorted(key for key, why in listed.items()
                 if not why.startswith(reach.FUNCTION_REASONS))
    assert not bad, f"unreached.txt reasons outside FUNCTION_REASONS: {bad}"
