"""Automatic shrinking of failing differential cases.

Classic delta debugging specialized for the cell-structured body:
whole-cell deletion at halving granularity (ddmin), then cell-level
NOP-out (preserves addresses, so address-dependent failures survive),
then word-level NOP-out inside the remaining cells. Acceptance keeps a
candidate only if it still fails with the *same verdict class*
``(kind, group)`` as the original; every probe is a full deterministic
re-execution across all five backends, so the output is a pure
function of ``(root_seed, case_index, opts)`` -- byte-identical cells
on every rerun.
"""

from typing import Dict, List, Optional

from repro.fuzz import gen
from repro.fuzz.diff import run_case_spec

#: Probe budget. Each probe re-runs the case on all five backends, so
#: this bounds shrink cost; passes simply stop improving when it runs
#: out and the best-so-far candidate is returned.
MAX_EVALS = 160

_NOP_CELL = gen._NOP * (gen.CELL // 4)


def _verdict_key(result: Dict):
    return (result["verdict"]["kind"], result["verdict"]["group"])


def shrink_case(root_seed: int, case_index: int, opts: Dict,
                original: Dict) -> Dict:
    """Shrink one failing case (``original`` is its result); returns the
    minimal cells + stats."""
    spec = gen.generate_case(root_seed, case_index)
    key = _verdict_key(original)
    if key[0] == "ok":
        raise ValueError("shrink_case called on a passing case")

    evals = 0

    def probe(cells: List[bytes]) -> Optional[Dict]:
        nonlocal evals
        if evals >= MAX_EVALS:
            return None
        evals += 1
        candidate = gen.CaseSpec(root_seed=root_seed, case_index=case_index,
                                 layout=spec.layout, cells=list(cells))
        result = run_case_spec(candidate, opts)
        return result if _verdict_key(result) == key else None

    cells = list(spec.cells)
    best = original

    # pass 1: delete chunks of cells, halving the chunk size
    granularity = max(1, len(cells) // 2)
    while granularity >= 1:
        i = 0
        while i < len(cells):
            if len(cells) <= 1:
                break
            candidate = cells[:i] + cells[i + granularity:]
            result = probe(candidate) if candidate else None
            if result is not None:
                cells, best = candidate, result  # retry the same offset
            else:
                i += granularity
        granularity //= 2

    # pass 2: blank whole cells in place (keeps later addresses stable)
    for i in range(len(cells)):
        if cells[i] == _NOP_CELL:
            continue
        candidate = cells[:i] + [_NOP_CELL] + cells[i + 1:]
        result = probe(candidate)
        if result is not None:
            cells, best = candidate, result

    # pass 3: blank individual instructions inside surviving cells
    for i in range(len(cells)):
        offset = 0
        while offset < gen.CELL:
            word = int.from_bytes(cells[i][offset:offset + 4], "little")
            length = 8 if (word >> 24) & 0x80 else 4
            if word != 0:
                patched = (cells[i][:offset] + gen._NOP * (length // 4)
                           + cells[i][offset + length:])
                candidate = cells[:i] + [patched] + cells[i + 1:]
                result = probe(candidate)
                if result is not None:
                    cells, best = candidate, result
                    length = 4  # the slot is NOPs now; rescan finely
            offset += length

    shrunk = gen.CaseSpec(root_seed=root_seed, case_index=case_index,
                          layout=spec.layout, cells=cells)
    return {
        "cells": cells,
        "result": best,
        "evals": evals,
        "original_cells": len(spec.cells),
        "shrunk_cells": len(cells),
        "body_instructions": shrunk.body_instructions,
    }
