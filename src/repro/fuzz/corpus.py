"""Corpus persistence: shrunk repros as replayable JSON + repro scripts.

One corpus entry is one shrunk failing case, stored as JSON under the
``pyvisor.fuzz.corpus/1`` schema. The entry pins the case *identity*
(``root_seed``/``case_index``: the layout re-derives from these), the
shrunk ``cells`` as hex, the options it ran under (including the bug
shim it diverges under, if any), and the recorded verdict. Replaying
an entry re-executes it across all five backends and checks the
verdict class still matches -- which makes a directory of entries a
regression suite: cases shrunk under a bug shim must still flag with
the shim applied and must pass clean at HEAD.

``write_repro_script`` additionally emits a standalone Python script
(with a disassembly of the body) for debugging a single case by hand.
"""

import json
import os
from typing import Dict, List

from repro.cpu.disasm import disassemble
from repro.fuzz import gen
from repro.fuzz.diff import run_case_spec

CORPUS_SCHEMA = "pyvisor.fuzz.corpus/1"


def make_entry(root_seed: int, case_index: int, cells: List[bytes],
               opts: Dict, verdict: Dict, shrink_evals: int = 0) -> Dict:
    spec = gen.CaseSpec(root_seed=root_seed, case_index=case_index,
                        layout=gen.derive_layout(root_seed, case_index),
                        cells=list(cells))
    return {
        "schema": CORPUS_SCHEMA,
        "root_seed": root_seed,
        "case_index": case_index,
        "opts": {k: v for k, v in sorted(opts.items())},
        "cells": [c.hex() for c in cells],
        "verdict": verdict,
        "shrink_evals": shrink_evals,
        "body_instructions": spec.body_instructions,
    }


def entry_spec(entry: Dict) -> gen.CaseSpec:
    if entry.get("schema") != CORPUS_SCHEMA:
        raise ValueError(f"not a corpus entry: schema={entry.get('schema')!r}")
    root_seed, case_index = entry["root_seed"], entry["case_index"]
    return gen.CaseSpec(
        root_seed=root_seed, case_index=case_index,
        layout=gen.derive_layout(root_seed, case_index),
        cells=[bytes.fromhex(c) for c in entry["cells"]],
    )


def save_entry(path: str, entry: Dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_entry(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def replay_entry(entry: Dict, with_bug: bool) -> Dict:
    """Re-execute a corpus entry; ``with_bug=False`` replays at HEAD
    behaviour (shim stripped), which committed repros must pass."""
    opts = dict(entry.get("opts") or {})
    if not with_bug:
        opts["bug"] = None
    return run_case_spec(entry_spec(entry), opts)


def load_corpus(directory: str) -> List[Dict]:
    entries = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            entries.append(load_entry(os.path.join(directory, name)))
    return entries


def write_repro_script(path: str, entry: Dict) -> None:
    """Emit a standalone repro script for one corpus entry."""
    spec = entry_spec(entry)
    body = b"".join(spec.cells)
    listing = "\n".join(
        "#   " + line for line in disassemble(body, base=gen.BODY_BASE)
    )
    opts_src = json.dumps(entry.get("opts") or {}, sort_keys=True)
    cells_src = ",\n    ".join(f'"{c.hex()}"' for c in spec.cells)
    verdict = json.dumps(entry["verdict"], sort_keys=True)
    script = f'''"""Auto-generated minimal repro (pyvisor fuzz shrinker).

Case root_seed={entry["root_seed"]} index={entry["case_index"]}
Recorded verdict: {verdict}

Body disassembly (base {gen.BODY_BASE:#x}):
{listing}
"""

import json

from repro.fuzz import corpus

ENTRY = {{
    "schema": "{CORPUS_SCHEMA}",
    "root_seed": {entry["root_seed"]},
    "case_index": {entry["case_index"]},
    "opts": json.loads({opts_src!r}),
    "cells": [{cells_src}],
    "verdict": json.loads({verdict!r}),
}}


def main() -> int:
    result = corpus.replay_entry(ENTRY, with_bug=True)
    verdict = result["verdict"]
    print("verdict:", json.dumps(verdict, sort_keys=True))
    print("outcomes:", json.dumps(result["outcomes"], sort_keys=True))
    want = (ENTRY["verdict"]["kind"], ENTRY["verdict"]["group"])
    got = (verdict["kind"], verdict["group"])
    if got == want:
        print("reproduced.")
        return 1
    print(f"did not reproduce (wanted {{want}}, got {{got}}).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
'''
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(script)
