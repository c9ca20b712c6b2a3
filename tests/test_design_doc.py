"""DESIGN.md may not grow, and every ``path::Name`` it cites exists.

Growth needs a deletion: ``MAX_BYTES`` is the file's size today, and a
change that shrinks it lowers the figure. A cited file or name that a
change renamed or deleted fails here, not in a reader's hands. A path
is the repository's (``tests/...``) or the package's (``cpu/isa.py``);
a name is a top-level one of that file or ``Class.attribute``.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESIGN = os.path.join(ROOT, "DESIGN.md")
#: The most DESIGN.md may hold, in bytes.
MAX_BYTES = 92_428
CITATION = re.compile(r"`([\w./-]+\.py)::([\w.]+)`")


def _names(path):
    """Top-level names of the module at ``path``, and ``Class.attr`` for
    what each top-level class body defines."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)

    def defined(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                yield from (t.id for t in targets if isinstance(t, ast.Name))

    names = set(defined(tree.body))
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{name}" for name in defined(node.body))
    return names


def test_design_md_does_not_grow():
    assert os.path.getsize(DESIGN) <= MAX_BYTES


def test_every_cited_name_exists():
    with open(DESIGN, encoding="utf-8") as fh:
        citations = CITATION.findall(fh.read())
    assert len(citations) >= 13
    missing = []
    for path, name in citations:
        found = [p for p in (os.path.join(ROOT, path), os.path.join(ROOT, "src", "repro", path))
                 if os.path.isfile(p)]
        if not found or name not in _names(found[0]):
            missing.append(f"{path}::{name}")
    assert not missing, f"DESIGN.md cites what does not exist: {missing}"
