"""Every public function and class of the core modules has a user outside the tests.

A name is used when it appears as a whole word in ``src/convalg`` outside
its own definition, in ``perfbench/*.py`` or in ``README.md``.  A name
reached only by tests is deleted, or listed in ``ALLOWED`` with the
reason it stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "convalg"
MODULES = ("weights", "seqalg", "circlemaps", "compops", "groupalg")

ALLOWED = {
    "circlemaps.derivative_values": "closed-form oracle for derivative_coeffs in the tests",
    "groupalg.delta_func": "point-mass fixture of the group-algebra tests",
}


def _unused_names() -> set[str]:
    files = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
             ROOT / "README.md"]
    lines = {path: path.read_text().splitlines() for path in files}
    unused = set()
    for module in MODULES:
        own = SRC / f"{module}.py"
        for node in ast.parse(own.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            body = range(node.lineno - 1, node.end_lineno)
            if not any(word.search(line)
                       for path in files for i, line in enumerate(lines[path])
                       if not (path == own and i in body)):
                unused.add(f"{module}.{node.name}")
    return unused


def test_public_api_is_reached_outside_the_tests():
    unused = _unused_names()
    assert not unused - ALLOWED.keys(), "only tests reach these; delete or allow them"
    assert not ALLOWED.keys() - unused, "these allowed names now have a user; drop them"
