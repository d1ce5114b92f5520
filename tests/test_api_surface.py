"""Every public name and class member of the core modules has a user outside the tests.

A module-level function or class is used when its name appears as a whole
word in ``src/convalg`` outside its own definition, in ``perfbench/*.py``
or in ``README.md``.  A method, property or dataclass field is used when
``.name`` appears there, outside its own definition.  A name reached only
by tests is deleted, or moved into the tests that use it.

The member search matches text, not types, so a member whose name another
object shares is hidden: ``.tol`` of ``groupalg.HomReport`` would count as
used because ``perfbench`` reads ``.tol`` of a ``ChainRuleReport``.  Such
a member has to be found by reading.

No core module imports an underscore name from another one.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "convalg"
MODULES = ("weights", "seqalg", "circlemaps", "compops", "groupalg")

# reports the CLI writes whole, through dataclasses.fields/asdict: each
# field is a report column, also one that no code reads by name
WRITTEN_WHOLE = {"compops.BlowupRow", "groupalg.AutomorphismScan"}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions():
    """(qualified name, search pattern, own file, own lines, written whole) per definition."""
    for module in MODULES:
        own = SRC / f"{module}.py"
        for node in ast.parse(own.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            yield (f"{module}.{node.name}", rf"\b{node.name}\b", own,
                   range(node.lineno - 1, node.end_lineno), False)
            if not isinstance(node, ast.ClassDef):
                continue
            cls = f"{module}.{node.name}"
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    name, field = member.name, False
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name, field = member.target.id, True
                else:
                    continue
                if _public(name):
                    yield (f"{cls}.{name}", rf"\.{name}\b", own,
                           range(member.lineno - 1, member.end_lineno),
                           field and cls in WRITTEN_WHOLE)


def _unused_names() -> tuple[set[str], set[str]]:
    """The unused names, and the classes of WRITTEN_WHOLE that some unused field needs."""
    files = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
             ROOT / "README.md"]
    lines = {path: path.read_text().splitlines() for path in files}
    unused, whole_needed = set(), set()
    for name, pattern, own, body, written_whole in _definitions():
        word = re.compile(pattern)
        if any(word.search(line)
               for path in files for i, line in enumerate(lines[path])
               if not (path == own and i in body)):
            continue
        if written_whole:
            whole_needed.add(name.rsplit(".", 1)[0])
        else:
            unused.add(name)
    return unused, whole_needed


def _private_imports() -> set[tuple[str, str]]:
    """(module, source.name) for each underscore name a core module imports from a sibling."""
    found = set()
    for module in MODULES:
        for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found.update((module, f"{node.module}.{alias.name}")
                             for alias in node.names if alias.name.startswith("_"))
    return found


def test_core_modules_take_no_private_name_from_each_other():
    assert not _private_imports(), "move these behind a public name"


def test_public_api_is_reached_outside_the_tests():
    unused, whole_needed = _unused_names()
    assert not unused, "only tests reach these; delete them or move them into the tests"
    assert not WRITTEN_WHOLE - whole_needed, "every field of these is read by name; drop them"
