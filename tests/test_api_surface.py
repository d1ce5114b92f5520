"""Every public name and class member of the core modules has a user outside the tests.

A module-level function or class is used when its name appears as a whole
word in ``src/convalg`` outside its own definition, in ``perfbench/*.py``
or in ``README.md``.  A method, property or dataclass field is used when
``.name`` appears there, outside its own definition.  A name reached only
by tests is deleted, or listed in ``ALLOWED`` with the reason it stays.

The member search matches text, not types, so a member whose name another
object shares is hidden: ``.tol`` of ``groupalg.HomReport`` would count as
used because ``perfbench`` reads ``.tol`` of a ``ChainRuleReport``.  Such
a member has to be found by reading.

No core module imports an underscore name from another one, apart from
the pairs in ``ALLOWED_PRIVATE_IMPORTS``, each with its reason.
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
    "seqalg.TruncSeq.same": "exact-equality helper of the tests",
}

# reports the CLI writes whole, through dataclasses.fields/asdict: each
# field is a report column, also one that no code reads by name
WRITTEN_WHOLE = {"compops.BlowupRow"}


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


# private names one core module may take from another, with the reason
ALLOWED_PRIVATE_IMPORTS = {
    ("circlemaps", "seqalg._RightMultiplier"):
        "running_powers multiplies by one base and keeps its spectrum per FFT length",
}


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
    found = _private_imports()
    assert not found - ALLOWED_PRIVATE_IMPORTS.keys(), "move these behind a public name"
    assert not ALLOWED_PRIVATE_IMPORTS.keys() - found, "these are no longer imported; drop them"


def test_public_api_is_reached_outside_the_tests():
    unused, whole_needed = _unused_names()
    assert not unused - ALLOWED.keys(), "only tests reach these; delete or allow them"
    assert not ALLOWED.keys() - unused, "these allowed names now have a user; drop them"
    assert not WRITTEN_WHOLE - whole_needed, "every field of these is read by name; drop them"
