"""Every name the package exports is used somewhere inside the package, every
other module-level name, public or private, is read somewhere in it, and every
name a module imports is read in that module (``__init__`` exports its own)."""

import ast
from pathlib import Path

import unichain

PACKAGE = Path(unichain.__file__).parent


def used_names(path: Path) -> set:
    """Names a module reads, as bare names or as attributes; definitions,
    assignments and imports are not uses."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def definitions(path: Path) -> set:
    """The functions, classes and constants a module defines at its top level."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def public_definitions(path: Path) -> set:
    """A module's top-level definitions, less private names and dunders."""
    return {name for name in definitions(path) if not name.startswith("_")}


def private_definitions(path: Path) -> set:
    """A module's top-level definitions with a leading underscore, less dunders."""
    return {name for name in definitions(path) if name.startswith("_") and not name.startswith("__")}


def imported_names(path: Path) -> set:
    """The names a module's imports bind, anywhere in it; ``__future__`` binds none."""
    return {(alias.asname or alias.name).split(".")[0]
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
            for alias in node.names}


def package_uses() -> set:
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= used_names(path)
    return used


def test_every_public_name_has_a_caller_in_the_package():
    assert sorted(set(unichain.__all__) - package_uses()) == []


def test_every_public_module_level_name_is_read_or_exported():
    used, exported = package_uses(), set(unichain.__all__)
    unused = sorted(f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
                    for name in public_definitions(path) - used - exported)
    assert unused == []


def test_every_private_module_level_name_is_read_in_the_package():
    used = package_uses()
    unread = sorted(f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
                    for name in private_definitions(path) - used)
    assert unread == []


def test_every_imported_name_is_read_in_its_module():
    unread = sorted(f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
                    for name in imported_names(path) - used_names(path)
                    if not (path.name == "__init__.py" and name in unichain.__all__))
    assert unread == []


def test_the_scan_sees_every_kind_of_definition(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom x import y\nA = 1\nB: int = 2\nC, D = 3, 4\n"
                      "_E = 5\n__all__ = []\ndef f(): return A\nclass K: pass\n"
                      "async def g(): pass\n", encoding="utf-8")
    assert public_definitions(module) == {"A", "B", "C", "D", "f", "K", "g"}
    assert private_definitions(module) == {"_E"}
    assert used_names(module) == {"A", "int"}
    assert imported_names(module) == {"os", "y"}


def test_the_import_scan_reads_aliases_dotted_names_and_nested_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os.path\n"
                      "from x import y as z\ndef f():\n    import json\n", encoding="utf-8")
    assert imported_names(module) == {"os", "z", "json"}


HEADER_KEYS = {"format-version", "kind"}


def header_writes(path: Path) -> list:
    """Each place a module reads ``FORMAT_VERSION`` or writes a document's
    ``format-version`` or ``kind`` key (in a dict display or by a subscript
    store), as (top-level definition it lies in, what it does)."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load) \
                    and getattr(node, "id", getattr(node, "attr", None)) == "FORMAT_VERSION":
                found.append((owner, "reads FORMAT_VERSION"))
            elif isinstance(node, ast.Dict):
                found.extend((owner, f"displays {key.value!r}") for key in node.keys
                             if isinstance(key, ast.Constant) and key.value in HEADER_KEYS)
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.slice, ast.Constant) and node.slice.value in HEADER_KEYS:
                found.append((owner, f"sets {node.slice.value!r}"))
    return found


def test_one_helper_in_formats_writes_every_document_header():
    writes = {path.stem: sorted(header_writes(path)) for path in PACKAGE.glob("*.py")}
    assert {stem: found for stem, found in writes.items() if found} == {"formats": [
        ("_header", "reads FORMAT_VERSION"), ("_header", "sets 'format-version'"),
        ("_header", "sets 'kind'"),
    ]}


def test_the_header_scan_sees_reads_displays_and_stores(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import formats\nV = formats.FORMAT_VERSION\n"
                      "def f(d):\n    d['kind'] = 'x'\n    return {'format-version': V, 'kind': 'y'}\n"
                      "def g():\n    return {'kinds': FORMAT_VERSION}\n", encoding="utf-8")
    assert sorted(header_writes(module)) == [
        ("<module>", "reads FORMAT_VERSION"), ("f", "displays 'format-version'"),
        ("f", "displays 'kind'"), ("f", "sets 'kind'"), ("g", "reads FORMAT_VERSION")]
