"""Every name the package exports is used somewhere inside the package, and
every other public module-level name is read somewhere in it."""

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


def public_definitions(path: Path) -> set:
    """The functions, classes and constants a module defines at its top
    level, less private names and dunders."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


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


def test_the_scan_sees_every_kind_of_definition(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom x import y\nA = 1\nB: int = 2\nC, D = 3, 4\n"
                      "_E = 5\n__all__ = []\ndef f(): return A\nclass K: pass\n"
                      "async def g(): pass\n", encoding="utf-8")
    assert public_definitions(module) == {"A", "B", "C", "D", "f", "K", "g"}
    assert used_names(module) == {"A", "int"}
