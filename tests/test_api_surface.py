"""Every name the package exports is used somewhere inside the package."""

import ast
from pathlib import Path

import unichain

PACKAGE = Path(unichain.__file__).parent


def used_names(path: Path) -> set:
    """Names a module reads, as bare names or as attributes; definitions and
    imports are not uses."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_in_the_package():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= used_names(path)
    assert sorted(set(unichain.__all__) - used) == []
