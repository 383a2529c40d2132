"""Source-level checks on ``src/navminer``."""

import ast

from conftest import REPO_ROOT

SRC = REPO_ROOT / "src" / "navminer"


def _referenced_names(node) -> set[str]:
    """Names read anywhere under ``node``: bare names and attribute names."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def test_every_top_level_definition_is_used_by_the_program():
    """A function or class that no module of the program uses, outside
    its own definition and the package's re-exports, is test-only code:
    it belongs in the tests, next to what it checks."""
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    definitions = [(name, statement) for name, tree in modules.items()
                   for statement in tree.body
                   if isinstance(statement, (ast.FunctionDef, ast.ClassDef))]
    unused = []
    for module, definition in definitions:
        used = any(definition.name in _referenced_names(statement)
                   for name, tree in modules.items() if name != "__init__.py"
                   for statement in tree.body if statement is not definition)
        if not used:
            unused.append(f"{module}:{definition.name}")
    assert unused == []
