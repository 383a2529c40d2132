"""Source-level checks on ``src/navminer``."""

import ast
import importlib

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


def _attributes_outside(trees, skipped) -> set[str]:
    """Attribute names read anywhere in ``trees`` except under the node
    ``skipped``.  Members are reached as attributes, so a local variable
    of the same name does not count as a use."""
    names = set()
    stack = list(trees)
    while stack:
        node = stack.pop()
        if node is skipped:
            continue
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_method_and_property_is_used_by_the_program():
    """A method or property of a program class that nothing in the
    program reads, outside its own definition, is test-only code too.
    Overrides of a base class's method (``HTMLParser.handle_*``,
    ``__init__``) are called by the base class and are exempt."""
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    unused = []
    for path, tree in zip(paths, trees):
        module = importlib.import_module(f"navminer.{path.stem}")
        for statement in tree.body:
            if not isinstance(statement, ast.ClassDef):
                continue
            cls = getattr(module, statement.name)
            for member in statement.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                if any(hasattr(base, member.name) for base in cls.__mro__[1:]):
                    continue
                if member.name not in _attributes_outside(trees, member):
                    unused.append(f"{path.name}:{statement.name}.{member.name}")
    assert unused == []
