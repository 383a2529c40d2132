"""Source-level checks on ``src/navminer``."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

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


def test_the_program_imports_only_the_standard_library():
    """navminer runs on a bare interpreter: every module imports the
    standard library or the package itself, and the package declares no
    runtime dependency."""
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"navminer"}]
    assert foreign == []
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["dependencies"] == []


_CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def _is_empty_container(node) -> bool:
    """``{}``, ``[]``, ``set()``, ``dict()``, ``defaultdict(list)`` and the
    like: a value that starts empty and can only be filled later."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in _CONTAINERS and (name == "defaultdict" or not node.args)
    return False


def _module_level(scope):
    """The AST nodes of ``scope`` that run when its module is imported:
    statements of the module and of its classes, and the decorators of
    their functions, but not the functions' bodies."""
    for statement in scope.body:
        if isinstance(statement, ast.ClassDef):
            yield from _module_level(statement)
            continue
        parts = statement.decorator_list if isinstance(
            statement, (ast.FunctionDef, ast.AsyncFunctionDef)) else [statement]
        for part in parts:
            yield from ast.walk(part)


def test_the_program_keeps_no_cache_between_runs():
    """Every cache lives as long as one run (``corpus.Corpus.memo``,
    ``load_corpus``'s strings and tags, a ``FileResolver``'s real paths):
    no module or class of ``src/navminer`` holds an empty container to
    fill, and none memoizes with ``functools.cache`` or ``lru_cache``.
    A benchmark repetition is then as cold as a command-line run."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        memoizers = {alias.asname or alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module == "functools"
                     for alias in node.names if alias.name in ("cache", "lru_cache")}
        for node in _module_level(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                    node.value is not None and _is_empty_container(node.value):
                found.append(f"{path.name}:{node.lineno} empty container")
            elif isinstance(node, ast.Name) and node.id in memoizers or \
                    isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache") \
                    and isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append(f"{path.name}:{node.lineno} memoized")
    assert found == []


def test_importing_the_program_loads_no_http_client():
    """The HTTP client is imported when an HTTP crawl starts, so neither a
    filesystem run nor the start-up of any run pays for its import."""
    code = ("import sys, navminer, navminer.cli; "
            "print(sorted({'http.client', 'urllib.request'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout
    assert loaded.strip() == "[]"


def test_the_tokens_read_the_page_shape_alone():
    """``schema`` derives both token formats from ``Document.shape``, the
    key ``navmodel.token_seq`` caches them under: it imports nothing from
    the package but ``normalize.Document`` and reads no tree attribute."""
    tree = ast.parse((SRC / "schema.py").read_text(encoding="utf-8"))
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    assert imported == {("normalize", "Document")}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert read & {"root", "elements", "children", "attrs"} == set()
    assert "shape" in read
