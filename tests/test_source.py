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
    """The HTTP client (``httpget``), sockets and TLS are imported when an
    HTTP crawl fetches its first page, so neither a filesystem run nor the
    start-up of any run pays for their import."""
    code = ("import sys, navminer, navminer.cli; print(sorted({'http.client', "
            "'urllib.request', 'socket', 'ssl', 'navminer.httpget'} & set(sys.modules)))")
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
    assert read & {"root", "elements", "children", "attrs", "parts"} == set()
    assert "shape" in read


def test_only_the_crawl_reads_the_depth_limit():
    """``max_depth`` bounds the crawl in ``corpus`` and nothing else:
    beside ``corpus``, only ``report`` (the configuration that passes it
    on) and ``cli`` (its flag) name it."""
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.arg if isinstance(node, (ast.arg, ast.keyword)) else
                    node.value if isinstance(node, ast.Constant) else None)
            if name == "max_depth":
                readers.add(path.stem)
    assert readers == {"corpus", "report", "cli"}


def test_only_the_parser_reads_link_attributes():
    """The link-attribute table is ``normalize``'s: no other module names
    it, and ``corpus`` extracts links from the values the parser recorded
    without reading an element's attributes."""
    owners = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _referenced_names(tree) | {alias.asname or alias.name for node in ast.walk(tree)
                                           if isinstance(node, ast.ImportFrom)
                                           for alias in node.names}
        if "_LINK_ATTRS" in names:
            owners.add(path.stem)
        if path.stem == "corpus":
            assert {"attrs", "elements"} & names == set()
            assert "hrefs" in names
    assert owners == {"normalize"}


def test_only_the_parser_reads_the_parts_and_builds_tags():
    """A page is its parse events, in ``normalize``'s format: no other
    module reads ``Document.parts`` or builds a ``Tag``, and no module
    defines or imports an ``Element``, so the program keeps no element
    tree."""
    readers, builders, elements = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "parts":
                readers.add(path.stem)
            elif isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in (
                    "Tag", "_tag"):
                builders.add(path.stem)
            elif isinstance(node, ast.ClassDef) and node.name == "Element" or \
                    isinstance(node, ast.Name) and node.id == "Element" or \
                    isinstance(node, ast.alias) and "Element" in (node.name, node.asname):
                elements.add(path.stem)
    assert readers == builders == {"normalize"}
    assert elements == set()



_STAGES = ("build_nav_tree", "refine_clusters", "reduce_to_snp", "extract_candidates")


def _stage_reads(node, scope: str):
    """``(scope, name, node)`` for each read of a stage function's name
    under ``node``, a bare name or an attribute; ``scope`` is the dotted
    name of the enclosing function."""
    for child in ast.iter_child_nodes(node):
        name = (child.id if isinstance(child, ast.Name) else
                child.attr if isinstance(child, ast.Attribute) else None)
        if name in _STAGES:
            yield scope, name, child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _stage_reads(child, f"{scope}.{child.name}")
        else:
            yield from _stage_reads(child, scope)


def test_the_stage_chain_is_written_once():
    """Only ``report.analyse`` calls ``build_nav_tree``,
    ``refine_clusters``, ``reduce_to_snp`` and ``extract_candidates``,
    each once, and nothing else in ``src/navminer`` reads those names:
    the benchmark's tracer replaces each module's reference to them, and
    a tuple or a default argument holding one would keep the unwrapped
    function."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        found += [(scope, name, id(node) in called)
                  for scope, name, node in _stage_reads(tree, path.stem)]
    assert sorted(found) == sorted(("report.analyse", name, True) for name in _STAGES)
