"""Shared fixtures: demo mirror paths, tiny mirror writer, loopback server,
random documents."""

from __future__ import annotations

import gc
import importlib
import random
import sys
import threading
from contextlib import contextmanager
from copy import deepcopy
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

from navminer.normalize import Document, Element, walk

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_CORPUS = REPO_ROOT / "demo" / "corpus"
DEMO_REFERENCE = REPO_ROOT / "demo" / "reference.txt"

# the threshold the bundled mirror is documented to be perfect at (MMS)
DEMO_THRESHOLD = 0.95
DEMO_PAGE_COUNT = 29


@pytest.fixture(scope="session")
def demo_root() -> Path:
    return DEMO_CORPUS / "index.html"


@pytest.fixture(scope="session")
def demo_reference() -> Path:
    return DEMO_REFERENCE


@pytest.fixture(scope="session")
def demo_corpus():
    from navminer import load_corpus

    return load_corpus(DEMO_CORPUS / "index.html", max_depth=10, delay=0.0)


@pytest.fixture(scope="session")
def benchmark_mirrors(tmp_path_factory) -> list[Path]:
    """The directories of the benchmark's catalog and longpage mirrors, at
    the benchmark's shapes (``perfbench/mirrors.py``, one seed)."""
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    mirrors = importlib.import_module("mirrors")
    out = tmp_path_factory.mktemp("benchmark")
    return [mirrors.catalog(out / "catalog", 51, 12, 25).root.parent,
            mirrors.longpage(out / "longpage", 51, 4, 110).root.parent]


@contextmanager
def serving(handler):
    """A loopback HTTP server on a free port, yielding its base URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


def mirror_pages(directory: Path) -> list[tuple[str, str]]:
    """(page id, markup) of every page of a directory mirror."""
    return [(path.relative_to(directory).as_posix(), path.read_text(encoding="utf-8"))
            for path in sorted(directory.rglob("*.html"))]


def assert_packed(document: Document, where) -> None:
    """Nothing but elements, tuples, strings and flags is reachable from
    ``document``'s tree (``Document.elements``, its index, is the one
    list), and no element holds an empty tuple other than ``()``."""
    empty = ()
    seen = {id(document.root): document.root}
    stack = [document.root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if not isinstance(ref, type) and id(ref) not in seen:  # classes not followed
                seen[id(ref)] = ref
                stack.append(ref)
    assert {obj.__class__ for obj in seen.values()} <= {Element, tuple, str, bool}, where
    assert all(element.attrs or element.attrs is empty for element in document.elements), where
    assert all(element.children or element.children is empty
               for element in document.elements), where
    assert document.elements.__class__ is list


def partition_is_valid(partition) -> bool:
    """The clusters are non-empty, pairwise disjoint and cover the universe."""
    seen: set = set()
    for cluster in partition.clusters:
        if not cluster or cluster & seen:
            return False
        seen |= cluster
    return seen == set(partition.universe)


def write_mirror(root: Path, pages: dict[str, str]) -> Path:
    """Write a throwaway mirror; returns the root page path."""
    for name, text in pages.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root / "index.html"


# ---------------------------------------------------------------------------
# random document machinery (seeded; used by several property suites)

_TAGS = ("div", "p", "span", "ul", "li", "table", "tr", "td", "b", "i", "a", "h2", "form")
_ATTR_NAMES = ("class", "id", "role", "href")
_WORDS = ("alpha", "beta", "gamma", "delta", "omega")


def random_element(rng: random.Random, depth: int) -> Element:
    element = Element(rng.choice(_TAGS))
    if rng.random() < 0.4:
        element.attrs += ((rng.choice(_ATTR_NAMES), rng.choice(_WORDS)),)
    if depth > 0:
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.3:
                element.children += (rng.choice(_WORDS),)
            else:
                element.children += (random_element(rng, depth - 1),)
    return element


def elements_of(root: Element) -> list[Element]:
    """The element list the parser records for a tree built or edited by
    hand: ``walk``'s opening order."""
    return [node for node, _, closing in walk(root)
            if not closing and node.__class__ is not str]


def shape_of(root: Element) -> tuple:
    """Oracle for ``Document.shape``, the parser's record of a tree's
    structure, read off a walk of the tree: an element opening as its
    name, or its name and attribute names when it has attributes, an
    element closing as ``None`` and a text run as ``1``."""
    events: list = []
    for node, _, closing in walk(root):
        if node.__class__ is str:
            events.append(1)
        elif closing:
            events.append(None)
        elif node.attrs:
            events.append((node.name, *[name for name, _ in node.attrs]))
        else:
            events.append(node.name)
    return tuple(events)


def document_of(root: Element) -> Document:
    """A tree built or edited by hand as a ``Document``, with the element
    list and shape the parser records."""
    return Document(root, elements_of(root), shape_of(root))


def random_document(rng: random.Random, depth: int = 3) -> Document:
    root = Element("html")
    for _ in range(rng.randint(1, 4)):
        root.children += (random_element(rng, depth),)
    return document_of(root)


def all_elements(root: Element) -> list[Element]:
    out = [root]
    for child in root.children:
        if isinstance(child, Element):
            out.extend(all_elements(child))
    return out


def mutate_document(rng: random.Random, doc: Document) -> Document:
    """A structurally related copy: a few random inserts/deletes/edits."""
    copy = deepcopy(doc)
    for _ in range(rng.randint(1, 4)):
        parent = rng.choice(all_elements(copy.root))
        roll = rng.random()
        children = parent.children
        if roll < 0.45:
            at = rng.randint(0, len(children))
            parent.children = (*children[:at], random_element(rng, 1), *children[at:])
        elif roll < 0.7 and children:
            at = rng.randrange(len(children))
            parent.children = children[:at] + children[at + 1:]
        elif roll < 0.85:
            parent.attrs += ((rng.choice(_ATTR_NAMES), rng.choice(_WORDS)),)
        else:
            parent.children += (rng.choice(_WORDS),)
    return document_of(copy.root)


def _element_paths(root: Element) -> list[list[int]]:
    paths: list[list[int]] = [[]]

    def walk(element: Element, path: list[int]):
        for index, child in enumerate(element.children):
            if isinstance(child, Element):
                paths.append(path + [index])
                walk(child, path + [index])

    walk(root, [])
    return paths


def _at_path(root: Element, path: list[int]) -> Element:
    node = root
    for index in path:
        node = node.children[index]
    return node


def twin_docs_with_repeated_block(rng: random.Random) -> tuple[Document, Document]:
    """Two documents identical except that a k-repeated identical child
    block occurs k times in the first and k+1 times in the second."""
    base = random_document(rng, 2)
    path = rng.choice(_element_paths(base.root))
    block = random_element(rng, 2)
    k = rng.randint(1, 3)
    position = rng.randint(0, len(_at_path(base.root, path).children))

    doc_k = deepcopy(base)
    doc_k1 = deepcopy(base)
    for copies, doc in ((k, doc_k), (k + 1, doc_k1)):
        parent = _at_path(doc.root, path)
        for _ in range(copies):
            parent.children = (*parent.children[:position], deepcopy(block),
                               *parent.children[position:])
    return document_of(doc_k.root), document_of(doc_k1.root)
