"""Shared fixtures: demo mirror paths, tiny mirror writer, loopback server,
random documents and random mirrors."""

from __future__ import annotations

import gc
import importlib
import posixpath
import random
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

from navminer.normalize import _LINK_ATTRS, Document, Tag, _tag

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
    mirrors = perfbench_mirrors()
    out = tmp_path_factory.mktemp("benchmark")
    return [mirrors.catalog(out / "catalog", 51, 12, 25).root.parent,
            mirrors.longpage(out / "longpage", 51, 4, 110).root.parent]


def perfbench_mirrors():
    """The benchmark's mirror generators, ``perfbench/mirrors.py``."""
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    return importlib.import_module("mirrors")


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
    """Nothing but tags, tuples, strings, flags and the shape's ``1`` and
    ``None`` events is reachable from ``document``, no list in particular,
    and no tag holds an empty attribute tuple other than ``()``."""
    empty = ()
    seen = {id(document): document}
    stack = [document]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if not isinstance(ref, type) and id(ref) not in seen:  # classes not followed
                seen[id(ref)] = ref
                stack.append(ref)
    classes = {obj.__class__ for obj in seen.values()}
    assert classes <= {Document, Tag, tuple, str, bool, int, type(None)}, where
    tags = tags_of(document)
    assert all(tag.attrs or tag.attrs is empty for tag in tags), where


def partition_is_valid(partition) -> bool:
    """The clusters are non-empty, pairwise disjoint and cover the universe."""
    seen: set = set()
    for cluster in partition.clusters:
        if not cluster or cluster & seen:
            return False
        seen |= cluster
    return seen == set(partition.universe)


def refines(fine, coarse) -> bool:
    """Every cluster of partition ``fine`` lies inside one of ``coarse``."""
    return all(any(cluster <= other for other in coarse.clusters)
               for cluster in fine.clusters)


def write_mirror(root: Path, pages: dict[str, str]) -> Path:
    """Write a throwaway mirror; returns the root page path."""
    for name, text in pages.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root / "index.html"


# ---------------------------------------------------------------------------
# the tests' element trees: documents built or edited by hand, and the
# oracles that read a tree


@dataclass(slots=True)
class Element:
    """An element of a tree built by hand or by an oracle; a text run is a
    plain ``str`` child.  ``document_of`` gives a tree's events, and
    ``tree_of`` the tree of a ``Document``'s events."""

    name: str
    attrs: tuple[tuple[str, str], ...] = ()
    children: tuple[Element | str, ...] = ()
    self_closing: bool = False


def walk_tree(root):
    """Depth-first walk of an element tree on an explicit stack.

    Yields ``(node, depth, closing)``: each node once opening, in
    document order, and each element again, closing, after its subtree.
    A node's children are read only after the caller has seen it open,
    so the caller may fill them in then.
    """
    yield root, 0, False
    stack = [(root, iter(root.children))]
    depth = 1  # of the children under stack[-1]
    while depth:
        node, children = stack[-1]
        for child in children:
            yield child, depth, False
            if child.__class__ is Element:
                stack.append((child, iter(child.children)))
                depth += 1
                break
        else:
            stack.pop()
            depth -= 1
            yield node, depth, True


def tags_of(document: Document) -> list[Tag]:
    """The tags of a document's open events, in document order."""
    return [part for part in document.parts if part.__class__ is Tag]


def tree_of(document: Document) -> Element:
    """The element tree of a document's events, each element with its
    tag's name, attributes and flag, and each text run its ``str``."""
    parts = iter(document.parts)
    top: list = []
    stack: list[Element] = []
    for event in document.shape:
        if event is None:
            element = stack.pop()
            element.children = tuple(element.children)
            continue
        part = next(parts)
        node = part if part.__class__ is str else \
            Element(part.name, part.attrs, [], part.self_closing)
        (stack[-1].children if stack else top).append(node)
        if node.__class__ is Element:
            stack.append(node)
    (root,) = top
    return root


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
    """The elements of a tree in ``walk_tree``'s opening order, document
    order."""
    return [node for node, _, closing in walk_tree(root)
            if not closing and node.__class__ is not str]


def link_values(elements) -> tuple[str, ...]:
    """Oracle for ``Document.hrefs``, the parser's record of a page's link
    values, read off its elements in document order (``elements_of``
    gives them for a tree): for each link element, the value of its first
    attribute named in ``_LINK_ATTRS`` for its tag, when it has one."""
    hrefs = []
    for element in elements:
        if element.name in _LINK_ATTRS:
            values = [value for name, value in element.attrs
                      if name == _LINK_ATTRS[element.name]]
            hrefs += values[:1]
    return tuple(hrefs)


def shape_of(root: Element) -> tuple:
    """Oracle for ``Document.shape``, the parser's record of a tree's
    structure, read off a walk of the tree: an element opening as its
    name, or its name and attribute names when it has attributes, an
    element closing as ``None`` and a text run as ``1``."""
    events: list = []
    for node, _, closing in walk_tree(root):
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
    """A tree built or edited by hand as a ``Document``: the shape, the
    parts, each element's tag as the parser builds it, and the link
    values the parser records."""
    parts = [node if node.__class__ is str else
             _tag(node.name, tuple(node.attrs), node.self_closing)
             for node, _, closing in walk_tree(root) if not closing]
    return Document(shape_of(root), tuple(parts), link_values(elements_of(root)))


_LINK_TAGS = ("a", "area", "form", "frame", "iframe", "img", "link", "div")
_LINK_VALUES = ("a.html", "b.html#part", "#top", " ", "", "mailto:x@y.example",
                "../outside.html", "c.html?q=1", "sub/d.html", "http://elsewhere.example/")


def random_link_markup(rng: random.Random) -> str:
    """Link tags and others, each with up to two of the link attributes
    and ``name`` (a duplicate now and then), closed, left open or
    followed by text or a paragraph."""
    parts = []
    for _ in range(rng.randint(1, 30)):
        tag = rng.choice(_LINK_TAGS)
        attrs = "".join(f' {rng.choice(("href", "action", "src", "name"))}='
                        f'"{rng.choice(_LINK_VALUES)}"' for _ in range(rng.randint(0, 2)))
        parts.append(f"<{tag}{attrs}>" + rng.choice(("", "text", f"</{tag}>", "<p>")))
    return "".join(parts)


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
    root = tree_of(doc)
    for _ in range(rng.randint(1, 4)):
        parent = rng.choice(all_elements(root))
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
    return document_of(root)


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
    path = rng.choice(_element_paths(tree_of(base)))
    block = random_element(rng, 2)
    k = rng.randint(1, 3)
    position = rng.randint(0, len(_at_path(tree_of(base), path).children))

    roots = []
    for copies in (k, k + 1):
        root = tree_of(base)
        parent = _at_path(root, path)
        for _ in range(copies):
            parent.children = (*parent.children[:position], block, *parent.children[position:])
        roots.append(root)
    return document_of(roots[0]), document_of(roots[1])


# ---------------------------------------------------------------------------
# random mirror machinery (seeded, stdlib only)


def _table_page(rng: random.Random, rows: int) -> str:
    cells = "".join(f"<tr><td>{rng.choice(_WORDS)}</td><td>{i}</td></tr>" for i in range(rows))
    return f"<table><tr><th>name</th><th>n</th></tr>{cells}</table>"


def _list_page(rng: random.Random, items: int) -> str:
    return "<ul>" + "".join(f"<li>{rng.choice(_WORDS)}</li>" for _ in range(items)) + "</ul>"


def _paragraph_page(rng: random.Random, paragraphs: int) -> str:
    return "".join(f"<p>{rng.choice(_WORDS)} <b>{rng.choice(_WORDS)}</b></p>"
                   for _ in range(paragraphs))


def _nested_page(rng: random.Random, blocks: int) -> str:
    return "".join(f'<div class="card"><div class="body"><span>{rng.choice(_WORDS)}</span>'
                   f"<i>{i}</i></div></div>" for i in range(blocks))


# the page bodies a random mirror draws from: table rows, a list,
# paragraphs and nested divs, each with a random number of repeats
MIRROR_TEMPLATES = (_table_page, _list_page, _paragraph_page, _nested_page)

_EXTRA_BLOCKS = ('<form action="search.html"><input name="q"><button>go</button></form>',
                 '<div class="extra"><h2>more</h2><p>extra</p></div>',
                 '<img src="logo.png" alt="logo">')


# the directories a random mirror's pages live in: the root ("", twice,
# so that about two pages in five live there) and three below it
_MIRROR_DIRECTORIES = ("", "", "d0/", "d1/", "d1/e/")

# linked files that are not markup: a load excludes them
_BINARY_FILE = ("files/manual.pdf", "%PDF-1.4\n\x00\x01\x02 binary")
_EMPTY_FILE = "files/empty.html"


def _deep_page(rng: random.Random, depth: int) -> str:
    return "<div>" * depth + rng.choice(_WORDS) + "</div>" * depth


# the pages a random mirror holds now and then beside its template
# pages: a few hundred divs deep and a few hundred table rows long
_LARGE_PAGES = {"deep.html": _deep_page, "long.html": _table_page}


def _mirror_href(rng: random.Random, page: str, target: str) -> str:
    """A link on ``page`` to ``target``, a path from the mirror root:
    relative (with ``../`` where it climbs), root-relative, to the
    target's directory rather than its ``index.html``, with a query, or
    with a percent-escaped letter."""
    if target.endswith("index.html") and rng.random() < 0.5:
        target = target.removesuffix("index.html") + rng.choice(["", ".", "./"])
    if rng.random() < 0.2:
        href = "/" + target
    else:
        href = posixpath.relpath(target or ".", posixpath.dirname(page) or ".")
        if target.endswith("/") and href != ".":
            href += rng.choice(["/", ""])  # a directory, with or without its slash
    if rng.random() < 0.15:
        href += "?" + rng.choice(["q=1", "q=2", "u=../x", ""])
    if rng.random() < 0.15 and any(c.isalpha() for c in href):
        at = rng.choice([i for i, c in enumerate(href) if c.isalpha()])
        href = href[:at] + f"%{ord(href[at]):02X}" + href[at + 1:]
    return href


def random_mirror(root: Path, rng: random.Random, pages: int, links: tuple[int, int],
                  templates=MIRROR_TEMPLATES) -> Path:
    """A random site of ``pages`` pages, written through ``write_mirror``;
    returns the root page path.  Beside ``index.html``, pages
    ``p1.html`` to ``p{pages - 1}.html`` live in the root or in
    subdirectories (``d0/``, ``d1/``, ``d1/e/``), some of which have an
    ``index.html`` of their own among the pages, and now and then a
    binary file and an empty ``.html`` file sit in ``files/``.  Each
    page's body comes from one of ``templates`` (functions of the
    generator and a repeat count, giving markup), with an extra block on
    about half the pages; now and then a ``deep.html`` a few hundred
    divs deep and a ``long.html`` of a few hundred table rows join the
    pages.  Each page links to between ``links[0]`` and ``links[1]``
    random targets: any page, itself included, a directory with or
    without an index, the binary or empty file, or now and then a page
    that does not exist.  The links are relative
    (``../`` included) or root-relative and carry queries and
    percent-escapes now and then (``_mirror_href``); about half the pages
    also link themselves by an href without a path (``?q=1``, ``#top``)."""
    names = ["index.html"] + [rng.choice(_MIRROR_DIRECTORIES) + f"p{i}.html"
                              for i in range(1, pages)]
    for directory in _MIRROR_DIRECTORIES[2:]:
        if pages > 1 and rng.random() < 0.5:
            names[rng.randrange(1, pages)] = directory + "index.html"
    names = list(dict.fromkeys(names))  # one index may have replaced two pages
    large = {name: make for name, make in _LARGE_PAGES.items() if rng.random() < 0.3}
    names += large
    site = {}
    extra_targets = [*_MIRROR_DIRECTORIES[2:]]
    if rng.random() < 0.5:
        site[_BINARY_FILE[0]] = _BINARY_FILE[1]
        extra_targets.append(_BINARY_FILE[0])
    if rng.random() < 0.3:
        site[_EMPTY_FILE] = ""
        extra_targets.append(_EMPTY_FILE)
    for name in names:
        targets = [rng.choice(names) if rng.random() < 0.8 else
                   rng.choice(extra_targets) if rng.random() < 0.5 else
                   f"missing{rng.randrange(5)}.html"
                   for _ in range(rng.randint(*links))]
        anchors = "".join(f'<a href="{_mirror_href(rng, name, target)}">{target}</a>'
                          for target in targets)
        if rng.random() < 0.5:  # the page itself, by an href without a path
            anchors += f'<a href="{rng.choice(["?q=1", "?q=2", "?", "#top", ""])}">self</a>'
        if name in large:
            body = large[name](rng, rng.randint(200, 400))
        else:
            body = rng.choice(templates)(rng, rng.randint(1, 6))
        extra = rng.choice(_EXTRA_BLOCKS) if rng.random() < 0.5 else ""
        site[name] = (f"<html><head><title>{name}</title></head><body>"
                      f'<div class="nav">{anchors}</div>{body}{extra}</body></html>')
    return write_mirror(root, site)
