"""Mirror loading and internal-link extraction.

A corpus is either a directory tree of saved pages (filesystem mode) or
a live site reached over HTTP.  Retrieval is a breadth-first walk of
the internal links starting at the root page; every page is fetched
exactly once and kept in memory, so later pipeline stages never touch
the source again.

Internal means: the resolved path stays under the mirror root
(filesystem mode), or scheme, host and port match the root URL (HTTP
mode).  Links are read from ``a/@href``, ``form/@action`` and
``frame|iframe/@src``; fragments are stripped, query strings kept,
``mailto:``/``javascript:``/external targets dropped.
"""

from __future__ import annotations

import logging
import posixpath
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import unquote, urljoin, urlsplit, urlunsplit

from .normalize import Document, Element, EmptyDocumentError, Text, decode_markup, to_xhtml

logger = logging.getLogger(__name__)

PageId = str


class CorpusError(RuntimeError):
    """The corpus cannot be loaded at all (unreadable or unusable root)."""


class PageReadError(RuntimeError):
    """A single linked page could not be fetched."""


@dataclass(frozen=True)
class RawPage:
    id: PageId
    text: str
    depth: int  # link hops from the root page


@dataclass(frozen=True)
class LinkRef:
    source: PageId
    target: PageId
    anchor_text: str = ""


# attributes that carry navigation targets, checked in this order per tag
_LINK_ATTRS = {"a": "href", "form": "action", "frame": "src", "iframe": "src"}

_SKIP_PREFIXES = ("mailto:", "javascript:", "tel:", "data:")


class FileResolver:
    """Locators inside a directory-tree mirror, as root-relative paths."""

    def __init__(self, root_dir: Path):
        self.root_dir = Path(root_dir).resolve()

    def resolve(self, base: PageId, href: str) -> PageId | None:
        href = href.split("#", 1)[0].strip()
        if not href or href.lower().startswith(_SKIP_PREFIXES):
            return None
        if "://" in href or href.startswith("//"):
            return None  # absolute URLs point outside the mirror
        href = unquote(href)
        if href.startswith("/"):
            candidate = href.lstrip("/")
        else:
            candidate = posixpath.join(posixpath.dirname(base), href)
        candidate = posixpath.normpath(candidate)
        if candidate in ("..", ".", "") or candidate.startswith("../"):
            return None  # escapes the mirror; "..data.html" is a plain name
        return candidate

    def fetch(self, page_id: PageId) -> str:
        path = self.root_dir / Path(page_id)
        try:
            return decode_markup(path.read_bytes())
        except OSError as exc:
            raise PageReadError(f"{page_id}: {exc}") from exc


class HttpResolver:
    """Locators on one authority, fetched with GET and a polite delay."""

    def __init__(self, root_url: str, delay: float = 0.1):
        parts = urlsplit(root_url)
        self.netloc = parts.netloc.lower()
        self.delay = delay
        self._fetched_once = False

    def normalize(self, url: str) -> PageId:
        parts = urlsplit(url)
        return unquote(urlunsplit((parts.scheme.lower(), parts.netloc.lower(),
                                   parts.path, parts.query, "")))

    def resolve(self, base: PageId, href: str) -> PageId | None:
        href = href.strip()
        if not href or href.startswith("#") or href.lower().startswith(_SKIP_PREFIXES):
            return None
        absolute = urljoin(base, href)
        parts = urlsplit(absolute)
        if parts.scheme.lower() not in ("http", "https"):
            return None
        if parts.netloc.lower() != self.netloc:
            return None
        return self.normalize(absolute)

    def fetch(self, page_id: PageId) -> str:
        import requests

        if self._fetched_once and self.delay > 0:
            time.sleep(self.delay)
        self._fetched_once = True
        try:
            response = requests.get(page_id, timeout=30)
        except requests.RequestException as exc:
            raise PageReadError(f"{page_id}: {exc}") from exc
        if response.status_code >= 400:
            raise PageReadError(f"{page_id}: HTTP {response.status_code}")
        if urlsplit(response.url).netloc.lower() != self.netloc:
            # same rule as resolve: http and https on this host are the site
            raise PageReadError(f"{page_id}: redirected off the site to {response.url}")
        return decode_markup(response.content)


def _anchor_text(element: Element) -> str:
    parts: list[str] = []

    def walk(node):
        for child in node.children:
            if isinstance(child, Text):
                parts.append(child.content)
            else:
                walk(child)

    walk(element)
    return " ".join(" ".join(parts).split())


def extract_links(doc: Document, base: PageId, resolver) -> list[LinkRef]:
    """Internal links of one page, in document order, de-duplicated by
    target (first occurrence wins)."""
    links: list[LinkRef] = []
    seen: set[PageId] = set()

    def walk(element: Element):
        attr_name = _LINK_ATTRS.get(element.name)
        if attr_name is not None:
            value = next((v for k, v in element.attrs if k == attr_name), None)
            if value is not None:
                target = resolver.resolve(base, value)
                if target is not None and target not in seen:
                    seen.add(target)
                    text = _anchor_text(element) if element.name == "a" else ""
                    links.append(LinkRef(base, target, text))
                elif target is None and value.strip():
                    logger.debug("unresolvable reference %r on %s", value, base)
        for child in element.children:
            if isinstance(child, Element):
                walk(child)

    walk(doc.root)
    return links


@dataclass
class Corpus:
    root: PageId
    pages: dict[PageId, RawPage]
    resolver: FileResolver | HttpResolver
    dangling: list[PageId] = field(default_factory=list)
    excluded: list[PageId] = field(default_factory=list)  # fetched but markup-free
    memo: dict = field(default_factory=dict)  # analysis-layer cache
    _docs: dict[PageId, Document] = field(default_factory=dict)
    _links: dict[PageId, list[LinkRef]] = field(default_factory=dict)

    def document(self, page_id: PageId) -> Document:
        doc = self._docs.get(page_id)
        if doc is None:
            doc = to_xhtml(self.pages[page_id])
            self._docs[page_id] = doc
        return doc

    def links(self, page_id: PageId) -> list[LinkRef]:
        cached = self._links.get(page_id)
        if cached is None:
            cached = extract_links(self.document(page_id), page_id, self.resolver)
            self._links[page_id] = cached
        return cached

    def retrieve(self, target: PageId) -> RawPage | None:
        return self.pages.get(target)


def retrieve_page(link: LinkRef, corpus: Corpus) -> RawPage | None:
    """Cached page for a link target; ``None`` marks a dangling link."""
    page = corpus.retrieve(link.target)
    if page is None:
        logger.warning("dangling link %s -> %s", link.source, link.target)
    return page


def _open_root(root, delay: float):
    """Work out the mode, the resolver and the root page id."""
    if isinstance(root, str) and root.lower().startswith(("http://", "https://")):
        resolver = HttpResolver(root, delay=delay)
        return resolver, resolver.normalize(root)
    path = Path(root)
    if path.is_dir():
        for name in ("index.html", "index.htm"):
            if (path / name).is_file():
                return FileResolver(path), name
        raise CorpusError(f"{root}: no index.html in mirror directory")
    if path.is_file():
        return FileResolver(path.parent), path.name
    raise CorpusError(f"{root}: no such file or directory")


def load_corpus(root, max_depth: int = 10, delay: float = 0.1) -> Corpus:
    """Breadth-first retrieval of the mirror reachable from ``root``.

    The root page plus every page within ``max_depth`` internal link
    hops, each fetched exactly once.  An unreadable root is fatal; an
    unreadable linked page is recorded as dangling and skipped.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    resolver, root_id = _open_root(root, delay)
    try:
        root_text = resolver.fetch(root_id)
    except PageReadError as exc:
        raise CorpusError(f"root page unreadable: {exc}") from exc

    corpus = Corpus(root=root_id, pages={}, resolver=resolver)
    try:
        corpus.pages[root_id] = RawPage(root_id, root_text, 0)
        corpus.document(root_id)
    except EmptyDocumentError as exc:
        raise CorpusError(f"root page has no markup: {exc}") from exc

    queue = deque([root_id])
    known = {root_id}
    dangling: set[PageId] = set()
    while queue:
        page_id = queue.popleft()
        page = corpus.pages[page_id]
        if page.depth >= max_depth:
            continue
        try:
            links = corpus.links(page_id)
        except EmptyDocumentError:
            continue
        for link in links:
            target = link.target
            if target in known or target in dangling:
                continue
            try:
                text = resolver.fetch(target)
            except PageReadError as exc:
                logger.warning("dangling link: %s", exc)
                dangling.add(target)
                continue
            raw = RawPage(target, text, page.depth + 1)
            try:
                corpus.pages[target] = raw
                corpus.document(target)
            except EmptyDocumentError:
                logger.warning("excluded (no markup): %s", target)
                del corpus.pages[target]
                corpus.excluded.append(target)
                known.add(target)
                continue
            known.add(target)
            queue.append(target)

    corpus.dangling = sorted(dangling)
    return corpus
