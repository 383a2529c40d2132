"""Mirror loading and internal-link extraction.

A corpus is either a directory tree of saved pages (filesystem mode) or
a live site reached over HTTP.  Retrieval is a breadth-first walk of
the internal links starting at the root page.  Every page is fetched
exactly once and parsed and link-scanned once into a ``Page``: its
repaired page, its internal link targets and its referrer,
the page whose link made the crawl fetch it (the first page, in load
order, that links to it; None for the root).  The referrer is the one
record of which page owns which: ``navmodel`` grows the navigational
tree from it.  Later pipeline stages read those records and never touch
the source again.  The crawl fetches up to ``FETCH_BATCH`` of the pages
it has found back to back, then parses them in the order it found them:
the parser and, over HTTP, the server each run warm through a batch,
while the pages, the requests and the warnings come in the order that
fetching and parsing one page at a time gives.
The pages of a site repeat their templates' attribute values and
boilerplate text, so the pages of one load share one copy of each
(``normalize.to_xhtml``'s ``strings``), and each distinct tag text is
tokenized once per load (its ``tags``); both dicts are dropped when the
load returns.

A resolver serves one load, and the links of a site's templates repeat:
a load of the seed-101 benchmark catalog resolves 1,827 links with 641
distinct (directory, href) keys.  So each resolver remembers the target
of each href per directory the href resolves against: in filesystem
mode the base page's directory, its query dropped; over HTTP the
scheme, host and directory of the URL the base page's redirects ended
at.  Every page of that directory resolves an href with a non-empty
path alike.  An href with an empty path (``?q``, ``#f``, ``""``, a bare
``?``) names the base page itself, and is resolved every time.  The
memo also spares a repeated link the ``stat`` calls of its
directory-index check.

Internal means: the resolved path stays under the mirror root and the
file's real location, symlinks followed, does too (filesystem mode), or
host and port match the root URL (HTTP mode; http and https on that
host are both the site, and a default port counts as no port).  An HTTP
page id is its URL with scheme and host lowercased, a default port
dropped and an empty path written ``/``.  Over HTTP, urllib follows a
page's redirects on the site and refuses one to another host before
requesting it; any final status outside 2xx leaves the page dangling,
and a redirected page's links are resolved against the URL it was found
at.
Links are the values of ``a/@href``, ``area/@href`` (image maps),
``form/@action`` and ``frame|iframe/@src`` that the parser recorded in
``Document.hrefs``, in document order; fragments are stripped, query
strings kept, ``mailto:``/``javascript:``/external targets dropped.
Tabs and newlines inside an href are dropped first, and C0 controls and
whitespace at either end trimmed, in both modes, as a URL parser does,
and an href that is a bare ``?`` names the page without its query
(RFC 3986 §5.2.2), as file mode has it.
In filesystem mode only an href's path, up to its first ``?``, is
joined to the page's path (without the page's own query) and checked,
as ``urljoin`` does over HTTP; an href without a path names the page
itself, and a non-empty query is appended to the result.
Page bytes are read as UTF-8, a byte order mark dropped, or else as
Latin-1 (``normalize.decode_markup``).  In filesystem mode a link to a
directory of the mirror (``sub/``, ``sub``, or the root itself: ``/``,
``./``, ``..`` from ``items/x.html``) stands for its ``index.html`` (or
``index.htm``), as an HTTP server answers; a directory without one is
dangling.  An href that cannot be parsed as a URL is unresolvable.
"""

from __future__ import annotations

import functools
import itertools
import logging
import os
import posixpath
import stat
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote, unquote, urljoin, urlsplit, urlunsplit

from .normalize import Document, EmptyDocumentError, decode_markup, to_xhtml

logger = logging.getLogger(__name__)

PageId = str


class CorpusError(RuntimeError):
    """The corpus cannot be loaded at all (unreadable or unusable root)."""


class PageReadError(RuntimeError):
    """A single linked page could not be fetched."""


@dataclass(frozen=True)
class Page:
    depth: int  # link hops from the root page
    document: Document
    links: tuple[PageId, ...]  # internal link targets, as ``extract_links`` gives them
    referrer: PageId | None  # the page whose link made the crawl load it; None: the root


_SKIP_PREFIXES = ("mailto:", "javascript:", "tel:", "data:")

# ASCII tab, LF and CR, which a URL parser removes from anywhere in a URL
# (WHATWG URL; ``urlsplit`` too)
_URL_NOISE = str.maketrans("", "", "\t\n\r")

# what an href loses at both ends: the C0 controls and space, which the
# WHATWG URL parser trims, and the other characters ``str.strip`` trims
_HREF_TRIM = ("".join(map(chr, range(0x21))) + "\x85\xa0\u1680"
              + "".join(map(chr, range(0x2000, 0x200B))) + "\u2028\u2029\u202f\u205f\u3000")


def _clean_href(href: str) -> str:
    """``href`` as a URL parser reads it: without tabs and newlines
    anywhere, and without C0 controls or whitespace at either end."""
    if "\t" in href or "\n" in href or "\r" in href:
        href = href.translate(_URL_NOISE)
    return href.strip(_HREF_TRIM)


# a resolver memo's answer for an href it has not resolved yet
_UNSEEN = object()


def _directory_index(path) -> str | None:
    """The index page name inside directory ``path``, None when ``path``
    is not a directory or holds no index page."""
    if os.path.isdir(path):
        for name in ("index.html", "index.htm"):
            if os.path.isfile(os.path.join(path, name)):
                return name
    return None


class FileResolver:
    """Locators inside a directory-tree mirror, as root-relative paths."""

    def __init__(self, root_dir: Path):
        self.root_dir = Path(root_dir).resolve()
        self._prefix = os.path.join(self.root_dir, "")
        self._real_dir = functools.lru_cache(maxsize=None)(os.path.realpath)
        # base page's directory -> href -> target, for hrefs with a path
        self._memo: dict[str, dict[str, PageId | None]] = {}

    def resolve(self, base: PageId, href: str) -> PageId | None:
        base = base.partition("?")[0]
        memo = self._memo.setdefault(base[:base.rfind("/") + 1], {})
        target = memo.get(href, _UNSEEN)
        if target is not _UNSEEN:
            return target
        clean = _clean_href(href.split("#", 1)[0])
        if not clean or clean.lower().startswith(_SKIP_PREFIXES):
            return None
        # only the path is joined and checked; the query is kept as written
        path, _, query = clean.partition("?")
        target = self._locate(base, path, query)
        if path:  # one without names the base page itself
            memo[href] = target
        return target

    def _locate(self, base: PageId, path: str, query: str) -> PageId | None:
        """The page an href of ``path`` and ``query`` names from page ``base``."""
        if "://" in path or path.startswith("//"):
            return None  # absolute URLs point outside the mirror
        path = unquote(path)
        if path.startswith("/"):
            candidate = path.lstrip("/")
        else:  # an empty path is the base page itself
            candidate = posixpath.join(posixpath.dirname(base), path) if path else base
        candidate = posixpath.normpath(candidate)  # never "": the mirror root is "."
        if candidate == ".." or candidate.startswith("../"):
            return None  # escapes the mirror; "..data.html" is a plain name
        # a directory (the root too) stands for its index page, as on an
        # HTTP server; "." gives "index.html"
        index = _directory_index(self._prefix + candidate)
        if index is not None:
            candidate = posixpath.normpath(posixpath.join(candidate, index))
        return candidate + "?" + unquote(query) if query else candidate

    def fetch(self, page_id: PageId) -> str:
        path = os.path.join(self.root_dir, page_id)
        directory, name = os.path.split(path)
        try:
            # the real location, symlinks followed: one realpath per
            # directory, and per file only when the file is a symlink
            real = os.path.join(self._real_dir(directory), name)
            if stat.S_ISLNK(os.lstat(real).st_mode):
                real = os.path.realpath(real)
            if not real.startswith(self._prefix):
                raise PageReadError(f"{page_id}: symlinked outside the mirror")
            with open(path, "rb", buffering=0) as handle:  # one readall, no buffer
                return decode_markup(handle.read())
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
            raise PageReadError(f"{page_id}: {exc}") from exc


# a fetch follows at most this many redirects; a loop ends sooner, at the
# stdlib handler's ``max_repeats`` visits of one URL
DEFAULT_REDIRECT_LIMIT = 30

# the port a scheme's URLs name when they name none
_DEFAULT_PORTS = {"http": ":80", "https": ":443"}


def _authority(scheme: str, netloc: str) -> str:
    """``netloc`` of an http(s) URL as page ids and the same-site test
    write it (RFC 3986 §6.2.3): lowercased, without an empty port or
    ``scheme``'s default."""
    return netloc.lower().removesuffix(_DEFAULT_PORTS[scheme]).removesuffix(":")


# what a path or a query may carry unencoded besides the unreserved
# characters (RFC 3986); a split-off path holds no "?" to misread
_URL_SAFE = "/?!$&'()*+,;=:@"


def _request_url(page_id: PageId) -> str:
    """The URL a page id is requested at: its path and query
    percent-encoded again, undoing the ``unquote`` of
    ``HttpResolver.normalize``, so ``a%41.html`` stays ``a%41.html``."""
    parts = urlsplit(page_id)
    return urlunsplit((parts.scheme, parts.netloc, quote(parts.path, _URL_SAFE),
                       quote(parts.query, _URL_SAFE), ""))


def _opener(netloc: str):
    """A urllib opener that follows redirects on ``netloc`` alone: one
    leaving it is refused before its target is requested.  Proxies come
    from the ``*_proxy`` environment variables, certificates are checked
    against the system store or ``SSL_CERT_FILE``."""
    import urllib.request  # HTTP mode alone loads the client
    from urllib.error import HTTPError

    class SameSiteRedirects(urllib.request.HTTPRedirectHandler):
        max_redirections = DEFAULT_REDIRECT_LIMIT

        def redirect_request(self, req, fp, code, msg, headers, newurl):
            parts = urlsplit(newurl)
            if (parts.scheme not in ("http", "https")
                    or _authority(parts.scheme, parts.netloc) != netloc):
                raise HTTPError(newurl, code, f"redirected off the site to {newurl}",
                                headers, fp)
            return super().redirect_request(req, fp, code, msg, headers, newurl)

    return urllib.request.build_opener(SameSiteRedirects)


class HttpResolver:
    """Locators on one authority, fetched with GET and a polite delay."""

    def __init__(self, root_url: str, delay: float):
        parts = urlsplit(root_url)
        self.netloc = _authority(parts.scheme.lower(), parts.netloc)
        self.delay = delay
        self._fetched_once = False
        self._opener = _opener(self.netloc)
        self._final_url: dict[PageId, str] = {}  # page -> where its redirects ended
        # (scheme, host, directory) of a base page's final URL -> href ->
        # target, for hrefs with a path
        self._memo: dict[tuple[str, str, str], dict[str, PageId | None]] = {}

    def normalize(self, url: str) -> PageId:
        parts = urlsplit(url)
        scheme = parts.scheme.lower()
        return unquote(urlunsplit((scheme, _authority(scheme, parts.netloc),
                                   parts.path or "/", parts.query, "")))

    def resolve(self, base: PageId, href: str) -> PageId | None:
        # a redirected page's links are relative to where it was found
        base = self._final_url.get(base, base)
        try:
            scheme, netloc, path = urlsplit(base)[:3]
            memo = self._memo.setdefault((scheme, netloc, path[:path.rfind("/") + 1]), {})
            target = memo.get(href, _UNSEEN)
            if target is not _UNSEEN:
                return target
            clean = _clean_href(href)
            if not clean or clean.startswith("#") or clean.lower().startswith(_SKIP_PREFIXES):
                return None
            absolute = urljoin(base, clean)
            if clean.partition("#")[0] == "?":  # an empty query replaces the base's
                absolute = absolute.partition("?")[0]  # (RFC 3986 §5.2.2)
            parts = urlsplit(absolute)
            remembered = urlsplit(clean).path != ""  # an empty one names the base page
        except ValueError:  # unparsable, such as an unclosed "[" in the host
            return None
        scheme = parts.scheme.lower()
        if scheme not in ("http", "https") or _authority(scheme, parts.netloc) != self.netloc:
            target = None
        else:
            target = self.normalize(absolute)
        if remembered:
            memo[href] = target
        return target

    def fetch(self, page_id: PageId) -> str:
        from http.client import HTTPException  # IncompleteRead, BadStatusLine, ...
        from urllib.error import HTTPError

        if self._fetched_once and self.delay > 0:
            time.sleep(self.delay)
        self._fetched_once = True
        url = _request_url(page_id)
        try:
            with self._opener.open(url, timeout=30) as response:
                body = response.read()
        except HTTPError as exc:  # any status outside 2xx once redirects are followed
            exc.close()
            raise PageReadError(f"{page_id}: {exc}") from exc
        except (OSError, HTTPException, ValueError) as exc:  # OSError: URLError, timeouts
            raise PageReadError(f"{page_id}: {exc}") from exc
        if response.url != url:
            self._final_url[page_id] = response.url
        return decode_markup(body)


def extract_links(doc: Document, base: PageId, resolver) -> list[PageId]:
    """Internal link targets of one page, in document order, without
    duplicates (first occurrence wins)."""
    links: list[PageId] = []
    seen: set[PageId] = set()
    for value in doc.hrefs:
        target = resolver.resolve(base, value)
        if target is not None and target not in seen:
            seen.add(target)
            links.append(target)
        elif target is None and value.strip():
            logger.debug("unresolvable reference %r on %s", value, base)
    return links


@dataclass
class Corpus:
    root: PageId
    pages: dict[PageId, Page]
    dangling: list[PageId] = field(default_factory=list)  # sorted, each target once
    excluded: list[PageId] = field(default_factory=list)  # fetched but markup-free
    memo: dict = field(default_factory=dict)  # navmodel.token_seq: (method, Document.shape)


def _open_root(root, delay: float):
    """Work out the mode, the resolver and the root page id."""
    if isinstance(root, str) and root.lower().startswith(("http://", "https://")):
        resolver = HttpResolver(root, delay=delay)
        return resolver, resolver.normalize(root)
    path = Path(root)
    if path.is_dir():
        index = _directory_index(path)
        if index is None:
            raise CorpusError(f"{root}: no index.html in mirror directory")
        return FileResolver(path), index
    if path.is_file():
        return FileResolver(path.parent), path.name
    raise CorpusError(f"{root}: no such file or directory")


# the most pages a load fetches before it parses them.  Fetching pages
# back to back and then parsing them keeps the parser's caches warm from
# one parse to the next and, over HTTP, the server's from one request to
# the next.  Seed-101 benchmark mirrors, whole loads, this process's CPU
# plus the server's, one pinned core, medians of 30 alternating rounds:
# the 614-page catalog takes 108.1 ms a page at a time and 98.9-102.4 ms
# in batches of 16, 32, 64, 256 or the whole frontier, the 126 pages over
# HTTP 94.2 ms and 84.7-87.1 ms; 64 was fastest on both, and it bounds
# the raw text a load holds at once.
FETCH_BATCH = 64


def load_corpus(root, max_depth: int, delay: float) -> Corpus:
    """Breadth-first retrieval of the mirror reachable from ``root``.

    The root page plus every page within ``max_depth`` internal link
    hops, each fetched, parsed and link-scanned exactly once.  An
    unreadable or markup-free root is fatal; an unreadable linked page
    is recorded as dangling and a markup-free one as excluded, and
    neither becomes a ``Page``.  Pages are fetched ``FETCH_BATCH`` at a
    time and parsed in the order the crawl found them.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    resolver, root_id = _open_root(root, delay)
    strings: dict = {}  # the pages' attribute values and text runs, shared
    tags: dict = {}  # what each distinct tag text parses to
    corpus = Corpus(root=root_id, pages={})

    def add(page_id: PageId, text: str, depth: int, referrer: PageId | None) -> None:
        # raises EmptyDocumentError
        document = to_xhtml(text, strings, tags)
        links = tuple(extract_links(document, page_id, resolver))
        corpus.pages[page_id] = Page(depth, document, links, referrer)

    try:
        add(root_id, resolver.fetch(root_id), 0, None)
    except PageReadError as exc:
        raise CorpusError(f"root page unreadable: {exc}") from exc
    except EmptyDocumentError as exc:
        raise CorpusError(f"root page has no markup: {exc}") from exc

    queue = deque([root_id])  # loaded pages whose links are not yet followed
    known = {root_id}  # found: to be fetched, loaded, excluded or dangling
    dangling: set[PageId] = set()

    def discover():
        """(target, depth, referrer) of each link of the queued pages to
        a page not yet known, in load order; ends when the queue does."""
        while queue:
            page_id = queue.popleft()
            page = corpus.pages[page_id]
            if page.depth < max_depth:
                for target in page.links:
                    if target not in known:
                        known.add(target)
                        yield target, page.depth + 1, page_id

    def fetch(target: PageId) -> tuple[str | None, str | None]:
        """The target's text and None, or None and why it is unreadable."""
        try:
            return resolver.fetch(target), None
        except PageReadError as exc:
            # the message alone: a kept record holding the exception
            # would keep its traceback, this frame and the whole load
            return None, str(exc)

    targets = discover()
    while batch := list(itertools.islice(targets, FETCH_BATCH)):
        if len(batch) < FETCH_BATCH:  # the queue ran dry: what this batch loads comes next
            targets = discover()
        fetched = deque(fetch(target) for target, _, _ in batch)  # popped as parsed
        for target, depth, referrer in batch:
            text, error = fetched.popleft()
            if error is not None:
                logger.warning("dangling link: %s", error)
                dangling.add(target)
                continue
            try:
                add(target, text, depth, referrer)
            except EmptyDocumentError:
                logger.warning("excluded (no markup): %s", target)
                corpus.excluded.append(target)
            else:
                queue.append(target)

    corpus.dangling = sorted(dangling)
    return corpus
